import numpy as np
import pytest

from xaidb.data import ConditionalSampler, LimeTabularSampler
from xaidb.exceptions import ValidationError


class TestLimeTabularSampler:
    def test_first_row_is_instance(self, income):
        sampler = LimeTabularSampler(income.dataset)
        x = income.dataset.X[0]
        perturbed, binary = sampler.sample(x, 50, random_state=0)
        assert np.array_equal(perturbed[0], x)
        assert np.all(binary[0] == 1.0)

    def test_shapes(self, income):
        sampler = LimeTabularSampler(income.dataset)
        perturbed, binary = sampler.sample(income.dataset.X[0], 64, random_state=0)
        assert perturbed.shape == (64, income.dataset.n_features)
        assert binary.shape == perturbed.shape
        assert set(np.unique(binary)) <= {0.0, 1.0}

    def test_categorical_perturbations_stay_in_domain(self, income):
        sampler = LimeTabularSampler(income.dataset)
        col = income.dataset.feature_index("gender")
        perturbed, __ = sampler.sample(income.dataset.X[0], 200, random_state=1)
        observed = set(np.unique(income.dataset.X[:, col]))
        assert set(np.unique(perturbed[:, col])) <= observed

    def test_binary_matches_categorical_equality(self, income):
        sampler = LimeTabularSampler(income.dataset)
        col = income.dataset.feature_index("gender")
        x = income.dataset.X[0]
        perturbed, binary = sampler.sample(x, 100, random_state=2)
        assert np.array_equal(
            binary[:, col], (perturbed[:, col] == x[col]).astype(float)
        )

    def test_deterministic_with_seed(self, income):
        sampler = LimeTabularSampler(income.dataset)
        a, __ = sampler.sample(income.dataset.X[0], 30, random_state=3)
        b, __ = sampler.sample(income.dataset.X[0], 30, random_state=3)
        assert np.array_equal(a, b)

    def test_rejects_tiny_sample(self, income):
        sampler = LimeTabularSampler(income.dataset)
        with pytest.raises(ValidationError):
            sampler.sample(income.dataset.X[0], 1)

    def test_rejects_wrong_width(self, income):
        sampler = LimeTabularSampler(income.dataset)
        with pytest.raises(ValidationError):
            sampler.sample(np.zeros(2), 10)

    def test_distances_nonnegative_and_zero_for_instance(self, income):
        sampler = LimeTabularSampler(income.dataset)
        x = income.dataset.X[0]
        perturbed, __ = sampler.sample(x, 30, random_state=4)
        d = sampler.standardised_distances(x, perturbed)
        assert d[0] == pytest.approx(0.0)
        assert np.all(d >= 0)


    def test_block_rows_are_the_single_instance_draws(self, income):
        """Block ``b`` draws exactly what ``sample`` draws for that
        instance and seed, whatever else the block holds."""
        sampler = LimeTabularSampler(income.dataset)
        X = income.dataset.X[:5]
        seeds = [3, None, 3, np.random.default_rng(9), 11]
        replay = [3, None, 3, np.random.default_rng(9), 11]
        perturbed, binary = sampler.sample_block(X, 40, seeds)
        assert perturbed.shape == binary.shape == (5, 40, X.shape[1])
        for b in (0, 2, 3, 4):
            want_x, want_z = sampler.sample(X[b], 40, random_state=replay[b])
            assert perturbed[b].tobytes() == want_x.tobytes()
            assert binary[b].tobytes() == want_z.tobytes()
            assert perturbed[b].flags["C_CONTIGUOUS"]

    def test_block_rejects_a_wrong_width_or_seed_count(self, income):
        sampler = LimeTabularSampler(income.dataset)
        with pytest.raises(ValidationError, match="features"):
            sampler.sample_block(income.dataset.X[:2, :3], 10, [0, 1])
        with pytest.raises(ValidationError, match="random states"):
            sampler.sample_block(income.dataset.X[:2], 10, [0])


class TestConditionalSampler:
    def test_fixed_columns_pinned(self, income):
        sampler = ConditionalSampler(income.dataset)
        x = income.dataset.X[0]
        out = sampler.sample(x, [0, 2], 50, random_state=0)
        assert np.all(out[:, 0] == x[0])
        assert np.all(out[:, 2] == x[2])

    def test_unfixed_columns_vary(self, income):
        sampler = ConditionalSampler(income.dataset)
        x = income.dataset.X[0]
        out = sampler.sample(x, [0], 100, random_state=1)
        assert len(np.unique(out[:, 1])) > 1

    def test_samples_come_from_training_rows(self, income):
        sampler = ConditionalSampler(income.dataset)
        out = sampler.sample(income.dataset.X[0], [], 20, random_state=2)
        train_set = {tuple(row) for row in income.dataset.X}
        assert all(tuple(row) in train_set for row in out)

    def test_rejects_bad_columns(self, income):
        sampler = ConditionalSampler(income.dataset)
        with pytest.raises(ValidationError):
            sampler.sample(income.dataset.X[0], [99], 10)
