import numpy as np
import pytest

from xaidb.db import banzhaf_of_tuples_boolean
from xaidb.exceptions import ValidationError
from xaidb.explainers import (
    MMDCritic,
    prototype_classifier_accuracy,
)
from xaidb.explainers.prototypes import rbf_kernel_matrix
from xaidb.explainers.shapley import (
    banzhaf_values,
    banzhaf_values_sampled,
    exact_shapley_values,
)
from xaidb.explainers.shapley.games import FunctionGame


class TestRbfKernel:
    def test_diagonal_is_one(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        kernel = rbf_kernel_matrix(X)
        assert np.allclose(np.diag(kernel), 1.0)

    def test_symmetric_and_bounded(self):
        X = np.random.default_rng(1).normal(size=(10, 2))
        kernel = rbf_kernel_matrix(X)
        assert np.allclose(kernel, kernel.T)
        assert np.all((kernel >= 0) & (kernel <= 1))

    def test_gamma_controls_decay(self):
        X = np.asarray([[0.0], [1.0]])
        tight = rbf_kernel_matrix(X, gamma=10.0)[0, 1]
        loose = rbf_kernel_matrix(X, gamma=0.1)[0, 1]
        assert tight < loose


class TestMMDCritic:
    @pytest.fixture(scope="class")
    def clustered_data(self):
        rng = np.random.default_rng(0)
        cluster_a = rng.normal(0.0, 0.3, size=(60, 2))
        cluster_b = rng.normal(5.0, 0.3, size=(60, 2))
        outlier = np.asarray([[2.5, 10.0]])
        X = np.vstack([cluster_a, cluster_b, outlier])
        labels = np.concatenate([np.zeros(60), np.ones(60), [0.0]])
        return X, labels

    def test_prototypes_cover_both_clusters(self, clustered_data):
        X, __ = clustered_data
        explanation = MMDCritic(n_prototypes=4, n_criticisms=1).fit(X)
        chosen = X[explanation.prototype_indices]
        near_a = np.any(np.linalg.norm(chosen - [0, 0], axis=1) < 1.5)
        near_b = np.any(np.linalg.norm(chosen - [5, 5], axis=1) < 1.5)
        assert near_a and near_b

    def test_mmd_improves_over_single_prototype(self, clustered_data):
        """Forced additions need not decrease MMD^2 step by step, but the
        final set must represent the data far better than one point."""
        X, __ = clustered_data
        explanation = MMDCritic(n_prototypes=6, n_criticisms=0).fit(X)
        trace = explanation.mmd_trace
        assert trace[-1] < 0.5 * trace[0]

    def test_greedy_step_is_locally_optimal(self, clustered_data):
        """The second prototype must be the candidate that minimises
        MMD^2 given the first — recomputed here by brute force."""
        from xaidb.explainers.prototypes import rbf_kernel_matrix

        X, __ = clustered_data
        explanation = MMDCritic(n_prototypes=2, n_criticisms=0).fit(X)
        first, second = explanation.prototype_indices
        kernel = rbf_kernel_matrix(X)
        column_means = kernel.mean(axis=1)
        grand = kernel.mean()

        def mmd2(trial):
            m = len(trial)
            return (
                grand
                - 2.0 * column_means[trial].sum() / m
                + kernel[np.ix_(trial, trial)].sum() / (m * m)
            )

        best = min(
            (mmd2([first, c]) for c in range(len(X)) if c != first)
        )
        assert mmd2([first, second]) == pytest.approx(best, abs=1e-12)

    def test_outlier_selected_as_criticism(self, clustered_data):
        X, __ = clustered_data
        explanation = MMDCritic(n_prototypes=6, n_criticisms=2).fit(X)
        outlier_index = len(X) - 1
        assert outlier_index in explanation.criticism_indices

    def test_criticisms_disjoint_from_prototypes(self, clustered_data):
        X, __ = clustered_data
        explanation = MMDCritic(n_prototypes=5, n_criticisms=3).fit(X)
        assert not (
            set(explanation.prototype_indices)
            & set(explanation.criticism_indices)
        )

    def test_prototype_classifier_competitive(self, clustered_data):
        """MMD-critic's quantitative check: 1-NN over a handful of
        prototypes matches 1-NN over all data on separable clusters."""
        X, labels = clustered_data
        explanation = MMDCritic(n_prototypes=6, n_criticisms=0).fit(X)
        acc = prototype_classifier_accuracy(
            X, labels, explanation.prototype_indices, X[:120], labels[:120]
        )
        assert acc > 0.95

    def test_per_class_covers_every_class(self, clustered_data):
        X, labels = clustered_data
        explanation = MMDCritic(n_prototypes=6, n_criticisms=0).fit_per_class(
            X, labels
        )
        prototype_labels = labels[explanation.prototype_indices]
        assert set(np.unique(prototype_labels)) == set(np.unique(labels))

    def test_per_class_beats_label_agnostic_on_1nn(self, clustered_data):
        X, labels = clustered_data
        agnostic = MMDCritic(n_prototypes=2, n_criticisms=0).fit(X)
        per_class = MMDCritic(n_prototypes=2, n_criticisms=0).fit_per_class(
            X, labels
        )
        acc_agnostic = prototype_classifier_accuracy(
            X, labels, agnostic.prototype_indices, X, labels
        )
        acc_per_class = prototype_classifier_accuracy(
            X, labels, per_class.prototype_indices, X, labels
        )
        assert acc_per_class >= acc_agnostic

    def test_budget_validation(self, clustered_data):
        X, __ = clustered_data
        with pytest.raises(ValidationError):
            MMDCritic(n_prototypes=200, n_criticisms=0).fit(X[:10])
        with pytest.raises(ValidationError):
            MMDCritic(n_prototypes=0)

    def test_empty_prototype_accuracy_rejected(self, clustered_data):
        X, labels = clustered_data
        with pytest.raises(ValidationError):
            prototype_classifier_accuracy(X, labels, [], X, labels)


def glove_game():
    return FunctionGame(
        3, lambda s: 1.0 if 0 in s and (1 in s or 2 in s) else 0.0
    )


class TestBanzhaf:
    def test_glove_game_known_values(self):
        """Banzhaf of the glove game: player 0 swings in {1},{2},{1,2} ->
        3/4; players 1,2 swing only in {0} -> 1/4."""
        beta = banzhaf_values(glove_game())
        assert np.allclose(beta, [0.75, 0.25, 0.25])

    def test_additive_game_matches_shapley(self):
        """For additive games both indices equal the weights."""
        weights = np.asarray([2.0, -1.0, 0.5])
        game = FunctionGame(3, lambda s: sum(weights[i] for i in s))
        assert np.allclose(banzhaf_values(game), weights)
        assert np.allclose(exact_shapley_values(game), weights)

    def test_banzhaf_violates_efficiency_where_shapley_does_not(self):
        game = glove_game()
        beta = banzhaf_values(game)
        phi = exact_shapley_values(game)
        assert phi.sum() == pytest.approx(1.0)
        assert beta.sum() != pytest.approx(1.0)  # 1.25 for this game

    def test_dummy_player_zero(self):
        game = FunctionGame(3, lambda s: 1.0 if 0 in s else 0.0)
        beta = banzhaf_values(game)
        assert beta[1] == pytest.approx(0.0)
        assert beta[2] == pytest.approx(0.0)

    def test_sampled_converges(self):
        beta_exact = banzhaf_values(glove_game())
        beta_mc, errors = banzhaf_values_sampled(
            glove_game(), 3000, random_state=0
        )
        assert np.allclose(beta_mc, beta_exact, atol=0.05)
        assert np.all(errors >= 0)

    def test_refuses_large_games(self):
        game = FunctionGame(25, lambda s: float(len(s)))
        with pytest.raises(ValidationError):
            banzhaf_values(game)

    def test_banzhaf_of_tuples(self):
        from xaidb.db import Provenance

        provenance = Provenance([{"d", "e1"}, {"d", "e2"}])
        beta = banzhaf_of_tuples_boolean(provenance, ["d", "e1", "e2"])
        # d swings whenever e1 or e2 present: 3 of 4 coalitions
        assert beta["d"] == pytest.approx(0.75)
        assert beta["e1"] == pytest.approx(0.25)

    def test_tuple_ranking_agrees_with_shapley(self):
        from xaidb.db import Provenance, shapley_of_tuples_boolean

        provenance = Provenance([{"a", "b"}, {"a", "c"}, {"a"}])
        tuples = ["a", "b", "c"]
        beta = banzhaf_of_tuples_boolean(provenance, tuples)
        phi = shapley_of_tuples_boolean(provenance, tuples)
        rank_beta = sorted(tuples, key=lambda t: -beta[t])
        rank_phi = sorted(tuples, key=lambda t: -phi[t])
        assert rank_beta == rank_phi
