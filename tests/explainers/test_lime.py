import numpy as np
import pytest

from xaidb.exceptions import ValidationError
from xaidb.explainers import LimeExplainer, predict_positive_proba
from xaidb.utils.rng import spawn_seeds


class TestLimeExplainer:
    def test_deterministic_with_seed(self, income, income_logistic):
        lime = LimeExplainer(income.dataset, n_samples=300)
        f = predict_positive_proba(income_logistic)
        a = lime.explain(f, income.dataset.X[0], random_state=0)
        b = lime.explain(f, income.dataset.X[0], random_state=0)
        assert np.allclose(a.values, b.values)

    def test_recovers_important_features_of_linear_model(self, income, income_logistic):
        """On a logistic model, LIME's top features should be the model's
        own largest |coefficient| features (scales are standardised)."""
        lime = LimeExplainer(income.dataset, n_samples=2000)
        f = predict_positive_proba(income_logistic)
        att = lime.explain(f, income.dataset.X[3], random_state=1)
        model_top = set(
            np.asarray(income.dataset.feature_names)[
                np.argsort(-np.abs(income_logistic.coef_))[:3]
            ]
        )
        lime_top = {name for name, __ in att.top(3)}
        assert len(model_top & lime_top) >= 2

    def test_dummy_feature_gets_small_weight(self, income, income_logistic):
        lime = LimeExplainer(income.dataset, n_samples=2000)
        f = predict_positive_proba(income_logistic)
        att = lime.explain(f, income.dataset.X[5], random_state=2)
        values = att.as_dict()
        strongest = max(abs(v) for v in values.values())
        assert abs(values["random_noise"]) < 0.5 * strongest

    def test_score_reported_and_high_for_smooth_model(self, income, income_logistic):
        lime = LimeExplainer(income.dataset, n_samples=1000)
        f = predict_positive_proba(income_logistic)
        att = lime.explain(f, income.dataset.X[0], random_state=3)
        assert 0.0 <= att.metadata["score"] <= 1.0
        assert att.metadata["score"] > 0.2

    def test_feature_selection_limits_nonzero(self, income, income_logistic):
        lime = LimeExplainer(income.dataset, n_samples=500, n_features_to_show=2)
        f = predict_positive_proba(income_logistic)
        att = lime.explain(f, income.dataset.X[0], random_state=4)
        assert int(np.sum(att.values != 0)) <= 2
        assert len(att.metadata["selected_features"]) == 2

    def test_prediction_recorded(self, income, income_logistic):
        lime = LimeExplainer(income.dataset, n_samples=300)
        f = predict_positive_proba(income_logistic)
        x = income.dataset.X[7]
        att = lime.explain(f, x, random_state=5)
        assert att.prediction == pytest.approx(float(f(x[None, :])[0]))

    def test_default_kernel_width(self, income):
        lime = LimeExplainer(income.dataset)
        assert lime.kernel_width == pytest.approx(
            0.75 * np.sqrt(income.dataset.n_features)
        )

    def test_rejects_tiny_sample_budget(self, income):
        with pytest.raises(ValidationError):
            LimeExplainer(income.dataset, n_samples=5)

    def test_rejects_bad_predict_fn(self, income):
        lime = LimeExplainer(income.dataset, n_samples=100)
        with pytest.raises(ValidationError, match="one scalar per row"):
            lime.explain(
                lambda X: np.zeros((len(X), 2)), income.dataset.X[0]
            )

    def test_more_samples_more_stable(self, income, income_logistic):
        """The E2 phenomenon in miniature: across seeds, attributions with
        a large sample budget vary less than with a small one."""
        f = predict_positive_proba(income_logistic)
        x = income.dataset.X[0]

        def spread(n_samples):
            lime = LimeExplainer(income.dataset, n_samples=n_samples)
            runs = np.vstack(
                [lime.explain(f, x, random_state=s).values for s in range(5)]
            )
            return float(runs.std(axis=0).mean())

        assert spread(2000) < spread(100)

    @pytest.mark.parametrize("mode", ["seeds", "random_state"])
    def test_batch_equals_per_row_explain(self, income, income_forest, mode):
        """``explain_batch`` is ``explain`` per row under each row's seed:
        explicit ``seeds=``, or children spawned from ``random_state=``."""
        lime = LimeExplainer(income.dataset, n_samples=120)
        f = predict_positive_proba(income_forest)
        X = income.dataset.X[:5]
        if mode == "seeds":
            seeds = [11, 3, 0, 11, 7]
            batch = lime.explain_batch(f, X, seeds=seeds)
        else:
            seeds = spawn_seeds(4, len(X))
            batch = lime.explain_batch(f, X, random_state=4)
        assert len(batch) == len(X)
        for row, seed, got in zip(X, seeds, batch):
            want = lime.explain(f, row, random_state=seed)
            assert np.array_equal(got.values, want.values)
            assert got.base_value == want.base_value
            assert got.prediction == want.prediction
            assert got.metadata["score"] == want.metadata["score"]
        assert lime.batch_stats_.n_model_evals == len(X) * lime.n_samples
