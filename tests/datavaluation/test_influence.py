import numpy as np
import pytest

from xaidb.datavaluation import InfluenceFunctions, LeafRefitInfluence
from xaidb.exceptions import ValidationError
from xaidb.models import (
    GradientBoostedClassifier,
    GradientBoostedRegressor,
    LinearRegression,
    LogisticRegression,
)

from ..models.rowwise_oracle import apply_row


@pytest.fixture(scope="module")
def logistic_setup(income):
    model = LogisticRegression(l2=1e-2).fit(income.dataset.X, income.dataset.y)
    return model, income.dataset.X, income.dataset.y


class TestSinglePointInfluence:
    def test_correlates_with_retraining(self, logistic_setup):
        """Koh & Liang Fig. 2: predicted vs actual parameter change."""
        model, X, y = logistic_setup
        influence = InfluenceFunctions(model, X, y)
        predicted = np.asarray(
            [influence.parameter_influence(i) for i in range(20)]
        )
        actual = np.asarray(
            [influence.actual_parameter_change([i]) for i in range(20)]
        )
        corr = np.corrcoef(predicted.ravel(), actual.ravel())[0, 1]
        assert corr > 0.99

    def test_linear_regression_supported(self, regression_data):
        X, y, __ = regression_data
        model = LinearRegression(l2=1e-3).fit(X, y)
        influence = InfluenceFunctions(model, X, y)
        predicted = influence.parameter_influence(0)
        actual = influence.actual_parameter_change([0])
        assert np.allclose(predicted, actual, atol=5e-3)

    def test_prediction_influence_sign(self, logistic_setup):
        """Removing a positive-label point must (weakly) lower predictions
        near it for a smooth model — check against retraining."""
        model, X, y = logistic_setup
        influence = InfluenceFunctions(model, X, y)
        for i in (0, 5):
            predicted_delta = influence.prediction_influence(i, X[i : i + 1])[0]
            keep = np.setdiff1d(np.arange(len(y)), [i])
            retrained = LogisticRegression(l2=1e-2).fit(X[keep], y[keep])
            actual_delta = float(
                retrained.predict_proba(X[i : i + 1])[0, 1]
                - model.predict_proba(X[i : i + 1])[0, 1]
            )
            assert np.sign(predicted_delta) == np.sign(actual_delta) or (
                abs(actual_delta) < 1e-4
            )

    def test_cg_solver_matches_exact(self, logistic_setup):
        model, X, y = logistic_setup
        exact = InfluenceFunctions(model, X, y, solver="exact")
        cg = InfluenceFunctions(model, X, y, solver="cg")
        assert np.allclose(
            exact.parameter_influence(3), cg.parameter_influence(3), atol=1e-5
        )

    def test_self_influence_nonnegative(self, logistic_setup):
        model, X, y = logistic_setup
        influence = InfluenceFunctions(model, X, y)
        assert np.all(influence.self_influence() >= -1e-10)

    def test_loss_influence_finite(self, logistic_setup):
        model, X, y = logistic_setup
        influence = InfluenceFunctions(model, X, y)
        assert np.isfinite(influence.loss_influence(0, X[:10], y[:10]))

    def test_rejects_unsupported_model(self, income, income_gbm):
        with pytest.raises(ValidationError):
            InfluenceFunctions(income_gbm, income.dataset.X, income.dataset.y)

    def test_index_out_of_range(self, logistic_setup):
        model, X, y = logistic_setup
        influence = InfluenceFunctions(model, X, y)
        with pytest.raises(ValidationError):
            influence.parameter_influence(len(y))


class TestGroupInfluence:
    def test_second_order_beats_first_on_coherent_group(self, income):
        """Basu et al.: for a large correlated group, the curvature-aware
        estimate is closer to the retraining truth than the additive
        first-order sum."""
        X, y = income.dataset.X, income.dataset.y
        model = LogisticRegression(l2=1e-2).fit(X, y)
        influence = InfluenceFunctions(model, X, y)
        # a coherent group: all high-education positives
        education = X[:, 1]
        group = np.flatnonzero((education > 0.8) & (y == 1.0))[:60]
        first = influence.group_parameter_influence(group, order="first")
        second = influence.group_parameter_influence(group, order="second")
        actual = influence.actual_parameter_change(group)
        error_first = np.linalg.norm(first - actual)
        error_second = np.linalg.norm(second - actual)
        assert error_second <= error_first

    def test_group_of_one_matches_single(self, logistic_setup):
        model, X, y = logistic_setup
        influence = InfluenceFunctions(model, X, y)
        single = influence.parameter_influence(4)
        group = influence.group_parameter_influence([4], order="first")
        assert np.allclose(single, group)

    def test_rejects_empty_and_full_groups(self, logistic_setup):
        model, X, y = logistic_setup
        influence = InfluenceFunctions(model, X, y)
        with pytest.raises(ValidationError):
            influence.group_parameter_influence([])
        with pytest.raises(ValidationError):
            influence.group_parameter_influence(range(len(y)))

    def test_invalid_order(self, logistic_setup):
        model, X, y = logistic_setup
        influence = InfluenceFunctions(model, X, y)
        with pytest.raises(ValidationError):
            influence.group_parameter_influence([0, 1], order="third")


class TestLeafRefitInfluence:
    @pytest.fixture(scope="class")
    def gbr_setup(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(150, 3))
        y = X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.1 * rng.normal(size=150)
        model = GradientBoostedRegressor(
            n_estimators=10, max_depth=2, random_state=0
        ).fit(X, y)
        return model, X, y

    def test_single_tree_leafrefit_is_exact(self):
        """For a 1-stage squared-loss GBM the leaf value is the mean
        residual; LeafRefit's delta must equal recomputing the mean with
        the point left out — exactly."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 2))
        y = X[:, 0] + 0.1 * rng.normal(size=80)
        model = GradientBoostedRegressor(
            n_estimators=1, learning_rate=1.0, max_depth=2, random_state=0
        ).fit(X, y)
        influence = LeafRefitInfluence(model, X, y)
        tree = model.trees_[0].tree_
        point = 3
        leaf = int(apply_row(tree, X[point]))
        leaves_all = tree.apply(X)
        in_leaf = np.flatnonzero(leaves_all == leaf)
        residuals = y - model.init_score_
        with_point = residuals[in_leaf].mean()
        without = residuals[np.setdiff1d(in_leaf, [point])].mean()
        expected_delta = without - with_point
        predicted = influence.prediction_influence(point, X[point : point + 1])
        assert predicted[0] == pytest.approx(expected_delta, abs=1e-10)

    def test_removing_positive_residual_point_lowers_its_leaves(self, gbr_setup):
        """Directional property of the Newton leaf estimate: dropping a
        point whose residual exceeds its leaf's value must lower that
        leaf."""
        model, X, y = gbr_setup
        influence = LeafRefitInfluence(model, X, y)
        extreme = int(np.argmax(y - y.mean()))  # largest positive target
        changes = influence.leaf_value_changes(extreme)
        for tree, leaf_changes, stats in zip(
            model.trees_, changes, influence._tree_stats
        ):
            for leaf, delta in leaf_changes.items():
                residual, __ = stats["contributions"][extreme]
                if residual > tree.tree_.value[leaf, 0]:
                    assert delta <= 1e-9

    def test_zero_influence_outside_touched_leaves(self, gbr_setup):
        model, X, y = gbr_setup
        influence = LeafRefitInfluence(model, X, y)
        changes = influence.leaf_value_changes(0)
        test_point = X[50:51]
        deltas = influence.prediction_influence(0, test_point)
        touched_any = any(
            tree.tree_.apply(test_point)[0] in change
            for tree, change in zip(model.trees_, changes)
            if change
        )
        if not touched_any:
            assert deltas[0] == 0.0

    def test_classifier_variant_runs(self, income):
        model = GradientBoostedClassifier(
            n_estimators=8, max_depth=2, random_state=0
        ).fit(income.dataset.X[:100], income.dataset.y[:100])
        influence = LeafRefitInfluence(
            model, income.dataset.X[:100], income.dataset.y[:100]
        )
        deltas = influence.prediction_influence(0, income.dataset.X[:5])
        assert deltas.shape == (5,)
        assert np.all(np.isfinite(deltas))

    def test_ranking_covers_all_points(self, gbr_setup):
        model, X, y = gbr_setup
        influence = LeafRefitInfluence(model, X, y)
        ranking = influence.influence_ranking(X[:10])
        assert sorted(ranking.tolist()) == list(range(len(y)))

    def test_rejects_non_gbm(self, logistic_setup):
        model, X, y = logistic_setup
        with pytest.raises(ValidationError):
            LeafRefitInfluence(model, X, y)

    def test_index_out_of_range(self, gbr_setup):
        model, X, y = gbr_setup
        influence = LeafRefitInfluence(model, X, y)
        with pytest.raises(ValidationError):
            influence.leaf_value_changes(len(y))
