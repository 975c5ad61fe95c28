from itertools import combinations

import numpy as np
import pytest

from xaidb.exceptions import ValidationError
from xaidb.explainers.shapley import (
    TreeShapExplainer,
    tree_expected_value,
)
from xaidb.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostedClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)
from xaidb.utils.combinatorics import shapley_subset_weight

from ...models.rowwise_oracle import apply_row
from .tree_oracle import interventional_tree_shap


def brute_force_path_dependent(tree, leaf_values, x, d):
    """Exact Shapley over the EXPVALUE conditional-expectation game."""
    phi = np.zeros(d)
    for i in range(d):
        others = [p for p in range(d) if p != i]
        for size in range(d):
            weight = shapley_subset_weight(size, d)
            for subset in combinations(others, size):
                gain = tree_expected_value(
                    tree, leaf_values, x, subset + (i,)
                ) - tree_expected_value(tree, leaf_values, x, subset)
                phi[i] += weight * gain
    return phi


@pytest.fixture(scope="module")
def fitted_tree(regression_data):
    X, y, __ = regression_data
    return DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, y), X


class TestPathDependentTreeShap:
    def test_matches_brute_force(self, fitted_tree):
        model, X = fitted_tree
        explainer = TreeShapExplainer(model)
        leaf_values = model.tree_.value[:, 0]
        for row in range(5):
            fast = explainer.explain(X[row]).values
            slow = brute_force_path_dependent(
                model.tree_, leaf_values, X[row], X.shape[1]
            )
            assert np.allclose(fast, slow, atol=1e-10)

    def test_local_accuracy(self, fitted_tree):
        model, X = fitted_tree
        explainer = TreeShapExplainer(model)
        att = explainer.explain(X[7])
        assert att.additive_check(atol=1e-10)

    def test_base_value_is_cover_weighted_mean(self, fitted_tree, regression_data):
        model, X = fitted_tree
        __, y, __ = regression_data
        explainer = TreeShapExplainer(model)
        # cover-weighted mean of leaves == training-set mean prediction
        assert explainer.expected_value() == pytest.approx(
            float(model.predict(X).mean()), abs=1e-8
        )

    def test_unused_feature_gets_zero(self):
        X = np.column_stack([np.linspace(0, 1, 50), np.zeros(50)])
        y = (X[:, 0] > 0.5).astype(float) * 2.0
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        att = TreeShapExplainer(model).explain(np.asarray([0.8, 0.0]))
        assert att.values[1] == pytest.approx(0.0)


class TestTreeShapOnEnsembles:
    def test_classifier_tree_probability_output(self, income):
        model = DecisionTreeClassifier(max_depth=4).fit(
            income.dataset.X, income.dataset.y
        )
        explainer = TreeShapExplainer(
            model, feature_names=income.dataset.feature_names
        )
        att = explainer.explain(income.dataset.X[0])
        assert att.additive_check(atol=1e-10)
        assert att.prediction == pytest.approx(
            float(model.predict_proba(income.dataset.X[:1])[0, 1])
        )

    def test_random_forest_additivity(self, income, income_forest):
        explainer = TreeShapExplainer(income_forest)
        att = explainer.explain(income.dataset.X[3])
        assert att.prediction == pytest.approx(
            float(income_forest.predict_proba(income.dataset.X[3:4])[0, 1]),
            abs=1e-10,
        )
        assert att.additive_check(atol=1e-8)

    def test_forest_regressor(self, regression_data):
        X, y, __ = regression_data
        model = RandomForestRegressor(n_estimators=5, max_depth=3, random_state=0).fit(X, y)
        att = TreeShapExplainer(model).explain(X[0])
        assert att.prediction == pytest.approx(float(model.predict(X[:1])[0]))
        assert att.additive_check(atol=1e-8)

    def test_gbm_margin_additivity(self, income, income_gbm):
        explainer = TreeShapExplainer(income_gbm)
        att = explainer.explain(income.dataset.X[11])
        margin = float(income_gbm.decision_function(income.dataset.X[11:12])[0])
        assert att.prediction == pytest.approx(margin, abs=1e-10)
        assert att.additive_check(atol=1e-8)
        assert att.metadata["output"] == "margin"

    def test_unsupported_model(self, income_logistic):
        with pytest.raises(ValidationError):
            TreeShapExplainer(income_logistic)


class TestInterventionalTreeShap:
    def test_efficiency_per_background(self, fitted_tree):
        model, X = fitted_tree
        leaf_values = model.tree_.value[:, 0]
        x = X[0]
        background = X[10:15]
        phi = interventional_tree_shap(model.tree_, leaf_values, x, background)
        f_x = leaf_values[apply_row(model.tree_, x)]
        f_bg = np.mean([leaf_values[apply_row(model.tree_, z)] for z in background])
        assert phi.sum() == pytest.approx(f_x - f_bg, abs=1e-10)

    def test_matches_exact_marginal_game(self, fitted_tree):
        """Interventional TreeSHAP must equal exact Shapley on the
        marginal-imputation game with the same background."""
        from xaidb.explainers.shapley import ExactShapleyExplainer

        model, X = fitted_tree
        background = X[20:28]
        x = X[1]
        fast = TreeShapExplainer(model).explain_interventional(x, background)
        exact = ExactShapleyExplainer(
            lambda Z: model.predict(Z), background
        ).explain(x)
        assert np.allclose(fast.values, exact.values, atol=1e-8)

    def test_same_leaf_background_gives_zero(self, fitted_tree):
        model, X = fitted_tree
        x = X[0]
        att = TreeShapExplainer(model).explain_interventional(x, x[None, :])
        assert np.allclose(att.values, 0.0)


class TestExpvalue:
    def test_full_coalition_is_prediction(self, fitted_tree):
        model, X = fitted_tree
        leaf_values = model.tree_.value[:, 0]
        x = X[3]
        value = tree_expected_value(
            model.tree_, leaf_values, x, range(X.shape[1])
        )
        assert value == pytest.approx(float(model.predict(x[None, :])[0]))

    def test_empty_coalition_is_weighted_mean(self, fitted_tree):
        model, X = fitted_tree
        tree = model.tree_
        leaf_values = tree.value[:, 0]
        value = tree_expected_value(tree, leaf_values, X[0], ())
        leaves = tree.leaves()
        expected = np.average(
            leaf_values[leaves], weights=tree.n_node_samples[leaves]
        )
        assert value == pytest.approx(expected)
