import numpy as np
import pytest

from xaidb.exceptions import ValidationError
from xaidb.explainers import FeatureAttribution, as_predict_fn, predict_positive_proba


class TestFeatureAttribution:
    def test_as_dict(self):
        att = FeatureAttribution(["a", "b"], np.asarray([1.0, -2.0]))
        assert att.as_dict() == {"a": 1.0, "b": -2.0}

    def test_ranked_by_absolute_value(self):
        att = FeatureAttribution(["a", "b", "c"], np.asarray([1.0, -3.0, 2.0]))
        assert [name for name, __ in att.ranked()] == ["b", "c", "a"]

    def test_top_k(self):
        att = FeatureAttribution(["a", "b", "c"], np.asarray([1.0, -3.0, 2.0]))
        assert att.top(1) == [("b", -3.0)]
        with pytest.raises(ValidationError):
            att.top(0)

    def test_additive_check(self):
        att = FeatureAttribution(
            ["a", "b"], np.asarray([0.2, 0.3]), base_value=0.5, prediction=1.0
        )
        assert att.additive_check()
        att_bad = FeatureAttribution(
            ["a", "b"], np.asarray([0.2, 0.3]), base_value=0.5, prediction=2.0
        )
        assert not att_bad.additive_check()

    def test_additive_check_requires_prediction(self):
        att = FeatureAttribution(["a"], np.asarray([1.0]))
        with pytest.raises(ValidationError):
            att.additive_check()

    def test_name_value_length_mismatch(self):
        with pytest.raises(ValidationError):
            FeatureAttribution(["a"], np.asarray([1.0, 2.0]))

    def test_stable_ranking_on_ties(self):
        att = FeatureAttribution(["a", "b"], np.asarray([1.0, 1.0]))
        assert [name for name, __ in att.ranked()] == ["a", "b"]


class TestPredictFnAdapters:
    def test_probability_adapter(self, income_logistic, income):
        f = as_predict_fn(income_logistic, output="probability", class_index=1)
        out = f(income.dataset.X[:5])
        assert out.shape == (5,)
        assert np.all((out >= 0) & (out <= 1))

    def test_class_index_zero(self, income_logistic, income):
        f0 = as_predict_fn(income_logistic, output="probability", class_index=0)
        f1 = as_predict_fn(income_logistic, output="probability", class_index=1)
        X = income.dataset.X[:5]
        assert np.allclose(f0(X) + f1(X), 1.0)

    def test_margin_adapter(self, income_logistic, income):
        f = as_predict_fn(income_logistic, output="margin")
        out = f(income.dataset.X[:5])
        assert out.shape == (5,)

    def test_value_adapter(self, income_logistic, income):
        f = as_predict_fn(income_logistic, output="value")
        assert set(np.unique(f(income.dataset.X[:20]))) <= {0.0, 1.0}

    def test_missing_method_raises(self):
        class Bare:
            def predict(self, X):
                return np.zeros(len(X))

        with pytest.raises(ValidationError):
            as_predict_fn(Bare(), output="probability")
        with pytest.raises(ValidationError):
            as_predict_fn(Bare(), output="margin")

    def test_unknown_output(self, income_logistic):
        with pytest.raises(ValidationError):
            as_predict_fn(income_logistic, output="logits")

    def test_positive_proba_shorthand(self, income_logistic, income):
        f = predict_positive_proba(income_logistic)
        g = as_predict_fn(income_logistic, output="probability", class_index=1)
        X = income.dataset.X[:3]
        assert np.allclose(f(X), g(X))


class TestFanOut:
    def test_rows_match_the_constructor(self):
        values = np.asarray([[1.0, -2.0], [0.5, 0.0], [3.0, 4.0]])
        results = FeatureAttribution.fan_out(
            ["a", "b"],
            values,
            base_values=np.asarray([0.1, 0.2, 0.3]),
            predictions=np.asarray([1.0, 2.0, 3.0]),
            metadata={"method": "m"},
        )
        for i, result in enumerate(results):
            want = FeatureAttribution(
                ["a", "b"],
                values[i],
                base_value=[0.1, 0.2, 0.3][i],
                prediction=[1.0, 2.0, 3.0][i],
                metadata={"method": "m"},
            )
            assert type(result) is FeatureAttribution
            assert result.values.tobytes() == want.values.tobytes()
            assert result.feature_names == want.feature_names
            assert result.base_value == want.base_value
            assert type(result.base_value) is float
            assert result.prediction == want.prediction
            assert type(result.prediction) is float
            assert result.metadata == want.metadata

    def test_subclass_and_shared_base_value(self):
        class Sub(FeatureAttribution):
            pass

        (result,) = Sub.fan_out(
            ["a"], np.ones((1, 1)), base_values=0.5, predictions=[2.0],
            metadata=[{"k": 1}],
        )
        assert type(result) is Sub
        assert result.base_value == 0.5

    def test_nan_raises_what_the_constructor_raises(self):
        values = np.asarray([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(ValidationError) as per_row:
            FeatureAttribution(["a", "b"], values[1])
        with pytest.raises(ValidationError) as block:
            FeatureAttribution.fan_out(
                ["a", "b"], values, base_values=0.0, predictions=[0.0, 0.0],
                metadata={},
            )
        assert str(block.value) == str(per_row.value)

    def test_width_mismatch_raises_what_the_constructor_raises(self):
        values = np.ones((2, 3))
        with pytest.raises(ValidationError) as per_row:
            FeatureAttribution(["a", "b"], values[0])
        with pytest.raises(ValidationError) as block:
            FeatureAttribution.fan_out(
                ["a", "b"], values, base_values=0.0, predictions=[0.0, 0.0],
                metadata={},
            )
        assert str(block.value) == str(per_row.value)

    def test_results_share_no_mutable_list_or_dict(self):
        names = ["a", "b"]
        shared = {"method": "m"}
        results = FeatureAttribution.fan_out(
            names, np.ones((3, 2)), base_values=0.0,
            predictions=[0.0, 0.0, 0.0], metadata=shared,
        )
        lists = [r.feature_names for r in results] + [names]
        dicts = [r.metadata for r in results] + [shared]
        assert len({id(x) for x in lists}) == len(lists)
        assert len({id(x) for x in dicts}) == len(dicts)
        results[0].metadata["extra"] = 1
        results[0].feature_names.append("c")
        assert "extra" not in results[1].metadata and "extra" not in shared
        assert results[1].feature_names == ["a", "b"] == names
