import numpy as np
import pytest

from xaidb.exceptions import ValidationError
from xaidb.explainers import predict_positive_proba
from xaidb.rules import AnchorsExplainer
from xaidb.rules import anchors as anchors_module
from xaidb.rules.anchors import kl_bernoulli, kl_lower_bound, kl_upper_bound


class TestKlBounds:
    def test_kl_zero_at_equal(self):
        assert kl_bernoulli(0.3, 0.3) == pytest.approx(0.0, abs=1e-10)

    def test_kl_positive_elsewhere(self):
        assert kl_bernoulli(0.3, 0.7) > 0

    def test_bounds_bracket_mean(self):
        mean, n, beta = 0.8, 50, 2.0
        lower = kl_lower_bound(mean, n, beta)
        upper = kl_upper_bound(mean, n, beta)
        assert lower <= mean <= upper

    def test_bounds_tighten_with_samples(self):
        beta = 2.0
        wide = kl_upper_bound(0.8, 10, beta) - kl_lower_bound(0.8, 10, beta)
        narrow = kl_upper_bound(0.8, 1000, beta) - kl_lower_bound(0.8, 1000, beta)
        assert narrow < wide

    def test_zero_samples_vacuous(self):
        assert kl_upper_bound(0.5, 0, 1.0) == 1.0
        assert kl_lower_bound(0.5, 0, 1.0) == 0.0


class TestAnchorsExplainer:
    @pytest.fixture(scope="class")
    def explainer(self, income, income_forest):
        return AnchorsExplainer(
            predict_positive_proba(income_forest),
            income.dataset,
            precision_threshold=0.9,
            max_anchor_size=4,
        )

    def test_anchor_precision_meets_threshold(self, explainer, income, income_forest):
        anchor = explainer.explain(income.dataset.X[7], random_state=0)
        assert anchor.precision >= 0.85  # allow small estimation slack

    def test_anchor_precision_holds_on_fresh_samples(self, explainer, income, income_forest):
        """The found rule must generalise: fresh perturbations satisfying
        the anchor agree with the anchored prediction at ~ the reported
        precision."""
        x = income.dataset.X[7]
        anchor = explainer.explain(x, random_state=0)
        f = predict_positive_proba(income_forest)
        decision = float(f(x[None, :])[0]) >= 0.5
        rng = np.random.default_rng(123)
        samples = explainer._sample_under(
            tuple(anchor.feature_indices), x, 2000, rng
        )
        agreement = float(np.mean((f(samples) >= 0.5) == decision))
        assert agreement >= anchor.precision - 0.1

    def test_anchor_short(self, explainer, income):
        anchor = explainer.explain(income.dataset.X[3], random_state=1)
        assert len(anchor.predicates) <= 4

    def test_coverage_measured_on_data(self, explainer, income):
        anchor = explainer.explain(income.dataset.X[3], random_state=2)
        mask = explainer._satisfies(
            income.dataset.X, tuple(anchor.feature_indices), income.dataset.X[3]
        )
        assert anchor.coverage == pytest.approx(float(mask.mean()))
        assert mask[3]  # the instance satisfies its own anchor

    def test_fixed_selection_mode_runs(self, income, income_forest):
        explainer = AnchorsExplainer(
            predict_positive_proba(income_forest),
            income.dataset,
            precision_threshold=0.85,
            candidate_selection="fixed",
            max_anchor_size=3,
        )
        anchor = explainer.explain(income.dataset.X[5], random_state=3)
        assert anchor.precision > 0.5

    def test_invalid_selection_mode(self, income, income_forest):
        with pytest.raises(ValidationError):
            AnchorsExplainer(
                predict_positive_proba(income_forest),
                income.dataset,
                candidate_selection="thompson",
            )

    def test_trivially_constant_model_gets_perfect_anchor(self, income):
        constant = lambda X: np.full(X.shape[0], 0.9)
        explainer = AnchorsExplainer(
            constant, income.dataset, precision_threshold=0.95, max_anchor_size=2
        )
        anchor = explainer.explain(income.dataset.X[0], random_state=4)
        assert anchor.precision >= 0.95

    def test_predicate_text_mentions_feature_names(self, explainer, income):
        anchor = explainer.explain(income.dataset.X[9], random_state=5)
        names = set(income.dataset.feature_names)
        for predicate in anchor.predicates:
            assert any(name in predicate for name in names)


class _UnmemoizedBounds:
    """Recomputes every bound: the search before the per-search table."""

    def __init__(self, beta):
        self.beta = beta

    def lower(self, hits, n):
        return kl_lower_bound(hits / n if n else 0.0, n, self.beta)

    def upper(self, hits, n):
        return kl_upper_bound(hits / n if n else 0.0, n, self.beta)


@pytest.mark.parametrize("selection", ["kl_lucb", "fixed"])
def test_bound_table_does_not_change_anchors(
    income, income_forest, monkeypatch, selection
):
    """Memoising the KL bounds by ``(hits, n)`` leaves every anchor —
    predicates, precision, coverage, samples used — as the search that
    recomputes each bound finds it."""
    explainer = AnchorsExplainer(
        predict_positive_proba(income_forest),
        income.dataset,
        batch_size=32,
        max_samples_per_candidate=300,
        max_anchor_size=3,
        candidate_selection=selection,
    )
    instances = income.dataset.X[:4]
    seeds = [0, 1, 2, 3, 4]

    def search():
        return [
            explainer.explain(x, random_state=seed)
            for x in instances
            for seed in seeds
        ]

    memoized = search()
    monkeypatch.setattr(anchors_module, "_BoundTable", _UnmemoizedBounds)
    reference = search()
    for got, want in zip(memoized, reference):
        assert got.predicates == want.predicates
        assert got.feature_indices == want.feature_indices
        assert got.precision == want.precision
        assert got.coverage == want.coverage
        assert got.n_samples_used == want.n_samples_used
