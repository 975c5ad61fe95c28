import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xaidb
from xaidb.causal import AdditiveNoiseMechanism, CausalGraph, StructuralCausalModel
from xaidb.exceptions import ValidationError
from xaidb.explainers import predict_positive_proba
from xaidb.explainers.shapley import (
    AsymmetricShapleyExplainer,
    CausalShapleyExplainer,
    QIIExplainer,
    ShapleyFlowExplainer,
)


@pytest.fixture(scope="module")
def chain_scm():
    """A -> B with B = A + small noise; the model is f(a, b) = b."""
    graph = CausalGraph(["A", "B"], [("A", "B")])
    scm = StructuralCausalModel(
        graph,
        {
            "A": AdditiveNoiseMechanism(lambda p: 0.0, noise_scale=1.0),
            "B": AdditiveNoiseMechanism(lambda p: p["A"], noise_scale=0.1),
        },
    )
    return scm


@pytest.fixture(scope="module")
def independent_scm():
    graph = CausalGraph(["A", "B"], [])
    return StructuralCausalModel(
        graph,
        {
            "A": AdditiveNoiseMechanism(lambda p: 0.0, noise_scale=1.0),
            "B": AdditiveNoiseMechanism(lambda p: 0.0, noise_scale=1.0),
        },
    )


def model_b_only(X):
    return X[:, 1]


class TestQII:
    def test_unary_qii_of_dummy_is_zero(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        qii = QIIExplainer(f, income.dataset.X[:50])

        def ignore_all(X):
            return np.full(X.shape[0], 0.7)

        qii_const = QIIExplainer(ignore_all, income.dataset.X[:50])
        assert qii_const.unary_qii(income.dataset.X[0], 0) == pytest.approx(0.0)

    def test_xor_marginal_influence_vanishes_given_randomised_partner(self):
        """XOR: randomising x1 on top of an already-randomised x0 changes
        nothing — the expectation is 1/2 either way — while x1's *unary*
        influence is large.  This is exactly the set/marginal distinction
        QII introduces."""
        # exactly balanced background so expectations are exact
        background = np.asarray(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 25
        )

        def xor(X):
            return np.logical_xor(X[:, 0] > 0.5, X[:, 1] > 0.5).astype(float)

        qii = QIIExplainer(xor, background)
        x = np.asarray([1.0, 0.0])
        unary = abs(qii.unary_qii(x, 1))
        marginal_given_partner = abs(qii.marginal_qii(x, 1, given=[0]))
        assert unary == pytest.approx(0.5)
        assert marginal_given_partner == pytest.approx(0.0)

    def test_marginal_qii(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        qii = QIIExplainer(f, income.dataset.X[:30])
        x = income.dataset.X[0]
        marginal = qii.marginal_qii(x, 0, given=[1])
        assert np.isfinite(marginal)
        with pytest.raises(ValidationError):
            qii.marginal_qii(x, 0, given=[0])

    def test_shapley_qii_efficiency(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        qii = QIIExplainer(
            f, income.dataset.X[:20], feature_names=income.dataset.feature_names
        )
        att = qii.shapley_qii(
            income.dataset.X[0], n_permutations=100, random_state=0
        )
        assert att.values.sum() == pytest.approx(
            att.prediction - att.base_value, abs=1e-8
        )

    def test_empty_feature_set_rejected(self, income, income_logistic):
        f = predict_positive_proba(income_logistic)
        qii = QIIExplainer(f, income.dataset.X[:20])
        with pytest.raises(ValidationError):
            qii.set_qii(income.dataset.X[0], [])


class TestCausalShapley:
    def test_chain_splits_credit(self, chain_scm):
        explainer = CausalShapleyExplainer(
            model_b_only, chain_scm, ["A", "B"], n_samples=3000
        )
        att = explainer.explain(np.asarray([2.0, 2.0]), random_state=0)
        # v(∅)=0, v(A)=2 (B responds), v(B)=2, v(AB)=2 -> phi = (1, 1)
        assert np.allclose(att.values, [1.0, 1.0], atol=0.1)

    def test_direct_indirect_decomposition(self, chain_scm):
        explainer = CausalShapleyExplainer(
            model_b_only, chain_scm, ["A", "B"], n_samples=3000
        )
        att = explainer.explain(np.asarray([2.0, 2.0]), random_state=0)
        direct = np.asarray(att.metadata["direct"])
        indirect = np.asarray(att.metadata["indirect"])
        # A has no direct edge into the model's only used feature B
        assert direct[0] == pytest.approx(0.0, abs=0.1)
        assert indirect[0] == pytest.approx(1.0, abs=0.1)
        # B's effect is all direct
        assert indirect[1] == pytest.approx(0.0, abs=0.1)
        assert np.allclose(direct + indirect, att.values, atol=1e-9)

    def test_independent_graph_recovers_marginal_shapley(self, independent_scm):
        def f(X):
            return X[:, 0] + 2 * X[:, 1]

        explainer = CausalShapleyExplainer(
            f, independent_scm, ["A", "B"], n_samples=4000
        )
        att = explainer.explain(np.asarray([1.0, 1.0]), random_state=1)
        # with independent features, do(X_S)=conditioning, so additive f
        # gives phi = (1, 2) exactly up to MC noise
        assert np.allclose(att.values, [1.0, 2.0], atol=0.15)

    def test_rejects_unknown_node(self, chain_scm):
        with pytest.raises(ValidationError):
            CausalShapleyExplainer(model_b_only, chain_scm, ["A", "Z"])

    def test_rejects_too_many_features(self, chain_scm):
        with pytest.raises(ValidationError):
            CausalShapleyExplainer(
                model_b_only, chain_scm, ["A"] * 13, n_samples=10
            )


class TestAsymmetricShapley:
    def test_chain_gives_all_credit_to_root(self, chain_scm):
        explainer = AsymmetricShapleyExplainer(
            model_b_only, chain_scm, ["A", "B"], n_samples=3000
        )
        att = explainer.explain(np.asarray([2.0, 2.0]), random_state=0)
        # only valid ordering is (A, B): A enters first and do(A=2)
        # already moves E[B] to 2, so A soaks up all the credit
        assert att.values[0] == pytest.approx(2.0, abs=0.15)
        assert att.values[1] == pytest.approx(0.0, abs=0.15)

    def test_independent_graph_equals_symmetric(self, independent_scm):
        def f(X):
            return X[:, 0] + 2 * X[:, 1]

        asymmetric = AsymmetricShapleyExplainer(
            f, independent_scm, ["A", "B"], n_samples=4000
        ).explain(np.asarray([1.0, 1.0]), random_state=2)
        assert np.allclose(asymmetric.values, [1.0, 2.0], atol=0.15)

    def test_ordering_count_metadata(self, independent_scm):
        def f(X):
            return X[:, 0]

        att = AsymmetricShapleyExplainer(
            f, independent_scm, ["A", "B"], n_samples=100
        ).explain(np.asarray([0.0, 0.0]), random_state=3)
        assert att.metadata["n_orderings"] == 2  # both orders valid

    def test_truncated_orderings_do_not_depend_on_hash_seed(self):
        """With ``max_orderings`` cutting the enumeration short, the
        orderings averaged (and the order they are summed in) come from the
        feature subgraph's node order, which must not follow ``set``
        iteration of ``str`` nodes."""
        script = (
            "import numpy as np\n"
            "from xaidb.causal import (AdditiveNoiseMechanism, CausalGraph,\n"
            "                          StructuralCausalModel)\n"
            "from xaidb.explainers.shapley import AsymmetricShapleyExplainer\n"
            "nodes = ['a', 'b', 'c', 'd', 'e']\n"
            "graph = CausalGraph(nodes, [('a', 'c')])\n"
            "mech = {n: AdditiveNoiseMechanism(lambda p: 0.0) for n in nodes}\n"
            "mech['c'] = AdditiveNoiseMechanism(lambda p: p['a'])\n"
            "scm = StructuralCausalModel(graph, mech)\n"
            "def f(X):\n"
            "    return X[:, 0] * X[:, 1] + X[:, 2] ** 2 + 3 * X[:, 3] * X[:, 4]\n"
            "att = AsymmetricShapleyExplainer(\n"
            "    f, scm, nodes, n_samples=50, max_orderings=3\n"
            ").explain(np.asarray([1.0, -2.0, 0.5, 2.0, 1.5]), random_state=0)\n"
            "assert att.metadata['n_orderings'] == 3\n"
            "print(' '.join(float(v).hex() for v in att.values))\n"
        )
        src = str(Path(xaidb.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs


class TestShapleyFlow:
    def test_chain_credits_flow_through_edges(self, chain_scm):
        explainer = ShapleyFlowExplainer(
            model_b_only, chain_scm, ["A", "B"], n_orderings=40
        )
        credits = explainer.explain(
            {"A": 2.0, "B": 2.0}, {"A": 0.0, "B": 0.0}, random_state=0
        )
        assert credits[("A", "B")] == pytest.approx(2.0, abs=1e-9)
        assert credits[("B", "__output__")] == pytest.approx(2.0, abs=1e-9)
        assert credits[("A", "__output__")] == pytest.approx(0.0, abs=1e-9)

    def test_efficiency_into_sink(self, chain_scm):
        explainer = ShapleyFlowExplainer(
            model_b_only, chain_scm, ["A", "B"], n_orderings=25
        )
        foreground = {"A": 1.5, "B": 2.5}
        background = {"A": -0.5, "B": 0.0}
        credits = explainer.explain(foreground, background, random_state=1)
        into_sink = sum(
            value for (s, t), value in credits.items() if t == "__output__"
        )
        delta_f = foreground["B"] - background["B"]
        assert into_sink == pytest.approx(delta_f, abs=1e-9)

    def test_flow_conservation_at_internal_nodes(self):
        """In a chain A -> B -> C with f = C, inflow(B) == outflow(B)."""
        graph = CausalGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])
        scm = StructuralCausalModel(
            graph,
            {
                "A": AdditiveNoiseMechanism(lambda p: 0.0, noise_scale=1.0),
                "B": AdditiveNoiseMechanism(lambda p: p["A"], noise_scale=0.1),
                "C": AdditiveNoiseMechanism(lambda p: p["B"], noise_scale=0.1),
            },
        )
        explainer = ShapleyFlowExplainer(
            lambda X: X[:, 2], scm, ["A", "B", "C"], n_orderings=30
        )
        credits = explainer.explain(
            {"A": 1.0, "B": 1.2, "C": 1.5}, {"A": 0.0, "B": 0.0, "C": 0.0},
            random_state=2,
        )
        inflow_b = credits[("A", "B")]
        outflow_b = credits[("B", "C")] + credits[("B", "__output__")]
        assert inflow_b == pytest.approx(outflow_b, abs=1e-9)

    def test_array_input_accepted(self, chain_scm):
        explainer = ShapleyFlowExplainer(
            model_b_only, chain_scm, ["A", "B"], n_orderings=10
        )
        credits = explainer.explain(
            np.asarray([1.0, 1.0]), np.asarray([0.0, 0.0]), random_state=3
        )
        assert set(credits) == {
            ("A", "B"),
            ("A", "__output__"),
            ("B", "__output__"),
        }

    def test_missing_node_in_point(self, chain_scm):
        explainer = ShapleyFlowExplainer(
            model_b_only, chain_scm, ["A", "B"], n_orderings=5
        )
        with pytest.raises(ValidationError):
            explainer.explain({"A": 1.0}, {"A": 0.0, "B": 0.0})
