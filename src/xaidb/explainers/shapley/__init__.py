"""Shapley-value explanation methods (tutorial §2.1.2-§2.1.3).

The common abstraction is a *cooperative game* over feature indices; the
estimators differ in how they traverse coalitions:

- :mod:`exact` — full enumeration (the ground truth everything else is
  validated against);
- :mod:`sampling` — permutation-sampling Monte Carlo;
- :mod:`kernel` — KernelSHAP's weighted-least-squares regression;
- :mod:`tree` — TreeSHAP's polynomial-time explainer for tree ensembles,
  plus the interventional (background-set) variant;
- :mod:`tree_shap_kernels` — the vectorized TreeSHAP kernels behind
  :meth:`TreeShapExplainer.explain` and ``explain_batch`` (leaf lanes:
  one computation per distinct leaf hot pattern, bitwise identical to
  the per-row recursion the tests keep as the oracle);
- :mod:`qii` — Quantitative Input Influence set-based measures;
- :mod:`causal` — asymmetric and causal Shapley values on an SCM;
- :mod:`flow` — Shapley flow's edge-based credit assignment.
"""

from xaidb.explainers.shapley.banzhaf import (
    banzhaf_values,
    banzhaf_values_sampled,
)
from xaidb.explainers.shapley.causal import (
    AsymmetricShapleyExplainer,
    CausalShapleyExplainer,
)
from xaidb.explainers.shapley.exact import (
    ExactShapleyExplainer,
    exact_shapley_values,
)
from xaidb.explainers.shapley.flow import ShapleyFlowExplainer
from xaidb.explainers.shapley.global_summary import (
    global_shap_importance,
    shap_matrix,
    shap_summary,
    supervised_clustering,
)
from xaidb.explainers.shapley.games import Game, MarginalImputationGame
from xaidb.explainers.shapley.kernel import KernelShapExplainer
from xaidb.explainers.shapley.qii import QIIExplainer
from xaidb.explainers.shapley.sampling import (
    PermutationShapleyExplainer,
    permutation_shapley_values,
)
from xaidb.explainers.shapley.tree import (
    TreeShapExplainer,
    tree_expected_value,
)
from xaidb.explainers.shapley.tree_shap_kernels import (
    ensemble_interventional_shap,
    ensemble_path_dependent_shap,
)

__all__ = [
    "Game",
    "MarginalImputationGame",
    "exact_shapley_values",
    "ExactShapleyExplainer",
    "permutation_shapley_values",
    "PermutationShapleyExplainer",
    "KernelShapExplainer",
    "TreeShapExplainer",
    "tree_expected_value",
    "ensemble_path_dependent_shap",
    "ensemble_interventional_shap",
    "QIIExplainer",
    "AsymmetricShapleyExplainer",
    "CausalShapleyExplainer",
    "ShapleyFlowExplainer",
    "shap_matrix",
    "global_shap_importance",
    "shap_summary",
    "supervised_clustering",
    "banzhaf_values",
    "banzhaf_values_sampled",
]
