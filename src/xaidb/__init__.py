"""xaidb — an explainable-AI toolkit with a data-management lens.

This package reproduces the system landscape of the SIGMOD/ICDE 2022
tutorial *"Explainable AI: Foundations, Applications, Opportunities for
Data Management Research"* (Pradhan, Lahiri, Galhotra, Salimi).  It
implements, from scratch on top of numpy/scipy:

- ``xaidb.models`` — the ML substrate (linear/logistic regression, CART
  trees, random forests, gradient boosting, k-NN, naive Bayes, a small MLP);
- ``xaidb.data`` — tabular datasets, synthetic workload generators with
  ground-truth structural causal models, and perturbation samplers;
- ``xaidb.causal`` — causal graphs and structural causal models with
  interventions and counterfactual inference;
- ``xaidb.explainers`` — feature-based explanations: LIME, surrogates,
  exact/sampled/Kernel/Tree SHAP, QII, asymmetric & causal Shapley values,
  Shapley flow, counterfactual explanations (DiCE-style, GeCo-style,
  LEWIS-style) and algorithmic recourse;
- ``xaidb.rules`` — rule-based explanations: Anchors, interpretable
  decision sets, Apriori/FP-Growth, logic-based sufficient reasons;
- ``xaidb.datavaluation`` — training-data-based explanations: leave-one-out,
  Data Shapley, KNN-Shapley, distributional Shapley, influence functions
  (first- and second-order), GBDT influence;
- ``xaidb.db`` — a mini relational engine with why-provenance, Shapley
  values of tuples in query answering, responsibility-based query
  explanations and complaint-driven training-data debugging;
- ``xaidb.pipelines`` — provenance-tracked ML pipelines and stage-level
  error attribution;
- ``xaidb.incremental`` — provenance-based incremental model updates
  (PrIU-style) and low-latency machine unlearning (HedgeCut-style);
- ``xaidb.attacks`` — adversarial scaffolding attacks on post-hoc
  explainers;
- ``xaidb.evaluation`` — faithfulness, fidelity, stability, robustness and
  sanity-check metrics for explanations;
- ``xaidb.runtime`` — the shared evaluation substrate: batch-aware
  coalition/value memoisation, bounded-memory chunked evaluation and an
  opt-in deterministic process-pool map, with per-explanation evaluation
  accounting (see ``docs/RUNTIME.md``).
"""

from xaidb._version import __version__
from xaidb.exceptions import (
    ConvergenceError,
    InfeasibleError,
    NotFittedError,
    ProvenanceError,
    SchemaError,
    ValidationError,
    XaidbError,
)

__all__ = [
    "__version__",
    "XaidbError",
    "ValidationError",
    "NotFittedError",
    "ConvergenceError",
    "InfeasibleError",
    "SchemaError",
    "ProvenanceError",
]
