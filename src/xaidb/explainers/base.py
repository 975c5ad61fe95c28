"""Common explanation containers and model-adapter helpers.

Model-agnostic explainers in xaidb consume a *prediction function*
``f(X) -> scores`` rather than a model object, so they work on literally
any callable (tutorial dimension (b): model-agnostic).  The adapters here
standardise how models are wrapped into such functions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.utils.validation import check_array, check_matching_lengths

__all__ = [
    "PredictFn",
    "Explainer",
    "as_predict_fn",
    "predict_positive_proba",
    "FeatureAttribution",
]

PredictFn = Callable[[np.ndarray], np.ndarray]


class Explainer(ABC):
    """Abstract interface every xaidb explanation method implements.

    The contract is deliberately thin — one entry point, ``explain`` —
    so that pipelines, benchmarks and evaluation harnesses can treat
    feature-attribution, rule-based and counterfactual methods
    uniformly.  Methods whose historical entry point has a more specific
    name (``generate`` for counterfactual search, ``shapley_qii`` for
    QII) keep that name and alias it from ``explain``.

    Conformance is machine-checked: rule XDB008 of the xailint pass
    (:mod:`xaidb.analysis`) verifies statically that every concrete
    ``*Explainer`` class in this package subclasses this interface and
    implements its abstract surface.
    """

    @abstractmethod
    def explain(self, *args: Any, **kwargs: Any) -> Any:
        """Produce an explanation for one instance (or globally).

        Signatures vary by method family; see the concrete class.
        """


def as_predict_fn(
    model: Any,
    *,
    output: str = "probability",
    class_index: int = 1,
) -> PredictFn:
    """Wrap a fitted model into a scalar-output prediction function.

    Parameters
    ----------
    model:
        Fitted estimator.
    output:
        ``"probability"`` uses ``predict_proba[:, class_index]``;
        ``"margin"`` uses ``decision_function``; ``"value"`` uses
        ``predict`` (regression or hard labels).
    class_index:
        Which class probability to expose for ``"probability"``.
    """
    if output == "probability":
        if not hasattr(model, "predict_proba"):
            raise ValidationError(
                f"{type(model).__name__} has no predict_proba; "
                f"use output='value'"
            )
        return lambda X: np.asarray(model.predict_proba(X))[:, class_index]
    if output == "margin":
        if not hasattr(model, "decision_function"):
            raise ValidationError(
                f"{type(model).__name__} has no decision_function"
            )
        return lambda X: np.asarray(model.decision_function(X))
    if output == "value":
        return lambda X: np.asarray(model.predict(X), dtype=float)
    raise ValidationError(
        f"output must be 'probability', 'margin' or 'value', got {output!r}"
    )


def predict_positive_proba(model: Any) -> PredictFn:
    """Shorthand for the positive-class probability function."""
    return as_predict_fn(model, output="probability", class_index=1)


@dataclass
class FeatureAttribution:
    """A per-feature importance explanation for one instance (or globally).

    Attributes
    ----------
    feature_names:
        Names aligned with ``values``.
    values:
        Signed attribution per feature.
    base_value:
        The explainer's reference output (e.g. the mean prediction for
        Shapley methods, the surrogate intercept for LIME).
    prediction:
        The black-box output being explained, when known.
    metadata:
        Method-specific extras (surrogate R^2, sample counts, ...).
    """

    feature_names: list[str]
    values: np.ndarray
    base_value: float = 0.0
    prediction: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = check_array(self.values, name="values", ndim=1)
        check_matching_lengths(
            ("feature_names", self.feature_names), ("values", self.values)
        )

    @classmethod
    def fan_out(
        cls,
        feature_names: Sequence[str],
        values: np.ndarray,
        *,
        base_values: "float | np.ndarray",
        predictions: np.ndarray,
        metadata: "dict[str, Any] | list[dict[str, Any]]",
    ) -> list["FeatureAttribution"]:
        """One result per row of the ``(n, d)`` block ``values`` — how
        batch explainers build their per-instance results.

        The block is validated once (finite values, width equal to
        ``feature_names``) with the checks and messages the constructor
        would apply to every row, which is where a per-row constructor
        spends its time on large batches.  ``base_values`` is one float
        or one per row; ``metadata`` is one dict per row, or one dict
        every row gets a shallow copy of.  Each result owns its
        ``feature_names`` list and ``metadata`` dict; ``values`` rows
        are views of the block.
        """
        values = check_array(values, name="values", ndim=2)
        check_matching_lengths(
            ("feature_names", feature_names), ("values", values[0])
        )
        n = values.shape[0]
        bases = np.asarray(base_values, dtype=float).tolist()
        if not isinstance(bases, list):
            bases = [bases] * n
        if isinstance(metadata, dict):
            metadata = [dict(metadata) for _ in range(n)]
        results = []
        for row, base, prediction, meta in zip(
            values, bases, np.asarray(predictions, dtype=float).tolist(), metadata
        ):
            # validated above: skip the per-row ``__post_init__``
            result = cls.__new__(cls)
            result.feature_names = list(feature_names)
            result.values = row
            result.base_value = base
            result.prediction = prediction
            result.metadata = meta
            results.append(result)
        return results

    def as_dict(self) -> dict[str, float]:
        """``{feature_name: attribution}`` mapping."""
        return {
            name: float(value)
            for name, value in zip(self.feature_names, self.values)
        }

    def ranked(self) -> list[tuple[str, float]]:
        """Features sorted by decreasing absolute attribution."""
        order = np.argsort(-np.abs(self.values), kind="mergesort")
        return [
            (self.feature_names[i], float(self.values[i])) for i in order
        ]

    def top(self, k: int) -> list[tuple[str, float]]:
        """The ``k`` most important features."""
        if k < 1:
            raise ValidationError("k must be >= 1")
        return self.ranked()[:k]

    def additive_check(self, *, atol: float = 1e-6) -> bool:
        """Whether ``base_value + sum(values)`` reproduces ``prediction``
        (the local-accuracy / efficiency axiom).  Requires ``prediction``."""
        if self.prediction is None:
            raise ValidationError("additive_check requires a prediction")
        return bool(
            np.isclose(
                self.base_value + float(self.values.sum()),
                self.prediction,
                atol=atol,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{n}={v:+.4f}" for n, v in self.top(3))
        return f"FeatureAttribution({parts}, ...)"
