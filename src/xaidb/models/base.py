"""Model interfaces.

Every xaidb model follows the familiar estimator protocol:

- constructor takes hyperparameters only and stores them verbatim;
- :meth:`fit` learns state into trailing-underscore attributes and returns
  ``self``;
- :meth:`predict` (and :meth:`predict_proba` for classifiers) consume 2-D
  float matrices.

:func:`clone` builds an unfitted copy with identical hyperparameters —
data-valuation methods retrain clones hundreds of times, so this is a
first-class operation rather than an afterthought.
"""

from __future__ import annotations

import copy
import inspect
from abc import ABC, abstractmethod
from typing import Any, TypeVar

import numpy as np

from xaidb.exceptions import ValidationError
from xaidb.utils.validation import check_array, check_matching_lengths

__all__ = ["ModelT", "Model", "clone", "Classifier", "Regressor"]

ModelT = TypeVar("ModelT", bound="Model")


class Model(ABC):
    """Abstract base estimator."""

    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Model":
        """Learn from ``(X, y)`` and return ``self``."""

    @abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for each row of ``X``."""

    # ------------------------------------------------------------------
    def get_params(self) -> dict[str, Any]:
        """Hyperparameters as passed to the constructor.

        Relies on the convention (enforced across xaidb) that ``__init__``
        stores each argument under an attribute of the same name.
        """
        signature = inspect.signature(type(self).__init__)
        params = {}
        for name, parameter in signature.parameters.items():
            if name == "self" or parameter.kind in (
                parameter.VAR_POSITIONAL,
                parameter.VAR_KEYWORD,
            ):
                continue
            if not hasattr(self, name):
                raise ValidationError(
                    f"{type(self).__name__}.__init__ argument {name!r} is "
                    f"not stored as an attribute; get_params cannot recover it"
                )
            params[name] = getattr(self, name)
        return params

    def _validate_fit_args(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        X = check_array(X, name="X", ndim=2)
        y = check_array(y, name="y", ndim=1)
        check_matching_lengths(("X", X), ("y", y))
        #: the fitted width; explainers reject instances of any other
        self.n_features_in_ = X.shape[1]
        return X, y


def clone(model: ModelT) -> ModelT:
    """Return an unfitted copy of ``model`` with the same hyperparameters."""
    params = {key: copy.deepcopy(value) for key, value in model.get_params().items()}
    return type(model)(**params)


class Classifier(Model):
    """Base class for classifiers over integer-coded classes.

    Subclasses must set ``classes_`` in :meth:`fit` and implement
    :meth:`predict_proba`; :meth:`predict` defaults to the argmax class.
    """

    classes_: np.ndarray | None = None

    @abstractmethod
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n_rows, n_classes)``."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    def _encode_labels(self, y: np.ndarray) -> np.ndarray:
        """Set ``classes_`` from ``y`` and return indices into it."""
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValidationError(
                "classification requires at least two distinct labels"
            )
        lookup = {label: index for index, label in enumerate(self.classes_)}
        return np.asarray([lookup[label] for label in y], dtype=int)


class Regressor(Model):
    """Marker base class for regressors (predict returns real values)."""
