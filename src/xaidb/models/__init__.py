"""The ML substrate: numpy-only models exposing the sklearn-style
``fit`` / ``predict`` / ``predict_proba`` surface that all explainers in
xaidb consume, plus the internal structure (tree arrays, GLM Hessians,
MLP input gradients) that white-box explainers need."""

from xaidb.models.base import Classifier, Model, Regressor, clone
from xaidb.models.forest import RandomForestClassifier, RandomForestRegressor
from xaidb.models.gbm import GradientBoostedClassifier, GradientBoostedRegressor
from xaidb.models.knn import KNeighborsClassifier
from xaidb.models.linear import LinearRegression
from xaidb.models.logistic import LogisticRegression
from xaidb.models.metrics import (
    accuracy,
    confusion_matrix,
    f1_score,
    log_loss,
    mean_squared_error,
    precision,
    r2_score,
    recall,
    roc_auc,
)
from xaidb.models.mlp import MLPClassifier
from xaidb.models.naive_bayes import GaussianNB
from xaidb.models.preprocessing import StandardScaler, train_test_split
from xaidb.models.tree import DecisionTreeClassifier, DecisionTreeRegressor
from xaidb.models.tree_kernels import EnsembleKernel

__all__ = [
    "Model",
    "Classifier",
    "Regressor",
    "clone",
    "LinearRegression",
    "LogisticRegression",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "EnsembleKernel",
    "GradientBoostedClassifier",
    "GradientBoostedRegressor",
    "KNeighborsClassifier",
    "GaussianNB",
    "MLPClassifier",
    "StandardScaler",
    "train_test_split",
    "accuracy",
    "precision",
    "recall",
    "f1_score",
    "log_loss",
    "roc_auc",
    "mean_squared_error",
    "r2_score",
    "confusion_matrix",
]
