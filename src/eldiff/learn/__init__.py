"""From-scratch classifiers, cross-validation, metrics and feature analysis."""

from .dataset import Dataset, dataset_from_table, encode_table
from .metrics import ClassMetrics, EvalReport, TTestResult, evaluate, paired_t_test
from .models import (
    VARIANTS,
    DecisionTreeModel,
    GaussianNBModel,
    LogisticRegressionModel,
    RandomForestModel,
    load_model,
    save_model,
    softmax_loss_and_grads,
    train,
)
from .validation import (
    CrossValResult,
    cross_validate,
    stratified_kfold,
    stratified_sample,
    undersample,
)
from .analysis import MdiResult, PearsonResult, mdi, pearson_matrix

__all__ = [
    "Dataset",
    "dataset_from_table",
    "encode_table",
    "ClassMetrics",
    "EvalReport",
    "TTestResult",
    "evaluate",
    "paired_t_test",
    "VARIANTS",
    "GaussianNBModel",
    "LogisticRegressionModel",
    "DecisionTreeModel",
    "RandomForestModel",
    "train",
    "save_model",
    "load_model",
    "softmax_loss_and_grads",
    "CrossValResult",
    "cross_validate",
    "stratified_kfold",
    "stratified_sample",
    "undersample",
    "MdiResult",
    "PearsonResult",
    "mdi",
    "pearson_matrix",
]
