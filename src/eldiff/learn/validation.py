"""Stratified k-fold cross-validation, undersampling and stratified sampling.

Balancing happens inside the cross-validation loop, on training folds only,
so test folds always keep the natural class distribution. The folds' models
come from ``models.train_folds``: the decision trees or forests of all folds
grow together, the logistic regressions of all folds descend together, and
naive Bayes fits fold by fold; each fold's model is the one fitting its
training rows alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..consensus import CLASS_ORDER
from ..rand import derive_seed
from .dataset import Dataset, N_CLASSES
from .metrics import EvalReport, evaluate
from .models import train, train_folds  # noqa: F401  train: a tracer target of bench/spans.py


def stratified_kfold(labels, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """k disjoint, exhaustive (train, test) index splits whose per-fold class
    counts stay within one instance of exact proportionality."""
    y = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be at least 2")
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(k)]
    for c in range(N_CLASSES):
        idx = np.nonzero(y == c)[0]
        if idx.size == 0:
            continue
        if idx.size < k:
            raise ValueError(
                f"class {CLASS_ORDER[c].value} has {idx.size} members, fewer than k={k}"
            )
        shuffled = rng.permutation(idx)
        for f in range(k):
            fold_members[f].extend(shuffled[f::k].tolist())
    splits = []
    for f in range(k):
        test = np.array(sorted(fold_members[f]), dtype=np.int64)
        mask = np.ones(y.shape[0], dtype=bool)
        mask[test] = False
        splits.append((np.nonzero(mask)[0], test))
    return splits


def undersample(train_indices, labels, seed: int) -> np.ndarray:
    """Reduce every training class to the minority-class count, without
    replacement. Classes already at the minority count keep their members."""
    y = np.asarray(labels)
    train_indices = np.asarray(train_indices)
    y_train = y[train_indices]
    present = [c for c in range(N_CLASSES) if np.any(y_train == c)]
    if len(present) < 2:
        raise ValueError("undersampling needs at least 2 classes present")
    minority = min(int(np.sum(y_train == c)) for c in present)
    rng = np.random.default_rng(seed)
    kept = []
    for c in present:
        members = train_indices[y_train == c]
        if members.size > minority:
            members = rng.choice(members, size=minority, replace=False)
        kept.append(members)
    return np.sort(np.concatenate(kept))


def stratified_sample(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Per-class sample at the given fraction (rounded half-up), without
    replacement; fraction 1.0 returns the dataset unchanged."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return dataset
    rng = np.random.default_rng(seed)
    kept = []
    for c in range(N_CLASSES):
        idx = np.nonzero(dataset.y == c)[0]
        if idx.size == 0:
            continue
        size = int(math.floor(idx.size * fraction + 0.5))
        if size == 0:
            continue
        kept.append(rng.choice(idx, size=size, replace=False))
    if not kept:
        raise ValueError("stratified sample is empty; increase the fraction")
    return dataset.subset(np.sort(np.concatenate(kept)))


@dataclass
class CrossValResult:
    """Pooled evaluation over all test folds plus per-fold reports (the
    per-fold macro-F1 scores feed paired significance tests)."""

    report: EvalReport
    fold_reports: list[EvalReport]
    fold_macro_f1: list[float]
    variant: str
    balanced: bool
    folds: int
    seed: int


def cross_validate(
    dataset: Dataset,
    variant: str,
    k: int = 10,
    balanced: bool = False,
    seed: int = 0,
    **hyperparams,
) -> CrossValResult:
    """k-fold cross-validation of one classifier configuration.

    With ``balanced`` the training fold is undersampled before fitting; test
    folds always keep the natural distribution. The pooled report evaluates
    the union of all test-fold predictions. The models of all folds come
    from one ``train_folds`` call, which fits folds together where that
    pays; every fold's model is the one ``train`` fits on its training rows
    alone.
    """
    splits = stratified_kfold(dataset.y, k, derive_seed(seed, "folds"))
    samples = [undersample(train_idx, dataset.y, derive_seed(seed, "balance", f)) if balanced
               else train_idx for f, (train_idx, _) in enumerate(splits)]
    seeds = [derive_seed(seed, "fit", f) for f in range(k)]
    fold_models = train_folds(dataset, variant, samples, seeds, **hyperparams)
    predictions = np.full(len(dataset), -1, dtype=np.int64)
    fold_reports = []
    for model, (_, test_idx) in zip(fold_models, splits):
        codes = model.predict_codes(dataset.x[test_idx])
        predictions[test_idx] = codes
        fold_reports.append(evaluate(codes, dataset.y[test_idx]))
    report = evaluate(predictions, dataset.y)
    return CrossValResult(
        report=report,
        fold_reports=fold_reports,
        fold_macro_f1=[r.macro_f1 for r in fold_reports],
        variant=variant,
        balanced=balanced,
        folds=k,
        seed=seed,
    )
