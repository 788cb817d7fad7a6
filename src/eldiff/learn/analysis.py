"""Feature analysis: mean-decrease-impurity importance and Pearson correlation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .models import RandomForestModel


@dataclass(frozen=True)
class MdiResult:
    columns: tuple[str, ...]
    scores: np.ndarray
    normalized: np.ndarray

    def ranking(self) -> list[tuple[str, float]]:
        """Columns sorted by importance, descending; stable on ties."""
        order = sorted(range(len(self.columns)), key=lambda j: (-self.scores[j], j))
        return [(self.columns[j], float(self.scores[j])) for j in order]


def mdi(forest: RandomForestModel) -> MdiResult:
    """Mean decrease impurity per feature.

    Each internal node contributes (its sample fraction) x (the entropy
    decrease of its split) to its split feature; per-feature sums are
    averaged over the trees. Features never split on score exactly 0.
    Reported raw and normalized to the maximum.
    """
    if not forest.trees:
        raise ValueError("the forest has no trees; fit it first")
    n_features = len(forest.columns)
    totals = np.zeros(n_features)
    for tree in forest.trees:
        split = tree.feature >= 0
        weights = tree.counts[split].sum(axis=1) / tree.counts[0].sum()
        # np.add.at adds in node order, so each feature's float sum follows
        # the tree's pre-order numbering exactly
        np.add.at(totals, tree.feature[split], weights * tree.gain[split])
    scores = totals / len(forest.trees)
    top = scores.max() if n_features else 0.0
    normalized = scores / top if top > 0 else np.zeros_like(scores)
    return MdiResult(tuple(forest.columns), scores, normalized)


@dataclass(frozen=True)
class PearsonResult:
    columns: tuple[str, ...]
    matrix: np.ndarray
    degenerate: tuple[str, ...]

    def value(self, a: str, b: str) -> float:
        return float(self.matrix[self.columns.index(a), self.columns.index(b)])


def pearson_matrix(dataset: Dataset, columns: Sequence[str] | None = None) -> PearsonResult:
    """Pairwise Pearson r over continuous features.

    Nominal features are never correlated (requesting one is an error);
    zero-variance columns yield NaN entries and are listed as degenerate.
    The diagonal is exactly 1 for well-defined columns; the matrix is
    symmetric by construction.
    """
    if len(dataset) < 2:
        raise ValueError("correlation needs at least 2 rows")
    nominal = set(dataset.categories)
    if columns is None:
        columns = tuple(c for c in dataset.columns if c not in nominal)
    else:
        columns = tuple(columns)
        bad = [c for c in columns if c in nominal]
        if bad:
            raise ValueError(f"nominal features cannot be correlated: {bad}")
        unknown = [c for c in columns if c not in dataset.columns]
        if unknown:
            raise ValueError(f"columns not in the dataset: {unknown}")
    if not columns:
        raise ValueError("no continuous columns to correlate")
    idx = [dataset.columns.index(c) for c in columns]
    x = dataset.x[:, idx]
    centered = x - x.mean(axis=0)
    std = np.sqrt((centered ** 2).mean(axis=0))
    usable = std > 0
    matrix = np.full((len(columns), len(columns)), np.nan)
    if usable.any():
        cov = centered.T @ centered / x.shape[0]
        denom = np.outer(std, std)
        ok = np.outer(usable, usable)
        matrix[ok] = (cov[ok] / denom[ok])
    for j in range(len(columns)):
        if usable[j]:
            matrix[j, j] = 1.0
    degenerate = tuple(c for j, c in enumerate(columns) if not usable[j])
    return PearsonResult(columns, matrix, degenerate)
