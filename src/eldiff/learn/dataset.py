"""Numeric dataset view of a feature table.

Rows are encoded as float64: categorical columns carry integer category
codes (position in the training-time category list, -1 for values unseen at
training). The class order is fixed as (HARD, MEDIUM, EASY) everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..consensus import CLASS_INDEX, CLASS_ORDER
from ..features import CATEGORICAL_COLUMNS, FeatureSchema, FeatureTable

N_CLASSES = len(CLASS_ORDER)


@dataclass(frozen=True)
class Dataset:
    """Encoded feature matrix with class codes and the category vocabulary."""

    columns: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    categories: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("row count and label count disagree")
        if self.x.ndim != 2 or self.x.shape[1] != len(self.columns):
            raise ValueError("feature matrix does not match the schema")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    def cat_sizes(self) -> dict[int, int]:
        """Column index -> number of training-time categories."""
        return {
            i: len(self.categories[name])
            for i, name in enumerate(self.columns)
            if name in self.categories
        }

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=N_CLASSES)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.columns, self.x[indices], self.y[indices], self.categories)


def build_categories(table: FeatureTable, columns: Sequence[str]) -> dict[str, tuple[str, ...]]:
    return {
        name: tuple(sorted(set(table.column(name))))
        for name in columns
        if name in CATEGORICAL_COLUMNS
    }


def encode_table(
    table: FeatureTable,
    columns: Sequence[str],
    categories: Mapping[str, tuple[str, ...]],
) -> np.ndarray:
    """Encode rows in column order; missing numerics become NaN and unseen
    categories code -1."""
    x = np.empty((len(table), len(columns)), dtype=np.float64)
    for j, name in enumerate(columns):
        values = table.column(name)
        if name in CATEGORICAL_COLUMNS:
            code = {v: i for i, v in enumerate(categories.get(name, ()))}
            x[:, j] = [code.get(v, -1) for v in values]
        else:
            x[:, j] = [np.nan if v is None else float(v) for v in values]
    return x


def dataset_from_table(
    table: FeatureTable,
    schema: FeatureSchema | None = None,
    require_labels: bool = True,
) -> Dataset:
    """Project a feature table onto a schema and encode it for the learners."""
    if schema is None:
        schema = FeatureSchema.all()
    labels = table.labels()
    if require_labels and any(lbl is None for lbl in labels):
        raise ValueError("every row needs a difficulty label for training")
    y = np.array([-1 if lbl is None else CLASS_INDEX[lbl] for lbl in labels], dtype=np.int64)
    categories = build_categories(table, schema.columns)
    x = encode_table(table, schema.columns, categories)
    return Dataset(tuple(schema.columns), x, y, categories)
