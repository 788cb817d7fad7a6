"""Rendering of evaluation, importance, correlation and simulation outputs.

All writers emit deterministic bytes for identical inputs: fixed float
formats, sorted keys, no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .consensus import CLASS_ORDER, write_tsv
from .learn.analysis import MdiResult, PearsonResult
from .learn.metrics import EvalReport, TTestResult
from .learn.validation import CrossValResult


@dataclass
class EvalCell:
    """One (schema, variant, balancing, sample) cross-validation result."""

    schema: str
    variant: str
    balanced: bool
    sample: float
    result: CrossValResult


def _fmt(value: float | None, digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def render_eval_table(cells: Sequence[EvalCell]) -> str:
    """Human-readable table: macro averages plus per-class P/R/F1, one row
    per configuration cell; undefined metrics render as '-'."""
    header = (
        f"{'schema':<14}{'model':<22}{'training':<12}{'sample':<8}"
        f"{'P':>6}{'R':>6}{'F1':>6}"
    )
    for label in CLASS_ORDER:
        header += f" |{label.value[:4]:>5} P{'R':>6}{'F1':>6}"
    lines = [header, "-" * len(header)]
    for cell in cells:
        report = cell.result.report
        row = (
            f"{cell.schema:<14}{cell.variant:<22}"
            f"{'balanced' if cell.balanced else 'unbalanced':<12}"
            f"{cell.sample:<8.2f}"
            f"{_fmt(report.macro_precision):>6}{_fmt(report.macro_recall):>6}{_fmt(report.macro_f1):>6}"
        )
        for label in CLASS_ORDER:
            m = report.per_class[label]
            row += f" |{_fmt(m.precision):>7}{_fmt(m.recall):>6}{_fmt(m.f1):>6}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _report_payload(report: EvalReport) -> dict:
    return {
        "confusion": report.confusion.tolist(),
        "per_class": {
            label.value: {
                "precision": report.per_class[label].precision,
                "recall": report.per_class[label].recall,
                "f1": report.per_class[label].f1,
            }
            for label in CLASS_ORDER
        },
        "macro": {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "macro_defined_only": {
            "precision": report.defined_macro_precision,
            "recall": report.defined_macro_recall,
            "f1": report.defined_macro_f1,
        },
        "undefined_counts": {
            "precision": report.undefined_precisions,
            "recall": report.undefined_recalls,
            "f1": report.undefined_f1s,
        },
        "accuracy": report.accuracy(),
    }


def eval_cells_payload(cells: Sequence[EvalCell]) -> dict:
    return {
        "cells": [
            {
                "schema": cell.schema,
                "variant": cell.variant,
                "balanced": cell.balanced,
                "sample": cell.sample,
                "folds": cell.result.folds,
                "seed": cell.result.seed,
                "report": _report_payload(cell.result.report),
                "fold_macro_f1": cell.result.fold_macro_f1,
            }
            for cell in cells
        ]
    }


def write_eval_reports(cells: Sequence[EvalCell], text_path: str | Path,
                       json_path: str | Path,
                       significance: str | None = None) -> None:
    text = render_eval_table(cells)
    if significance:
        text += "\n" + significance
    Path(text_path).write_text(text, encoding="utf-8")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(eval_cells_payload(cells), fh, sort_keys=True, indent=1)
        fh.write("\n")


def render_significance(rows: Sequence[tuple[str, str, TTestResult]]) -> str:
    """Pairwise paired-t-test block over per-fold macro F1 scores."""
    lines = ["paired t-tests on per-fold macro F1 (two-tailed)"]
    for name_a, name_b, result in rows:
        if result.degenerate:
            verdict = "degenerate (zero-variance differences)"
        else:
            verdict = (
                f"t={result.t:.3f} critical={result.critical:.3f} "
                f"{'significant' if result.significant else 'not significant'}"
            )
        lines.append(f"  {name_a} vs {name_b}: {verdict} (alpha={result.alpha})")
    return "\n".join(lines) + "\n"


def write_mdi_report(result: MdiResult, path: str | Path) -> None:
    by_name = {name: i for i, name in enumerate(result.columns)}
    write_tsv([("feature", "mdi", "normalized"),
               *((name, f"{score:.9g}", f"{result.normalized[by_name[name]]:.9g}")
                 for name, score in result.ranking())], path)


def write_pearson_matrix(result: PearsonResult, path: str | Path) -> None:
    # NaN formats as "nan"
    rows = [("feature", *result.columns),
            *((name, *(f"{v:.9g}" for v in result.matrix[i]))
              for i, name in enumerate(result.columns))]
    if result.degenerate:
        rows.append(("# zero-variance: " + ",".join(result.degenerate),))
    write_tsv(rows, path)
