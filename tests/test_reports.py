"""Report rendering: undefined markers, determinism, file shapes."""

import json

import numpy as np

from eldiff.learn.analysis import MdiResult, PearsonResult
from eldiff.learn.metrics import evaluate, paired_t_test
from eldiff.learn.validation import CrossValResult
from eldiff.reports import (
    EvalCell,
    eval_cells_payload,
    render_eval_table,
    render_significance,
    write_mdi_report,
    write_pearson_matrix,
)


def _cell(predictions, gold, variant="random_forest", balanced=False):
    report = evaluate(predictions, gold)
    result = CrossValResult(report=report, fold_reports=[report],
                            fold_macro_f1=[report.macro_f1], variant=variant,
                            balanced=balanced, folds=1, seed=0)
    return EvalCell("all", variant, balanced, 1.0, result)


class TestEvalRendering:
    def test_undefined_metrics_render_as_dash(self):
        # only EASY ever predicted: HARD/MEDIUM precision undefined
        cell = _cell([2, 2, 2, 2], [0, 1, 2, 2])
        table = render_eval_table([cell])
        assert "-" in table
        assert "unbalanced" in table

    def test_payload_round_trips_through_json(self):
        cell = _cell([0, 1, 2], [0, 1, 2])
        payload = eval_cells_payload([cell])
        encoded = json.dumps(payload, sort_keys=True)
        decoded = json.loads(encoded)
        assert decoded["cells"][0]["report"]["macro"]["f1"] == 1.0
        assert decoded["cells"][0]["report"]["confusion"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_significance_block_mentions_degeneracy(self):
        result = paired_t_test([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        text = render_significance([("a", "b", result)])
        assert "degenerate" in text


class TestFileWriters:
    def test_mdi_report_ranked(self, tmp_path):
        result = MdiResult(("a", "b"), np.array([0.2, 0.8]), np.array([0.25, 1.0]))
        path = tmp_path / "mdi.tsv"
        write_mdi_report(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("b\t0.8\t1")
        assert lines[2].startswith("a\t0.2\t0.25")

    def test_writers_keep_the_bytes_of_the_line_loops(self, tmp_path):
        # the per-line writers these replaced, as they were
        def old_mdi(result, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("feature\tmdi\tnormalized\n")
                by_name = {name: i for i, name in enumerate(result.columns)}
                for name, score in result.ranking():
                    fh.write(f"{name}\t{score:.9g}\t{result.normalized[by_name[name]]:.9g}\n")

        def old_pearson(result, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("feature\t" + "\t".join(result.columns) + "\n")
                for i, name in enumerate(result.columns):
                    cells = ["nan" if np.isnan(v) else f"{v:.9g}" for v in result.matrix[i]]
                    fh.write(name + "\t" + "\t".join(cells) + "\n")
                if result.degenerate:
                    fh.write("# zero-variance: " + ",".join(result.degenerate) + "\n")

        values = np.array([0.0, -0.0, 1 / 3, 1e-300, 5e-324, -np.nan, np.inf, 123456789.5])
        columns = tuple(f"f{i}" for i in range(len(values)))
        mdi = MdiResult(columns, values, values[::-1].copy())
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            matrix = np.outer(values, values[::-1])
        cases = [(write_mdi_report, old_mdi, mdi)] + [
            (write_pearson_matrix, old_pearson, PearsonResult(columns, matrix, degenerate))
            for degenerate in ((), ("f5",), ("f5", "f6"))]
        for write, old, result in cases:
            write(result, tmp_path / "new.tsv")
            old(result, tmp_path / "old.tsv")
            assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()

    def test_pearson_matrix_marks_nan_and_degenerate(self, tmp_path):
        matrix = np.array([[1.0, np.nan], [np.nan, np.nan]])
        result = PearsonResult(("x", "y"), matrix, ("y",))
        path = tmp_path / "pearson.tsv"
        write_pearson_matrix(result, path)
        text = path.read_text(encoding="utf-8")
        assert "nan" in text
        assert "# zero-variance: y" in text
