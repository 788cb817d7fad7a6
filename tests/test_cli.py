"""Command-line pipeline wiring, exit statuses and configuration."""

import functools
import json
import logging

import numpy as np
import pytest

from eldiff import embeddings
from eldiff.cli import EXIT_DEGENERATE, EXIT_ERROR, EXIT_OK, _apply_config, _build_parser, main
from eldiff.consensus import Label, read_labels
from eldiff.features import FeatureTable
from eldiff.simulate import read_gold


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    assert run("gen-synthetic", "--out", out, "--seed", 11, "--docs", 50) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def labelled_dir(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("labelled")
    status = run(
        "label", "--annotations",
        fixture_dir / "alpha.tsv", fixture_dir / "beta.tsv", fixture_dir / "gamma.tsv",
        "--corpus", fixture_dir / "corpus.jsonl", "--out", out, "--seed", 11,
    )
    assert status == EXIT_OK
    return out


@pytest.fixture(scope="module")
def features_dir(fixture_dir, labelled_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("features")
    status = run(
        "features",
        "--corpus", fixture_dir / "corpus.jsonl",
        "--mentions", labelled_dir / "labels.tsv",
        "--candidates", fixture_dir / "candidates.tsv",
        "--annotations", fixture_dir / "alpha.tsv", fixture_dir / "beta.tsv",
        fixture_dir / "gamma.tsv",
        "--train-embeddings", "--embed-dim", 10, "--embed-epochs", 1,
        "--embed-min-count", 1, "--slice-years", 3,
        "--out", out, "--seed", 11,
    )
    assert status == EXIT_OK
    return out


def feature_table(labels, **columns):
    """One row per label; each column is given as a list of its values in
    row order, or as one value for every row."""
    return FeatureTable({c: v if isinstance(v, list) else [v] * len(labels)
                         for c, v in columns.items()}, labels)


def separable_table():
    """Label is a noiseless function of m_len: tiny/medium/large."""
    labels, m_lens = [], []
    rng = np.random.default_rng(0)
    for label, m_len in [(Label.HARD, 2), (Label.MEDIUM, 12), (Label.EASY, 30)]:
        for _ in range(30):
            jitter = int(rng.integers(0, 3))
            labels.append(label)
            m_lens.append(m_len + jitter)
    return feature_table(
        labels, m_len=m_lens, m_words=1, m_freq=1, m_df=1,
        m_cand=1, m_pos=0.5, m_sent=10, d_words=20, d_topic="T",
        d_ents=1, t_age=10, t_df=1, t_j_min=None, t_j_max=None, t_j_avg=None,
    )


class TestGenSynthetic:
    def test_fixture_files_exist(self, fixture_dir):
        for name in ("corpus.jsonl", "alpha.tsv", "beta.tsv", "gamma.tsv",
                     "candidates.tsv", "gold.tsv"):
            assert (fixture_dir / name).exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-synthetic", "--out", a, "--seed", 3, "--docs", 20) == EXIT_OK
        assert run("gen-synthetic", "--out", b, "--seed", 3, "--docs", 20) == EXIT_OK
        for name in ("corpus.jsonl", "alpha.tsv", "gold.tsv", "candidates.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestLabel:
    def test_single_dump_is_config_error(self, fixture_dir, tmp_path):
        status = run("label", "--annotations", fixture_dir / "alpha.tsv", "--out", tmp_path)
        assert status == EXIT_ERROR

    def test_identical_dumps_all_easy(self, fixture_dir, tmp_path):
        status = run(
            "label", "--annotations",
            fixture_dir / "alpha.tsv", fixture_dir / "alpha.tsv", fixture_dir / "alpha.tsv",
            "--out", tmp_path,
        )
        assert status == EXIT_OK
        for line in (tmp_path / "labels.tsv").read_text(encoding="utf-8").splitlines():
            assert line.split("\t")[3] == "EASY"

    def test_zero_common_mentions_degenerate_exit(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("docA\t0\tX\tE1\n", encoding="utf-8")
        b.write_text("docB\t0\tY\tE2\n", encoding="utf-8")
        status = run("label", "--annotations", a, b, "--out", tmp_path / "out")
        assert status == EXIT_DEGENERATE
        assert (tmp_path / "out" / "labels.tsv").read_text(encoding="utf-8") == ""
        assert (tmp_path / "out" / "label_distribution.txt").read_text(encoding="utf-8") == \
            "total\t0\nHARD\t0\t-\nMEDIUM\t0\t-\nEASY\t0\t-\n"

    def test_conflicting_duplicates_warned_and_first_entity_kept(self, tmp_path, caplog):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("d1\t0\tX\tE1\nd1\t4\tY\tE2\n", encoding="utf-8")
        b.write_text("d1\t0\tX\tE1\nd1\t4\tY\tE3\n", encoding="utf-8")
        assert run("label", "--annotations", a, b, "--out", tmp_path / "clean") == EXIT_OK
        a.write_text("d1\t0\tX\tE1\nd1\t0\tX\tE9\nd1\t4\tY\tE2\n", encoding="utf-8")
        b.write_text("d1\t0\tX\tE1\nd1\t4\tY\tE3\nd1\t4\tY\tE8\nd1\t4\tY\tE3\n",
                     encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="eldiff"):
            assert run("label", "--annotations", a, b, "--out", tmp_path / "dup") == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["2 (document, offset, surface) keys are linked to different entities "
                            "by the same system; exact alignment keeps each key's first entity"]
        assert ((tmp_path / "dup" / "labels.tsv").read_bytes()
                == (tmp_path / "clean" / "labels.tsv").read_bytes())

    def test_label_count_matches_distribution_total(self, labelled_dir):
        lines = (labelled_dir / "labels.tsv").read_text(encoding="utf-8").splitlines()
        total = (labelled_dir / "label_distribution.txt").read_text(encoding="utf-8")
        assert f"total\t{len(lines)}" in total


class TestFeatures:
    def test_row_per_mention(self, labelled_dir, features_dir):
        labels = (labelled_dir / "labels.tsv").read_text(encoding="utf-8").splitlines()
        rows = (features_dir / "features.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == len(labels) + 1  # header

    def test_schema_single_feature_baseline(self, fixture_dir, labelled_dir, tmp_path):
        status = run(
            "features",
            "--corpus", fixture_dir / "corpus.jsonl",
            "--mentions", labelled_dir / "labels.tsv",
            "--candidates", fixture_dir / "candidates.tsv",
            "--schema", "m_cand", "--out", tmp_path,
        )
        assert status == EXIT_OK
        header = (tmp_path / "features.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "m_cand,label"

    def test_no_temporal_drops_t_columns(self, fixture_dir, labelled_dir, tmp_path):
        status = run(
            "features",
            "--corpus", fixture_dir / "corpus.jsonl",
            "--mentions", labelled_dir / "labels.tsv",
            "--candidates", fixture_dir / "candidates.tsv",
            "--no-temporal", "--out", tmp_path,
        )
        assert status == EXIT_OK
        header = (tmp_path / "features.csv").read_text(encoding="utf-8").splitlines()[0]
        assert not any(c.startswith("t_") for c in header.split(","))

    def test_missing_candidates_is_error(self, fixture_dir, labelled_dir, tmp_path):
        status = run(
            "features",
            "--corpus", fixture_dir / "corpus.jsonl",
            "--mentions", labelled_dir / "labels.tsv",
            "--out", tmp_path,
        )
        assert status == EXIT_ERROR


class TestTrainPredict:
    def test_separable_training_rows_recovered(self, tmp_path):
        table = separable_table()
        features = tmp_path / "features.csv"
        table.write_csv(features)
        assert run("train", "--features", features, "--variant", "random_forest",
                   "--trees", 15, "--impute", "constant", "--out", tmp_path) == EXIT_OK
        assert run("predict", "--model", tmp_path / "model.json", "--features", features,
                   "--impute", "constant", "--out", tmp_path) == EXIT_OK
        predicted = [
            line.split("\t")[3]
            for line in (tmp_path / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        ]
        gold = [label.value for label in table.labels()]
        accuracy = sum(p == g for p, g in zip(predicted, gold)) / len(gold)
        assert accuracy >= 0.99

    def test_infinite_feature_is_error_exit(self, tmp_path, caplog):
        features = tmp_path / "features.csv"
        features.write_text("t_j_min,t_j_max,t_j_avg,label\n0,0,0,HARD\n1,1,1,HARD\n"
                            "inf,inf,inf,MEDIUM\ninf,inf,inf,EASY\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            status = run("train", "--features", features, "--variant", "decision_tree",
                         "--out", tmp_path / "out")
        assert status == EXIT_ERROR
        assert "infinite features" in caplog.text
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("trees", [0, -3])
    def test_forest_without_trees_is_error_exit(self, tmp_path, caplog, trees):
        features = tmp_path / "features.csv"
        separable_table().write_csv(features)
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            status = run("train", "--features", features, "--variant", "random_forest",
                         "--trees", trees, "--impute", "constant", "--out", tmp_path / "out")
        assert status == EXIT_ERROR
        assert "--trees" in caplog.text
        assert not (tmp_path / "out" / "model.json").exists()
        # the forest size means nothing to the other variants
        assert run("train", "--features", features, "--variant", "decision_tree",
                   "--trees", trees, "--impute", "constant", "--out", tmp_path / "out") == EXIT_OK

    def test_missing_model_file_is_error(self, tmp_path):
        table = separable_table()
        features = tmp_path / "features.csv"
        table.write_csv(features)
        status = run("predict", "--model", tmp_path / "nope.json",
                     "--features", features, "--out", tmp_path)
        assert status == EXIT_ERROR


class TestEval:
    def test_fold_size_error_is_explicit(self, tmp_path, capsys):
        labels = [Label.HARD] * 9 + [Label.MEDIUM] * 30 + [Label.EASY] * 30
        features = tmp_path / "features.csv"
        feature_table(
            labels, m_len=5, m_words=1, m_freq=1, m_df=1, m_cand=1, m_pos=0.1,
            m_sent=5, d_words=10, d_topic="T", d_ents=1, t_age=5, t_df=1,
            t_j_min=None, t_j_max=None, t_j_avg=None,
        ).write_csv(features)
        status = run("eval", "--features", features, "--variants", "gaussian_nb",
                     "--folds", 10, "--impute", "constant", "--out", tmp_path)
        assert status == EXIT_ERROR

    @pytest.mark.parametrize("trees", [0, -3])
    def test_forest_without_trees_is_error_exit(self, features_dir, tmp_path, caplog, trees):
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            status = run("eval", "--features", features_dir / "features.csv",
                         "--variants", "gaussian_nb,random_forest", "--folds", 3,
                         "--trees", trees, "--out", tmp_path, "--seed", 1)
        assert status == EXIT_ERROR
        assert "--trees" in caplog.text
        assert not (tmp_path / "eval_report.json").exists()

    def test_grid_reports_written(self, features_dir, tmp_path):
        status = run(
            "eval", "--features", features_dir / "features.csv",
            "--variants", "gaussian_nb,decision_tree", "--folds", 3,
            "--balancing", "unbalanced", "--out", tmp_path, "--seed", 1,
        )
        assert status == EXIT_OK
        payload = json.loads((tmp_path / "eval_report.json").read_text(encoding="utf-8"))
        assert len(payload["cells"]) == 2
        text = (tmp_path / "eval_report.txt").read_text(encoding="utf-8")
        assert "gaussian_nb" in text and "paired t-tests" in text


class TestAnalysisCommands:
    def test_importance_requires_forest(self, tmp_path):
        table = separable_table()
        features = tmp_path / "features.csv"
        table.write_csv(features)
        assert run("train", "--features", features, "--variant", "gaussian_nb",
                   "--impute", "constant", "--out", tmp_path) == EXIT_OK
        status = run("importance", "--model", tmp_path / "model.json", "--out", tmp_path)
        assert status == EXIT_ERROR

    def test_importance_and_correlate(self, features_dir, tmp_path):
        assert run("train", "--features", features_dir / "features.csv",
                   "--variant", "random_forest", "--trees", 10,
                   "--out", tmp_path, "--seed", 2) == EXIT_OK
        assert run("importance", "--model", tmp_path / "model.json", "--out", tmp_path) == EXIT_OK
        ranking = (tmp_path / "mdi.tsv").read_text(encoding="utf-8").splitlines()
        assert ranking[0] == "feature\tmdi\tnormalized"
        assert len(ranking) == 16  # 15 features
        assert run("correlate", "--features", features_dir / "features.csv",
                   "--out", tmp_path) == EXIT_OK
        matrix = (tmp_path / "pearson.tsv").read_text(encoding="utf-8").splitlines()
        assert matrix[0].startswith("feature\tm_len")
        assert "d_topic" not in matrix[0]


class TestSimulate:
    def test_simulation_reports(self, fixture_dir, labelled_dir, tmp_path):
        status = run(
            "simulate", "--labels", labelled_dir / "labels.tsv",
            "--gold", fixture_dir / "gold.tsv",
            "--candidates", fixture_dir / "candidates.tsv",
            "--systems", "alpha,beta,gamma",
            "--budgets", "0.05,0.10", "--repetitions", 3,
            "--out", tmp_path, "--seed", 5,
        )
        assert status == EXIT_OK
        report = (tmp_path / "simulation.tsv").read_text(encoding="utf-8").splitlines()
        assert report[0].startswith("system\tstrategy\tbudget")
        # 3 systems x 3 strategies (difficult/random/candidates) x 2 budgets
        assert len(report) == 2 + 3 * 3 * 2
        for line in report[2:]:
            fields = line.split("\t")
            assert float(fields[4]) >= float(fields[3])  # after >= before
        panels = (tmp_path / "simulation_panels.tsv").read_text(encoding="utf-8")
        assert panels.count("# budget") == 2

    def test_system_name_with_a_tab_refused(self, fixture_dir, labelled_dir, tmp_path, caplog):
        status = run("simulate", "--labels", labelled_dir / "labels.tsv",
                     "--gold", fixture_dir / "gold.tsv", "--systems", "a\tb,c,d",
                     "--budgets", "0.1", "--repetitions", 1, "--out", tmp_path)
        assert status == EXIT_ERROR
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
            "row 3: field 'a\\tb' holds a tab or line break and cannot be written"]
        assert not (tmp_path / "simulation.tsv").exists()
        assert not (tmp_path / "simulation_panels.tsv").exists()

    def test_pool_counts_logged_and_missing_predictions_warned(
            self, fixture_dir, labelled_dir, tmp_path, caplog):
        labels_path = labelled_dir / "labels.tsv"
        gold = read_gold(fixture_dir / "gold.tsv")
        keys = sorted({lm.key for lm in read_labels(labels_path)})
        pool = [k for k in keys if k in gold]
        predicted = pool[::3]
        predictions = tmp_path / "predictions.tsv"
        predictions.write_text(
            "".join(f"{d}\t{o}\t{s}\tHARD\t1\t0\t0\n" for d, o, s in predicted),
            encoding="utf-8",
        )
        with caplog.at_level(logging.INFO, logger="eldiff"):
            status = run(
                "simulate", "--labels", labels_path, "--gold", fixture_dir / "gold.tsv",
                "--predictions", predictions, "--budgets", "0.1", "--repetitions", 2,
                "--out", tmp_path / "out",
            )
        assert status == EXIT_OK
        assert (f"simulation pool: {len(pool)} mentions; {len(keys) - len(pool)} "
                "labelled mentions are outside the gold standard") in caplog.text
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"{len(pool) - len(predicted)} pool mentions have no prediction; "
                            "pred_difficult treats them as not HARD"]

    def test_predictions_without_mention_keys_refused(self, tmp_path, caplog):
        fixture = tmp_path / "fixture"
        assert run("gen-synthetic", "--out", fixture, "--seed", 4, "--docs", 30) == EXIT_OK
        dumps = [fixture / f"{name}.tsv" for name in ("alpha", "beta", "gamma")]
        assert run("label", "--annotations", *dumps, "--out", tmp_path / "labels") == EXIT_OK
        labels = tmp_path / "labels" / "labels.tsv"
        assert run("features", "--corpus", fixture / "corpus.jsonl", "--mentions", labels,
                   "--candidates", fixture / "candidates.tsv", "--schema", "simulation",
                   "--out", tmp_path / "features") == EXIT_OK
        features = tmp_path / "features" / "features.csv"
        assert run("train", "--features", features, "--variant", "random_forest",
                   "--trees", 5, "--out", tmp_path / "model") == EXIT_OK
        model = tmp_path / "model" / "model.json"
        simulate = ["simulate", "--labels", labels, "--gold", fixture / "gold.tsv",
                    "--budgets", "0.1", "--repetitions", 2]

        assert run("predict", "--model", model, "--features", features,
                   "--out", tmp_path / "unkeyed") == EXIT_OK
        status = run(*simulate, "--predictions", tmp_path / "unkeyed" / "predictions.tsv",
                     "--out", tmp_path / "refused")
        assert status == EXIT_ERROR
        assert "predict --mentions" in caplog.text
        assert not (tmp_path / "refused" / "simulation.tsv").exists()

        assert run("predict", "--model", model, "--features", features, "--mentions", labels,
                   "--out", tmp_path / "keyed") == EXIT_OK
        assert run(*simulate, "--predictions", tmp_path / "keyed" / "predictions.tsv",
                   "--out", tmp_path / "accepted") == EXIT_OK


class TestPredictionsFile:
    @pytest.mark.parametrize("bad, message", [
        ("d1\tzz\tParis\tEASY", "line 2: bad offset 'zz'"),
        ("d1\t0\tParis\tHARDX", "line 2: bad label 'HARDX'"),
    ])
    def test_bad_value_is_error_exit_naming_its_line(self, tmp_path, caplog, bad, message):
        labels = tmp_path / "labels.tsv"
        labels.write_text("d1\t0\tParis\tHARD\tE1,E2,E3\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("d1\t0\tParis\tE1\n", encoding="utf-8")
        predictions = tmp_path / "predictions.tsv"
        predictions.write_text(f"d1\t0\tParis\tHARD\t1\t0\t0\n{bad}\n", encoding="utf-8")
        status = run("simulate", "--labels", labels, "--gold", gold, "--predictions", predictions,
                     "--budgets", "1", "--repetitions", 1, "--out", tmp_path / "out")
        assert status == EXIT_ERROR
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [message]
        assert not (tmp_path / "out" / "simulation.tsv").exists()


class TestFileSystemErrors:
    """An input or output path the file system refuses is an error exit with
    a message, not a traceback."""

    def test_annotation_dump_that_is_a_directory(self, fixture_dir, tmp_path, caplog):
        status = run("label", "--annotations", tmp_path, fixture_dir / "alpha.tsv",
                     "--out", tmp_path / "out")
        assert status == EXIT_ERROR
        assert "Is a directory" in caplog.text

    def test_gold_standard_that_is_a_directory(self, fixture_dir, labelled_dir, tmp_path, caplog):
        status = run("simulate", "--labels", labelled_dir / "labels.tsv", "--gold", tmp_path,
                     "--out", tmp_path / "out")
        assert status == EXIT_ERROR
        assert "Is a directory" in caplog.text

    def test_output_directory_that_is_a_file(self, fixture_dir, tmp_path, caplog):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        status = run("label", "--annotations", fixture_dir / "alpha.tsv",
                     fixture_dir / "beta.tsv", "--out", out)
        assert status == EXIT_ERROR
        assert "File exists" in caplog.text


class TestEmbeddingFailure:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_training_is_error_exit(
            self, fixture_dir, labelled_dir, tmp_path, monkeypatch, caplog):
        # a huge learning rate drives the skip-gram vectors to inf/nan
        monkeypatch.setattr(embeddings, "EmbeddingParams",
                            functools.partial(embeddings.EmbeddingParams,
                                              initial_learning_rate=1e30))
        status = run(
            "features", "--corpus", fixture_dir / "corpus.jsonl",
            "--mentions", labelled_dir / "labels.tsv",
            "--candidates", fixture_dir / "candidates.tsv",
            "--train-embeddings", "--embed-dim", 8, "--embed-epochs", 1,
            "--embed-min-count", 1, "--slice-years", 3, "--out", tmp_path,
        )
        assert status == EXIT_ERROR
        assert "training produced non-finite vectors" in caplog.text
        assert not (tmp_path / "features.csv").exists()

    def test_non_finite_saved_model_is_error_exit(
            self, fixture_dir, labelled_dir, tmp_path, caplog):
        models = tmp_path / "models"
        models.mkdir()
        (models / "000_2000.vec").write_text("2 2 2000\nalpha 0.5 nan\nbravo 1 2\n",
                                             encoding="utf-8")
        (models / "001_2001.vec").write_text("2 2 2001\nalpha 0.5 1\nbravo 1 2\n",
                                             encoding="utf-8")
        status = run(
            "features", "--corpus", fixture_dir / "corpus.jsonl",
            "--mentions", labelled_dir / "labels.tsv",
            "--candidates", fixture_dir / "candidates.tsv",
            "--embeddings", models, "--out", tmp_path / "out",
        )
        assert status == EXIT_ERROR
        assert "embedding row 1 has a non-finite value" in caplog.text
        assert not (tmp_path / "out" / "features.csv").exists()


class TestSchemaAndRedirects:
    def test_train_on_schema_subset_of_full_table(self, tmp_path):
        table = separable_table()
        features = tmp_path / "features.csv"
        table.write_csv(features)
        status = run("train", "--features", features, "--schema", "m_len",
                     "--variant", "decision_tree", "--impute", "constant", "--out", tmp_path)
        assert status == EXIT_OK
        model = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        assert model["columns"] == ["m_len"]

    def test_label_with_redirect_map(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("d1\t0\tObama\tObama\n", encoding="utf-8")
        b.write_text("d1\t0\tObama\tBarack Obama\n", encoding="utf-8")
        redirects = tmp_path / "redirects.tsv"
        redirects.write_text("Obama\tBarack Obama\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("label", "--annotations", a, b, "--redirects", redirects,
                   "--out", out) == EXIT_OK
        line = (out / "labels.tsv").read_text(encoding="utf-8").strip()
        assert line.endswith("EASY\tBarack_Obama,Barack_Obama")

    @pytest.mark.parametrize("bad_line, message", [
        (" \tBarack Obama", "line 3: empty entity id"),
        ("Obama\t", "line 3: empty entity id"),
        ("Obama", "line 3: expected 2 tab-separated fields, got 1"),
        ("Obama\tBarack Obama\textra", "line 3: expected 2 tab-separated fields, got 3"),
    ])
    def test_bad_redirect_line_names_its_line(self, tmp_path, caplog, bad_line, message):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("d1\t0\tObama\tObama\n", encoding="utf-8")
        b.write_text("d1\t0\tObama\tBarack Obama\n", encoding="utf-8")
        redirects = tmp_path / "redirects.tsv"
        redirects.write_text(f"Obama\tBarack Obama\n\n{bad_line}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("label", "--annotations", a, b, "--redirects", redirects,
                   "--out", out) == EXIT_ERROR
        assert message in caplog.text
        assert not (out / "labels.tsv").exists()

    def test_features_from_saved_embeddings_match_training_run(
            self, fixture_dir, labelled_dir, tmp_path):
        first = tmp_path / "first"
        base = [
            "features", "--corpus", fixture_dir / "corpus.jsonl",
            "--mentions", labelled_dir / "labels.tsv",
            "--candidates", fixture_dir / "candidates.tsv",
            "--slice-years", 3, "--seed", 11,
        ]
        assert run(*base, "--train-embeddings", "--embed-dim", 8, "--embed-epochs", 1,
                   "--embed-min-count", 1, "--out", first) == EXIT_OK
        second = tmp_path / "second"
        assert run(*base, "--embeddings", first / "embeddings", "--out", second) == EXIT_OK
        assert (first / "features.csv").read_bytes() == (second / "features.csv").read_bytes()


class TestFlagChecks:
    """A bad flag value ends the command before it reads an input or makes
    its output directory, with one error naming the flag."""

    @pytest.mark.parametrize("command, flags, message", [
        ("features", ["--window-months", 0], "--window-months must be at least 1, not 0"),
        ("features", ["--window-months", -2], "--window-months must be at least 1, not -2"),
        ("features", ["--top-k", 0], "--top-k must be at least 1, not 0"),
        ("features", ["--embed-dim", 0], "--embed-dim must be at least 1, not 0"),
        ("features", ["--embed-window", 0], "--embed-window must be at least 1, not 0"),
        ("features", ["--embed-epochs", 0], "--embed-epochs must be at least 1, not 0"),
        ("features", ["--embed-negatives", 0], "--embed-negatives must be at least 1, not 0"),
        ("features", ["--embed-negatives", -1], "--embed-negatives must be at least 1, not -1"),
        ("features", ["--embed-min-count", 0], "--embed-min-count must be at least 1, not 0"),
        ("features", ["--slice-years", 0], "--slice-years must be at least 1, not 0"),
        ("simulate", ["--repetitions", 0], "--repetitions must be at least 1, not 0"),
        ("simulate", ["--budgets", "abc"], "--budgets takes non-negative numbers "
                                           "(values < 1 are fractions), not 'abc'"),
        ("simulate", ["--budgets", "0.1,-3"], "--budgets takes non-negative numbers "
                                              "(values < 1 are fractions), not '-3'"),
        ("simulate", ["--budgets", "inf"], "--budgets takes non-negative numbers "
                                           "(values < 1 are fractions), not 'inf'"),
        ("simulate", ["--budgets", "nan"], "--budgets takes non-negative numbers "
                                           "(values < 1 are fractions), not 'nan'"),
        ("eval", ["--folds", 1], "--folds must be at least 2, not 1"),
        ("eval", ["--samples", "0.5,0"], "--samples takes fractions in (0, 1], not '0'"),
        ("eval", ["--samples", "1.5"], "--samples takes fractions in (0, 1], not '1.5'"),
    ])
    def test_bad_value_refused_before_any_work(self, fixture_dir, labelled_dir, features_dir,
                                               tmp_path, caplog, command, flags, message):
        inputs = {
            "features": ["--corpus", fixture_dir / "corpus.jsonl",
                         "--mentions", labelled_dir / "labels.tsv",
                         "--candidates", fixture_dir / "candidates.tsv",
                         "--train-embeddings", "--embed-dim", 10, "--embed-epochs", 1],
            "simulate": ["--labels", labelled_dir / "labels.tsv",
                         "--gold", fixture_dir / "gold.tsv"],
            "eval": ["--features", features_dir / "features.csv"],
        }[command]
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run(command, *inputs, *flags, "--out", out) == EXIT_ERROR
        assert [r.getMessage() for r in caplog.records] == [message]
        assert not out.exists()

    def test_zero_budget_still_accepted(self, fixture_dir, labelled_dir, tmp_path):
        assert run("simulate", "--labels", labelled_dir / "labels.tsv",
                   "--gold", fixture_dir / "gold.tsv", "--budgets", "0, 2,0.5",
                   "--repetitions", 1, "--out", tmp_path) == EXIT_OK
        rows = (tmp_path / "simulation.tsv").read_text(encoding="utf-8").splitlines()[2:]
        # 0.5 of the pool is its own budget
        assert sorted({int(line.split("\t")[2]) for line in rows})[:2] == [0, 2]


class TestConfig:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"docs": 10, "seed": 3}), encoding="utf-8")
        a = tmp_path / "a"
        assert run("gen-synthetic", "--config", config, "--out", a) == EXIT_OK
        assert len((a / "corpus.jsonl").read_text(encoding="utf-8").splitlines()) == 10
        b = tmp_path / "b"
        assert run("gen-synthetic", "--config", config, "--docs", 4, "--out", b) == EXIT_OK
        assert len((b / "corpus.jsonl").read_text(encoding="utf-8").splitlines()) == 4

    @pytest.mark.parametrize("command, config, message", [
        ("gen-synthetic", {"docs": "5"}, "config key 'docs' expects an integer"),
        ("gen-synthetic", {"docs": 2.5}, "config key 'docs' expects an integer"),
        ("eval", {"folds": True}, "config key 'folds' expects an integer"),
        ("train", {"sample": "half"}, "config key 'sample' expects a number"),
        ("label", {"policy": "fuzzy"}, "config key 'policy' expects one of exact, overlap"),
        ("train", {"balanced": "yes"}, "config key 'balanced' expects true or false"),
        ("label", {"annotations": "a.tsv"}, "config key 'annotations' expects a list of strings"),
    ])
    def test_config_values_checked_like_flags(self, tmp_path, caplog, command, config, message):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run(command, "--config", path, "--out", tmp_path / "out") == EXIT_ERROR
        assert [r.getMessage() for r in caplog.records] == [message]
        assert not (tmp_path / "out").exists()

    def test_config_values_of_the_right_type_applied(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"sample": 1, "impute": "constant", "balanced": False,
                                    "threads": 3, "corpus": 7}), encoding="utf-8")
        args = _build_parser().parse_args(["train", "--config", str(path)])
        _apply_config(args)
        # keys that are not flags of the command stay unchecked and unused
        assert (args.sample, args.impute, args.balanced, args.threads) == (1, "constant", False, 3)

    @pytest.mark.parametrize("command, key", [("train", "tress"), ("gen-synthetic", "seeds"),
                                              ("eval", "help")])
    def test_key_of_no_command_rejected(self, tmp_path, caplog, command, key):
        path = tmp_path / "conf.json"
        # "corpus" belongs to other commands and goes unused; the misspelt key does not
        path.write_text(json.dumps({"corpus": "c.jsonl", key: 5}), encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run(command, "--config", path, "--out", tmp_path / "out") == EXIT_ERROR
        assert [r.getMessage() for r in caplog.records] == [
            f"config key {key!r} is not a flag of any command"]
        assert not (tmp_path / "out").exists()

    def test_bad_config_rejected(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text("[1, 2]", encoding="utf-8")
        assert run("gen-synthetic", "--config", config, "--out", tmp_path) == EXIT_ERROR


class TestCorpusFieldTypes:
    @pytest.mark.parametrize("field, value", [("id", 12), ("text", 5), ("topic", 7)])
    def test_non_string_field_is_error_exit_naming_its_line(
            self, fixture_dir, labelled_dir, tmp_path, caplog, field, value):
        lines = (fixture_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record[field] = value
        lines[1] = json.dumps(record)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run("label", "--annotations", fixture_dir / "alpha.tsv",
                       fixture_dir / "beta.tsv", fixture_dir / "gamma.tsv",
                       "--corpus", corpus, "--out", tmp_path / "label") == EXIT_ERROR
            assert run("features", "--corpus", corpus, "--mentions", labelled_dir / "labels.tsv",
                       "--candidates", fixture_dir / "candidates.tsv",
                       "--out", tmp_path / "features") == EXIT_ERROR
        message = f"line 2: field {field!r} must be a string, not int"
        assert [r.getMessage() for r in caplog.records] == [message, message]
        assert not (tmp_path / "features" / "features.csv").exists()
