"""Command-line pipeline wiring, exit statuses and configuration."""

import functools
import hashlib
import json
import logging

import numpy as np
import pytest

from eldiff import embeddings, synth
from eldiff.cli import EXIT_DEGENERATE, EXIT_ERROR, EXIT_OK, _apply_config, _build_parser, main
from eldiff.consensus import CLASS_INDEX, CLASS_ORDER, Label, MentionCodes, read_labels
from eldiff.corpus import GeneratorConfig, generate_synthetic_corpus
from eldiff.features import FEATURE_COLUMNS, FeatureTable
from simulate_oracle import gold_entries


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
    """One row per label, a class index; each column is given as a list of
    its values in row order, or as one value for every row."""
    return FeatureTable({c: v if isinstance(v, list) else [v] * len(labels)
                         for c, v in columns.items()}, labels)


def separable_table():
    """Label is a noiseless function of m_len: tiny/medium/large."""
    labels, m_lens = [], []
    rng = np.random.default_rng(0)
    for label, m_len in [(Label.HARD, 2), (Label.MEDIUM, 12), (Label.EASY, 30)]:
        for _ in range(30):
            jitter = int(rng.integers(0, 3))
            labels.append(CLASS_INDEX[label])
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

    # The sha256 of every file written for --docs 12 --seed 7: the fixtures
    # are the reference input of every run, so no byte of them may move.
    @pytest.mark.parametrize("systems, digests", [
        ((), {
            "alpha.tsv": "65c764e42e22525726aa394e2b61b8a947803bcea8226cd71caf6b10b2e4e2bd",
            "beta.tsv": "158925addaa498c9e77406b878933d59b0a1094daba98080da1148daf1decdc8",
            "candidates.tsv": "ffe51e48cb09e661cceaadd063e5e3b33e251062de0bbda1e980277c3b4befc7",
            "corpus.jsonl": "726969906889d6c01786636c1ef0f541ace468b74501f9ce980fcc2e2ec14973",
            "gamma.tsv": "3a28b22326ec76845e8b7d1397bbb66b0cf7b119dd1a6c49dc2a25093d9c5fcb",
            "gold.tsv": "8df60f9b05b27cbc112014b2ce9a8610c641b6b0251ad03c2194131b522e9665",
        }),
        (("--systems", "a,b"), {
            "a.tsv": "e1163e408b14638064d3cb9777a8d49562ab2d517cc7de5f25fc926809b3ecbc",
            "b.tsv": "bde72d66a015defee4769f859548c6b205ab4bc512fc9fca0e211f7c320098e9",
            "candidates.tsv": "ffe51e48cb09e661cceaadd063e5e3b33e251062de0bbda1e980277c3b4befc7",
            "corpus.jsonl": "726969906889d6c01786636c1ef0f541ace468b74501f9ce980fcc2e2ec14973",
            "gold.tsv": "022e46b2cc746ef87da6b547626e0330fc473b5adaddba7f13cd07ca06d38bfc",
        }),
    ])
    def test_pinned_bytes(self, tmp_path, systems, digests):
        assert run("gen-synthetic", "--out", tmp_path, "--seed", 7, "--docs", 12,
                   *systems) == EXIT_OK
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in tmp_path.iterdir()} == digests


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
            "--schema", "no_temporal", "--out", tmp_path,
        )
        assert status == EXIT_OK
        header = (tmp_path / "features.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",") == [*(c for c in FEATURE_COLUMNS if c[:2] != "t_"), "label"]

    def test_no_temporal_flag_refused(self, tmp_path, capsys):
        # --schema no_temporal selects the same columns
        with pytest.raises(SystemExit) as caught:
            run("features", "--no-temporal", "--out", tmp_path / "out")
        assert caught.value.code == EXIT_ERROR
        assert "unrecognized arguments: --no-temporal" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        gold = [CLASS_ORDER[c].value for c in table.labels()]
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

    def test_mentions_from_another_run_refused(self, features_dir, labelled_dir, tmp_path,
                                               caplog):
        features = features_dir / "features.csv"
        assert run("train", "--features", features, "--variant", "decision_tree",
                   "--out", tmp_path / "model") == EXIT_OK
        predict = ["predict", "--model", tmp_path / "model" / "model.json"]
        lines = (labelled_dir / "labels.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        shuffled = [lines[i] for i in np.random.default_rng(0).permutation(len(lines))]
        labels = tmp_path / "shuffled.tsv"
        labels.write_text("".join(shuffled), encoding="utf-8")
        # the same count of rows, but other mentions' keys and labels
        row = next(i for i, (a, b) in enumerate(zip(lines, shuffled), start=1)
                   if a.split("\t")[3] != b.split("\t")[3])
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run(*predict, "--features", features, "--mentions", labels,
                       "--out", tmp_path / "refused") == EXIT_ERROR
        assert f"feature row {row} is labelled" in caplog.text
        assert "do not come from one run" in caplog.text
        assert not (tmp_path / "refused" / "predictions.tsv").exists()

        # rows without a label are not compared
        unlabelled = tmp_path / "unlabelled.csv"
        unlabelled.write_text("".join(
            line[:line.rindex(",") + 1] + "\n" if i else line
            for i, line in enumerate(features.read_text(encoding="utf-8").splitlines(
                keepends=True))), encoding="utf-8")
        assert run(*predict, "--features", unlabelled, "--mentions", labels,
                   "--out", tmp_path / "unlabelled") == EXIT_OK
        assert run(*predict, "--features", features, "--mentions", labelled_dir / "labels.tsv",
                   "--out", tmp_path / "matched") == EXIT_OK
        assert (tmp_path / "unlabelled" / "predictions.tsv").exists()

    def test_missing_model_file_is_error(self, tmp_path):
        table = separable_table()
        features = tmp_path / "features.csv"
        table.write_csv(features)
        status = run("predict", "--model", tmp_path / "nope.json",
                     "--features", features, "--out", tmp_path)
        assert status == EXIT_ERROR


class TestEval:
    def test_fold_size_error_is_explicit(self, tmp_path, capsys):
        labels = [0] * 9 + [1] * 30 + [2] * 30  # HARD, MEDIUM, EASY in CLASS_ORDER
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


class TestStabilityMissingEverywhere:
    """A table that ``features`` wrote without embeddings has no stability
    value to average: train, eval and predict name the two remedies."""

    MESSAGE = ("column 't_j_min' has no observed values to average: the table has no stability "
               "values (features ran without embeddings); use --impute constant, or a --schema "
               "without t_j_min/t_j_max/t_j_avg")

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("no_stability")
        fixture = root / "fixture"
        assert run("gen-synthetic", "--out", fixture, "--seed", 5, "--docs", 40) == EXIT_OK
        dumps = [fixture / f"{name}.tsv" for name in ("alpha", "beta", "gamma")]
        assert run("label", "--annotations", *dumps, "--out", root) == EXIT_OK
        assert run("features", "--corpus", fixture / "corpus.jsonl",
                   "--mentions", root / "labels.tsv", "--candidates", fixture / "candidates.tsv",
                   "--out", root) == EXIT_OK
        return root / "features.csv"

    def test_train_eval_and_predict_name_the_remedies(self, table, tmp_path, caplog):
        model = tmp_path / "model"
        assert run("train", "--features", table, "--variant", "decision_tree",
                   "--impute", "constant", "--out", model) == EXIT_OK
        commands = [
            ["train", "--features", table, "--variant", "decision_tree"],
            ["eval", "--features", table, "--variants", "gaussian_nb", "--folds", 2],
            ["predict", "--model", model / "model.json", "--features", table],
        ]
        for command in commands:
            caplog.clear()
            out = tmp_path / command[0]
            with caplog.at_level(logging.ERROR, logger="eldiff"):
                assert run(*command, "--out", out) == EXIT_ERROR
            assert [r.getMessage() for r in caplog.records] == [self.MESSAGE]
            assert not out.exists()

    @pytest.mark.parametrize("remedy", [["--impute", "constant"], ["--schema", "no_temporal"]])
    def test_either_remedy_trains(self, table, tmp_path, remedy):
        assert run("train", "--features", table, "--variant", "decision_tree", *remedy,
                   "--out", tmp_path) == EXIT_OK


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
        gold = gold_entries(fixture_dir / "gold.tsv")
        codes = MentionCodes()
        read_labels(labels_path, codes)
        keys = sorted(codes.mentions())
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


class TestSystemNames:
    """A repeated or empty ``--systems`` name ends the command before it
    reads an input or makes its output directory."""

    @pytest.mark.parametrize("names", ["a,a,b", "a,b,c,b", "a,,b", "a,b,c,"])
    @pytest.mark.parametrize("command", ["simulate", "gen-synthetic"])
    def test_refused_before_any_work(self, tmp_path, caplog, command, names):
        # the inputs do not exist: reading one would be another error
        inputs = {"simulate": ["--labels", tmp_path / "labels.tsv",
                               "--gold", tmp_path / "gold.tsv"],
                  "gen-synthetic": ["--docs", 5]}[command]
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run(command, *inputs, "--systems", names, "--out", out) == EXIT_ERROR
        assert [r.getMessage() for r in caplog.records] == [
            f"--systems takes distinct non-empty names, not {names!r}"]
        assert not out.exists()

    def test_generator_refuses_repeated_names(self, tmp_path):
        # one dump per name: "a" twice would be written as one merged a.tsv
        corpus = generate_synthetic_corpus(GeneratorConfig(n_docs=3), seed=1)
        with pytest.raises(ValueError, match=r"system names must be distinct, got \['a', 'a', 'b'\]"):
            synth.generate_annotations(corpus, 5, systems=("a", "a", "b"))
        with pytest.raises(ValueError, match="system names must be distinct"):
            synth.write_fixture(tmp_path / "fixture", 5, systems=("a", "b", "a"))
        suite = synth.generate_annotations(corpus, 5, systems=("a", "b"))
        assert sorted(suite.dumps) == ["a", "b"]


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


class TestSimulateRedirects:
    def test_redirected_labels_score_like_unredirected_ones(self, tmp_path):
        fixture = tmp_path / "fixture"
        assert run("gen-synthetic", "--out", fixture, "--seed", 3, "--docs", 60) == EXIT_OK
        assert "\tEnt_minister\n" in (fixture / "gold.tsv").read_text(encoding="utf-8")
        redirects = tmp_path / "redirects.tsv"
        redirects.write_text("Ent_minister\tRenamed_Ent_minister\n", encoding="utf-8")
        dumps = [fixture / f"{name}.tsv" for name in ("alpha", "beta", "gamma")]

        def simulate(name, *redirect):
            out = tmp_path / name
            assert run("label", "--annotations", *dumps, *redirect, "--out", out) == EXIT_OK
            assert run("simulate", "--labels", out / "labels.tsv", "--gold", fixture / "gold.tsv",
                       "--candidates", fixture / "candidates.tsv", "--systems",
                       "alpha,beta,gamma", *redirect, "--out", out, "--seed", 3) == EXIT_OK
            return (out / "simulation.tsv").read_bytes()

        plain = simulate("plain")
        assert simulate("redirected", "--redirects", redirects) == plain
        # the map reaches the labels: scored against the raw gold, they differ
        relabelled = tmp_path / "redirected" / "labels.tsv"
        assert run("simulate", "--labels", relabelled, "--gold", fixture / "gold.tsv",
                   "--candidates", fixture / "candidates.tsv", "--systems", "alpha,beta,gamma",
                   "--out", tmp_path / "mixed", "--seed", 3) == EXIT_OK
        assert (tmp_path / "mixed" / "simulation.tsv").read_bytes() != plain


class TestOutputDirectoryAfterInputs:
    """A command that refuses its inputs leaves no output directory behind."""

    @pytest.mark.parametrize("command, flags, message", [
        ("predict", ["--model", "{model}", "--features", "{features}"], "unreadable model file"),
        ("importance", ["--model", "{model}"], "unreadable model file"),
        ("train", ["--features", "{features}"], "header must end with the label column"),
        ("eval", ["--features", "{features}"], "header must end with the label column"),
        ("correlate", ["--features", "{features}"], "header must end with the label column"),
    ])
    def test_refused_input_makes_no_out(self, tmp_path, caplog, command, flags, message):
        model = tmp_path / "model.json"
        model.write_text("not json\n", encoding="utf-8")
        features = tmp_path / "features.csv"
        features.write_text("x,y\n1,2\n", encoding="utf-8")
        argv = [f.format(model=model, features=features) for f in flags]
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run(command, *argv, "--out", out) == EXIT_ERROR
        assert message in caplog.text
        assert not out.exists()

    def test_one_system_makes_no_out(self, tmp_path, caplog):
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run("gen-synthetic", "--docs", 5, "--systems", "a", "--out", out) == EXIT_ERROR
        assert "--systems needs at least 2 names, not 'a'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--docs", -3], "--docs must be at least 1, not -3"),
        (["--docs", 0], "--docs must be at least 1, not 0"),
        (["--start-date", "1999-01-01", "--end-date", "1990-01-01"],
         "--end-date 1990-01-01 is before --start-date 1999-01-01"),
        (["--start-date", "2000-13-01"], "--start-date takes an ISO date, not '2000-13-01'"),
        (["--end-date", "soon"], "--end-date takes an ISO date, not 'soon'"),
    ])
    def test_refused_generator_flag_makes_no_out(self, tmp_path, caplog, flags, message):
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run("gen-synthetic", *flags, "--out", out) == EXIT_ERROR
        assert [r.getMessage() for r in caplog.records] == [message]
        assert not out.exists()

    def test_refused_gold_makes_no_out(self, labelled_dir, tmp_path, caplog):
        gold = tmp_path / "gold.tsv"
        gold.write_text("d1\tzz\tParis\tE\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("simulate", "--labels", labelled_dir / "labels.tsv", "--gold", gold,
                   "--out", out) == EXIT_ERROR
        assert "line 1: bad offset 'zz'" in caplog.text
        assert not out.exists()


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
        ("simulate", ["--budgets", "0.1,2.5"], "--budgets takes non-negative numbers "
                                               "(values < 1 are fractions), not '2.5'"),
        ("eval", ["--folds", 1], "--folds must be at least 2, not 1"),
        ("eval", ["--samples", "0.5,0"], "--samples takes fractions in (0, 1], not '0'"),
        ("eval", ["--samples", "1.5"], "--samples takes fractions in (0, 1], not '1.5'"),
        ("eval", ["--schemas", "file,file"], "--schemas takes distinct entries, not 'file,file'"),
        ("eval", ["--schemas", "all,,no_temporal,all"],
         "--schemas takes distinct entries, not 'all,,no_temporal,all'"),
        ("eval", ["--samples", "0.5,1,0.50"], "--samples takes distinct entries, not '0.5,1,0.50'"),
        ("train", ["--sample", 1.5], "--sample takes a fraction in (0, 1], not '1.5'"),
        ("train", ["--sample", -0.5], "--sample takes a fraction in (0, 1], not '-0.5'"),
        ("train", ["--sample", 0], "--sample takes a fraction in (0, 1], not '0.0'"),
        ("train", ["--sample", "nan"], "--sample takes a fraction in (0, 1], not 'nan'"),
        ("train", ["--variant", "bogus"], "unknown variant 'bogus'; expected one of "
                                          "('gaussian_nb', 'logistic_regression', "
                                          "'decision_tree', 'random_forest')"),
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
            # a file that is not there: train refuses its flags before reading it
            "train": ["--features", tmp_path / "missing.csv"],
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

    def test_no_temporal_key_rejected(self, tmp_path, caplog):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"no_temporal": True}), encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="eldiff"):
            assert run("features", "--config", path, "--out", tmp_path / "out") == EXIT_ERROR
        assert [r.getMessage() for r in caplog.records] == [
            "config key 'no_temporal' is not a flag of any command"]
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
