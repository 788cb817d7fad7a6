"""The one labels reader, ``consensus.read_labels``, in ``features``,
``predict`` and ``simulate`` against the record path it replaced: on every
variant of a generated labels file, the same output bytes, or the same
exit-2 message naming the same line."""

import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eldiff.cli import EXIT_ERROR, EXIT_OK, main
from simulate_oracle import oracle_features, oracle_predict, oracle_simulate

SYSTEMS = "alpha,beta,gamma"
FRACTIONS = [0.1, 5]
OTHER_LABEL = {"HARD": "MEDIUM", "MEDIUM": "EASY", "EASY": "HARD"}
#: How each odd line is made from a good one's fields. Every reader refuses
#: all but the last, naming the first of the line's faults in the order
#: offset, label, entities; ``simulate`` alone refuses a key given again
#: with entities from two systems instead of three.
ODD_LINES = {
    "bad offset": lambda f: [f[0], "0" + f[1], *f[2:]],
    "bad label": lambda f: [*f[:3], f[3].lower(), f[4]],
    "one entity": lambda f: [*f[:4], f[4].split(",")[0]],
    "short line": lambda f: f[:4],
    "bad offset and label": lambda f: [f[0], "0" + f[1], f[2], f[3].lower(), f[4]],
    "bad label and one entity": lambda f: [*f[:3], f[3].lower(), f[4].split(",")[0]],
    "two systems": lambda f: [*f[:4], "E1,E2"],
}


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    """A 60-doc synthetic fixture, its overlap labels, their feature table
    and a 5-tree forest trained on it."""
    root = tmp_path_factory.mktemp("labels_fixture")
    assert run("gen-synthetic", "--out", root, "--seed", 3, "--docs", 60) == EXIT_OK
    dumps = [root / f"{name}.tsv" for name in SYSTEMS.split(",")]
    assert run("label", "--annotations", *dumps, "--policy", "overlap", "--out", root) == EXIT_OK
    assert run("features", "--corpus", root / "corpus.jsonl", "--mentions", root / "labels.tsv",
               "--candidates", root / "candidates.tsv", "--out", root) == EXIT_OK
    assert run("train", "--features", root / "features.csv", "--schema", "simulation",
               "--trees", 5, "--seed", 3, "--out", root) == EXIT_OK
    return root


@st.composite
def variants(draw, lines, odd):
    """The lines reordered and repeated, with lines that repeat a key under
    another label or entity list, blank lines and the ``odd`` line, if
    any, as file text."""
    n = len(lines)
    picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
    if draw(st.integers(0, 3)) == 0:
        picks = list(range(n)) + picks
    chosen = [lines[i].split("\t") for i in picks]
    entity_lists = sorted({fields[4] for fields in chosen})
    for _ in range(draw(st.integers(0, 3))):
        fields = list(draw(st.sampled_from(chosen)))
        if draw(st.booleans()):
            fields[3] = OTHER_LABEL[fields[3]]
        else:
            fields[4] = draw(st.sampled_from(entity_lists))
        chosen.insert(draw(st.integers(0, len(chosen))), fields)
    if odd is not None:
        line = ODD_LINES[odd](draw(st.sampled_from(chosen)))
        chosen.insert(draw(st.integers(0, len(chosen))), line)
    text = ["\t".join(fields) + "\n" for fields in chosen]
    for position in draw(st.lists(st.integers(0, len(text)), max_size=3)):
        text.insert(position, "\n")
    return "".join(text)


class _Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def command(*argv):
    """The command's exit status and error messages."""
    errors = _Errors()
    logger = logging.getLogger("eldiff")
    logger.addHandler(errors)
    try:
        return run(*argv), errors.messages
    finally:
        logger.removeHandler(errors)


def oracle(write, *args, **kwargs):
    """The record path's exit status and error messages, as a command's."""
    try:
        write(*args, **kwargs)
    except Exception as exc:
        return EXIT_ERROR, [str(exc)]
    return EXIT_OK, []


def assert_same(outcome, expected, new, old, name):
    assert outcome == expected
    if outcome[0] == EXIT_OK:
        assert (new / name).read_bytes() == (old / name).read_bytes()
    else:
        assert not (new / name).exists()


@pytest.mark.parametrize("odd", [None, *ODD_LINES])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_commands_match_the_record_path(fixture, odd, data):
    lines = (fixture / "labels.tsv").read_text(encoding="utf-8").splitlines()
    text = data.draw(variants(lines, odd), label="labels file")
    corpus, candidates = fixture / "corpus.jsonl", fixture / "candidates.tsv"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        labels = tmp / "labels.tsv"
        labels.write_text(text, encoding="utf-8")
        new, old = tmp / "columns", tmp / "records"

        outcome = command("features", "--corpus", corpus, "--mentions", labels,
                          "--candidates", candidates, "--out", new)
        expected = oracle(oracle_features, old, corpus, labels, candidates)
        assert_same(outcome, expected, new, old, "features.csv")

        predictions = None
        if outcome[0] == EXIT_OK:
            outcome = command("predict", "--model", fixture / "model.json",
                              "--features", new / "features.csv", "--mentions", labels,
                              "--out", new)
            expected = oracle(oracle_predict, old, fixture / "model.json",
                              old / "features.csv", labels)
            assert_same(outcome, expected, new, old, "predictions.tsv")
            if outcome[0] == EXIT_OK:
                predictions = new / "predictions.tsv"

        flags = [] if predictions is None else ["--predictions", predictions]
        outcome = command("simulate", "--labels", labels, "--gold", fixture / "gold.tsv",
                          "--candidates", candidates, *flags, "--systems", SYSTEMS,
                          "--budgets", ",".join(map(str, FRACTIONS)), "--repetitions", 2,
                          "--seed", 3, "--out", new)
        expected = oracle(oracle_simulate, old, labels, fixture / "gold.tsv", FRACTIONS,
                          candidates=candidates, predictions=predictions, systems=SYSTEMS,
                          repetitions=2, seed=3)
        assert_same(outcome, expected, new, old, "simulation.tsv")
