"""``label`` on code columns against its record path (``oracle_label``):
the same ``labels.tsv`` and ``label_distribution.txt``, the same conflict
warning, or the same error with the same line number, under both policies,
with and without ``--corpus`` and ``--redirects``."""

import datetime as dt
import logging
import re
import tempfile
from argparse import Namespace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_oracle import oracle_label
from eldiff.cli import EXIT_DEGENERATE, EXIT_OK, cmd_label
from eldiff.consensus import AlignPolicy
from eldiff.corpus import Corpus, Document, write_corpus
from eldiff.errors import MalformedRecordError

# "\U0001F600" and "\U00010348" are astral; "1984" is an all-digit doc id and surface
DOCS = ["d1", "D1", "1984", "\U0001F600"]
SURFACES = ["", "a", "ab", "Paris", "1984", "\U00010348", "a b", "\U0001F600x"]
# some raw ids normalize or redirect to one entity
ENTITIES = ["E1", "e1", "E 2", "Ent", " ent ", "\U0001F600", "1984"]
REDIRECTS = "E1\tEnt\nEnt\tE 2\n1984\tE1\n"
# the fourth document is absent, and a span past 8 or 20 ends past its document
TEXTS = {"d1": "x" * 20, "D1": "y" * 8, "1984": "\U0001F600" * 30}
BAD_LINES = ["d1\t007\tParis\tE1", "d1\t-1\tParis\tE1", "d1\t3\tParis\t", "d1\t3\tParis\t \x0b",
             "d1\t3\tParis", "d1\t3\tParis\tE1\tx", "d1\t\tParis\tE1"]

sites = st.tuples(st.sampled_from(DOCS), st.integers(0, 14), st.sampled_from(SURFACES))


@st.composite
def label_inputs(draw):
    """Two to four dumps whose lines mostly share a few sites, so exact twins,
    overlapping spans and conflicting duplicates are common; a dump may be
    empty and so miss everything. A blank line or a bad line may be put in."""
    shared = draw(st.lists(sites, min_size=1, max_size=6))
    dumps = []
    for _ in range(draw(st.integers(2, 4))):
        lines = draw(st.lists(
            st.one_of(
                st.tuples(st.sampled_from(shared) | sites, st.sampled_from(ENTITIES)).map(
                    lambda line: f"{line[0][0]}\t{line[0][1]}\t{line[0][2]}\t{line[1]}"),
                st.just("")),
            max_size=10))
        dumps.append(lines)
    if draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
        which = draw(st.integers(0, len(dumps) - 1))
        where = draw(st.integers(0, len(dumps[which])))
        dumps[which].insert(where, draw(st.sampled_from(BAD_LINES)))
    return (dumps, draw(st.sampled_from(list(AlignPolicy))), draw(st.booleans()),
            draw(st.booleans()))


class Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def column_label(out, paths, policy, corpus, redirects):
    """``cmd_label``: the conflict count it warned with, or the message of
    the error that ``main`` exits with."""
    args = Namespace(annotations=paths, policy=policy.value, out=out, corpus=corpus,
                     redirects=redirects)
    handler = Warnings()
    logger = logging.getLogger("eldiff")
    logger.addHandler(handler)
    try:
        assert cmd_label(args) in (EXIT_OK, EXIT_DEGENERATE)
    except (MalformedRecordError, KeyError, ValueError) as exc:
        return ("error", str(exc))
    finally:
        logger.removeHandler(handler)
    conflicts = [int(re.match(r"(\d+) \(document", m).group(1)) for m in handler.messages
                 if "linked to different entities" in m]
    assert len(conflicts) <= 1
    return ("ok", conflicts[0] if conflicts else 0)


def record_label(out, paths, policy, corpus, redirects):
    try:
        return ("ok", oracle_label(out, paths, policy, corpus, redirects))
    except (MalformedRecordError, KeyError, ValueError) as exc:
        return ("error", str(exc))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(inputs=label_inputs())
def test_columns_match_the_record_path(inputs):
    dumps, policy, with_corpus, with_redirects = inputs
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = []
        for i, lines in enumerate(dumps):
            paths.append(work / f"sys{i}.tsv")
            paths[-1].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        corpus = redirects = None
        if with_corpus:
            corpus = work / "corpus.jsonl"
            write_corpus(Corpus([Document(doc_id, dt.date(2000, 1, 1), "", text)
                                 for doc_id, text in TEXTS.items()]), corpus)
        if with_redirects:
            redirects = work / "redirects.tsv"
            redirects.write_text(REDIRECTS, encoding="utf-8")
        expected = record_label(work / "records", paths, policy, corpus, redirects)
        assert column_label(work / "columns", paths, policy, corpus, redirects) == expected
        if expected[0] == "error":
            assert not (work / "columns").exists()
            return
        for name in ("labels.tsv", "label_distribution.txt"):
            assert ((work / "columns" / name).read_bytes()
                    == (work / "records" / name).read_bytes())
