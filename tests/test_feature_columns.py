"""``FeatureExtractor.extract_all`` on code columns against the per-mention
oracle of ``features_oracle``: every column bit for bit and the labels, or
the same first error."""

import datetime as dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from features_oracle import coded, oracle_extract_all
from eldiff.corpus import Corpus, Document
from eldiff.embeddings import EmbeddingModel
from eldiff.features import FEATURE_COLUMNS, FeatureConfig, FeatureExtractor

#: Text pieces: words, astral and accented code points, sentence marks and
#: runs without word characters.
PIECES = ["Paris", "a", "b", "ab", "a b", "x_1", "é", "\U0001F600", " ", "  ", "\t",
          ".", "!", "?", ";", "..", "-", ", "]
#: Surfaces that need not occur at their offset.
FOREIGN = ["Paris", "a b", "ab", "..", " ; ", "-", "\U0001F600 a", "zz"]
WORDS = ["Paris", "a", "b", "ab", "x_1", "é", "zz", "-"]
DOC_IDS = ["d0", "D0", "1984", "\U0001F600", "a,b"]
DATES = [dt.date(2000, 1, 31), dt.date(2000, 3, 1), dt.date(2000, 8, 31),
         dt.date(2001, 2, 28), dt.date(2004, 6, 15)]

documents = st.lists(
    st.tuples(st.lists(st.sampled_from(PIECES), min_size=1, max_size=12).map("".join),
              st.sampled_from(DATES), st.sampled_from(["", "SPORTS", "a,b"])),
    min_size=1, max_size=len(DOC_IDS),
)
#: A mention: a document number, a position in [0, 1) and a length choice;
#: a negative length picks a foreign surface.
mention_draws = st.lists(
    st.tuples(st.integers(0, len(DOC_IDS) - 1), st.floats(0, 1, exclude_max=True),
              st.integers(-len(FOREIGN), 6)),
    max_size=25,
)
#: A bad mention and where it goes: no document, past the text, an offset
#: beyond int64, or an empty surface.
BAD = ["unknown", "outside", "huge", "empty"]
bad_draws = st.lists(st.tuples(st.sampled_from(BAD), st.integers(0, 25)), max_size=2)


def _mentions(corpus, draws, repeat):
    """Legal mentions: a substring of the text at its offset, or a foreign
    surface that fits in the text; ``repeat`` appends the first ones again."""
    docs = list(corpus)
    mentions = []
    for number, where, length in draws:
        text = docs[number % len(docs)].text
        if length < 0:
            surface = FOREIGN[-length - 1]
            if len(surface) > len(text):
                continue
            offset = int(where * (len(text) - len(surface) + 1))
        else:
            offset = int(where * len(text))
            surface = text[offset:offset + max(length, 1)]
        mentions.append((docs[number % len(docs)].id, offset, surface))
    return mentions + mentions[:repeat]


def _bad(corpus, kind):
    doc = next(iter(corpus))
    return {
        "unknown": ("nowhere", 0, "a"),
        "outside": (doc.id, len(doc.text), "a"),
        "huge": (doc.id, 2 ** 70, "a"),
        "empty": (doc.id, 0, ""),
    }[kind]


def _models(n, seed):
    """``n`` slice models over overlapping vocabularies."""
    rng = np.random.default_rng(seed)
    models = []
    for i in range(n):
        vocab = [w for w in WORDS if rng.random() < 0.8] or WORDS[:1]
        vectors = rng.normal(size=(len(vocab), 3)).astype(np.float32)
        models.append(EmbeddingModel({w: j for j, w in enumerate(vocab)}, vectors, str(2000 + i)))
    return models


def _outcome(extract):
    """Each column's dtype and bytes (its values for d_topic) and the
    labels', or the error's type and message."""
    try:
        table = extract()
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    columns = {c: (table.column(c) if c == "d_topic"
                   else (table.column(c).dtype, table.column(c).tobytes()))
               for c in FEATURE_COLUMNS}
    return columns, table.labels().dtype, table.labels().tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(docs=documents, draws=mention_draws, repeat=st.integers(0, 3), bad=bad_draws,
       n_models=st.integers(0, 2), seed=st.integers(0, 2 ** 16), top_k=st.integers(1, 3),
       window=st.integers(1, 12), cand=st.sets(st.sampled_from(FOREIGN + PIECES)),
       ents=st.sets(st.sampled_from(DOC_IDS)), ghost=st.booleans(), data=st.data())
def test_columns_match_the_per_mention_oracle(docs, draws, repeat, bad, n_models, seed, top_k,
                                             window, cand, ents, ghost, data):
    corpus = Corpus(Document(doc_id, date, topic, text)
                    for doc_id, (text, date, topic) in zip(DOC_IDS, docs))
    mentions = _mentions(corpus, draws, repeat)
    for kind, at in bad:
        mentions.insert(min(at, len(mentions)), _bad(corpus, kind))
    labels = data.draw(st.lists(st.integers(-1, 2), min_size=len(mentions),
                                max_size=len(mentions)))
    candidates = {surface: 1 + len(surface) for surface in cand}
    counts = {doc_id: 2 * len(doc_id) for doc_id in ents}
    models = _models(n_models, seed)
    config = FeatureConfig(window_months=window, top_k=top_k)

    def extractor():
        return FeatureExtractor(corpus, candidates, models, config, counts)

    # a key that no row names, of a document the corpus lacks, must not count
    codes, keys = coded(mentions, coded([("ghost", 0, "a")])[0] if ghost else None)
    expected = _outcome(lambda: oracle_extract_all(extractor(), mentions, labels))
    columns = extractor()
    assert _outcome(lambda: columns.extract_all(codes, keys, labels)) == expected
    # a second call on the same extractor reuses its stability cache
    half = len(mentions) // 2
    expected = _outcome(lambda: oracle_extract_all(extractor(), mentions[half:], labels[half:]))
    assert _outcome(lambda: columns.extract_all(codes, keys[half:], labels[half:])) == expected
