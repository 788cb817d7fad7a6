"""Per-mention feature extraction, kept as the oracle for the column path.

``oracle_extract_all`` computes every feature of every mention on its own,
one row of Python values per mention, as ``FeatureExtractor`` did before it
computed each feature once per document, surface or (document, surface)
pair. The table is built through the ``FeatureTable`` constructor from
those rows. ``coded`` interns mention keys, so a test can give the same
mentions to ``FeatureExtractor.extract_all``.
"""

import numpy as np

from eldiff.consensus import MentionCodes
from eldiff.corpus import (
    count_occurrences,
    document_frequency,
    segment_sentences,
    sentence_containing,
    temporal_document_frequency,
)
from eldiff.embeddings import StabilityResult, semantic_stability
from eldiff.features import FEATURE_COLUMNS, FeatureTable, stability_word


def coded(mentions, codes=None):
    """A ``MentionCodes`` (``codes``, or a new one) holding the keys of
    ``mentions``, ``(doc_id, offset, surface)`` with offsets of any int
    size, and each mention's key code."""
    codes = MentionCodes() if codes is None else codes
    keys = [codes.key(doc_id, str(offset), surface, 1) for doc_id, offset, surface in mentions]
    return codes, np.array(keys, dtype=np.intp)


def oracle_row(extractor, mention, stability):
    """One mention's values in ``FEATURE_COLUMNS`` order, from the inputs
    ``extractor`` was made with; ``stability`` memoizes each word's."""
    doc_id, offset, surface = mention
    corpus, config = extractor.corpus, extractor.config
    doc = corpus.get(doc_id)
    if offset < 0 or offset + len(surface) > len(doc.text):
        raise ValueError(
            f"mention {surface!r} at {doc_id}:{offset} lies outside the document text"
        )
    span = sentence_containing(doc, offset, segment_sentences(doc))
    result = StabilityResult.missing()
    if len(extractor.models) >= 2:
        word = stability_word(surface)
        if word not in stability:
            stability[word] = semantic_stability(extractor.models, word, config.top_k)
        result = stability[word]
    return (
        len(surface),
        len(surface.split()),
        count_occurrences(doc, surface),
        document_frequency(corpus, surface),
        extractor.candidates.get(surface, 0),
        offset / len(doc.text),
        len(span) if span is not None else 0,
        len(doc.text.split()),
        doc.topic,
        extractor.doc_mention_counts.get(doc_id, 0),
        config.kb_year - doc.publication_date.year,
        temporal_document_frequency(corpus, surface, doc.publication_date,
                                    config.window_months),
        result.minimum,
        result.maximum,
        result.average,
    )


def oracle_extract_all(extractor, mentions, labels):
    """The feature table of ``mentions``, one row each, in order, with the
    class indices ``labels``; the first bad mention raises its error."""
    stability = {}
    rows = [oracle_row(extractor, mention, stability) for mention in mentions]
    columns = zip(*rows) if rows else [()] * len(FEATURE_COLUMNS)
    return FeatureTable(dict(zip(FEATURE_COLUMNS, columns)), labels)
