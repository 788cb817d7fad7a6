"""Spans around calls into eldiff's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at the name its callers look
it up by (for example ``eldiff.features.sentence_containing``, which the
feature extractor calls, rather than ``eldiff.corpus.sentence_containing``).
Private helpers and functions called millions of times are not wrapped;
their time shows up in the caller's self time.

Spans stay in memory. Attributes that need the call's arguments or result
are computed by ``Tracer.finish`` after the run, so they cost no span time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, float] = field(default_factory=dict)
    # (args, kwargs, result, attribute function), kept until finish()
    call: tuple | None = None


def _align_attrs(args, kwargs, result):
    sets = args[0]
    return {"annotations_in": float(sum(len(s) for s in sets)), "aligned": float(len(result)),
            "aligned_annotations": float(len(result) * len(sets))}


def _slice_attrs(args, kwargs, result):
    """Tokens and (centre, context) pairs a skip-gram trainer visits, counted
    from the token stream and window as the trainer defines them."""
    from collections import Counter

    from eldiff.corpus import segment_sentences

    docs, params = args[0], (kwargs["params"] if "params" in kwargs else args[1])
    sentences = []
    counts: Counter[str] = Counter()
    for doc in docs:
        for span in segment_sentences(doc):
            words = doc.text[span.start:span.end].split()
            if words:
                sentences.append(words)
                counts.update(words)
    tokens = pairs = 0
    w = params.window
    for sent in sentences:
        n = sum(1 for word in sent if counts[word] >= params.min_count)
        tokens += n
        pairs += sum(min(n, i + w + 1) - max(0, i - w) - 1 for i in range(n))
    return {"tokens": float(tokens * params.epochs), "pairs": float(pairs * params.epochs),
            "vocab": float(len(result))}


def _query_attrs(args, kwargs, result):
    return {"oov": 0.0 if result[1] else 1.0}


def _fit_attrs(args, kwargs, result):
    trees = getattr(result, "n_trees", None)
    if trees is None:
        trees = 1 if type(result).__name__ == "DecisionTreeModel" else 0
    return {"rows": float(len(args[1])), "trees": float(trees)}


def _predict_attrs(args, kwargs, result):
    return {"rows": float(len(result))}


def _load_attrs(args, kwargs, result):
    return {"bytes": float(os.path.getsize(args[0]))}


def _simulation_attrs(args, kwargs, result):
    return {"pool": float(result.n_evaluated)}


#: (module or class path, attribute, span name, attribute function). The span
#: name's prefix before the last dot is the layer.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("eldiff.consensus", "read_annotations", "consensus.read", None),
    ("eldiff.simulate", "read_annotations", "consensus.read", None),
    ("eldiff.consensus", "read_labels", "consensus.read", None),
    ("eldiff.consensus", "validate_annotations", "consensus.validate", None),
    ("eldiff.consensus", "write_labels", "consensus.write", None),
    ("eldiff.cli", "align", "consensus.align", _align_attrs),
    ("eldiff.cli", "load_corpus", "corpus.load", None),
    ("eldiff.features", "sentence_containing", "corpus.sentence", None),
    ("eldiff.features", "document_frequency", "corpus.df", None),
    ("eldiff.features", "temporal_document_frequency", "corpus.tdf", None),
    ("eldiff.embeddings", "train_slice_models", "embeddings.train_slices", None),
    ("eldiff.embeddings", "train_skipgram", "embeddings.train", _slice_attrs),
    ("eldiff.features", "semantic_stability", "embeddings.stability", None),
    ("eldiff.embeddings", "top_k_similar", "embeddings.query", _query_attrs),
    ("eldiff.embeddings", "save_model", "embeddings.save", None),
    ("eldiff.cli", "load_candidate_dictionary", "features.candidates", None),
    ("eldiff.cli", "count_doc_mentions", "features.doc_mentions", None),
    ("eldiff.features.FeatureExtractor", "extract", "features.extract", None),
    ("eldiff.features.FeatureTable", "impute", "features.impute", None),
    ("eldiff.features.FeatureTable", "write_csv", "features.write", None),
    ("eldiff.cli", "read_table", "features.read", None),
    ("eldiff.cli", "dataset_from_table", "learn.dataset.encode", None),
    ("eldiff.learn.models", "encode_table", "learn.dataset.encode", None),
    ("eldiff.cli", "cross_validate", "learn.validation.cv", None),
    ("eldiff.learn.validation", "undersample", "learn.validation.undersample", None),
    ("eldiff.learn.validation", "train", "learn.models.train", None),
    ("eldiff.cli", "train", "learn.models.train", None),
    ("eldiff.learn.models.GaussianNBModel", "fit", "learn.models.nb_fit", _fit_attrs),
    ("eldiff.learn.models.LogisticRegressionModel", "fit", "learn.models.lr_fit", _fit_attrs),
    ("eldiff.learn.models.DecisionTreeModel", "fit", "learn.models.tree_fit", _fit_attrs),
    ("eldiff.learn.models.RandomForestModel", "fit", "learn.models.forest_fit", _fit_attrs),
    ("eldiff.learn.models.GaussianNBModel", "predict_proba", "learn.models.predict", _predict_attrs),
    ("eldiff.learn.models.LogisticRegressionModel", "predict_proba", "learn.models.predict",
     _predict_attrs),
    ("eldiff.learn.models.DecisionTreeModel", "predict_proba", "learn.models.predict",
     _predict_attrs),
    ("eldiff.learn.models.RandomForestModel", "predict_proba", "learn.models.predict",
     _predict_attrs),
    ("eldiff.cli", "save_model", "learn.models.save", None),
    ("eldiff.cli", "load_model", "learn.models.load", _load_attrs),
    ("eldiff.learn.validation", "evaluate", "learn.metrics.evaluate", None),
    ("eldiff.cli", "paired_t_test", "learn.metrics.t_test", None),
    ("eldiff.cli", "mdi", "learn.analysis.mdi", None),
    ("eldiff.cli", "pearson_matrix", "learn.analysis.pearson", None),
    ("eldiff.cli", "run_simulation", "simulate.run", _simulation_attrs),
    ("eldiff.simulate", "select_mentions", "simulate.select", None),
    ("eldiff.simulate", "apply_feedback", "simulate.feedback", None),
    ("eldiff.simulate", "accuracy", "simulate.accuracy", None),
    ("eldiff.cli", "write_simulation_report", "simulate.write", None),
    ("eldiff.cli", "write_eval_reports", "reports.write", None),
    ("eldiff.cli", "write_mdi_report", "reports.write", None),
    ("eldiff.cli", "write_pearson_matrix", "reports.write", None),
]


def _resolve(path: str) -> Any:
    """A module, or a class inside a module, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    """Records one span per wrapped call: name, start, end and parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, 0.0, parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.call = (args, kwargs, result, attrs)
            return result

        return traced

    def install(self) -> None:
        for path, attribute, name, attrs in TARGETS:
            owner = _resolve(path)
            original = owner.__dict__[attribute]
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self.span(name, original, attrs))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def finish(self) -> list[dict]:
        """Compute deferred attributes and return the spans as plain records."""
        records = []
        for span in self.spans:
            if span.call is not None:
                args, kwargs, result, attrs = span.call
                span.attrs = attrs(args, kwargs, result)
                span.call = None
            records.append({"id": span.id, "name": span.name, "start": span.start,
                            "end": span.end, "parent": span.parent, "attrs": span.attrs})
        return records
