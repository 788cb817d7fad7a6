"""End-to-end metrics from untraced repetitions, per-layer metrics from the
spans of one traced repetition. Times of untraced repetitions and of set-up
are given at the reference host speed (see ``pace.py``)."""

from __future__ import annotations

import statistics
from collections import defaultdict

import pace

#: Printed with ``--trace 0``: what a user of the CLI sees.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "mentions_per_s": "1/s",
}

#: Layers are the package modules; the CLI layer is the command itself.
LAYERS = ("consensus", "corpus", "embeddings", "features", "learn.dataset", "learn.validation",
          "learn.models", "learn.metrics", "learn.analysis", "simulate", "reports", "cli")

#: Commands timed on their own; each runs long enough to repeat within a tenth.
TIMED_COMMANDS = ("features", "eval", "train", "predict", "simulate")

_S, _N, _R = "s", "count", "ratio"
PER_LAYER = {
    "consensus.read_s": _S, "consensus.align_s": _S, "consensus.annotations_in": _N,
    "consensus.aligned": _N, "consensus.aligned_ratio": _R,
    "corpus.load_s": _S, "corpus.sentence_calls": _N, "corpus.sentence_s": _S,
    "corpus.df_calls": _N, "corpus.df_s": _S, "corpus.tdf_calls": _N, "corpus.tdf_s": _S,
    "embeddings.train_s": _S, "embeddings.slices": _N, "embeddings.tokens": _N,
    "embeddings.pairs": _N, "embeddings.pairs_per_s": "1/s", "embeddings.vocab_max": _N,
    "embeddings.vocab_mean": _N, "embeddings.query_calls": _N, "embeddings.query_s": _S,
    "embeddings.queries_per_s": "1/s", "embeddings.query_ms_p50": "ms",
    "embeddings.query_ms_p99": "ms", "embeddings.oov_ratio": _R, "embeddings.save_s": _S,
    "features.extract_calls": _N, "features.extract_self_s": _S, "features.mentions_per_s": "1/s",
    "features.df_hit_ratio": _R, "features.tdf_hit_ratio": _R, "features.stability_hit_ratio": _R,
    "features.write_s": _S, "features.read_s": _S, "features.impute_s": _S,
    "learn.dataset.encode_s": _S,
    "learn.validation.cv_s": _S, "learn.validation.folds": _N,
    "learn.models.nb_fit_s": _S, "learn.models.lr_fit_s": _S, "learn.models.tree_fit_s": _S,
    "learn.models.forest_fit_s": _S, "learn.models.fit_calls": _N,
    "learn.models.rows_fitted": _N, "learn.models.trees_fitted": _N,
    "learn.models.trees_per_s": "1/s", "learn.models.predict_s": _S,
    "learn.models.rows_predicted": _N, "learn.models.predict_rows_per_s": "1/s",
    "learn.models.save_s": _S, "learn.models.load_s": _S, "learn.models.model_bytes": "B",
    "learn.analysis.mdi_s": _S, "learn.analysis.pearson_s": _S,
    "simulate.run_s": _S, "simulate.pool": _N, "simulate.select_calls": _N,
    "simulate.select_s": _S, "simulate.feedback_s": _S, "simulate.accuracy_s": _S,
    "reports.write_s": _S,
    **{f"{layer}.self_s": _S for layer in LAYERS},
    **{f"{command}_s": _S for command in TIMED_COMMANDS},
    "trace.wall_s": _S, "trace.overhead_s": _S, "trace.spans": _N,
}


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile by the exclusive method; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[p - 1]


def wall(rep: dict) -> float:
    """An untraced repetition's wall time at the reference speed."""
    return pace.adjust(rep["wall_s"], rep["stolen_s"], rep["probe_spent_s"], rep["probe_cpu"])


def program_wall(rep: dict) -> float:
    """An untraced repetition's measured wall time without its probes."""
    return rep["wall_s"] - rep["probe_spent_s"]


def end_to_end(setup_times: list[float], reps: list[dict], rows: int) -> dict[str, float]:
    """Medians over the untraced repetitions; set-up is the median of its runs."""
    return {
        "setup_s": median(setup_times),
        "wall_s": median([wall(r) for r in reps]),
        "cpu_s": median([pace.adjust(r["cpu_s"], 0.0, r["probe_spent_s"], r["probe_cpu"])
                         for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "mentions_per_s": median([rows / wall(r) for r in reps]),
    }


def command_seconds(commands: list[list], reps: list[dict]) -> dict[str, float]:
    """Median wall time of each command that ran, keyed by command name; each
    is scaled by its repetition's adjusted / measured wall time."""
    times: dict[str, list[float]] = defaultdict(list)
    for rep in reps:
        scale = wall(rep) / rep["wall_s"]
        for argv, seconds in zip(commands, rep["seconds"]):
            times[argv[0]].append(seconds * scale)
    return {name: median(values) for name, values in times.items()}


def _layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[dict], traced_wall: float, untraced: list[dict],
              commands: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    A span's self time is its duration minus its children's durations; calls
    run on one thread, so children never overlap. Totals per name count only
    spans whose parent has another name, so recursion is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    attrs: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    durations: dict[str, list[float]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        name, duration = s["name"], s["end"] - s["start"]
        own = max(0.0, duration - child_time[s["id"]])
        calls[name] += 1
        durations[name].append(duration)
        self_time[name] += own
        layer_self[_layer(name)] += own
        parent = by_id.get(s["parent"])
        if parent is None or parent["name"] != name:
            total[name] += duration
        for key, value in s["attrs"].items():
            attrs[name][key] += value

    vocab = [s["attrs"]["vocab"] for s in spans if s["name"] == "embeddings.train"]
    model_bytes = [s["attrs"]["bytes"] for s in spans if s["name"] == "learn.models.load"]
    queries = durations["embeddings.query"]
    fit_names = ("learn.models.nb_fit", "learn.models.lr_fit", "learn.models.tree_fit",
                 "learn.models.forest_fit")
    tree_s = total["learn.models.tree_fit"] + total["learn.models.forest_fit"]
    cv_ids = {s["id"] for s in spans if s["name"] == "learn.validation.cv"}
    align = attrs["consensus.align"]
    extract = calls["features.extract"]
    metrics = {
        "consensus.read_s": total["consensus.read"],
        "consensus.align_s": total["consensus.align"],
        "consensus.annotations_in": align["annotations_in"],
        "consensus.aligned": align["aligned"],
        # share of the input annotations that ended in an aligned mention
        "consensus.aligned_ratio": _ratio(align["aligned_annotations"], align["annotations_in"]),
        "corpus.load_s": total["corpus.load"],
        "corpus.sentence_calls": calls["corpus.sentence"],
        "corpus.sentence_s": total["corpus.sentence"],
        "corpus.df_calls": calls["corpus.df"],
        "corpus.df_s": total["corpus.df"],
        "corpus.tdf_calls": calls["corpus.tdf"],
        "corpus.tdf_s": total["corpus.tdf"],
        "embeddings.train_s": total["embeddings.train"],
        "embeddings.slices": calls["embeddings.train"],
        "embeddings.tokens": attrs["embeddings.train"]["tokens"],
        "embeddings.pairs": attrs["embeddings.train"]["pairs"],
        "embeddings.pairs_per_s": _ratio(attrs["embeddings.train"]["pairs"],
                                         total["embeddings.train"]),
        "embeddings.vocab_max": max(vocab, default=0.0),
        "embeddings.vocab_mean": _ratio(sum(vocab), len(vocab)),
        "embeddings.query_calls": calls["embeddings.query"],
        "embeddings.query_s": total["embeddings.query"],
        "embeddings.queries_per_s": _ratio(calls["embeddings.query"], total["embeddings.query"]),
        "embeddings.query_ms_p50": 1000.0 * percentile(queries, 50),
        "embeddings.query_ms_p99": 1000.0 * percentile(queries, 99),
        "embeddings.oov_ratio": _ratio(attrs["embeddings.query"]["oov"], calls["embeddings.query"]),
        "embeddings.save_s": total["embeddings.save"],
        "features.extract_calls": extract,
        "features.extract_self_s": self_time["features.extract"],
        "features.mentions_per_s": _ratio(extract, total["features.extract"]),
        # memo-cache hit ratios: 1 - (corpus or embedding calls) / extract calls
        "features.df_hit_ratio": 1.0 - _ratio(calls["corpus.df"], extract) if extract else 0.0,
        "features.tdf_hit_ratio": 1.0 - _ratio(calls["corpus.tdf"], extract) if extract else 0.0,
        "features.stability_hit_ratio": (1.0 - _ratio(calls["embeddings.stability"], extract)
                                         if extract else 0.0),
        "features.write_s": total["features.write"],
        "features.read_s": total["features.read"],
        "features.impute_s": total["features.impute"],
        "learn.dataset.encode_s": total["learn.dataset.encode"],
        "learn.validation.cv_s": total["learn.validation.cv"],
        "learn.validation.folds": sum(1 for s in spans
                                      if s["name"] == "learn.models.train" and s["parent"] in cv_ids),
        "learn.models.nb_fit_s": total["learn.models.nb_fit"],
        "learn.models.lr_fit_s": total["learn.models.lr_fit"],
        "learn.models.tree_fit_s": total["learn.models.tree_fit"],
        "learn.models.forest_fit_s": total["learn.models.forest_fit"],
        "learn.models.fit_calls": sum(calls[n] for n in fit_names),
        "learn.models.rows_fitted": sum(attrs[n]["rows"] for n in fit_names),
        "learn.models.trees_fitted": sum(attrs[n]["trees"] for n in fit_names),
        "learn.models.trees_per_s": _ratio(sum(attrs[n]["trees"] for n in fit_names), tree_s),
        "learn.models.predict_s": total["learn.models.predict"],
        "learn.models.rows_predicted": attrs["learn.models.predict"]["rows"],
        "learn.models.predict_rows_per_s": _ratio(attrs["learn.models.predict"]["rows"],
                                                  total["learn.models.predict"]),
        "learn.models.save_s": total["learn.models.save"],
        "learn.models.load_s": total["learn.models.load"],
        "learn.models.model_bytes": max(model_bytes, default=0.0),
        "learn.analysis.mdi_s": total["learn.analysis.mdi"],
        "learn.analysis.pearson_s": total["learn.analysis.pearson"],
        "simulate.run_s": total["simulate.run"],
        "simulate.pool": attrs["simulate.run"]["pool"],
        "simulate.select_calls": calls["simulate.select"],
        "simulate.select_s": total["simulate.select"],
        "simulate.feedback_s": total["simulate.feedback"],
        "simulate.accuracy_s": total["simulate.accuracy"],
        "reports.write_s": total["reports.write"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    untraced_commands = command_seconds(commands, untraced)
    for command in TIMED_COMMANDS:
        metrics[f"{command}_s"] = untraced_commands.get(command, 0.0)
    metrics["trace.wall_s"] = traced_wall
    # both measured, neither adjusted: the traced repetition has no probes
    metrics["trace.overhead_s"] = traced_wall - median([program_wall(r) for r in untraced])
    metrics["trace.spans"] = len(spans)
    unknown = set(layer_self) - set(LAYERS)
    if unknown:
        raise ValueError(f"spans of unlisted layers: {sorted(unknown)}")
    return {name: float(metrics[name]) for name in PER_LAYER}
