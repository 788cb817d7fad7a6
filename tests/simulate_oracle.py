"""The record paths of ``features``, ``predict`` and ``simulate``, kept as
oracles for the code columns.

``oracle_read_labels`` reads a labels file as the record reader did, one
``LabelledMention`` per line. ``oracle_features`` and ``oracle_predict`` are
``cmd_features`` and ``cmd_predict`` on those records, ``oracle_features``
with the per-mention extraction of ``features_oracle``. ``oracle_simulate``
is ``cmd_simulate`` as it was before the files were read into code columns:
one record per line, the gold standard and predictions as dicts keyed by
``(doc_id, offset, surface)`` tuples, pool order by ``sorted`` over those
tuples, and CANDIDATES picks by ``np.lexsort``. The adapters turn the
column readers' rows back into the records and dicts they stand for, and
``pool_from_mappings`` turns such dicts into the columns that
``SimulationPool.from_columns`` joins.
"""

from itertools import islice

import numpy as np

from eldiff import consensus
from consensus_oracle import LabelledMention, oracle_count_doc_mentions, oracle_offset
from consensus_oracle import oracle_read_annotations, row_records
from features_oracle import oracle_extract_all
from eldiff.consensus import CLASS_INDEX, CLASS_ORDER, Label, LabelledRows
from eldiff.corpus import load_corpus
from eldiff.errors import MalformedRecordError
from eldiff.features import (
    STABILITY_COLUMNS,
    FeatureExtractor,
    FeatureSchema,
    load_candidate_dictionary,
    read_table,
)
from eldiff.learn import load_model
from eldiff.rand import derive_seed
from eldiff.simulate import (
    KeyedRows,
    MentionCodes,
    SimulationPool,
    SimulationResult,
    Strategy,
    StrategyOutcome,
    budget_from_fraction,
    read_gold,
    read_predictions,
    write_simulation_report,
)


class OracleError(Exception):
    """A refusal that the command reports as a configuration error."""


# --- adapters: column rows as the records and dicts they stand for -----------------


def gold_entries(path, redirect_map=None):
    codes = MentionCodes()
    rows = read_gold(path, codes, redirect_map)
    mentions, names = codes.mentions(), list(codes.entities)
    return {mentions[k]: names[e] for k, e in zip(rows.keys.tolist(), rows.values.tolist())}


def prediction_entries(path):
    codes = MentionCodes()
    rows = read_predictions(path, codes)
    mentions = codes.mentions()
    return {mentions[k]: CLASS_ORDER[c] for k, c in zip(rows.keys.tolist(), rows.values.tolist())}


def labelled_records(path):
    """``consensus.read_labels``' columns as one ``LabelledMention`` a line."""
    codes = MentionCodes()
    return row_records(consensus.read_labels(path, codes), codes)


def pool_from_mappings(system_choices, gold, labels, predictions=None, cand_counts=None):
    """``SimulationPool.from_columns`` over dicts keyed by ``(doc_id, offset,
    surface)``: the pool of the mentions that every system links and the
    gold standard holds. A mention without a label or prediction codes -1
    and one missing from ``cand_counts`` counts 0; the pool counts by
    surface, so keys that share a surface must share a count."""
    codes = MentionCodes()

    def key_codes(keys):
        return np.array([codes.key(d, str(o), s, 0) for d, o, s in keys], dtype=np.intp)

    def entity(name):
        return codes.entities.setdefault(name, len(codes.entities))

    systems = tuple(system_choices)
    common = list(set.intersection(*(set(choices) for choices in system_choices.values())))
    labelled = LabelledRows(
        key_codes(common),
        np.array([CLASS_INDEX.get(labels.get(k), -1) for k in common], dtype=np.int8),
        np.arange(len(common), dtype=np.intp),
        [tuple(entity(system_choices[s][k]) for s in systems) for k in common])
    gold_rows = KeyedRows(key_codes(gold), np.array([entity(e) for e in gold.values()],
                                                    dtype=np.intp))
    prediction_rows = None if predictions is None else KeyedRows(
        key_codes(predictions),
        np.array([CLASS_INDEX[c] for c in predictions.values()], dtype=np.int8))
    surface_counts = None
    if cand_counts is not None:
        surface_counts = {}
        for (_, _, surface), count in cand_counts.items():
            assert surface_counts.setdefault(surface, count) == count, surface
    return SimulationPool.from_columns(codes, systems, labelled, gold_rows, prediction_rows,
                                       surface_counts)


# --- the record path ----------------------------------------------------------------------


def oracle_read_labels(path):
    """A labels file as one ``LabelledMention`` a line, built through its
    checking constructor, whose ValueError names the line."""
    labelled = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise MalformedRecordError(
                    lineno, f"expected 5 tab-separated fields, got {len(fields)}")
            doc_id, offset_str, surface, label_str, entities_str = fields
            offset = oracle_offset(offset_str, lineno)
            try:
                lbl = Label(label_str)
            except ValueError:
                raise MalformedRecordError(lineno, f"bad label {label_str!r}") from None
            entities = tuple(entities_str.split(","))
            try:
                labelled.append(LabelledMention(doc_id, surface, offset, entities, lbl))
            except ValueError as exc:
                raise MalformedRecordError(lineno, str(exc)) from None
    return labelled


def oracle_features(out, corpus, mentions, candidates):
    """Write ``features.csv`` into ``out`` as ``features`` did from records,
    with the default schema and no embeddings or dumps: ``d_ents`` counts
    the records' distinct spans per document."""
    corpus = load_corpus(corpus)
    labelled = oracle_read_labels(mentions)
    candidates = load_candidate_dictionary(candidates)
    doc_counts = oracle_count_doc_mentions([labelled])
    extractor = FeatureExtractor(corpus, candidates, doc_mention_counts=doc_counts)
    table = oracle_extract_all(extractor, [(lm.doc_id, lm.offset, lm.surface) for lm in labelled],
                               [CLASS_INDEX[lm.label] for lm in labelled])
    out.mkdir(parents=True, exist_ok=True)
    table.write_csv(out / "features.csv")


def oracle_predict(out, model, features, mentions):
    """Write ``predictions.tsv`` into ``out`` as ``predict --mentions`` did
    from records, with mean imputation, or raise the error it refused the
    input with."""
    model = load_model(model)
    file_schema, table = read_table(features)
    missing = [c for c in model.columns if c not in file_schema.columns]
    if missing:
        raise OracleError(f"model needs columns absent from the feature file: {missing}")
    schema = FeatureSchema(tuple(model.columns))
    table = table.impute(stability=all(c in schema.columns for c in STABILITY_COLUMNS))
    labelled = oracle_read_labels(mentions)
    if len(labelled) != len(table):
        raise OracleError(
            f"mentions file has {len(labelled)} rows but the feature table has {len(table)}")
    labels = [None if c < 0 else CLASS_ORDER[c] for c in table.labels().tolist()]
    for row, (lbl, lm) in enumerate(zip(labels, labelled), start=1):
        if lbl is not None and lbl is not lm.label:
            raise OracleError(f"feature row {row} is labelled {lbl} but mentions row {row} is "
                              f"{lm.label}: the files do not come from one run")
    keys = [(lm.doc_id, lm.offset, lm.surface) for lm in labelled]
    classes, probs = model.predict_table(table)
    labels = [CLASS_ORDER[c] for c in classes.tolist()]
    out.mkdir(parents=True, exist_ok=True)
    consensus.write_tsv(
        ((doc_id, str(offset), surface, label.value, f"{p0:.9g}", f"{p1:.9g}", f"{p2:.9g}")
         for (doc_id, offset, surface), label, (p0, p1, p2) in zip(keys, labels, probs.tolist())),
        out / "predictions.tsv")


# --- the dict path ----------------------------------------------------------------------


def oracle_read_gold(path, redirect_map=None):
    gold = {}
    for i, (doc_id, surface, offset, entity) in enumerate(
            oracle_read_annotations(path, redirect_map)):
        key = (doc_id, offset, surface)
        if gold.setdefault(key, entity) != entity:
            lineno, _ = next(islice(consensus.read_tsv(path, 4), i, None))
            raise MalformedRecordError(lineno, f"conflicting gold entries for mention {key}")
    return gold


def oracle_read_predictions(path):
    predictions = {}
    for lineno, (doc_id, offset_str, surface, label_str, *_) in consensus.read_tsv(
            path, 4, at_least=True):
        key = (doc_id, consensus.parse_offset(offset_str, lineno), surface)
        predictions[key] = CLASS_ORDER[consensus.parse_class(label_str, lineno)]
    return predictions


def _draw(rng, items, size):
    if size >= len(items):
        return items
    return items[rng.choice(len(items), size=size, replace=False)]


def lexsort_pick(negated_counts, n, rng):
    """The CANDIDATES pick as it was: a full ``np.lexsort`` per draw."""
    tie = rng.permutation(len(negated_counts))
    return np.lexsort((tie, negated_counts))[:n]


def oracle_selector(strategy, pool, labels, cand_counts):
    if strategy in (Strategy.DIFFICULT, Strategy.PRED_DIFFICULT):
        hard = np.array([i for i, k in enumerate(pool) if labels.get(k) is Label.HARD],
                        dtype=np.intp)
        medium = np.array([i for i, k in enumerate(pool) if labels.get(k) is Label.MEDIUM],
                          dtype=np.intp)

        def pick(n, rng):
            selected = _draw(rng, hard, min(n, len(hard)))
            if len(selected) < n:
                topup = _draw(rng, medium, min(n - len(selected), len(medium)))
                selected = np.concatenate((selected, topup))
            return selected
    elif strategy is Strategy.RANDOM:
        everything = np.arange(len(pool), dtype=np.intp)

        def pick(n, rng):
            return _draw(rng, everything, min(n, len(pool)))
    else:
        negated_counts = -np.array([cand_counts.get(k, 0) for k in pool])

        def pick(n, rng):
            return lexsort_pick(negated_counts, n, rng)
    return lambda n, seed: pick(n, np.random.default_rng(seed))


def oracle_run(system_choices, gold, labels, budgets, predictions, cand_counts, repetitions,
               seed):
    systems = tuple(system_choices)
    common = set.intersection(*(set(choices) for choices in system_choices.values()))
    pool = sorted(k for k in common if k in gold)
    strategies = [Strategy.DIFFICULT, Strategy.RANDOM]
    if predictions is not None:
        strategies.insert(1, Strategy.PRED_DIFFICULT)
    if cand_counts is not None:
        strategies.append(Strategy.CANDIDATES)
    n = len(pool)
    wrong = {s: np.array([system_choices[s][k] != gold[k] for k in pool], dtype=bool)
             for s in systems}
    n_wrong = {s: int(wrong[s].sum()) for s in systems}
    after = {}
    for strategy in strategies:
        strategy_labels = predictions if strategy is Strategy.PRED_DIFFICULT else labels
        select = oracle_selector(strategy, pool, strategy_labels, cand_counts)
        for budget_index, budget in enumerate(budgets):
            per_system = {s: [] for s in systems}
            for rep in range(repetitions):
                selected = select(budget, derive_seed(seed, strategy.value, budget_index, rep))
                for s in systems:
                    per_system[s].append((n - n_wrong[s] + int(wrong[s][selected].sum())) / n)
            for s in systems:
                values = np.array(per_system[s])
                after[(s, strategy.value, budget)] = StrategyOutcome(
                    float(values.mean()), float(values.std()), tuple(float(v) for v in values))
    return SimulationResult(systems, tuple(strategies), tuple(budgets), n,
                            {s: (n - n_wrong[s]) / n for s in systems}, after, repetitions, seed)


def oracle_simulate(out, labels, gold, fractions, *, candidates=None, predictions=None,
                    systems=None, redirects=None, repetitions=10, seed=0):
    """Write ``simulation.tsv`` and ``simulation_panels.tsv`` into ``out`` as
    the dict path did, or raise the error it refused the input with."""
    labelled = oracle_read_labels(labels)
    if not labelled:
        raise OracleError("the labels file is empty; nothing to simulate")
    redirect_map = consensus.read_redirects(redirects) if redirects is not None else None
    gold = oracle_read_gold(gold, redirect_map)
    n_systems = len(labelled[0].entities)
    if any(len(lm.entities) != n_systems for lm in labelled):
        raise OracleError("labels file mixes mentions with different system counts")
    systems = ([s for s in systems.split(",") if s] if systems
               else [f"system{i + 1}" for i in range(n_systems)])
    if len(systems) != n_systems:
        raise OracleError(f"{n_systems} systems in the labels file but {len(systems)} names given")
    keys = [(lm.doc_id, lm.offset, lm.surface) for lm in labelled]
    labels_map = {key: lm.label for key, lm in zip(keys, labelled)}
    choices = {system: {key: lm.entities[i] for key, lm in zip(keys, labelled)}
               for i, system in enumerate(systems)}
    cand_counts = None
    if candidates:
        dictionary = load_candidate_dictionary(candidates)
        cand_counts = {key: dictionary.get(key[2], 0) for key in keys}
    predictions_path = predictions
    predictions = oracle_read_predictions(predictions) if predictions else None
    pool = sorted(k for k in labels_map if k in gold)
    if not pool:
        raise OracleError("no labelled mention exists in the gold standard")
    if predictions is not None and all(k not in predictions for k in pool):
        raise OracleError(
            f"no prediction in {predictions_path} matches a pool mention; "
            "write predictions with `predict --mentions` so they carry mention keys")
    budgets = [budget_from_fraction(len(pool), v) if v < 1.0 else int(v) for v in fractions]
    seed = derive_seed(seed, "simulate")
    result = oracle_run(choices, gold, labels_map, budgets, predictions, cand_counts,
                        repetitions, seed)
    out.mkdir(parents=True, exist_ok=True)
    write_simulation_report(result, out / "simulation.tsv")
    panels = []
    for budget in result.budgets:
        panels.append((f"# budget {budget}",))
        panels.append(("strategy", *result.systems))
        panels.append(("before", *(f"{result.before[s]:.6f}" for s in result.systems)))
        for strategy in result.strategies:
            panels.append((strategy.value, *(
                f"{result.outcome(s, strategy, budget).mean_after:.6f}" for s in result.systems)))
    consensus.write_tsv(panels, out / "simulation_panels.tsv")
