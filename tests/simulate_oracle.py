"""The simulation's dict path, kept as an oracle for the code columns.

``oracle_simulate`` is ``cmd_simulate`` as it was before the files were read
into code columns: one record per line, the gold standard and predictions as
dicts keyed by ``(doc_id, offset, surface)`` tuples, pool order by
``sorted`` over those tuples, and CANDIDATES picks by ``np.lexsort``. The
adapters turn the column readers' rows back into the records and dicts they
stand for, and ``pool_from_mappings`` turns such dicts into the columns
that ``SimulationPool.from_columns`` joins.
"""

from itertools import islice

import numpy as np

from eldiff import consensus
from eldiff.consensus import CLASS_INDEX, CLASS_ORDER, Label, LabelledMention
from eldiff.errors import MalformedRecordError
from eldiff.features import load_candidate_dictionary
from eldiff.rand import derive_seed
from eldiff.simulate import (
    KeyedRows,
    LabelledRows,
    MentionCodes,
    SimulationPool,
    SimulationResult,
    Strategy,
    StrategyOutcome,
    budget_from_fraction,
    read_gold,
    read_labelled,
    read_predictions,
    write_simulation_report,
)


class OracleError(Exception):
    """A refusal that the command reports as a configuration error."""


# --- adapters: column rows as the records and dicts they stand for -----------------


def gold_entries(path, redirect_map=None):
    codes = MentionCodes()
    rows = read_gold(path, codes, redirect_map)
    names = list(codes.entities)
    return {codes.mention(k): names[e] for k, e in zip(rows.keys.tolist(), rows.values.tolist())}


def prediction_entries(path):
    codes = MentionCodes()
    rows = read_predictions(path, codes)
    return {codes.mention(k): CLASS_ORDER[c]
            for k, c in zip(rows.keys.tolist(), rows.values.tolist())}


def labelled_records(path):
    codes = MentionCodes()
    rows = read_labelled(path, codes)
    names = list(codes.entities)
    records = []
    for k, c, t in zip(rows.keys.tolist(), rows.labels.tolist(), rows.tuples.tolist()):
        doc_id, offset, surface = codes.mention(k)
        entities = tuple(names[e] for e in rows.entities[t])
        records.append(LabelledMention(doc_id, surface, offset, entities, CLASS_ORDER[c]))
    return records


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


# --- the dict path ----------------------------------------------------------------------


def oracle_read_gold(path, redirect_map=None):
    gold = {}
    for i, (doc_id, surface, offset, entity) in enumerate(
            consensus.read_annotations(path, redirect_map)):
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
        predictions[key] = consensus.parse_label(label_str, lineno)
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
    labelled = consensus.read_labels(labels)
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
    keys = [lm.key for lm in labelled]
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
