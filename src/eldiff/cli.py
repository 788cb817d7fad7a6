"""Command-line pipeline: label, features, train, eval, predict, importance,
correlate, simulate, gen-synthetic.

Configuration comes from an optional flat JSON file (--config) whose keys
match the flag names; explicit flags win. One master seed drives every
randomized stage through documented derivations, and each stage logs its
derived seed so it can be re-run in isolation.

Exit statuses: 0 success, 2 validation/configuration or file-system error,
3 completed with a degenerate result (for example an empty alignment).
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import consensus, embeddings, synth
from .consensus import CLASS_ORDER, AlignPolicy, MentionCodes, align
from .consensus import class_distribution
from .corpus import GeneratorConfig, load_corpus
from .errors import AllMissingError, EldiffError
from .features import (
    FEATURE_COLUMNS,
    STABILITY_COLUMNS,
    FeatureConfig,
    FeatureExtractor,
    FeatureSchema,
    count_doc_mentions,
    load_candidate_dictionary,
    read_table,
)
from .learn import (
    VARIANTS,
    RandomForestModel,
    cross_validate,
    dataset_from_table,
    load_model,
    mdi,
    paired_t_test,
    pearson_matrix,
    save_model,
    stratified_sample,
    train,
    undersample,
)
from .rand import derive_seed
from .reports import (
    EvalCell,
    render_eval_table,
    render_significance,
    write_eval_reports,
    write_mdi_report,
    write_pearson_matrix,
)
from .simulate import (
    SimulationPool,
    budget_from_fraction,
    read_gold,
    read_predictions,
    run_simulation,
    write_simulation_report,
)

log = logging.getLogger("eldiff")

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_DEGENERATE = 3


class CliError(Exception):
    """User-facing configuration or validation error (exit status 2)."""


_DEFAULTS: dict[str, object] = {
    "seed": 0,
    "out": ".",
    "policy": "exact",
    "docs": 120,
    "start_date": "1990-01-01",
    "end_date": "1999-12-31",
    "embed_dim": 300,
    "embed_window": 5,
    "embed_epochs": 5,
    "embed_negatives": 5,
    "embed_min_count": 5,
    "slice_years": 1,
    "kb_year": 2016,
    "window_months": 6,
    "top_k": 50,
    "train_embeddings": False,
    "variant": "random_forest",
    "balanced": False,
    "sample": 1.0,
    "impute": "mean",
    "impute_value": 0.0,
    "trees": 100,
    "folds": 10,
    "variants": "random_forest",
    "balancing": "both",
    "samples": "1.0",
    "budgets": "0.05,0.10,0.15",
    "repetitions": 10,
}


def _require(args: argparse.Namespace, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise CliError(f"--{name.replace('_', '-')} is required (flag or config file)")
    return value


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_schema(text: str | None, file_schema: FeatureSchema) -> FeatureSchema:
    """Named schema presets, 'file' for the table's own columns, or an
    explicit comma-separated column list."""
    if text is None or text == "file":
        return file_schema
    named = {
        "all": FeatureSchema.all,
        "m_cand": FeatureSchema.candidate_count,
        "m_len": FeatureSchema.mention_length,
        "no_temporal": FeatureSchema.without_temporal,
        "simulation": FeatureSchema.simulation_preset,
    }
    if text in named:
        return named[text]()
    columns = tuple(c for c in text.split(",") if c)
    try:
        return FeatureSchema(columns)
    except ValueError as exc:
        raise CliError(f"bad schema {text!r}: {exc}") from None


def _imputed(table, schema: FeatureSchema, args) -> object:
    stability = all(c in schema.columns for c in STABILITY_COLUMNS)
    try:
        return table.impute(strategy=args.impute, constant=args.impute_value, stability=stability)
    except AllMissingError as exc:
        raise CliError(f"{exc}: the table has no stability values (features ran without "
                       "embeddings); use --impute constant, or a --schema without "
                       f"{'/'.join(STABILITY_COLUMNS)}") from None


# ---------------------------------------------------------------------------
# Subcommands


def _system_names(args) -> list[str] | None:
    """The names that ``--systems`` gives, or None without it. An empty or
    repeated name is refused, before any input is read."""
    if not args.systems:
        return None
    names = args.systems.split(",")
    if "" in names or len(set(names)) < len(names):
        raise CliError(f"--systems takes distinct non-empty names, not {args.systems!r}")
    return names


def _date(args, name: str) -> dt.date:
    """The ISO date of a flag, refused before any output is made."""
    text = getattr(args, name)
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise CliError(f"--{name.replace('_', '-')} takes an ISO date, not {text!r}") from None


def cmd_gen_synthetic(args) -> int:
    _check_at_least(args, "docs")
    systems = tuple(_system_names(args) or ("alpha", "beta", "gamma"))
    if len(systems) < 2:
        raise CliError(f"--systems needs at least 2 names, not {args.systems!r}")
    start, end = _date(args, "start_date"), _date(args, "end_date")
    if end < start:
        raise CliError(f"--end-date {end} is before --start-date {start}")
    out = _out_dir(args)
    config = GeneratorConfig(n_docs=args.docs, start_date=start, end_date=end)
    log.info("derived seeds: corpus %d, annotations %d",
             derive_seed(args.seed, "corpus"), derive_seed(args.seed, "annotations"))
    paths = synth.write_fixture(out, args.seed, corpus_config=config, systems=systems)
    log.info("synthetic fixture written to %s (corpus %s, %d systems)",
             out, paths.corpus.name, len(systems))
    return EXIT_OK


def cmd_label(args) -> int:
    paths = getattr(args, "annotations", None)
    if not paths or len(paths) < 2:
        raise CliError("labelling needs at least 2 annotation dumps (--annotations)")
    redirects = (consensus.read_redirects(args.redirects) if args.redirects is not None
                 else None)
    codes = MentionCodes()
    dumps = [consensus.read_annotations(p, codes, redirect_map=redirects) for p in paths]
    if args.corpus:
        corpus = load_corpus(args.corpus)
        for dump in dumps:
            consensus.validate_annotations(dump, codes, corpus)
    labelled = align(dumps, codes, AlignPolicy(args.policy))
    out = _out_dir(args)
    labels_path = out / "labels.tsv"
    consensus.write_labels(labelled, codes, labels_path)
    dist = class_distribution(labelled.labels)
    consensus.write_tsv(
        [("total", str(dist.total)),
         *((lbl.value, str(dist.counts[lbl]),
            "-" if dist.fractions is None else f"{dist.fractions[lbl]:.6f}")
           for lbl in consensus.CLASS_ORDER)],
        out / "label_distribution.txt")
    log.info("wrote %d labels to %s", dist.total, labels_path)
    if dist.total == 0:
        log.warning("alignment produced zero common mentions; labels file is empty")
        return EXIT_DEGENERATE
    return EXIT_OK


def _load_slice_models(directory: str) -> list[embeddings.EmbeddingModel]:
    files = sorted(Path(directory).glob("*.vec"))
    if not files:
        raise CliError(f"no .vec slice models found in {directory}")
    return [embeddings.load_model(p) for p in files]


def cmd_features(args) -> int:
    for name in ("window_months", "top_k", "embed_dim", "embed_window", "embed_epochs",
                 "embed_negatives", "embed_min_count", "slice_years"):
        _check_at_least(args, name)
    corpus = load_corpus(_require(args, "corpus"))
    codes = MentionCodes()
    labelled = consensus.read_labels(_require(args, "mentions"), codes)
    candidates = load_candidate_dictionary(_require(args, "candidates"))

    schema = _parse_schema(args.schema, FeatureSchema.all())
    if args.annotations:
        doc_counts = count_doc_mentions(args.annotations)
    else:
        doc_counts = codes.doc_counts()

    models: list[embeddings.EmbeddingModel] = []
    needs_stability = any(c in schema.columns for c in STABILITY_COLUMNS)
    if needs_stability:
        if args.embeddings:
            models = _load_slice_models(args.embeddings)
        elif args.train_embeddings:
            embed_seed = derive_seed(args.seed, "embeddings")
            log.info("training slice embeddings (derived seed %d)", embed_seed)
            params = embeddings.EmbeddingParams(
                dim=args.embed_dim,
                window=args.embed_window,
                negatives=args.embed_negatives,
                epochs=args.embed_epochs,
                min_count=args.embed_min_count,
                seed=embed_seed,
            )
            models = embeddings.train_slice_models(corpus, params, years=args.slice_years)
            model_dir = _out_dir(args) / "embeddings"
            model_dir.mkdir(exist_ok=True)
            for i, model in enumerate(models):
                embeddings.save_model(model, model_dir / f"{i:03d}_{model.slice_label}.vec")
        else:
            log.info("no embedding models supplied; stability features will be missing")

    config = FeatureConfig(
        kb_year=args.kb_year,
        window_months=args.window_months,
        top_k=args.top_k,
    )
    extractor = FeatureExtractor(corpus, candidates, models, config, doc_counts)
    table = extractor.extract_all(codes, labelled.keys, labelled.labels)
    features_path = _out_dir(args) / "features.csv"
    columns = None if schema.columns == FEATURE_COLUMNS else schema.columns
    table.write_csv(features_path, columns=columns)
    log.info("wrote %d feature rows to %s", len(table), features_path)
    return EXIT_OK


def _check_at_least(args, name: str, least: int = 1) -> None:
    """Refuse an integer flag below ``least``, before any input is read."""
    value = getattr(args, name)
    if value < least:
        raise CliError(f"--{name.replace('_', '-')} must be at least {least}, not {value}")


def _numbers(args, name: str, ok, expected: str) -> list[float]:
    """The comma-separated numbers of a flag, refusing any that is not a
    number or fails ``ok``, before any input is read."""
    values = []
    for token in getattr(args, name).split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise CliError(f"--{name} takes {expected}, not {token!r}")
        values.append(value)
    return values


def cmd_train(args) -> int:
    if args.variant not in VARIANTS:
        raise CliError(f"unknown variant {args.variant!r}; expected one of {VARIANTS}")
    if args.variant == "random_forest":
        _check_at_least(args, "trees")
    if not 0.0 < args.sample <= 1.0:
        raise CliError(f"--sample takes a fraction in (0, 1], not {str(args.sample)!r}")
    file_schema, table = read_table(_require(args, "features"))
    schema = _parse_schema(args.schema, file_schema)
    missing = [c for c in schema.columns if c not in file_schema.columns]
    if missing:
        raise CliError(f"schema columns absent from the feature file: {missing}")
    table = _imputed(table, schema, args)
    dataset = dataset_from_table(table, schema)
    if args.sample < 1.0:
        sample_seed = derive_seed(args.seed, "sample")
        log.info("stratified sample at %.4f (derived seed %d)", args.sample, sample_seed)
        dataset = stratified_sample(dataset, args.sample, sample_seed)
    if args.balanced:
        balance_seed = derive_seed(args.seed, "balance")
        log.info("undersampling training data (derived seed %d)", balance_seed)
        keep = undersample(np.arange(len(dataset)), dataset.y, balance_seed)
        dataset = dataset.subset(keep)
    hyper = {"n_trees": args.trees} if args.variant == "random_forest" else {}
    train_seed = derive_seed(args.seed, "train")
    log.info("training %s on %d rows (derived seed %d)", args.variant, len(dataset), train_seed)
    model = train(dataset, args.variant, seed=train_seed, **hyper)
    model_path = _out_dir(args) / "model.json"
    save_model(model, model_path)
    log.info("model written to %s", model_path)
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(_require(args, "model"))
    file_schema, table = read_table(_require(args, "features"))
    missing = [c for c in model.columns if c not in file_schema.columns]
    if missing:
        raise CliError(f"model needs columns absent from the feature file: {missing}")
    schema = FeatureSchema(tuple(model.columns))
    table = _imputed(table, schema, args)
    if not args.mentions:
        keys = [("-", i, "-") for i in range(len(table))]
    else:
        codes = MentionCodes()
        labelled = consensus.read_labels(args.mentions, codes)
        if len(labelled.keys) != len(table):
            raise CliError(f"mentions file has {len(labelled.keys)} rows but the feature table "
                           f"has {len(table)}")
        # files from one run carry the same label row for row
        labels = table.labels()
        mismatches = np.flatnonzero((labels >= 0) & (labels != labelled.labels))
        if mismatches.size:
            row = int(mismatches[0])
            raise CliError(f"feature row {row + 1} is labelled {CLASS_ORDER[labels[row]]} but "
                           f"mentions row {row + 1} is {CLASS_ORDER[labelled.labels[row]]}: "
                           "the files do not come from one run")
        keys = codes.mentions(labelled.keys.tolist())
    classes, probs = model.predict_table(table)
    names = np.array([lbl.value for lbl in CLASS_ORDER])[classes].tolist()
    predictions_path = _out_dir(args) / "predictions.tsv"
    consensus.write_tsv(
        ((doc_id, str(offset), surface, name, f"{p0:.9g}", f"{p1:.9g}", f"{p2:.9g}")
         for (doc_id, offset, surface), name, (p0, p1, p2) in zip(keys, names, probs.tolist())),
        predictions_path)
    log.info("wrote %d predictions to %s", len(names), predictions_path)
    return EXIT_OK


def cmd_eval(args) -> int:
    variants = [v for v in args.variants.split(",") if v]
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        raise CliError(f"unknown variants {unknown}; expected a subset of {VARIANTS}")
    if "random_forest" in variants:
        _check_at_least(args, "trees")
    _check_at_least(args, "folds", 2)
    samples = _numbers(args, "samples", lambda v: 0.0 < v <= 1.0, "fractions in (0, 1]")
    schema_names = [s for s in (args.schemas or "file").split(",") if s]
    # a repeated entry would run its cells again and test them against themselves
    for name, entries in (("schemas", schema_names), ("samples", samples)):
        if len(set(entries)) < len(entries):
            raise CliError(f"--{name} takes distinct entries, not {getattr(args, name)!r}")
    file_schema, table = read_table(_require(args, "features"))
    balancing = {"unbalanced": [False], "balanced": [True], "both": [False, True]}[args.balancing]

    log.info("cross-validation uses derived seed %d", derive_seed(args.seed, "eval"))
    cells: list[EvalCell] = []
    for schema_name in schema_names:
        schema = _parse_schema(schema_name, file_schema)
        missing = [c for c in schema.columns if c not in file_schema.columns]
        if missing:
            raise CliError(f"schema {schema_name!r} needs columns absent from the file: {missing}")
        imputed = _imputed(table, schema, args)
        full = dataset_from_table(imputed, schema)
        for sample_idx, fraction in enumerate(samples):
            dataset = (
                stratified_sample(full, fraction, derive_seed(args.seed, "sample", sample_idx))
                if fraction < 1.0
                else full
            )
            for variant in variants:
                hyper = {"n_trees": args.trees} if variant == "random_forest" else {}
                for balanced in balancing:
                    result = cross_validate(dataset, variant, k=args.folds, balanced=balanced,
                                            seed=derive_seed(args.seed, "eval"), **hyper)
                    cells.append(EvalCell(schema_name, variant, balanced, fraction, result))

    significance = None
    if len(variants) > 1:
        rows = []
        for schema_name in schema_names:
            for fraction in samples:
                for balanced in balancing:
                    group = [c for c in cells
                             if c.schema == schema_name and c.sample == fraction
                             and c.balanced == balanced]
                    for i in range(len(group)):
                        for j in range(i + 1, len(group)):
                            rows.append((
                                f"{schema_name}/{group[i].variant}"
                                f"/{'bal' if balanced else 'unbal'}/{fraction}",
                                f"{schema_name}/{group[j].variant}"
                                f"/{'bal' if balanced else 'unbal'}/{fraction}",
                                paired_t_test(group[i].result.fold_macro_f1,
                                              group[j].result.fold_macro_f1),
                            ))
        significance = render_significance(rows)

    out = _out_dir(args)
    write_eval_reports(cells, out / "eval_report.txt", out / "eval_report.json", significance)
    sys.stdout.write(render_eval_table(cells))
    log.info("evaluation reports written to %s", out)
    return EXIT_OK


def cmd_importance(args) -> int:
    model = load_model(_require(args, "model"))
    if not isinstance(model, RandomForestModel):
        raise CliError("importance requires a random forest model")
    out = _out_dir(args)
    write_mdi_report(mdi(model), out / "mdi.tsv")
    log.info("importance ranking written to %s", out / "mdi.tsv")
    return EXIT_OK


def cmd_correlate(args) -> int:
    file_schema, table = read_table(_require(args, "features"))
    stability_present = all(c in file_schema.columns for c in STABILITY_COLUMNS)
    columns = None
    try:
        imputed = table.impute(strategy="mean", stability=stability_present)
    except AllMissingError:
        imputed = table.impute(strategy="mean", stability=False)
        columns = tuple(
            c for c in file_schema.columns
            if c not in STABILITY_COLUMNS and c != "d_topic"
        )
        log.warning("stability features are missing everywhere; excluded from correlation")
    dataset = dataset_from_table(imputed, file_schema, require_labels=False)
    result = pearson_matrix(dataset, columns)
    out = _out_dir(args)
    write_pearson_matrix(result, out / "pearson.tsv")
    log.info("correlation matrix written to %s", out / "pearson.tsv")
    return EXIT_OK


def cmd_simulate(args) -> int:
    _check_at_least(args, "repetitions")
    fractions = _numbers(args, "budgets", lambda v: 0.0 <= v and (v < 1.0 or v.is_integer()),
                         "non-negative numbers (values < 1 are fractions)")
    names = _system_names(args)
    codes = MentionCodes()
    labelled = consensus.read_labels(_require(args, "labels"), codes)
    if not len(labelled.keys):
        raise CliError("the labels file is empty; nothing to simulate")
    redirects = (consensus.read_redirects(args.redirects) if args.redirects is not None
                 else None)
    gold = read_gold(_require(args, "gold"), codes, redirects)
    n_systems = len(labelled.entities[labelled.tuples[0]])
    if any(len(entities) != n_systems for entities in labelled.entities):
        raise CliError("labels file mixes mentions with different system counts")
    systems = names or [f"system{i + 1}" for i in range(n_systems)]
    if len(systems) != n_systems:
        raise CliError(f"{n_systems} systems in the labels file but {len(systems)} names given")

    cand_counts = load_candidate_dictionary(args.candidates) if args.candidates else None
    predictions = read_predictions(args.predictions, codes) if args.predictions else None
    pool = SimulationPool.from_columns(codes, systems, labelled, gold, predictions, cand_counts)
    if not len(pool):
        raise CliError("no labelled mention exists in the gold standard")
    log.info("simulation pool: %d mentions; %d labelled mentions are outside the gold standard",
             len(pool), len(np.unique(labelled.keys)) - len(pool))
    if predictions is not None:
        unpredicted = int((pool.predicted < 0).sum())
        if unpredicted == len(pool):
            raise CliError(
                f"no prediction in {args.predictions} matches a pool mention; "
                "write predictions with `predict --mentions` so they carry mention keys"
            )
        log.log(logging.WARNING if unpredicted else logging.INFO,
                "%d pool mentions have no prediction; pred_difficult treats them as not HARD",
                unpredicted)
    budgets = [budget_from_fraction(len(pool), value) if value < 1.0 else int(value)
               for value in fractions]

    sim_seed = derive_seed(args.seed, "simulate")
    log.info("simulating %d strategies over %d mentions (derived seed %d)",
             2 + (predictions is not None) + (cand_counts is not None), len(pool), sim_seed)
    result = run_simulation(pool, budgets, repetitions=args.repetitions, seed=sim_seed)
    out = _out_dir(args)
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
    log.info("simulation reports written to %s", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; a process that runs several commands would
    # otherwise rebuild it, about 3 ms, for each.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON config file; flags win over it")
    common.add_argument("--seed", type=int, help="master seed (default 0)")
    common.add_argument("--threads", type=int,
                        help="has no effect; accepted so existing scripts and configs still run")
    common.add_argument("--out", help="output directory (default .)")

    parser = argparse.ArgumentParser(
        prog="eldiff",
        description="Entity-linking difficulty: consensus labels, classifiers, feedback simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", parents=[common],
                       help="generate the synthetic corpus + annotation fixture")
    p.add_argument("--docs", type=int, help="number of documents")
    p.add_argument("--start-date", dest="start_date", help="first publication date (ISO)")
    p.add_argument("--end-date", dest="end_date", help="last publication date (ISO)")
    p.add_argument("--systems", help="comma-separated system names")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("label", parents=[common], help="align dumps and assign difficulty labels")
    p.add_argument("--annotations", nargs="+", help="annotation dump per system (>= 2)")
    p.add_argument("--policy", choices=["exact", "overlap"], help="span matching policy")
    p.add_argument("--redirects", help="entity redirect map (tab-separated)")
    p.add_argument("--corpus", help="corpus file, for validating annotation offsets")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("features", parents=[common], help="compute the feature table")
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--mentions", help="labels file naming the mentions to featurize")
    p.add_argument("--candidates", help="candidate dictionary file")
    p.add_argument("--annotations", nargs="*", help="system dumps for the per-document mention count")
    p.add_argument("--embeddings", help="directory of trained slice models (*.vec)")
    p.add_argument("--train-embeddings", dest="train_embeddings", action="store_const", const=True,
                   help="train slice embeddings from the corpus")
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--embed-window", dest="embed_window", type=int)
    p.add_argument("--embed-epochs", dest="embed_epochs", type=int)
    p.add_argument("--embed-negatives", dest="embed_negatives", type=int)
    p.add_argument("--embed-min-count", dest="embed_min_count", type=int)
    p.add_argument("--slice-years", dest="slice_years", type=int)
    p.add_argument("--kb-year", dest="kb_year", type=int)
    p.add_argument("--window-months", dest="window_months", type=int)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--schema", help="named schema or comma-separated column list")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", parents=[common], help="fit one classifier")
    p.add_argument("--features", help="feature table (CSV)")
    p.add_argument("--schema", help="named schema or column list")
    p.add_argument("--variant", help=f"one of {', '.join(VARIANTS)}")
    p.add_argument("--balanced", action="store_const", const=True,
                   help="undersample majority classes before fitting")
    p.add_argument("--sample", type=float, help="stratified sample fraction")
    p.add_argument("--impute", choices=["mean", "constant"])
    p.add_argument("--impute-value", dest="impute_value", type=float)
    p.add_argument("--trees", type=int, help="forest size")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="predict difficulty for feature rows")
    p.add_argument("--model", help="trained model file")
    p.add_argument("--features", help="feature table (CSV)")
    p.add_argument("--mentions",
                   help="labels file supplying mention keys, row-aligned; without it the rows "
                        "carry placeholder keys ('-', row, '-') that simulate refuses")
    p.add_argument("--impute", choices=["mean", "constant"])
    p.add_argument("--impute-value", dest="impute_value", type=float)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", parents=[common], help="cross-validated evaluation grid")
    p.add_argument("--features", help="feature table (CSV)")
    p.add_argument("--schemas", help="comma-separated schema names ('file' = as stored)")
    p.add_argument("--variants", help="comma-separated classifier variants")
    p.add_argument("--balancing", choices=["unbalanced", "balanced", "both"])
    p.add_argument("--samples", help="comma-separated stratified sample fractions")
    p.add_argument("--folds", type=int)
    p.add_argument("--trees", type=int)
    p.add_argument("--impute", choices=["mean", "constant"])
    p.add_argument("--impute-value", dest="impute_value", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("importance", parents=[common], help="MDI feature importances of a forest")
    p.add_argument("--model", help="trained random forest file")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("correlate", parents=[common], help="Pearson correlation among features")
    p.add_argument("--features", help="feature table (CSV)")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("simulate", parents=[common], help="oracle-feedback impact simulation")
    p.add_argument("--labels", help="labels file with per-system entities")
    p.add_argument("--gold", help="gold standard annotations")
    p.add_argument("--candidates", help="candidate dictionary (enables the CANDIDATES strategy)")
    p.add_argument("--predictions", help="predictions file (enables PRED_DIFFICULT)")
    p.add_argument("--redirects",
                   help="entity redirect map applied to the gold standard, as given to label")
    p.add_argument("--systems", help="comma-separated system names")
    p.add_argument("--budgets", help="comma-separated budgets; values < 1 are fractions")
    p.add_argument("--repetitions", type=int)
    p.set_defaults(func=cmd_simulate)

    return parser


# The JSON type a config value needs for each flag type, and its name in messages.
_CONFIG_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"), None: (str, "a string")}


def _config_value(key: str, value, action: argparse.Action):
    """A config-file value checked as the flag's value would be: its type
    (an integer flag takes no float), its list shape and its choices."""
    if action.nargs == 0:
        ok, expected = isinstance(value, bool), "true or false"
    elif action.nargs in ("+", "*"):
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        expected = "a list of strings"
    else:
        types, expected = _CONFIG_TYPES[action.type]
        ok = isinstance(value, types) and not isinstance(value, bool)
    if not ok:
        raise CliError(f"config key {key!r} expects {expected}")
    if action.choices is not None and value not in action.choices:
        raise CliError(f"config key {key!r} expects one of {', '.join(action.choices)}")
    return value


def _apply_config(args: argparse.Namespace) -> None:
    config: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise CliError("the config file must hold a flat JSON object")
    subcommands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    # A key of another subcommand goes unused, so one file can serve every
    # command; a key that no subcommand knows is a mistake.
    known = {a.dest for p in subcommands.values() for a in p._actions if a.dest != "help"}
    for key in config:
        if key.replace("-", "_") not in known:
            raise CliError(f"config key {key!r} is not a flag of any command")
    config = {k.replace("-", "_"): v for k, v in config.items()}
    actions = {a.dest: a for a in subcommands[args.command]._actions}
    for key, value in vars(args).items():
        if value is None:
            if key in config:
                setattr(args, key, _config_value(key, config[key], actions[key]))
            elif key in _DEFAULTS:
                setattr(args, key, _DEFAULTS[key])


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (CliError, EldiffError, OSError, KeyError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
