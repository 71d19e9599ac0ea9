"""Command-line interface.

One subcommand per pipeline stage. Every command resolves its settings
from defaults, then an optional YAML config (--config), then explicit
flags. It names each file it reads and writes through a Run record, and
main writes a manifest.json next to its outputs from that record: the
digest of every file read (taken when it was read), the outputs, the
resolved value of each setting the command offers and their hash, and
library versions.

Exit codes: 0 ok, 1 usage, 2 data problem, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import math
import sys
import warnings
import zlib
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, axis, bayes, calibrate, classifiers, evaluate, labeling, quantify
from .data import LabeledCorpus, load_corpus, load_vocabulary, split, write_csv
from .errors import DataError, NumericError
from .serialize import decode, dumps, file_digest, load_model, parse_file, save_model, unconverted

# each naive Bayes kind: the bayes.fit switches that are the whole of it
NB_KINDS = {
    "nb": {"use_log_normal": False, "semi_supervised": False},
    "nb-ln": {"use_log_normal": True, "semi_supervised": False},
    "nb-ss": {"use_log_normal": False, "semi_supervised": True},
    "nb-ss-ln": {"use_log_normal": True, "semi_supervised": True},
}
# every model kind _factory_for builds and train fits
MODEL_KINDS = ("majority", *NB_KINDS, "axis")


def _setting(default, help: str, choices: tuple[str, ...] = ()):
    """A RunConfig field: its default, and the help and choices of its flag."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class RunConfig:
    """Every tunable shared by the subcommands; a default the library reads
    too is that module's constant. A YAML key is the field name, a flag the
    field name with dashes; both are checked against annotation and choices."""

    corpus: str | None = _setting(None, "activity corpus file")
    vocabulary: str | None = _setting(None, "community vocabulary file")
    labels: str | None = _setting(
        None, "user,label CSV that replaces the corpus's labels (quantify: --validation's)"
    )
    comments: str | None = _setting(None, "comments JSONL (user, text, created_utc, community)")
    rules: str | None = _setting(None, "declaration rules JSON (default: built-in rules)")
    botlist: str | None = _setting(None, "file of bot user ids to drop")
    seeds: str | None = _setting(None, "seed sets JSON")
    embeddings: str | None = _setting(None, "community embedding TSV (axis model)")
    model_path: str | None = _setting(None, "saved model JSON")
    validation: str | None = _setting(None, "labeled corpus for rate fitting (acc mode)")
    target: str | None = _setting(None, "corpus to quantify")
    quantifier: str | None = _setting(None, "saved quantifier JSON (skips rate fitting)")
    out_dir: str = _setting("out", "output directory")
    attribute: str = _setting("gender", "attribute to label", (*labeling.ATTRIBUTES, "synthetic"))
    median: float | None = _setting(None, "frozen birth-year median (year attribute)")
    model: str = _setting("nb", "model kind", MODEL_KINDS)
    models: tuple[str, ...] = _setting(("majority", "nb"), "model kinds to compare", MODEL_KINDS)
    alpha1: float = _setting(bayes.ALPHA1, "prior pseudo-count")
    alpha2: float = _setting(bayes.ALPHA2, "conditional pseudo-count")
    use_log_normal: bool = _setting(False, "add the activity term to the NB --model "
                                    "(nb -> nb-ln, nb-ss -> nb-ss-ln)")
    semi_supervised: bool = _setting(False, "fit the NB --model by EM "
                                     "(nb -> nb-ss, nb-ln -> nb-ss-ln)")
    max_iter: int = _setting(bayes.MAX_ITER, "EM iteration limit")
    tol: float = _setting(bayes.TOL, "EM convergence tolerance")
    mode: str = _setting(quantify.MODE, "quantifier mode", quantify.MODES)
    confidence: float = _setting(quantify.CONFIDENCE, "interval confidence level")
    n_boot: int = _setting(evaluate.N_BOOT, "bootstrap replicates")
    test_fraction: float = _setting(evaluate.TEST_FRACTION, "held-out share of each replicate")
    calibration_fraction: float = _setting(0.2, "labeled training share held out for rates")
    folds: int = _setting(evaluate.FOLDS, "cross-validation folds")
    repeats: int = _setting(quantify.REPEATS, "sampled cohorts per model")
    cohort_size: int = _setting(quantify.COHORT_SIZE, "users per sampled cohort")
    prevalence: float | None = _setting(None, "class-1 share of sampled cohorts (default: natural)")
    taus: tuple[float, ...] = _setting((0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5), "filter thresholds")
    cv_roc: bool = _setting(False, "write a pooled CV ROC curve")
    robustness: bool = _setting(False, "write only a confidence-filter sweep of the saved "
                                "--model-path (no bootstrap refits, no metrics.json)")
    n_bins: int = _setting(calibrate.N_BINS, "reliability bins")
    importance_boot: int = _setting(bayes.IMPORTANCE_BOOT, "bootstrap replicates per community")
    seed: int = _setting(0, "root random seed")

    def validate(self):
        for f in fields(self):
            kind, many = _kind(f.type)
            value = getattr(self, f.name)
            values = value if many else (value,)
            if not values:  # as the flag's nargs="+" requires
                raise DataError(f"{f.name} must not be empty")
            if kind is float and not all(v is None or math.isfinite(v) for v in values):
                raise DataError(f"{f.name} must be finite, got {value!r}")
            choices = f.metadata["choices"]
            for v in values:
                if choices and v not in choices:
                    # a tuple field is named as the plural of its elements
                    noun = f.name[:-1] if many else f.name
                    raise DataError(f"unknown {noun} {v!r}; expected one of {choices}")
        # each model is one key of report's tables and one roc_<kind>.csv
        if len(set(self.models)) < len(self.models):
            raise DataError(f"models must not repeat a kind, got {' '.join(self.models)}")
        for name in ("confidence", "test_fraction", "calibration_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise DataError(f"{name} must lie in (0, 1)")
        if self.prevalence is not None and not 0.0 <= self.prevalence <= 1.0:
            raise DataError(f"prevalence must lie in [0, 1], got {self.prevalence}")
        least = {"n_boot": 1, "repeats": 1, "cohort_size": 1, "max_iter": 1,
                 "folds": 2, "importance_boot": 2, "n_bins": 1, "seed": 0}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise DataError(f"{name} must be >= {low}")
        # reliability allocates its per-bin arrays before reading a score;
        # a million bins take tens of MB, more than any corpus can fill
        if self.n_bins > 1_000_000:
            raise DataError("n_bins must be <= 1000000")
        if not self.tol > 0:
            raise DataError("tol must be > 0")


_TYPES = {"str": str, "int": int, "float": float, "bool": bool}


def _kind(annotation: str) -> tuple[type, bool]:
    """The element type a RunConfig annotation names, and whether the
    field is a tuple of them."""
    base = annotation.partition(" | ")[0]
    if base.startswith("tuple["):
        return _TYPES[base[len("tuple[") : -len(", ...]")]], True
    return _TYPES[base], False


def _flag_options(f) -> dict:
    """add_argument options for the flag of RunConfig field f."""
    kind, many = _kind(f.type)
    default = " ".join(map(str, f.default)) if many else f.default
    shown = "" if default is None or kind is bool else f" (default: {default})"
    options = {"dest": f.name, "help": f.metadata["help"] + shown}
    if kind is bool:
        return options | {"action": "store_true", "default": None}
    if many:
        # tuple elements are checked in validate, so a bad one exits 2
        return options | {"type": kind, "nargs": "+"}
    return options | {"type": kind, "choices": f.metadata["choices"] or None}


def load_config(path) -> RunConfig:
    """Read a YAML mapping of RunConfig fields, decoded as a JSON object
    is: an unknown key or a value of the wrong type is a DataError."""
    import yaml

    try:
        raw = parse_file(path, yaml.safe_load)
    except yaml.YAMLError as e:
        # PyYAML's own message spans lines; keep the problem and its place
        mark = getattr(e, "problem_mark", None)
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
        problem = getattr(e, "problem", None) or " ".join(str(e).split())
        raise DataError(f"{where}: invalid YAML ({problem})") from e
    except ValueError as e:  # a scalar it cannot convert: a long integer, a bad date
        raise DataError(f"{path}: invalid YAML ({unconverted(e)})") from None
    return decode(RunConfig, {} if raw is None else raw, f"{path}: config")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, tuple(value) if isinstance(value, list) else value)
    cfg.validate()
    return cfg


def stage_seed(root: int, stage: str) -> int:
    """Deterministic per-stage seed derived from the root seed and stage name."""
    mixed = np.random.SeedSequence([int(root), zlib.crc32(stage.encode("utf-8"))])
    return int(mixed.generate_state(1)[0])


@dataclass
class Run:
    """The record of one command: the files it read and the files it wrote.

    input() and optional() return the path a RunConfig field names and
    hash that file at once, before the command can overwrite it.
    output() and write_json() name each file written under out_dir.
    counters holds each loaded corpus's load report, by input name.
    main writes the manifest from this record once the command is done.
    """

    command: str
    cfg: RunConfig
    inputs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def optional(self, name: str) -> str | None:
        path = getattr(self.cfg, name)
        if path in (None, ""):
            return None
        if name not in self.inputs:
            self.inputs[name] = file_digest(path)
        return path

    def input(self, name: str) -> str:
        path = self.optional(name)
        if path is None:
            raise DataError(f"missing required input --{name.replace('_', '-')}")
        return path

    def output(self, name: str) -> Path:
        out = Path(self.cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return out / name

    def write_json(self, name: str, payload: dict) -> Path:
        path = self.output(name)
        path.write_text(dumps(payload), encoding="utf-8")
        return path


def write_manifest(run: Run):
    import scipy

    # only the settings the command offers: one that it never reads would
    # make two runs of the same work hash apart
    config = {name: getattr(run.cfg, name) for name in (*_COMMON, *_COMMANDS[run.command][2])}
    manifest = {
        "command": run.command,
        "config": config,
        "config_hash": hashlib.sha256(dumps(config).encode("utf-8")).hexdigest(),
        "inputs": run.inputs,
        "outputs": sorted(run.outputs),
        "counters": run.counters,
        "versions": {
            "demoscope": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "seed": run.cfg.seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (Path(run.cfg.out_dir) / "manifest.json").write_text(dumps(manifest), encoding="utf-8")


def _load_corpus(run: Run, name: str = "corpus", labeled: bool = True) -> LabeledCorpus:
    path = run.input(name)
    vocab = load_vocabulary(run.input("vocabulary"))
    labels = run.optional("labels") if labeled else None
    corpus, report = load_corpus(path, vocab, labels_path=labels)
    if corpus.n == 0:
        raise DataError(f"{path}: no user rows")
    run.counters[name] = asdict(report)
    return corpus


# ---------------------------------------------------------------- commands


def cmd_extract(run: Run):
    cfg = run.cfg
    rules_path = run.optional("rules")
    rules = labeling.load_rules(rules_path) if rules_path else labeling.default_rules()
    rules = [r for r in rules if r.attribute == cfg.attribute]
    if not rules:
        # mining with no rule for the attribute could only end in no labels
        source = rules_path or "the built-in rules"
        raise DataError(f"{source}: no rule for attribute {cfg.attribute!r}")
    comments = run.input("comments")
    decls, report = labeling.extract_file(comments, rules)
    before = len(decls)
    botlist = run.optional("botlist")
    if botlist:
        decls = labeling.filter_bots(decls, labeling.load_botlist(botlist))
    coherence = labeling.resolve_coherence(decls)
    values = coherence.resolved.get(cfg.attribute, {})
    if not values:
        raise DataError(f"{comments}: no coherent {cfg.attribute!r} declarations found")
    labels, median = labeling.binarize(values, cfg.attribute, median=cfg.median)
    labeling.write_declarations(decls, run.output("declarations.jsonl"))
    labeling.write_labels_csv(labels, run.output("labels.csv"))
    run.write_json(
        "extract_report.json",
        {
            "attribute": cfg.attribute,
            **asdict(report),
            "bot_declarations_dropped": before - len(decls),
            "users_labeled": len(labels),
            "users_rejected_incoherent": len(coherence.rejected.get(cfg.attribute, set())),
            "rejection_rate": coherence.rejection_rate(cfg.attribute),
            "median_birth_year": median,
            "label_counts": {
                "0": sum(1 for v in labels.values() if v == 0),
                "1": sum(1 for v in labels.values() if v == 1),
            },
        },
    )
    print(f"extract: {len(labels)} users labeled for {cfg.attribute} -> {cfg.out_dir}")


def cmd_label_distant(run: Run):
    corpus = _load_corpus(run)
    seeds = _seed_set(run)
    labels = labeling.distant_label(corpus, seeds)
    mapping = {
        user: label for user, label in zip(corpus.user_ids, labels.tolist()) if label >= 0
    }
    labeling.write_labels_csv(mapping, run.output("labels.csv"))
    run.write_json(
        "distant_report.json",
        {
            "attribute": seeds.attribute,
            "threshold": seeds.threshold,
            "users": corpus.n,
            "labeled": len(mapping),
            "label_counts": {
                "0": int((labels == 0).sum()),
                "1": int((labels == 1).sum()),
            },
        },
    )
    print(f"label-distant: {len(mapping)}/{corpus.n} users labeled -> {run.cfg.out_dir}")


def _seed_set(run: Run) -> labeling.SeedSets:
    """The seed set for cfg.attribute, else the file's only set."""
    path = run.input("seeds")
    seed_sets = labeling.load_seed_sets(path)
    attribute = run.cfg.attribute
    if attribute in seed_sets:
        return seed_sets[attribute]
    if len(seed_sets) == 1:
        return next(iter(seed_sets.values()))
    raise DataError(
        f"{path}: seed file has no entry for {attribute!r}; available: {sorted(seed_sets)}"
    )


def _axis_from_config(run: Run) -> axis.AxisModel:
    return axis.build_axis(axis.load_embeddings(run.input("embeddings")), _seed_set(run))


def nb_options(kind: str, cfg: RunConfig) -> dict:
    """bayes.fit settings for an NB kind: its switches and cfg's NB settings."""
    return NB_KINDS[kind] | {name: getattr(cfg, name) for name in _NB}


def _train_kind(cfg: RunConfig) -> str:
    """The kind train fits: an NB --model with each switch cfg turns on
    added, so --model nb --semi-supervised --use-log-normal is nb-ss-ln."""
    if cfg.model not in NB_KINDS:
        return cfg.model
    switches = {name: on or getattr(cfg, name) for name, on in NB_KINDS[cfg.model].items()}
    return next(kind for kind, options in NB_KINDS.items() if options == switches)


def cmd_train(run: Run):
    kind = _train_kind(run.cfg)
    if kind == "axis":
        model = _axis_from_config(run)
        report = {"model": kind, "communities": len(model.communities)}
    elif kind == "majority":
        model = classifiers.MajorityClassifier.fit(_load_corpus(run))
        report = {"model": kind, "majority": model.majority, "rate": model.rate}
    else:
        corpus = _load_corpus(run)
        model, fit = bayes.fit(corpus, **nb_options(kind, run.cfg))
        dropped = corpus.n - fit.n_labeled - fit.n_unlabeled
        if dropped:
            warnings.warn(f"dropped {dropped} unlabeled rows from the supervised fit")
        report = {"model": kind, **asdict(fit)}
    path = run.output("model.json")
    save_model(model, path)
    run.write_json("fit_report.json", report)
    print(f"train: wrote {path}")


def _load_classifier(path) -> classifiers.ScoringClassifier:
    model = load_model(path)
    if not isinstance(model, classifiers.ScoringClassifier):
        raise DataError(
            f"{path} holds a {type(model).__name__}, not a classifier model "
            "(nb/1, axis/1 or majority/1)"
        )
    return model


def cmd_predict(run: Run):
    clf = _load_classifier(run.input("model_path"))
    corpus = _load_corpus(run)
    scores, preds, ok = classifiers.score_rows(clf, corpus)
    rows = zip(corpus.user_ids, scores.tolist(), preds.tolist())
    path = run.output("predictions.csv")
    write_csv(path, ["user", "score", "prediction"], rows)
    print(f"predict: {corpus.n} rows ({int((~ok).sum())} unscorable) -> {path}")


def cmd_calibrate(run: Run):
    model_path = run.input("model_path")
    model = _load_classifier(model_path)
    if isinstance(model, classifiers.MajorityClassifier):
        raise DataError(f"{model_path} holds a majority model, which has no scores to calibrate")
    corpus = _load_corpus(run)
    # a map already attached is replaced, so the new one is fitted to raw scores
    model.calibrator = None
    scores, _, labels = classifiers.scored_sample(model, corpus)
    if labels.size == 0:
        raise DataError("calibration corpus has no scorable labeled rows")
    before = calibrate.reliability(scores, labels, n_bins=run.cfg.n_bins)
    cal = calibrate.fit_isotonic(scores, labels)
    model.calibrator = cal
    after = calibrate.reliability(calibrate.apply_map(cal, scores), labels, n_bins=run.cfg.n_bins)
    path = run.output("model.json")
    save_model(model, path)
    run.write_json(
        "calibration_report.json",
        {
            "pairs": labels.size,
            "ece_before": before.ece,
            "ece_after": after.ece,
            "knots": len(cal.breakpoints),
        },
    )
    print(f"calibrate: ECE {before.ece:.4f} -> {after.ece:.4f}, wrote {path}")


def cmd_quantify(run: Run):
    cfg = run.cfg
    # estimate reads no target label, so --labels labels the validation corpus
    target = _load_corpus(run, "target", labeled=False)
    quantifier_path = run.optional("quantifier")
    if quantifier_path:
        quant = load_model(quantifier_path)
        if not isinstance(quant, quantify.QuantifierModel):
            raise DataError(f"{quantifier_path} does not hold a quantifier")
    else:
        clf = _load_classifier(run.input("model_path"))
        validation = _load_corpus(run, "validation") if cfg.mode == "acc" else None
        quant = quantify.fit_quantifier(clf, validation, mode=cfg.mode)
        save_model(quant, run.output("quantifier.json"))
    est = quantify.estimate(quant, target, confidence=cfg.confidence)
    run.write_json(
        "estimate.json",
        {**asdict(est), "tpr": quant.tpr, "fpr": quant.fpr},
    )
    interval = (
        f" [{est.lower:.4f}, {est.upper:.4f}] @ {est.confidence:.0%}"
        if est.lower is not None
        else ""
    )
    print(f"quantify: prevalence {est.point:.4f}{interval} ({est.method})")


def _factory_for(kind: str, run: Run) -> classifiers.TrainFn:
    if kind == "majority":
        return classifiers.MajorityClassifier.fit
    if kind == "axis":
        return classifiers.axis_factory(_axis_from_config(run))
    return classifiers.nb_factory(**nb_options(kind, run.cfg))


def cmd_evaluate(run: Run):
    cfg = run.cfg
    if cfg.robustness and cfg.cv_roc:
        raise DataError("--robustness scores only the saved --model-path; run --cv-roc without it")
    corpus = _load_corpus(run)
    if cfg.robustness:
        clf = _load_classifier(run.input("model_path"))
        path = run.output("robustness.csv")
        evaluate.robustness_sweep(clf, corpus, cfg.taus).to_csv(path)
        print(f"evaluate: confidence sweep over {len(cfg.taus)} taus -> {path}")
        return
    # a mapping of one model: each model's report row is its evaluate output
    factories = {cfg.model: _factory_for(cfg.model, run)}
    report = evaluate.bootstrap_eval(
        factories, corpus, n_boot=cfg.n_boot, test_fraction=cfg.test_fraction,
        seed=stage_seed(cfg.seed, "bootstrap"),
    )[cfg.model]
    summary = report.summary()
    run.write_json(
        "metrics.json",
        {
            "model": cfg.model,
            "n_replicates": report.n_replicates,
            "dropped_rows": report.dropped_rows,
            "metrics": summary,
            "replicates": {k: v.tolist() for k, v in report.metrics.items()},
        },
    )
    if cfg.cv_roc:
        curve = evaluate.cv_roc(factories, corpus, folds=cfg.folds,
                                seed=stage_seed(cfg.seed, "cv-roc"))[cfg.model]
        curve.to_csv(run.output("roc_curve.csv"))
    mean_auc = summary["roc_auc"]["mean"]
    print(f"evaluate[{cfg.model}]: roc_auc mean {mean_auc:.4f} over {cfg.n_boot} replicates")


def cmd_importance(run: Run):
    cfg = run.cfg
    corpus = _load_corpus(run)
    mean, std = bayes.feature_log_odds_dispersion(
        corpus,
        n_boot=cfg.importance_boot,
        seed=stage_seed(cfg.seed, "importance"),
        alpha2=cfg.alpha2,
    )
    names = corpus.vocabulary.names
    rows = [(names[j], float(mean[j]), float(std[j])) for j in np.argsort(-np.abs(mean))]
    path = run.output("importance.csv")
    write_csv(path, ["community", "log_odds", "std"], rows)
    print(f"importance: {corpus.d} communities -> {path}")


def cmd_report(run: Run):
    """Benchmark table: bootstrap classification plus NPP quantification,
    every model on the same splits, folds, calibration rows and cohorts."""
    cfg = run.cfg
    corpus = _load_corpus(run)
    train_pool, eval_pool = split(corpus, 0.3, stage_seed(cfg.seed, "report-split"))
    factories = {kind: _factory_for(kind, run) for kind in cfg.models}
    reports = evaluate.bootstrap_eval(
        factories, corpus, n_boot=cfg.n_boot, test_fraction=cfg.test_fraction,
        seed=stage_seed(cfg.seed, "bootstrap"),
    )
    curves = evaluate.cv_roc(factories, corpus, folds=cfg.folds,
                             seed=stage_seed(cfg.seed, "cv-roc"))
    fit_part, cal_part = _calibration_rows(cfg, train_pool)
    classification, quantification = {}, {}
    for kind, factory in factories.items():
        rep = reports[kind]
        classification[kind] = rep.summary() | {"dropped_rows": rep.dropped_rows}
        curves[kind].to_csv(run.output(f"roc_{kind.replace('-', '_')}.csv"))
        try:
            quantification[kind] = _quant_block(factory(fit_part), cfg, cal_part, eval_pool)
        except (DataError, NumericError) as e:
            quantification[kind] = {"error": str(e)}
    path = run.write_json(
        "report.json",
        {
            "attribute": cfg.attribute,
            "classification": classification,
            "quantification": quantification,
            "protocol": {
                "n_boot": cfg.n_boot,
                "test_fraction": cfg.test_fraction,
                "folds": cfg.folds,
                "repeats": cfg.repeats,
                "cohort_size": cfg.cohort_size,
                "mode": cfg.mode,
            },
        },
    )
    print(f"report: {len(cfg.models)} models -> {path}")


def _calibration_rows(cfg: RunConfig, train_pool) -> tuple[LabeledCorpus, LabeledCorpus]:
    """The fit and calibration parts of the training pool: a shuffled
    calibration_fraction of its labeled rows calibrates, the rest fits."""
    shuffled = np.flatnonzero(train_pool.labeled_mask)
    np.random.default_rng(stage_seed(cfg.seed, "quant-cal")).shuffle(shuffled)
    n_cal = max(2, int(round(cfg.calibration_fraction * shuffled.size)))
    fit_idx = np.concatenate([shuffled[n_cal:], np.flatnonzero(~train_pool.labeled_mask)])
    return train_pool.subset(np.sort(fit_idx)), train_pool.subset(np.sort(shuffled[:n_cal]))


def _quant_block(clf, cfg: RunConfig, cal_part, eval_pool) -> dict:
    quant = quantify.fit_quantifier(clf, cal_part, mode=cfg.mode)
    rep = quantify.evaluate_quantifier(
        quant,
        eval_pool,
        repeats=cfg.repeats,
        size=cfg.cohort_size,
        prevalence=cfg.prevalence,
        confidence=cfg.confidence,
        seed=stage_seed(cfg.seed, "npp"),
    )
    return {
        "mae": rep.mae,
        "ae_std": rep.ae_std,
        "coverage": rep.coverage,
        "tpr": quant.tpr,
        "fpr": quant.fpr,
        "repeats": cfg.repeats,
        "cohort_size": cfg.cohort_size,
    }


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; this CLI reserves 2 for
    data errors, so usage failures remap to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# the settings each subcommand reads, by RunConfig field; every command
# also takes --config and the _COMMON settings
_COMMON = ("out_dir", "seed")
_DATA = ("corpus", "vocabulary", "labels")
_NB = ("alpha1", "alpha2", "max_iter", "tol")
_AXIS = ("embeddings", "seeds", "attribute")
_PROTOCOL = ("n_boot", "test_fraction", "folds")
_QUANTIFY = ("mode", "confidence")

_COMMANDS = {
    # name: (function, help, the settings it reads besides _COMMON)
    "extract": (cmd_extract, "mine self-declared labels from comments",
                ("comments", "attribute", "rules", "botlist", "median")),
    "label-distant": (cmd_label_distant, "label users from seed-community activity",
                      (*_DATA, "seeds", "attribute")),
    # train's two switches are a second spelling of an NB kind (_train_kind)
    "train": (cmd_train, "fit a model",
              (*_DATA, "model", *_NB, "use_log_normal", "semi_supervised", *_AXIS)),
    "predict": (cmd_predict, "score a corpus with a saved model", (*_DATA, "model_path")),
    "calibrate": (cmd_calibrate, "fit an isotonic calibrator on held-out data",
                  (*_DATA, "model_path", "n_bins")),
    "quantify": (cmd_quantify, "estimate class prevalence in a cohort",
                 ("vocabulary", "labels", "model_path", "quantifier", "validation",
                  "target", *_QUANTIFY)),
    "evaluate": (cmd_evaluate, "bootstrap metrics, optional curves",
                 (*_DATA, "model", "model_path", *_NB, *_PROTOCOL, "taus", "cv_roc",
                  "robustness", *_AXIS)),
    "importance": (cmd_importance, "per-community log-odds with bootstrap spread",
                   (*_DATA, "importance_boot", "alpha2")),
    "report": (cmd_report, "benchmark several models on one corpus",
               (*_DATA, "models", *_NB, *_PROTOCOL, "repeats", "cohort_size",
                "calibration_fraction", "prevalence", *_QUANTIFY, *_AXIS)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="demoscope", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    settings = {f.name: f for f in fields(RunConfig)}
    for command, (func, help, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="YAML file of settings; flags override it")
        for name in (*_COMMON, *names):
            p.add_argument(f"--{name.replace('_', '-')}", **_flag_options(settings[name]))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = Run(args.command, resolve_config(args))
        args.func(run)
        write_manifest(run)
        return 0
    except DataError as e:
        _emit_error("data", e)
        return 2
    except NumericError as e:
        _emit_error("numeric", e)
        return 3
    except OSError as e:
        # a path the system refused as too long is cut short
        reason = "file not found" if isinstance(e, FileNotFoundError) else e.strerror
        _emit_error("data", f"{reason}: {e.filename!s:.200}" if e.filename else e)
        return 2


def _emit_error(kind: str, error):
    print(f"demoscope: {kind} error: {error}", file=sys.stderr)


def entry():
    # each warning is one line, without Python's file:line and source echo
    warnings.formatwarning = lambda message, *_: f"demoscope: warning: {message}\n"
    # the collector never scans frozen objects again: collections during
    # the run skip what the imports made, and forked workers copy fewer
    # pages; frozen again at the end, what the command loaded and built is
    # left to the process's exit instead of being collected at shutdown
    gc.freeze()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
