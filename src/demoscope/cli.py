"""Command-line interface.

One subcommand per pipeline stage. Every command resolves its settings
from defaults, then an optional YAML config (--config), then explicit
flags. It names each file it reads and writes through a Run record, and
main writes a manifest.json next to its outputs from that record: the
digest of every file read (taken when it was read), the outputs, the
resolved configuration and its hash, and library versions.

Exit codes: 0 ok, 1 usage, 2 data problem, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import zlib
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__, axis, bayes, calibrate, classifiers, evaluate, labeling, quantify
from .data import FORMATS, LabeledCorpus, SplitSpec, load_corpus, load_vocabulary, split, write_csv
from .errors import DataError, NumericError
from .serialize import dumps, load_model, save_model

# every model kind _factory_for builds and train fits
MODEL_KINDS = ("majority", "nb", "nb-ln", "nb-ss", "axis")


@dataclass
class RunConfig:
    """Every tunable shared by the subcommands; YAML keys match fields."""

    corpus: str | None = None
    vocabulary: str | None = None
    labels: str | None = None
    format: str = "jsonl"
    comments: str | None = None
    rules: str | None = None
    botlist: str | None = None
    seeds: str | None = None
    embeddings: str | None = None
    model_path: str | None = None
    validation: str | None = None
    target: str | None = None
    quantifier: str | None = None
    out_dir: str = "out"
    attribute: str = "gender"
    median: float | None = None
    model: str = "nb"
    models: tuple[str, ...] = ("majority", "nb")
    alpha1: float = 1.0
    alpha2: float = 1.0
    use_log_normal: bool = False
    pooled_activity: bool = False
    semi_supervised: bool = False
    max_iter: int = 100
    tol: float = 1e-6
    mode: str = "acc"
    confidence: float = 0.95
    n_boot: int = 100
    test_fraction: float = 0.2
    calibration_fraction: float = 0.2
    folds: int = 10
    repeats: int = 50
    cohort_size: int = 500
    prevalence: float | None = None
    taus: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    n_bins: int = 10
    importance_boot: int = 50
    seed: int = 0
    threads: int = 1

    def validate(self):
        if self.format not in FORMATS:
            raise DataError(f"unknown corpus format {self.format!r}")
        if self.attribute not in labeling.ATTRIBUTES and self.attribute != "synthetic":
            raise DataError(
                f"unknown attribute {self.attribute!r}; expected one of "
                f"{labeling.ATTRIBUTES} or 'synthetic'"
            )
        for kind in (self.model, *self.models):
            if kind not in MODEL_KINDS:
                raise DataError(f"unknown model {kind!r}; expected one of {MODEL_KINDS}")
        if self.mode not in quantify.MODES:
            raise DataError(f"unknown quantifier mode {self.mode!r}")
        if not (0.0 < self.confidence < 1.0):
            raise DataError("confidence must lie in (0, 1)")
        if not (0.0 < self.test_fraction < 1.0):
            raise DataError("test_fraction must lie in (0, 1)")
        if not (0.0 < self.calibration_fraction < 1.0):
            raise DataError("calibration_fraction must lie in (0, 1)")
        if self.n_boot < 1 or self.repeats < 1 or self.cohort_size < 1:
            raise DataError("n_boot, repeats, and cohort_size must be >= 1")
        if self.folds < 2:
            raise DataError("folds must be >= 2")
        if self.threads < 1:
            raise DataError("threads must be >= 1")
        if self.max_iter < 1:
            raise DataError("max_iter must be >= 1")
        if not self.tol > 0:
            raise DataError("tol must be > 0")


_TUPLE_FIELDS = {"models", "taus"}
_SCALARS = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _fits(value, kind) -> bool:
    # YAML booleans are Python ints; only a bool field takes them
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _typed(path, name: str, annotation: str, value):
    """The YAML value of one RunConfig field, checked against its annotation."""
    base, _, rest = annotation.partition(" | ")
    if value is None and rest == "None":
        return value
    if base.startswith("tuple["):
        elem = _SCALARS[base[len("tuple[") : -len(", ...]")]]
        if isinstance(value, list) and all(_fits(v, elem) for v in value):
            return tuple(value)
    elif _fits(value, _SCALARS[base]):
        return value
    raise DataError(f"{path}: config key {name!r} must be {annotation}, got {value!r}")


def load_config(path) -> RunConfig:
    """Read a YAML mapping of RunConfig fields; unknown keys and values of
    the wrong type are errors."""
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except yaml.YAMLError as e:
        raise DataError(f"{path}: invalid YAML ({e})") from e
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise DataError(f"{path}: config must be a mapping")
    annotations = {f.name: f.type for f in fields(RunConfig)}
    unknown = sorted(set(raw) - set(annotations))
    if unknown:
        raise DataError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return RunConfig(**{k: _typed(path, k, annotations[k], v) for k, v in raw.items()})


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, tuple(value) if f.name in _TUPLE_FIELDS else value)
    cfg.validate()
    return cfg


def stage_seed(root: int, stage: str) -> int:
    """Deterministic per-stage seed derived from the root seed and stage name."""
    mixed = np.random.SeedSequence([int(root), zlib.crc32(stage.encode("utf-8"))])
    return int(mixed.generate_state(1)[0])


def _sha256(path) -> dict:
    data = Path(path).read_bytes()
    return {"path": str(path), "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


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
    args: argparse.Namespace
    inputs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def optional(self, name: str) -> str | None:
        path = getattr(self.cfg, name)
        if path in (None, ""):
            return None
        if name not in self.inputs:
            self.inputs[name] = _sha256(path)
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

    config = asdict(run.cfg)
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


def _load_corpus(run: Run, name: str = "corpus") -> LabeledCorpus:
    path = run.input(name)
    if run.cfg.labels and run.cfg.format != "triplets":
        raise DataError(
            f"--labels applies only with --format triplets; "
            f"--{name} {path} is read as {run.cfg.format}"
        )
    vocab = load_vocabulary(run.input("vocabulary"))
    corpus, report = load_corpus(
        path, vocab, fmt=run.cfg.format, labels_path=run.optional("labels")
    )
    run.counters[name] = asdict(report)
    return corpus


def _read_comments(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                yield {"_malformed": lineno}


# ---------------------------------------------------------------- commands


def cmd_extract(run: Run):
    cfg = run.cfg
    rules_path = run.optional("rules")
    rules = labeling.load_rules(rules_path) if rules_path else labeling.default_rules()
    rules = [r for r in rules if r.attribute == cfg.attribute] or rules
    decls, report = labeling.extract_declarations(_read_comments(run.input("comments")), rules)
    before = len(decls)
    botlist = run.optional("botlist")
    if botlist:
        decls = labeling.filter_bots(decls, labeling.load_botlist(botlist))
    coherence = labeling.resolve_coherence(decls)
    values = coherence.resolved.get(cfg.attribute, {})
    if not values:
        raise DataError(f"no coherent {cfg.attribute!r} declarations found")
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
    seed_sets = labeling.load_seed_sets(run.input("seeds"))
    attribute = run.cfg.attribute
    if attribute in seed_sets:
        return seed_sets[attribute]
    if len(seed_sets) == 1:
        return next(iter(seed_sets.values()))
    raise DataError(f"seed file has no entry for {attribute!r}; available: {sorted(seed_sets)}")


def _axis_from_config(run: Run) -> axis.AxisModel:
    table = axis.load_embeddings(run.input("embeddings"))
    seeds = _seed_set(run)
    # seed pole_a marks class 0, but the axis scores its own pole_a
    # positively (class 1), so the poles swap when building the axis
    return axis.build_axis(
        table, pole_a=seeds.pole_b, pole_b=seeds.pole_a, attribute=seeds.attribute
    )


def _nb_options(kind: str, cfg: RunConfig) -> dict:
    """bayes.fit settings for an NB kind: every NB setting of cfg, with
    nb-ln and nb-ss each forcing its switch on."""
    return {
        "alpha1": cfg.alpha1,
        "alpha2": cfg.alpha2,
        "use_log_normal": cfg.use_log_normal or kind == "nb-ln",
        "pooled_activity": cfg.pooled_activity,
        "semi_supervised": cfg.semi_supervised or kind == "nb-ss",
        "max_iter": cfg.max_iter,
        "tol": cfg.tol,
    }


def cmd_train(run: Run):
    kind = run.cfg.model
    if kind == "axis":
        model = _axis_from_config(run)
        report = {"model": kind, "communities": len(model.communities)}
    elif kind == "majority":
        model = classifiers.MajorityClassifier.fit(_load_corpus(run))
        report = {"model": kind, "majority": model.majority, "rate": model.rate}
    else:
        corpus = _load_corpus(run)
        options = _nb_options(kind, run.cfg)
        model, fit = bayes.fit(corpus, **options)
        dropped = corpus.n - fit.n_labeled - fit.n_unlabeled
        if dropped:
            print(f"train: dropping {dropped} unlabeled rows", file=sys.stderr)
        report = {"model": kind, "semi_supervised": options["semi_supervised"], **asdict(fit)}
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
    labels = corpus.labels
    scores, _, scorable = classifiers.score_rows(model, corpus)
    ok = scorable & corpus.labeled_mask
    if not ok.any():
        raise DataError("calibration corpus has no scorable labeled rows")
    before = calibrate.reliability(scores[ok], labels[ok], n_bins=run.cfg.n_bins)
    cal = calibrate.fit_isotonic(scores[ok], labels[ok])
    model.calibrator = cal
    after_scores = model.score(corpus)[0]
    after = calibrate.reliability(after_scores[ok], labels[ok], n_bins=run.cfg.n_bins)
    path = run.output("model.json")
    save_model(model, path)
    run.write_json(
        "calibration_report.json",
        {
            "pairs": int(ok.sum()),
            "ece_before": before.ece,
            "ece_after": after.ece,
            "knots": len(cal.breakpoints),
        },
    )
    print(f"calibrate: ECE {before.ece:.4f} -> {after.ece:.4f}, wrote {path}")


def cmd_quantify(run: Run):
    cfg = run.cfg
    target = _load_corpus(run, "target")
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
        return classifiers.majority_factory()
    if kind == "axis":
        return classifiers.axis_factory(_axis_from_config(run))
    return classifiers.nb_factory(**_nb_options(kind, run.cfg))


def cmd_evaluate(run: Run):
    cfg = run.cfg
    if run.args.robustness and run.args.cv_roc:
        raise DataError("--robustness scores only the saved --model-path; run --cv-roc without it")
    corpus = _load_corpus(run)
    if run.args.robustness:
        clf = _load_classifier(run.input("model_path"))
        path = run.output("robustness.csv")
        evaluate.robustness_sweep(clf, corpus, cfg.taus).to_csv(path)
        print(f"evaluate: confidence sweep over {len(cfg.taus)} taus -> {path}")
        return
    factory = _factory_for(cfg.model, run)
    report = evaluate.bootstrap_eval(
        factory,
        corpus,
        n_boot=cfg.n_boot,
        test_fraction=cfg.test_fraction,
        seed=stage_seed(cfg.seed, "bootstrap"),
        threads=cfg.threads,
    )
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
    if run.args.cv_roc:
        curve = evaluate.cv_roc(
            factory, corpus, folds=cfg.folds, seed=stage_seed(cfg.seed, "cv-roc")
        )
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
        alpha1=cfg.alpha1,
        alpha2=cfg.alpha2,
    )
    names = corpus.vocabulary.names
    rows = [(names[j], float(mean[j]), float(std[j])) for j in np.argsort(-np.abs(mean))]
    path = run.output("importance.csv")
    write_csv(path, ["community", "log_odds", "std"], rows)
    print(f"importance: {corpus.d} communities -> {path}")


def cmd_report(run: Run):
    """Benchmark table: bootstrap classification plus NPP quantification."""
    cfg = run.cfg
    corpus = _load_corpus(run)
    classification: dict = {}
    quantification: dict = {}
    train_pool, eval_pool = split(
        corpus, SplitSpec(test_fraction=0.3, seed=stage_seed(cfg.seed, "report-split"))
    )
    for kind in cfg.models:
        factory = _factory_for(kind, run)
        rep = evaluate.bootstrap_eval(
            factory,
            corpus,
            n_boot=cfg.n_boot,
            test_fraction=cfg.test_fraction,
            seed=stage_seed(cfg.seed, f"bootstrap-{kind}"),
            threads=cfg.threads,
        )
        classification[kind] = rep.summary() | {"dropped_rows": rep.dropped_rows}
        curve = evaluate.cv_roc(
            factory, corpus, folds=cfg.folds, seed=stage_seed(cfg.seed, f"cv-roc-{kind}")
        )
        curve.to_csv(run.output(f"roc_{kind.replace('-', '_')}.csv"))
        try:
            quantification[kind] = _quant_block(kind, factory, cfg, train_pool, eval_pool)
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


def _quant_block(kind, factory, cfg: RunConfig, train_pool, eval_pool) -> dict:
    lab_idx = np.flatnonzero(train_pool.labeled_mask)
    rng = np.random.default_rng(stage_seed(cfg.seed, f"quant-cal-{kind}"))
    shuffled = lab_idx.copy()
    rng.shuffle(shuffled)
    n_cal = max(2, int(round(cfg.calibration_fraction * shuffled.size)))
    cal_part = train_pool.subset(np.sort(shuffled[:n_cal]))
    fit_idx = np.concatenate(
        [shuffled[n_cal:], np.flatnonzero(~train_pool.labeled_mask)]
    )
    fit_part = train_pool.subset(np.sort(fit_idx))
    clf = factory(fit_part)
    quant = quantify.fit_quantifier(clf, cal_part, mode=cfg.mode)
    rep = quantify.evaluate_quantifier(
        quant,
        eval_pool,
        repeats=cfg.repeats,
        size=cfg.cohort_size,
        prevalence=cfg.prevalence,
        confidence=cfg.confidence,
        seed=stage_seed(cfg.seed, f"npp-{kind}"),
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


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="YAML file of settings; flags override it")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="root random seed")


def _add_data(p: argparse.ArgumentParser):
    p.add_argument("--corpus", help="activity corpus file")
    p.add_argument("--vocabulary", help="community vocabulary file")
    p.add_argument("--format", choices=FORMATS, help="corpus format")
    p.add_argument("--labels", help="labels CSV (triplets format)")


def build_parser() -> _Parser:
    parser = _Parser(prog="demoscope", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", help="mine self-declared labels from comments")
    _add_common(p)
    p.add_argument("--comments", help="comments JSONL (user, text, created_utc, community)")
    p.add_argument("--attribute", choices=labeling.ATTRIBUTES)
    p.add_argument("--rules", help="declaration rules JSON (default: built-in rules)")
    p.add_argument("--botlist", help="file of bot user ids to drop")
    p.add_argument("--median", type=float, help="frozen birth-year median (year attribute)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("label-distant", help="label users from seed-community activity")
    _add_common(p)
    _add_data(p)
    p.add_argument("--seeds", help="seed sets JSON")
    p.add_argument("--attribute")
    p.set_defaults(func=cmd_label_distant)

    p = sub.add_parser("train", help="fit a model")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--alpha1", type=float, help="prior pseudo-count")
    p.add_argument("--alpha2", type=float, help="conditional pseudo-count")
    p.add_argument("--use-log-normal", dest="use_log_normal", action="store_true", default=None)
    p.add_argument("--pooled-activity", dest="pooled_activity", action="store_true", default=None)
    p.add_argument("--semi-supervised", dest="semi_supervised", action="store_true", default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--embeddings", help="community embedding TSV (axis model)")
    p.add_argument("--seeds", help="seed sets JSON (axis model)")
    p.add_argument("--attribute")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a corpus with a saved model")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model-path", dest="model_path", help="saved model JSON")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("calibrate", help="fit an isotonic calibrator on held-out data")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model-path", dest="model_path", help="saved model JSON")
    p.add_argument("--n-bins", dest="n_bins", type=int, help="reliability bins")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("quantify", help="estimate class prevalence in a cohort")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model-path", dest="model_path", help="saved classifier JSON")
    p.add_argument("--quantifier", help="saved quantifier JSON (skips rate fitting)")
    p.add_argument("--validation", help="labeled corpus for rate fitting (acc mode)")
    p.add_argument("--target", help="corpus to quantify")
    p.add_argument("--mode", choices=quantify.MODES)
    p.add_argument("--confidence", type=float)
    p.set_defaults(func=cmd_quantify)

    p = sub.add_parser("evaluate", help="bootstrap metrics, optional curves")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--model-path", dest="model_path", help="saved model (robustness sweep)")
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--n-boot", dest="n_boot", type=int)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--folds", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--cv-roc", action="store_true", default=False, help="write a pooled CV ROC curve")
    p.add_argument(
        "--robustness",
        action="store_true",
        default=False,
        help="write only a confidence-filter sweep of the saved --model-path "
        "(no bootstrap refits, no metrics.json)",
    )
    p.add_argument("--taus", type=float, nargs="+", help="confidence filter thresholds")
    p.add_argument("--embeddings")
    p.add_argument("--seeds")
    p.add_argument("--attribute")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("importance", help="per-community log-odds with bootstrap spread")
    _add_common(p)
    _add_data(p)
    p.add_argument("--importance-boot", dest="importance_boot", type=int)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("report", help="benchmark several models on one corpus")
    _add_common(p)
    _add_data(p)
    p.add_argument("--models", nargs="+", help="model kinds to compare")
    p.add_argument("--n-boot", dest="n_boot", type=int)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--folds", type=int)
    p.add_argument("--repeats", type=int)
    p.add_argument("--cohort-size", dest="cohort_size", type=int)
    p.add_argument("--mode", choices=quantify.MODES)
    p.add_argument("--threads", type=int)
    p.add_argument("--embeddings")
    p.add_argument("--seeds")
    p.add_argument("--attribute")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = Run(args.command, resolve_config(args), args)
        args.func(run)
        write_manifest(run)
        return 0
    except DataError as e:
        _emit_error("data", e)
        return 2
    except NumericError as e:
        _emit_error("numeric", e)
        return 3
    except FileNotFoundError as e:
        _emit_error("data", f"file not found: {e.filename}")
        return 2
    except OSError as e:
        _emit_error("data", e)
        return 2


def _emit_error(kind: str, error):
    print(f"demoscope: {kind} error: {error}", file=sys.stderr)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
