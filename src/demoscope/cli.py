"""Command-line interface.

One subcommand per pipeline stage. Every command resolves its settings
from defaults, then an optional YAML config (--config), then explicit
flags, and writes a manifest.json next to its outputs with input
digests, the resolved configuration and its hash, and library versions.

Exit codes: 0 ok, 1 usage, 2 data problem, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import zlib
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__, axis, bayes, calibrate, classifiers, evaluate, labeling, quantify
from .data import LabeledCorpus, SplitSpec, load_corpus, load_vocabulary, split
from .errors import DataError, NumericError
from .serialize import dumps, load_model, save_model

# every model kind _factory_for builds; train fits the nb variants as
# "nb" plus flags
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
        if self.format not in ("jsonl", "triplets"):
            raise DataError(f"unknown corpus format {self.format!r}")
        if self.attribute not in labeling.ATTRIBUTES and self.attribute != "synthetic":
            raise DataError(
                f"unknown attribute {self.attribute!r}; expected one of "
                f"{labeling.ATTRIBUTES} or 'synthetic'"
            )
        for kind in (self.model, *self.models):
            if kind not in MODEL_KINDS:
                raise DataError(f"unknown model {kind!r}; expected one of {MODEL_KINDS}")
        if self.mode not in ("cc", "acc"):
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
    h = hashlib.sha256()
    data = Path(path).read_bytes()
    h.update(data)
    return {"path": str(path), "sha256": h.hexdigest(), "bytes": len(data)}


def write_manifest(out_dir: Path, command: str, cfg: RunConfig, inputs: dict, outputs: list):
    import scipy

    manifest = {
        "command": command,
        "config": _jsonable(asdict(cfg)),
        "config_hash": hashlib.sha256(
            dumps(_jsonable(asdict(cfg))).encode("utf-8")
        ).hexdigest(),
        "inputs": {name: _sha256(p) for name, p in inputs.items() if p is not None},
        "outputs": sorted(outputs),
        "versions": {
            "demoscope": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "seed": cfg.seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(dumps(manifest), encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(cfg: RunConfig, *names: str):
    for name in names:
        if getattr(cfg, name) in (None, ""):
            raise DataError(f"missing required input --{name.replace('_', '-')}")


def _load_corpus(cfg: RunConfig, path=None) -> LabeledCorpus:
    _require(cfg, "vocabulary")
    vocab = load_vocabulary(cfg.vocabulary)
    corpus, _ = load_corpus(
        path if path is not None else cfg.corpus,
        vocab,
        fmt=cfg.format,
        labels_path=cfg.labels if cfg.format == "triplets" else None,
    )
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


def cmd_extract(cfg: RunConfig) -> int:
    _require(cfg, "comments")
    out = _out_dir(cfg)
    rules = labeling.load_rules(cfg.rules) if cfg.rules else labeling.default_rules()
    rules = [r for r in rules if r.attribute == cfg.attribute] or rules
    decls, report = labeling.extract_declarations(_read_comments(cfg.comments), rules)
    if cfg.botlist:
        before = len(decls)
        decls = labeling.filter_bots(decls, labeling.load_botlist(cfg.botlist))
        bot_dropped = before - len(decls)
    else:
        bot_dropped = 0
    coherence = labeling.resolve_coherence(decls)
    values = coherence.resolved.get(cfg.attribute, {})
    if not values:
        raise DataError(f"no coherent {cfg.attribute!r} declarations found")
    labels, median = labeling.binarize(values, cfg.attribute, median=cfg.median)
    labeling.write_declarations(decls, out / "declarations.jsonl")
    labeling.write_labels_csv(labels, out / "labels.csv")
    summary = {
        "attribute": cfg.attribute,
        "comments_seen": report.comments_seen,
        "comments_skipped": report.comments_skipped,
        "declarations": report.declarations,
        "suppressed_negation": report.suppressed_negation,
        "suppressed_no_first_person": report.suppressed_no_first_person,
        "out_of_range_age": report.out_of_range_age,
        "unparsed_value": report.unparsed_value,
        "bot_declarations_dropped": bot_dropped,
        "users_labeled": len(labels),
        "users_rejected_incoherent": len(coherence.rejected.get(cfg.attribute, set())),
        "rejection_rate": coherence.rejection_rate(cfg.attribute),
        "median_birth_year": median,
        "label_counts": {
            "0": sum(1 for v in labels.values() if v == 0),
            "1": sum(1 for v in labels.values() if v == 1),
        },
    }
    (out / "extract_report.json").write_text(dumps(summary), encoding="utf-8")
    write_manifest(
        out,
        "extract",
        cfg,
        {"comments": cfg.comments, "rules": cfg.rules, "botlist": cfg.botlist},
        ["declarations.jsonl", "labels.csv", "extract_report.json"],
    )
    print(f"extract: {len(labels)} users labeled for {cfg.attribute} -> {out}")
    return 0


def cmd_label_distant(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "vocabulary", "seeds")
    out = _out_dir(cfg)
    corpus = _load_corpus(cfg)
    seeds = _seed_set(cfg)
    labels = labeling.distant_label(corpus, seeds)
    mapping = {
        user: label for user, label in zip(corpus.user_ids, labels.tolist()) if label >= 0
    }
    labeling.write_labels_csv(mapping, out / "labels.csv")
    summary = {
        "attribute": seeds.attribute,
        "threshold": seeds.threshold,
        "users": corpus.n,
        "labeled": len(mapping),
        "label_counts": {
            "0": int((labels == 0).sum()),
            "1": int((labels == 1).sum()),
        },
    }
    (out / "distant_report.json").write_text(dumps(summary), encoding="utf-8")
    write_manifest(
        out,
        "label-distant",
        cfg,
        {"corpus": cfg.corpus, "vocabulary": cfg.vocabulary, "seeds": cfg.seeds},
        ["labels.csv", "distant_report.json"],
    )
    print(f"label-distant: {len(mapping)}/{corpus.n} users labeled -> {out}")
    return 0


def _seed_set(cfg: RunConfig) -> labeling.SeedSets:
    """The seed set for cfg.attribute, else the file's only set."""
    seed_sets = labeling.load_seed_sets(cfg.seeds)
    if cfg.attribute in seed_sets:
        return seed_sets[cfg.attribute]
    if len(seed_sets) == 1:
        return next(iter(seed_sets.values()))
    raise DataError(
        f"seed file has no entry for {cfg.attribute!r}; available: {sorted(seed_sets)}"
    )


def _axis_from_config(cfg: RunConfig) -> axis.AxisModel:
    _require(cfg, "embeddings", "seeds")
    table = axis.load_embeddings(cfg.embeddings)
    seeds = _seed_set(cfg)
    # seed pole_a marks class 0, but the axis scores its own pole_a
    # positively (class 1), so the poles swap when building the axis
    return axis.build_axis(
        table,
        pole_a=seeds.pole_b,
        pole_b=seeds.pole_a,
        attribute=seeds.attribute,
    )


def cmd_train(cfg: RunConfig) -> int:
    if cfg.model in ("nb-ln", "nb-ss"):
        flag = "--use-log-normal" if cfg.model == "nb-ln" else "--semi-supervised"
        raise DataError(f"train does not fit {cfg.model!r}; use model 'nb' with {flag}")
    out = _out_dir(cfg)
    inputs = {"vocabulary": cfg.vocabulary}
    if cfg.model == "axis":
        model = _axis_from_config(cfg)
        report = {"model": "axis", "communities": len(model.communities)}
        inputs.update({"embeddings": cfg.embeddings, "seeds": cfg.seeds})
    else:
        _require(cfg, "corpus")
        corpus = _load_corpus(cfg)
        inputs["corpus"] = cfg.corpus
        if cfg.labels:
            inputs["labels"] = cfg.labels
        if cfg.model == "majority":
            clf = classifiers.MajorityClassifier.fit(corpus)
            model = clf
            report = {"model": "majority", "majority": clf.majority, "rate": clf.rate}
        elif cfg.semi_supervised:
            model, fit = bayes.fit_semisupervised(
                corpus,
                alpha1=cfg.alpha1,
                alpha2=cfg.alpha2,
                use_log_normal=cfg.use_log_normal,
                pooled_activity=cfg.pooled_activity,
                max_iter=cfg.max_iter,
                tol=cfg.tol,
            )
            report = {
                "model": "nb",
                "semi_supervised": True,
                "iterations": fit.iterations,
                "converged": fit.converged,
                "log_likelihood": fit.log_likelihood,
                "n_labeled": fit.n_labeled,
                "n_unlabeled": fit.n_unlabeled,
            }
        else:
            labeled = corpus.subset(np.flatnonzero(corpus.labeled_mask))
            if labeled.n < corpus.n:
                print(f"train: dropping {corpus.n - labeled.n} unlabeled rows", file=sys.stderr)
            model, fit = bayes.fit_supervised(
                labeled,
                alpha1=cfg.alpha1,
                alpha2=cfg.alpha2,
                use_log_normal=cfg.use_log_normal,
                pooled_activity=cfg.pooled_activity,
            )
            report = {
                "model": "nb",
                "semi_supervised": False,
                "log_likelihood": fit.log_likelihood,
                "n_labeled": fit.n_labeled,
            }
    save_model(model, out / "model.json")
    (out / "fit_report.json").write_text(dumps(_jsonable(report)), encoding="utf-8")
    write_manifest(out, "train", cfg, inputs, ["model.json", "fit_report.json"])
    print(f"train: wrote {out / 'model.json'}")
    return 0


def _load_classifier(path) -> classifiers.ScoringClassifier:
    model = load_model(path)
    if not isinstance(model, classifiers.ScoringClassifier):
        raise DataError(
            f"{path} holds a {type(model).__name__}, not a classifier model "
            "(nb/1, axis/1 or majority/1)"
        )
    return model


def cmd_predict(cfg: RunConfig) -> int:
    _require(cfg, "model_path", "corpus")
    out = _out_dir(cfg)
    clf = _load_classifier(cfg.model_path)
    corpus = _load_corpus(cfg)
    scores, preds = clf.score(corpus)
    lines = ["user,score,prediction"]
    for user, s, p in zip(corpus.user_ids, scores.tolist(), preds.tolist()):
        lines.append(f"{user},{s!r},{p}")
    (out / "predictions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    n_bad = int((~np.isfinite(scores)).sum())
    write_manifest(
        out,
        "predict",
        cfg,
        {"model": cfg.model_path, "corpus": cfg.corpus, "vocabulary": cfg.vocabulary},
        ["predictions.csv"],
    )
    print(f"predict: {corpus.n} rows ({n_bad} unscorable) -> {out / 'predictions.csv'}")
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    _require(cfg, "model_path", "corpus")
    out = _out_dir(cfg)
    model = _load_classifier(cfg.model_path)
    if isinstance(model, classifiers.MajorityClassifier):
        raise DataError(
            f"{cfg.model_path} holds a majority model, which has no scores to calibrate"
        )
    corpus = _load_corpus(cfg)
    labels = corpus.labels
    scores = model.score(corpus)[0]
    ok = (labels >= 0) & np.isfinite(scores)
    if not ok.any():
        raise DataError("calibration corpus has no scorable labeled rows")
    before = calibrate.reliability(scores[ok], labels[ok], n_bins=cfg.n_bins)
    cal = calibrate.fit_isotonic(scores[ok], labels[ok])
    model.calibrator = cal
    after_scores = model.score(corpus)[0]
    after = calibrate.reliability(after_scores[ok], labels[ok], n_bins=cfg.n_bins)
    save_model(model, out / "model.json")
    summary = {
        "pairs": int(ok.sum()),
        "ece_before": before.ece,
        "ece_after": after.ece,
        "knots": len(cal.breakpoints),
    }
    (out / "calibration_report.json").write_text(dumps(summary), encoding="utf-8")
    write_manifest(
        out,
        "calibrate",
        cfg,
        {"model": cfg.model_path, "corpus": cfg.corpus, "vocabulary": cfg.vocabulary},
        ["model.json", "calibration_report.json"],
    )
    print(f"calibrate: ECE {before.ece:.4f} -> {after.ece:.4f}, wrote {out / 'model.json'}")
    return 0


def cmd_quantify(cfg: RunConfig) -> int:
    _require(cfg, "target")
    out = _out_dir(cfg)
    inputs = {"target": cfg.target, "vocabulary": cfg.vocabulary}
    if cfg.quantifier:
        quant = load_model(cfg.quantifier)
        if not isinstance(quant, quantify.QuantifierModel):
            raise DataError(f"{cfg.quantifier} does not hold a quantifier")
        inputs["quantifier"] = cfg.quantifier
    else:
        _require(cfg, "model_path")
        clf = _load_classifier(cfg.model_path)
        inputs["model"] = cfg.model_path
        validation = None
        if cfg.mode == "acc":
            _require(cfg, "validation")
            validation = _load_corpus(cfg, path=cfg.validation)
            inputs["validation"] = cfg.validation
        quant = quantify.fit_quantifier(clf, validation, mode=cfg.mode)
        save_model(quant, out / "quantifier.json")
    target = _load_corpus(cfg, path=cfg.target)
    est = quantify.estimate(quant, target, confidence=cfg.confidence)
    payload = {
        "point": est.point,
        "lower": est.lower,
        "upper": est.upper,
        "confidence": est.confidence,
        "cohort_size": est.cohort_size,
        "method": est.method,
        "excluded": est.excluded,
        "tpr": quant.tpr,
        "fpr": quant.fpr,
    }
    (out / "estimate.json").write_text(dumps(payload), encoding="utf-8")
    outputs = ["estimate.json"] + ([] if cfg.quantifier else ["quantifier.json"])
    write_manifest(out, "quantify", cfg, inputs, outputs)
    interval = (
        f" [{est.lower:.4f}, {est.upper:.4f}] @ {est.confidence:.0%}"
        if est.lower is not None
        else ""
    )
    print(f"quantify: prevalence {est.point:.4f}{interval} ({est.method})")
    return 0


def _factory_for(kind: str, cfg: RunConfig):
    if kind == "majority":
        return classifiers.majority_factory()
    if kind == "nb":
        return classifiers.nb_factory(alpha1=cfg.alpha1, alpha2=cfg.alpha2)
    if kind == "nb-ln":
        return classifiers.nb_factory(
            alpha1=cfg.alpha1,
            alpha2=cfg.alpha2,
            use_log_normal=True,
            pooled_activity=cfg.pooled_activity,
        )
    if kind == "nb-ss":
        return classifiers.nb_factory(
            alpha1=cfg.alpha1,
            alpha2=cfg.alpha2,
            semi_supervised=True,
            max_iter=cfg.max_iter,
            tol=cfg.tol,
        )
    if kind == "axis":
        return classifiers.axis_factory(_axis_from_config(cfg))
    raise DataError(f"unknown model kind {kind!r}")


def cmd_evaluate(cfg: RunConfig, do_cv_roc: bool = False, do_robustness: bool = False) -> int:
    _require(cfg, "corpus")
    out = _out_dir(cfg)
    corpus = _load_corpus(cfg)
    factory = _factory_for(cfg.model, cfg)
    kind = cfg.model
    report = evaluate.bootstrap_eval(
        factory,
        corpus,
        n_boot=cfg.n_boot,
        test_fraction=cfg.test_fraction,
        seed=stage_seed(cfg.seed, "bootstrap"),
        threads=cfg.threads,
    )
    payload = {
        "model": kind,
        "n_replicates": report.n_replicates,
        "dropped_rows": report.dropped_rows,
        "metrics": report.summary(),
        "replicates": {k: v.tolist() for k, v in report.metrics.items()},
    }
    (out / "metrics.json").write_text(dumps(payload), encoding="utf-8")
    outputs = ["metrics.json"]
    if do_cv_roc:
        curve = evaluate.cv_roc(
            factory,
            corpus,
            folds=cfg.folds,
            seed=stage_seed(cfg.seed, "cv-roc"),
        )
        curve.to_csv(out / "roc_curve.csv")
        outputs.append("roc_curve.csv")
    if do_robustness:
        _require(cfg, "model_path")
        clf = _load_classifier(cfg.model_path)
        curve = evaluate.robustness_sweep(clf, corpus, cfg.taus)
        curve.to_csv(out / "robustness.csv")
        outputs.append("robustness.csv")
    write_manifest(
        out,
        "evaluate",
        cfg,
        {"corpus": cfg.corpus, "vocabulary": cfg.vocabulary},
        outputs,
    )
    mean_auc = payload["metrics"]["roc_auc"]["mean"]
    print(f"evaluate[{kind}]: roc_auc mean {mean_auc:.4f} over {cfg.n_boot} replicates")
    return 0


def cmd_importance(cfg: RunConfig) -> int:
    _require(cfg, "corpus")
    out = _out_dir(cfg)
    corpus = _load_corpus(cfg)
    mean, std = bayes.feature_log_odds_dispersion(
        corpus,
        n_boot=cfg.importance_boot,
        seed=stage_seed(cfg.seed, "importance"),
        alpha1=cfg.alpha1,
        alpha2=cfg.alpha2,
    )
    order = np.argsort(-np.abs(mean))
    lines = ["community,log_odds,std"]
    for j in order:
        lines.append(f"{corpus.vocabulary.names[j]},{repr(float(mean[j]))},{repr(float(std[j]))}")
    (out / "importance.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(
        out,
        "importance",
        cfg,
        {"corpus": cfg.corpus, "vocabulary": cfg.vocabulary},
        ["importance.csv"],
    )
    print(f"importance: {corpus.d} communities -> {out / 'importance.csv'}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """Benchmark table: bootstrap classification plus NPP quantification."""
    _require(cfg, "corpus")
    out = _out_dir(cfg)
    corpus = _load_corpus(cfg)
    classification: dict = {}
    quantification: dict = {}
    outputs = ["report.json"]
    train_pool, eval_pool = split(
        corpus, SplitSpec(test_fraction=0.3, seed=stage_seed(cfg.seed, "report-split"))
    )
    for kind in cfg.models:
        factory = _factory_for(kind, cfg)
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
            factory,
            corpus,
            folds=cfg.folds,
            seed=stage_seed(cfg.seed, f"cv-roc-{kind}"),
        )
        name = f"roc_{kind.replace('-', '_')}.csv"
        curve.to_csv(out / name)
        outputs.append(name)
        try:
            quantification[kind] = _quant_block(kind, factory, cfg, train_pool, eval_pool)
        except (DataError, NumericError) as e:
            quantification[kind] = {"error": str(e)}
    payload = {
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
    }
    (out / "report.json").write_text(dumps(_jsonable(payload)), encoding="utf-8")
    write_manifest(
        out,
        "report",
        cfg,
        {"corpus": cfg.corpus, "vocabulary": cfg.vocabulary},
        outputs,
    )
    print(f"report: {len(cfg.models)} models -> {out / 'report.json'}")
    return 0


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
    p.add_argument("--format", choices=("jsonl", "triplets"), help="corpus format")
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
    p.add_argument("--model", choices=("nb", "axis", "majority"))
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
    p.add_argument("--mode", choices=("cc", "acc"))
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
    p.add_argument("--robustness", action="store_true", default=False, help="write a confidence-filter sweep")
    p.add_argument("--taus", type=float, nargs="+", help="confidence filter thresholds")
    p.add_argument("--embeddings")
    p.add_argument("--seeds")
    p.add_argument("--attribute")
    p.set_defaults(func=None)

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
    p.add_argument("--mode", choices=("cc", "acc"))
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
        cfg = resolve_config(args)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, do_cv_roc=args.cv_roc, do_robustness=args.robustness)
        return args.func(cfg)
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
