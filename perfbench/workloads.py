"""Workload definitions: generated inputs, the CLI command chain, and
the output checks with their bounds.

Each chain is what a user types, one `demoscope` process per
subcommand, run one after the other (a closed loop with one client).
`{o}` in an argument is the chain's output root; inputs live in `in/`.
No chain passes --threads. Why each workload exists is recorded in
BENCHMARK.json and README.md.

The quality bounds below come from the generative story and were
checked against ten seeds per workload: loose enough for any seed,
tight enough that a broken statistic shows.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

AUC_MIN = 0.75  # ROC AUC of any nb model on its workload's world
PREV_ERR_MAX = 0.10  # |estimated - true| prevalence, and NPP mean abs error
EXTRACT_ACC_MIN = 0.99  # extracted gender labels that match the truth
EXTRACT_COVER_MIN = 0.95  # coherent declaring users that get a label
DISTANT_ACC_MIN = 0.70  # distant labels that match the true class
DISTANT_COVER_MIN = 0.01  # users that get a distant label
# Importance: share of the TOP_K communities by |log odds| signed like w.
# A rare community whose few counts all fall in one class gets a large
# smoothed log odds of either sign, so the check looks past the top few.
TOP_K = 50
SIGN_AGREE_MIN = 0.8
EM_SLACK = 1e-9  # relative slack allowed per EM step

_DEMO_CONFIG = {
    "corpus": "in/corpus.jsonl",
    "vocabulary": "in/vocab.txt",
    "embeddings": "in/embeddings.tsv",
    "seeds": "in/seeds.json",
    "attribute": "synthetic",
    "models": "[majority, nb, nb-ln, axis]",
    "n_boot": 20,
    "folds": 5,
    "repeats": 20,
    "cohort_size": 200,
}

WORKLOADS = {
    "cli-demo": {
        # nine interpreter start-ups swing the most with host load, so a
        # timed run takes at least three chains and reports their median
        "min_chains": 3,
        "d": 150,
        "gamma": 0.4,
        "activity": (3.0, 0.6),
        "corpora": [
            {"file": "corpus.jsonl", "prefix": "u", "n": 1500, "prevalence": 0.5, "labeled": 0.8},
            {"file": "target.jsonl", "prefix": "t", "n": 600, "prevalence": 0.35, "labeled": 0.0},
        ],
        "comments": {"users": 80, "bots": 3, "incoherent": 0.05},
        "seeds": (5, 3),
        "embeddings": True,
        "config": _DEMO_CONFIG,
        "chain": [
            ("extract", "extract --comments in/comments.jsonl --botlist in/botlist.txt "
             "--attribute gender --out-dir {o}/extract"),
            ("label-distant", "label-distant --corpus in/corpus.jsonl --vocabulary in/vocab.txt "
             "--seeds in/seeds.json --attribute synthetic --out-dir {o}/distant"),
            ("train", "train --config in/run.yaml --model nb --semi-supervised "
             "--use-log-normal --out-dir {o}/train"),
            ("calibrate", "calibrate --config in/run.yaml --model-path {o}/train/model.json "
             "--out-dir {o}/calibrate"),
            ("quantify", "quantify --config in/run.yaml --model-path {o}/calibrate/model.json "
             "--validation in/corpus.jsonl --target in/target.jsonl --mode acc "
             "--out-dir {o}/quantify"),
            ("predict", "predict --model-path {o}/calibrate/model.json --corpus in/target.jsonl "
             "--vocabulary in/vocab.txt --out-dir {o}/predict"),
            ("evaluate", "evaluate --config in/run.yaml --model nb --cv-roc --out-dir {o}/evaluate"),
            ("report", "report --config in/run.yaml --out-dir {o}/report"),
            ("importance", "importance --config in/run.yaml --out-dir {o}/importance"),
        ],
    },
    "ingest-50k": {
        "d": 2000,
        "gamma": 0.2,
        "activity": (3.0, 0.6),
        "corpora": [
            {"file": "corpus.jsonl", "prefix": "u", "n": 50000, "prevalence": 0.5, "labeled": 0.5},
            {"file": "calib.jsonl", "prefix": "k", "n": 5000, "prevalence": 0.5, "labeled": 1.0},
            {"file": "valid.jsonl", "prefix": "v", "n": 5000, "prevalence": 0.5, "labeled": 1.0},
            {"file": "target.jsonl", "prefix": "t", "n": 20000, "prevalence": 0.3, "labeled": 0.0},
        ],
        "comments": {"users": 50000, "bots": 40, "incoherent": 0.02},
        "seeds": (100, 1),
        "embeddings": False,
        "config": {"corpus": "in/corpus.jsonl", "vocabulary": "in/vocab.txt", "attribute": "synthetic"},
        "chain": [
            ("extract", "extract --comments in/comments.jsonl --botlist in/botlist.txt "
             "--attribute gender --out-dir {o}/extract"),
            ("label-distant", "label-distant --config in/run.yaml --seeds in/seeds.json "
             "--out-dir {o}/distant"),
            ("train", "train --config in/run.yaml --model nb --semi-supervised "
             "--use-log-normal --out-dir {o}/train"),
            ("calibrate", "calibrate --config in/run.yaml --corpus in/calib.jsonl "
             "--model-path {o}/train/model.json --out-dir {o}/calibrate"),
            ("quantify", "quantify --config in/run.yaml --model-path {o}/calibrate/model.json "
             "--validation in/valid.jsonl --target in/target.jsonl --mode acc "
             "--out-dir {o}/quantify"),
            ("predict", "predict --model-path {o}/calibrate/model.json --corpus in/target.jsonl "
             "--vocabulary in/vocab.txt --out-dir {o}/predict"),
        ],
    },
    "resample-15k": {
        "d": 2000,
        "gamma": 0.2,
        "activity": (3.0, 0.6),
        "corpora": [
            {"file": "corpus.jsonl", "prefix": "u", "n": 15000, "prevalence": 0.5, "labeled": 0.5},
        ],
        "seeds": (100, 1),
        "embeddings": True,
        "config": {
            "corpus": "in/corpus.jsonl",
            "vocabulary": "in/vocab.txt",
            "embeddings": "in/embeddings.tsv",
            "seeds": "in/seeds.json",
            "attribute": "synthetic",
        },
        "chain": [
            ("report", "report --config in/run.yaml --models nb nb-ln nb-ss axis --n-boot 20 "
             "--folds 5 --repeats 50 --cohort-size 500 --out-dir {o}/report"),
            ("importance", "importance --config in/run.yaml --importance-boot 20 "
             "--out-dir {o}/importance"),
        ],
    },
}

for _name, _spec in WORKLOADS.items():
    _spec["name"] = _name


def commands(spec: dict, out_root: str) -> list[tuple[str, list[str]]]:
    return [(name, line.format(o=out_root).split()) for name, line in spec["chain"]]


# ------------------------------------------------------------------ checks
# Each check reads one command's output directory and returns
# (problems, quality) where quality holds the numbers reported as
# end-to-end metrics. A missing file or key is a problem, not a crash.


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC with tie-averaged ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inv]
    pos = labels == 1
    n1, n0 = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _row_index(user: str) -> int:
    return int(user[1:])


def check_extract(out: Path, truth: dict):
    labels = {r["user"]: int(r["label"]) for r in _csv_rows(out / "labels.csv")}
    gender = truth["gender"]
    problems = []
    if truth["bots"] & set(labels):
        problems.append("extract: a botlisted user was labeled")
    known = [u for u in labels if u in gender]
    if len(known) < len(labels):
        problems.append(f"extract: {len(labels) - len(known)} labeled users are incoherent or unknown")
    acc = np.mean([labels[u] == gender[u] for u in known]) if known else 0.0
    cover = len(known) / len(gender)
    if acc < EXTRACT_ACC_MIN:
        problems.append(f"extract: label accuracy {acc:.4f} < {EXTRACT_ACC_MIN}")
    if cover < EXTRACT_COVER_MIN:
        problems.append(f"extract: coverage {cover:.4f} < {EXTRACT_COVER_MIN}")
    return problems, {}


def check_distant(out: Path, truth: dict):
    classes = truth["classes"]["corpus.jsonl"]
    labels = {r["user"]: int(r["label"]) for r in _csv_rows(out / "labels.csv")}
    hits = [labels[u] == classes[_row_index(u)] for u in labels]
    cover = len(hits) / classes.size
    acc = float(np.mean(hits)) if hits else 0.0
    problems = []
    if cover < DISTANT_COVER_MIN:
        problems.append(f"label-distant: coverage {cover:.4f} < {DISTANT_COVER_MIN}")
    if acc < DISTANT_ACC_MIN:
        problems.append(f"label-distant: accuracy {acc:.4f} < {DISTANT_ACC_MIN}")
    return problems, {}


def check_train(out: Path, truth: dict):
    _json(out / "model.json")
    trace = _json(out / "fit_report.json")["log_likelihood"]
    problems = []
    if not isinstance(trace, list) or len(trace) < 2:
        problems.append("train: fit_report.json holds no EM trace")
    else:
        for a, b in zip(trace, trace[1:]):
            if not b >= a - EM_SLACK * abs(a):
                problems.append(f"train: EM objective fell from {a!r} to {b!r}")
                break
    return problems, {}


def check_calibrate(out: Path, truth: dict):
    _json(out / "model.json")
    rep = _json(out / "calibration_report.json")
    problems = []
    if not (rep["pairs"] > 0 and np.isfinite(rep["ece_before"]) and np.isfinite(rep["ece_after"])):
        problems.append(f"calibrate: bad report {rep}")
    return problems, {}


def check_quantify(out: Path, truth: dict):
    _json(out / "quantifier.json")
    est = _json(out / "estimate.json")
    true_prev = float(truth["classes"]["target.jsonl"].mean())
    err = abs(est["point"] - true_prev)
    problems = []
    if not est["lower"] <= est["point"] <= est["upper"]:
        problems.append(f"quantify: point outside its interval {est}")
    if not err <= PREV_ERR_MAX:
        problems.append(f"quantify: |{est['point']:.4f} - {true_prev:.4f}| > {PREV_ERR_MAX}")
    return problems, {"prevalence_acc": 1.0 - err}


def check_predict(out: Path, truth: dict):
    rows = _csv_rows(out / "predictions.csv")
    classes = truth["classes"]["target.jsonl"]
    problems = []
    if len(rows) != classes.size:
        return [f"predict: {len(rows)} rows for {classes.size} users"], {}
    y = classes[[_row_index(r["user"]) for r in rows]]
    auc = roc_auc([float(r["score"]) for r in rows], y)
    if not auc >= AUC_MIN:
        problems.append(f"predict: target AUC {auc:.4f} < {AUC_MIN}")
    return problems, {"auc": auc}


def check_evaluate(out: Path, truth: dict):
    auc = _json(out / "metrics.json")["metrics"]["roc_auc"]["mean"]
    problems = []
    if not auc >= AUC_MIN:
        problems.append(f"evaluate: bootstrap AUC {auc:.4f} < {AUC_MIN}")
    if len(_csv_rows(out / "roc_curve.csv")) < 2:
        problems.append("evaluate: empty roc_curve.csv")
    return problems, {}


def check_report(out: Path, truth: dict):
    rep = _json(out / "report.json")
    problems = []
    if set(rep["classification"]) != set(rep["quantification"]):
        problems.append("report: classification and quantification cover different models")
    for kind in rep["classification"]:
        if not (out / f"roc_{kind.replace('-', '_')}.csv").is_file():
            problems.append(f"report: no ROC curve for {kind}")
    for kind, block in rep["quantification"].items():
        # a majority classifier has tpr == fpr, so ACC refuses it by design
        if "error" in block and kind != "majority":
            problems.append(f"report: {kind} quantification failed: {block['error']}")
    auc = rep["classification"]["nb"]["roc_auc"]["mean"]
    mae = rep["quantification"]["nb"]["mae"]
    if not auc >= AUC_MIN:
        problems.append(f"report: nb bootstrap AUC {auc:.4f} < {AUC_MIN}")
    if not mae <= PREV_ERR_MAX:
        problems.append(f"report: nb NPP MAE {mae:.4f} > {PREV_ERR_MAX}")
    return problems, {"auc": auc, "prevalence_acc": 1.0 - mae}


def check_importance(out: Path, truth: dict):
    rows = _csv_rows(out / "importance.csv")
    w = truth["w"]
    problems = []
    if len(rows) != w.size:
        return [f"importance: {len(rows)} rows for {w.size} communities"], {}
    top = rows[:TOP_K]
    agree = np.mean([np.sign(float(r["log_odds"])) == np.sign(w[_row_index(r["community"])]) for r in top])
    if agree < SIGN_AGREE_MIN:
        problems.append(f"importance: top-{TOP_K} sign agreement {agree:.2f} < {SIGN_AGREE_MIN}")
    return problems, {}


CHECKS = {
    "extract": check_extract,
    "label-distant": check_distant,
    "train": check_train,
    "calibrate": check_calibrate,
    "quantify": check_quantify,
    "predict": check_predict,
    "evaluate": check_evaluate,
    "report": check_report,
    "importance": check_importance,
}
