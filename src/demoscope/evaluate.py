"""Evaluation protocols: ranking metrics, bootstrap, cross-validation, curves.

All metrics are computed on labeled rows only. Rows a classifier cannot
score are dropped, never imputed (classifiers.scored_sample); bootstrap_eval
counts them. roc_auc, roc_curve and f1 check their input with the one
(scores, labels) check, calibrate._check_scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibrate import _check_scored
from .classifiers import TrainFn, score_rows, scored_sample
from .data import LabeledCorpus, _oversample_rows, class_pools, class_positions, split, write_csv
from .errors import DataError
from .quantify import COHORT_SIZE, REPEATS, evaluate_quantifier, fit_quantifier
from .serialize import in_chunks

EPS_PROB = 1e-12

# defaults of the protocols, read by cli.RunConfig too
N_BOOT = 100  # bootstrap replicates
TEST_FRACTION = 0.2  # held-out share of each replicate
FOLDS = 10  # cross-validation folds


def _average_ranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks of s; each group of equal values shares the mean of
    the ranks it spans (-0.0 ties with 0.0)."""
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(starts, append=s.size)
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2.0, counts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Rank-based ROC AUC; tied scores contribute half concordance.

    Equivalent to the Mann-Whitney U statistic normalized by n0 * n1.
    A constant scorer gets exactly 0.5.
    """
    s, y = _check_scored(scores, labels, "ROC AUC", both=True)
    n1 = int((y == 1).sum())
    n0 = s.size - n1
    ranks = _average_ranks(s)
    u = ranks[y == 1].sum() - n1 * (n1 + 1) / 2.0
    return float(u / (n0 * n1))


def f1(predictions, labels) -> float:
    """F1 of class 1; 0.0 when there are no true positives."""
    p, y = _check_scored(predictions, labels)
    tp = int(((p == 1) & (y == 1)).sum())
    fp = int(((p == 1) & (y != 1)).sum())
    fn = int(((p != 1) & (y == 1)).sum())
    if tp == 0:
        return 0.0
    return float(2 * tp / (2 * tp + fp + fn))


def roc_curve(scores, labels):
    """ROC points swept over score thresholds, (fpr, tpr).

    Starts at (0, 0) and ends at (1, 1); one point per distinct score.
    """
    s, y = _check_scored(scores, labels, "ROC curve", both=True)
    order = np.argsort(-s, kind="stable")
    s = s[order]
    y = y[order]
    n1 = int((y == 1).sum())
    n0 = s.size - n1
    cut = np.r_[np.flatnonzero(np.diff(s)), s.size - 1]
    tp = np.cumsum(y == 1)[cut]
    fp = np.cumsum(y == 0)[cut]
    fpr = np.concatenate([[0.0], fp / n0])
    tpr = np.concatenate([[0.0], tp / n1])
    return fpr, tpr


@dataclass
class MetricReport:
    """Replicate-level metric values plus mean/std summaries."""

    n_replicates: int
    metrics: dict[str, np.ndarray]
    dropped_rows: int = 0

    def summary(self) -> dict[str, dict[str, float]]:
        out = {}
        for name, vals in self.metrics.items():
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            out[name] = {"mean": float(vals.mean()), "std": std}
        return out


@dataclass
class CurveData:
    """A plotted series: x, y, optional spread, named auxiliary series."""

    x: np.ndarray
    y: np.ndarray
    y_std: np.ndarray | None = None
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    def to_csv(self, path):
        """One column per series (x, y, y_std when set, then aux), one row
        per point, every value written as the shortest round-trip float."""
        cols = {"x": self.x, "y": self.y}
        if self.y_std is not None:
            cols["y_std"] = self.y_std
        cols.update(self.aux)
        values = [np.asarray(v, dtype=np.float64).tolist() for v in cols.values()]
        write_csv(path, list(cols), zip(*values))


def bootstrap_eval(
    models: dict[str, TrainFn],
    corpus: LabeledCorpus,
    n_boot: int = N_BOOT,
    test_fraction: float = TEST_FRACTION,
    seed: int = 0,
) -> dict[str, MetricReport]:
    """Repeated stratified holdout, one MetricReport per model name: each
    replicate trains every model on the same oversampled 1 - test_fraction
    and scores ROC AUC and F1 on the same held-out rows.

    Replicates are independent and deterministic given (seed, replicate
    index), so running them in chunks (serialize.in_chunks) never
    changes the numbers.
    """
    if n_boot < 1:
        raise DataError(f"n_boot must be >= 1, got {n_boot}")

    def one(b: int) -> dict:
        # child b of SeedSequence(seed), made anew on each call: split
        # spawns from the sequence it is given, and after a failed chunk
        # every replicate runs again
        child = np.random.SeedSequence(seed, spawn_key=(b,))
        train, test = split(corpus, test_fraction, child, oversample=True)
        found = {}
        for name, factory in models.items():
            scores, preds, labels = scored_sample(factory(train), test)
            if len(set(labels.tolist())) < 2:
                raise DataError(f"replicate {b}: {name} lost a test class to dropped rows")
            # the test side of a split is all labeled, so every other row was unscorable
            found[name] = roc_auc(scores, labels), f1(preds, labels), test.n - labels.size
        return found

    results = in_chunks(one, n_boot, "bootstrap replicates")
    reports = {}
    for name in models:
        aucs, f1s, dropped = map(np.array, zip(*(r[name] for r in results)))
        reports[name] = MetricReport(n_boot, {"roc_auc": aucs, "f1": f1s}, int(dropped.sum()))
    return reports


def cv_roc(
    models: dict[str, TrainFn],
    corpus: LabeledCorpus,
    folds: int = FOLDS,
    seed: int = 0,
) -> dict[str, CurveData]:
    """Pooled ROC from stratified k-fold cross-validation, one curve per
    model name; every model trains and scores on the same folds.

    Out-of-fold scores for every labeled row are pooled into one curve.
    Unlabeled rows join every (oversampled) training fold. Each class
    needs at least `folds` labeled rows.
    """
    if folds < 2:
        raise DataError(f"folds must be >= 2, got {folds}")
    labels = corpus.labels
    position = class_positions(
        labels, np.random.default_rng(seed), folds, f"{folds}-fold cross-validation"
    )
    assignment = np.where(position >= 0, position % folds, -1)

    def one(fold: int):
        test_idx = np.flatnonzero(assignment == fold)
        train_idx = np.flatnonzero(assignment != fold)  # unlabeled rows hold -1
        child = np.random.SeedSequence(seed, spawn_key=(fold,))
        train_idx = train_idx[_oversample_rows(labels[train_idx], child)]
        train, test = corpus.subset(train_idx), corpus.subset(test_idx)
        return test_idx, {name: score_rows(factory(train), test)[::2]
                          for name, factory in models.items()}

    results = in_chunks(one, folds, "cross-validation folds")
    curves = {}
    for name in models:
        pooled_scores = np.zeros(corpus.n, dtype=np.float64)
        scorable = np.zeros(corpus.n, dtype=bool)
        for test_idx, scored in results:
            pooled_scores[test_idx], scorable[test_idx] = scored[name]
        # every labeled row is in exactly one test fold
        ok = np.flatnonzero(scorable)
        fpr, tpr = roc_curve(pooled_scores[ok], labels[ok])
        curves[name] = CurveData(x=fpr, y=tpr)
    return curves


def learning_curve(
    factory: TrainFn,
    corpus: LabeledCorpus,
    sizes,
    repeats: int = REPEATS,
    cohort_size: int = COHORT_SIZE,
    seed: int = 0,
) -> CurveData:
    """ACC quantification error as a function of labeled training-set size.

    One 70/30 split provides a training pool and an evaluation pool.
    For each size s: draw a stratified subsample of s labeled pool rows,
    hold out a quarter of it to measure correction rates, train on the
    oversampled rest, then score MAE over NPP cohorts from the
    evaluation pool at its natural prevalence.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) == 0 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DataError("sizes must be strictly increasing")
    # a quarter of s rows, and at least 2, go to calibration: from s = 3
    # on, some are left to train on
    if sizes[0] < 3:
        raise DataError(f"size {sizes[0]} too small to carve a calibration split")
    root = np.random.SeedSequence(seed)
    split_seed, sub_seed, npp_seed = root.spawn(3)
    train_pool, eval_pool = split(corpus, 0.3, split_seed)
    pools = class_pools(train_pool.labels)  # split left >= 2 rows of each class
    n_labeled = pools[0].size + pools[1].size
    if sizes[-1] > n_labeled:
        raise DataError(
            f"largest size {sizes[-1]} exceeds the {n_labeled} labeled rows in the training pool"
        )
    unlabeled_idx = np.flatnonzero(~train_pool.labeled_mask)
    sub_rng = np.random.default_rng(sub_seed)
    npp_children = npp_seed.spawn(len(sizes))

    maes = np.empty(len(sizes), dtype=np.float64)
    stds = np.empty(len(sizes), dtype=np.float64)
    for i, s in enumerate(sizes):
        take = _stratified_subsample(pools, s, sub_rng)
        n_cal = max(2, int(round(0.25 * take.size)))
        cal_idx = take[:n_cal]
        fit_idx = np.sort(np.concatenate([take[n_cal:], unlabeled_idx]))
        fit_idx = fit_idx[_oversample_rows(train_pool.labels[fit_idx], sub_rng.integers(2**63))]
        fit_part = train_pool.subset(fit_idx)
        cal_part = train_pool.subset(np.sort(cal_idx))
        clf = factory(fit_part)
        quant = fit_quantifier(clf, cal_part, mode="acc")
        rep = evaluate_quantifier(
            quant,
            eval_pool,
            repeats=repeats,
            size=cohort_size,
            seed=int(np.random.default_rng(npp_children[i]).integers(2**31)),
        )
        maes[i] = rep.mae
        stds[i] = rep.ae_std
    return CurveData(x=np.array(sizes, dtype=np.float64), y=maes, y_std=stds)


def _stratified_subsample(pools, s: int, rng) -> np.ndarray:
    """Class-proportional draw of s rows from class_pools' two pools (at
    least one per class)."""
    idx0, idx1 = pools
    n1 = int(round(s * idx1.size / (idx0.size + idx1.size)))
    n1 = min(max(n1, 1), s - 1)
    n0 = s - n1
    if n1 > idx1.size or n0 > idx0.size:
        raise DataError(f"cannot draw {s} rows with class balance from the pool")
    take1 = rng.choice(idx1, size=n1, replace=False)
    take0 = rng.choice(idx0, size=n0, replace=False)
    out = np.concatenate([take1, take0])
    rng.shuffle(out)
    return out


def robustness_sweep(
    classifier,
    corpus: LabeledCorpus,
    taus,
) -> CurveData:
    """Confidence-filtered AUC: keep rows scored <= tau or >= 1 - tau.

    tau = 0.5 keeps everything. Points where the retained set is empty
    or single-class hold NaN. Auxiliary series 'retained' records the
    kept fraction of scorable labeled rows.
    """
    taus = np.asarray(list(taus), dtype=np.float64)
    if taus.size == 0 or not np.all((taus >= 0.0) & (taus <= 0.5)):  # NaN fails both
        raise DataError("taus must be a non-empty list within [0, 0.5]")
    scores, _, labels = scored_sample(classifier, corpus)
    if scores.size == 0:
        raise DataError("no scorable labeled rows")
    aucs = np.full(taus.size, np.nan)
    retained = np.zeros(taus.size)
    for i, tau in enumerate(taus):
        keep = (scores <= tau + EPS_PROB) | (scores >= 1.0 - tau - EPS_PROB)
        retained[i] = keep.mean()
        if keep.any() and len(set(labels[keep].tolist())) == 2:
            aucs[i] = roc_auc(scores[keep], labels[keep])
    return CurveData(x=taus, y=aucs, aux={"retained": retained})
