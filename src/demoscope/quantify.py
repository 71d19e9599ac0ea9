"""Group prevalence estimation from individual classifier output.

Two estimators over a cohort of m scored users:

  CC   classify-and-count: fraction predicted class 1.
  ACC  adjusted count: (cc - fpr) / (tpr - fpr), clamped to [0, 1],
       with tpr/fpr measured once on held-out validation data.

estimate centres its interval on the point estimate (the CC share or the
ACC value), with the normal half-width of a Poisson-Binomial count over the
calibrated scores q_i, variance sum q_i (1 - q_i); ACC divides it by
|tpr - fpr|. Only criterion 5's poisson_binomial_interval centres on the mean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .classifiers import ScoringClassifier, score_rows
from .data import LabeledCorpus
from .errors import DataError, NumericError

EXACT_LIMIT = 1000

MODES = ("cc", "acc")

# defaults, read by cli.RunConfig too
MODE = "acc"  # one of MODES
CONFIDENCE = 0.95  # interval confidence level
REPEATS = 50  # cohorts evaluate_quantifier samples
COHORT_SIZE = 500  # users per sampled cohort


@dataclass
class QuantifierModel:
    """A classifier plus the correction state for one estimator mode."""

    classifier: ScoringClassifier
    mode: str  # one of MODES
    tpr: float | None = None
    fpr: float | None = None
    validation_size: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise DataError(f"unknown quantifier mode {self.mode!r}")
        if self.mode == "acc":
            if self.tpr is None or self.fpr is None:
                raise DataError("acc mode requires tpr and fpr")
            if not (0.0 <= self.tpr <= 1.0 and 0.0 <= self.fpr <= 1.0):
                raise DataError("tpr and fpr must lie in [0, 1]")
            if self.tpr == self.fpr:
                raise NumericError(
                    f"degenerate correction: tpr == fpr == {self.tpr}; "
                    "the classifier carries no class signal"
                )
        if self.validation_size < 0:
            raise DataError(f"validation_size must be >= 0, got {self.validation_size}")


@dataclass
class PrevalenceEstimate:
    """Point estimate with an optional confidence interval."""

    point: float
    lower: float | None
    upper: float | None
    confidence: float
    cohort_size: int
    method: str
    excluded: int = 0


def fit_quantifier(
    classifier: ScoringClassifier,
    validation: LabeledCorpus | None,
    mode: str = MODE,
) -> QuantifierModel:
    """Measure correction rates on held-out labeled validation data.

    CC needs no validation (pass None). ACC measures tpr and fpr from
    the classifier's hard predictions; both classes must be present
    among the scorable validation rows, and the measured rates must
    differ.
    """
    if mode != "acc":  # cc needs no rates, and the model refuses a mode not in MODES
        return QuantifierModel(classifier=classifier, mode=mode)
    if validation is None:
        raise DataError("acc mode requires a validation corpus")
    labels = validation.labels
    _, preds, scorable = score_rows(classifier, validation)
    usable = scorable & validation.labeled_mask
    if not usable.any():
        raise DataError("validation has no scorable labeled rows")
    y = labels[usable]
    p = preds[usable]
    n1 = int((y == 1).sum())
    n0 = int((y == 0).sum())
    if n1 == 0 or n0 == 0:
        raise DataError("validation must contain both classes")
    tpr = float((p[y == 1] == 1).mean())
    fpr = float((p[y == 0] == 1).mean())
    return QuantifierModel(
        classifier=classifier,
        mode="acc",
        tpr=tpr,
        fpr=fpr,
        validation_size=int(usable.sum()),
    )


def poisson_binomial_interval(
    scores,
    confidence: float = CONFIDENCE,
    method: str = "normal",
) -> tuple[float, float, float]:
    """Prevalence interval for independent Bernoulli draws with means scores.

    Returns (center, lower, upper) where center is the mean score. The
    normal method uses +/- z * sqrt(sum q(1-q)) / m; the exact method
    convolves the count distribution and takes equal-tail quantiles
    (cohorts up to 1000). Bounds clamp to [0, 1].
    """
    q = np.asarray(scores, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise DataError("scores must be a non-empty 1-d array")
    if not np.all(np.isfinite(q)) or q.min() < 0.0 or q.max() > 1.0:
        raise DataError("scores must lie in [0, 1]")
    if not (0.0 < confidence < 1.0):
        raise DataError(f"confidence must lie in (0, 1), got {confidence}")
    m = q.size
    center = float(q.mean())
    if method == "normal":
        half = _normal_half_width(q, confidence)
        return center, max(0.0, center - half), min(1.0, center + half)
    if method == "exact":
        if m > EXACT_LIMIT:
            raise DataError(f"exact interval limited to cohorts of {EXACT_LIMIT}, got {m}")
        pmf = exact_count_pmf(q)
        cdf = np.cumsum(pmf)
        tail = (1.0 - confidence) / 2.0
        lo_count = int(np.searchsorted(cdf, tail, side="left"))
        hi_count = int(np.searchsorted(cdf, 1.0 - tail, side="left"))
        return center, lo_count / m, min(1.0, hi_count / m)
    raise DataError(f"unknown interval method {method!r}")


def _normal_half_width(q: np.ndarray, confidence: float) -> float:
    """z * sqrt(sum q(1-q)) / m: the normal half-width for the mean of
    m independent Bernoulli(q) draws."""
    from scipy.special import ndtri

    z = float(ndtri(0.5 + confidence / 2.0))
    return z * float(np.sqrt((q * (1.0 - q)).sum())) / q.size


def exact_count_pmf(scores) -> np.ndarray:
    """Poisson-Binomial pmf over counts 0..m by direct convolution."""
    q = np.asarray(scores, dtype=np.float64)
    pmf = np.array([1.0])
    for qi in q:
        pmf = np.convolve(pmf, [1.0 - qi, qi])
    # guard tiny negative round-off and renormalize
    pmf = np.maximum(pmf, 0.0)
    return pmf / pmf.sum()


def estimate(
    quantifier: QuantifierModel,
    cohort: LabeledCorpus,
    confidence: float = CONFIDENCE,
) -> PrevalenceEstimate:
    """Estimate class-1 prevalence in a cohort.

    Unscorable rows are excluded and counted. Intervals require
    calibrated scores; without a calibrator the estimate comes back
    interval-free with a warning. The ACC interval is the CC interval
    width scaled by 1 / |tpr - fpr|, clamped to [0, 1].
    """
    est = _estimate(quantifier, *score_rows(quantifier.classifier, cohort), confidence)
    if not quantifier.classifier.calibrated:
        warnings.warn("scores are uncalibrated; skipping the interval")
    return est


def _estimate(
    quantifier: QuantifierModel,
    scores: np.ndarray,
    preds: np.ndarray,
    ok: np.ndarray,
    confidence: float,
) -> PrevalenceEstimate:
    """estimate() on one cohort's scores, predictions and scorable mask,
    without its warning: evaluate_quantifier runs it once per cohort."""
    excluded = int((~ok).sum())
    m = int(ok.sum())
    if m == 0:
        raise DataError("cohort has no scorable rows")
    cc = float((preds[ok] == 1).mean())
    if quantifier.mode == "cc":
        point = cc
        scale = 1.0
        method = "cc"
    else:
        spread = quantifier.tpr - quantifier.fpr
        point = float(np.clip((cc - quantifier.fpr) / spread, 0.0, 1.0))
        scale = 1.0 / abs(spread)
        method = "acc"
    lower = upper = None
    if quantifier.classifier.calibrated:
        half = _normal_half_width(scores[ok], confidence) * scale
        lower = float(np.clip(point - half, 0.0, 1.0))
        upper = float(np.clip(point + half, 0.0, 1.0))
    return PrevalenceEstimate(
        point=point,
        lower=lower,
        upper=upper,
        confidence=confidence,
        cohort_size=m,
        method=method,
        excluded=excluded,
    )


def npp_sample(
    pool: LabeledCorpus,
    prevalence: float,
    repeats: int,
    size: int,
    seed: int = 0,
) -> list[np.ndarray]:
    """Draw cohorts whose class mix varies naturally around a target.

    Each cohort r draws its class-1 count from Binomial(size, prevalence)
    with generator seeded [seed, r], then samples that many class-1 rows
    and the complement class-0 rows without replacement from the labeled
    rows of the pool. A cohort is its sorted row indices into the pool.
    A draw that exceeds the pool's stock of either class raises
    DataError naming the deficit.
    """
    if not (0.0 <= prevalence <= 1.0):
        raise DataError(f"prevalence must lie in [0, 1], got {prevalence}")
    if repeats < 1 or size < 1:
        raise DataError("repeats and size must be >= 1")
    idx1 = np.flatnonzero(pool.labels == 1)
    idx0 = np.flatnonzero(pool.labels == 0)
    cohorts = []
    for r in range(repeats):
        rng = np.random.default_rng([seed, r])
        c1 = int(rng.binomial(size, prevalence))
        c0 = size - c1
        for y, c, idx in ((1, c1, idx1), (0, c0, idx0)):
            if c > idx.size:
                raise DataError(f"cohort {r}: needs {c} class-{y} rows, pool has only {idx.size}")
        take1 = rng.choice(idx1, size=c1, replace=False)
        take0 = rng.choice(idx0, size=c0, replace=False)
        cohorts.append(np.sort(np.concatenate([take1, take0])))
    return cohorts


def mae(estimates, truths) -> float:
    """Mean absolute error between prevalence estimates and truths."""
    e = np.asarray(estimates, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if e.shape != t.shape or e.ndim != 1 or e.size == 0:
        raise DataError("estimates and truths must be non-empty 1-d arrays of equal length")
    return float(np.abs(e - t).mean())


@dataclass
class QuantReport:
    """Repeated-cohort evaluation of one quantifier."""

    estimates: np.ndarray
    truths: np.ndarray
    mae: float
    ae_std: float
    coverage: float | None


def evaluate_quantifier(
    quantifier: QuantifierModel,
    pool: LabeledCorpus,
    repeats: int = REPEATS,
    size: int = COHORT_SIZE,
    prevalence: float | None = None,
    confidence: float = CONFIDENCE,
    seed: int = 0,
) -> QuantReport:
    """Sample cohorts from a labeled pool and score the quantifier.

    The pool is scored once; each cohort's estimate is estimate() on its
    rows of that one pass. prevalence=None targets the pool's own
    labeled class-1 rate. Truth per cohort is its realized labeled
    prevalence. Coverage is the fraction of cohorts whose interval
    contains the truth (None when intervals are unavailable).
    """
    labels = pool.labels
    if not pool.labeled_mask.any():
        raise DataError("pool has no labeled rows")
    if prevalence is None:
        prevalence = float((labels[pool.labeled_mask] == 1).mean())
    cohorts = npp_sample(pool, prevalence, repeats, size, seed=seed)
    scores, preds, ok = score_rows(quantifier.classifier, pool)
    ests = np.empty(repeats, dtype=np.float64)
    truths = np.empty(repeats, dtype=np.float64)
    covered = []
    for r, idx in enumerate(cohorts):
        est = _estimate(quantifier, scores[idx], preds[idx], ok[idx], confidence)
        ests[r] = est.point
        truths[r] = float((labels[idx] == 1).mean())
        if est.lower is not None:
            covered.append(est.lower <= truths[r] <= est.upper)
    errors = np.abs(ests - truths)
    return QuantReport(
        estimates=ests,
        truths=truths,
        mae=mae(ests, truths),
        ae_std=float(errors.std(ddof=1)) if repeats > 1 else 0.0,
        coverage=float(np.mean(covered)) if covered else None,
    )
