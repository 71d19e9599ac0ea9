"""Isotonic probability calibration and reliability diagnostics.

Fitting is pool-adjacent-violators over tie-grouped scores. The fitted
map is stored as breakpoints plus values and applied by linear
interpolation, clamping outside the observed score range.

_check_scored is the one check of a (scores, labels) sample, here and in
evaluate's metrics and quantify's interval and rates: non-empty 1-d
arrays of equal length, finite scores, labels 0 or 1, and where a caller
asks, scores in [0, 1], both classes present and a minimum size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

N_BINS = 10  # reliability's default bin count, read by cli.RunConfig too


@dataclass(frozen=True)
class IsotonicMap:
    """Piecewise-linear non-decreasing map from scores to probabilities."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        va = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", va)
        if bp.ndim != 1 or va.shape != bp.shape or bp.size == 0:
            raise DataError("breakpoints and values must be equal-length 1-d arrays")
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise DataError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(va)):
            raise DataError("calibration map must be finite")
        if np.any(np.diff(va) < 0):
            raise DataError("values must be non-decreasing")
        if va.min() < 0.0 or va.max() > 1.0:
            raise DataError("values must lie in [0, 1]")


def _check_scored(scores, labels=None, name="", unit=False, both=False, min_size=1):
    """(scores, labels) as arrays, or a DataError naming the first rule they
    break; name says what needs the sample. labels=None checks scores alone."""
    s = np.asarray(scores, dtype=np.float64)
    y = s if labels is None else np.asarray(labels)
    if s.ndim != 1 or y.shape != s.shape or s.size == 0:
        raise DataError("scores and labels must be non-empty 1-d arrays of equal length")
    if s.size < min_size:
        raise DataError(f"{name} needs >= {min_size} pairs, got {s.size}")
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite; drop unscorable rows first")
    if unit and (s.min() < 0.0 or s.max() > 1.0):
        raise DataError("scores must lie in [0, 1]")
    if labels is not None and not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    if both and y.min() == y.max():
        raise DataError(f"{name} needs both classes present")
    return s, y


def _pava(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted monotone (non-decreasing) least-squares fit.

    Classic stack-based pool-adjacent-violators: scan left to right,
    merge a new block into its left neighbour while the neighbour's
    mean is larger, carrying weighted means.
    """
    # each stack entry: [mean, weight, run_length]
    stack: list[list[float]] = []
    for v, w in zip(values, weights):
        stack.append([float(v), float(w), 1])
        while len(stack) > 1 and stack[-2][0] >= stack[-1][0]:
            m2, w2, c2 = stack.pop()
            m1, w1, c1 = stack.pop()
            tot = w1 + w2
            stack.append([(m1 * w1 + m2 * w2) / tot, tot, c1 + c2])
    out = np.empty(len(values), dtype=np.float64)
    pos = 0
    for mean, _, count in stack:
        out[pos : pos + count] = mean
        pos += count
    return out


def fit_isotonic(scores, labels) -> IsotonicMap:
    """Fit a non-decreasing score -> probability map on held-out pairs.

    Ties in scores are grouped before pooling: each distinct score
    becomes one point whose target is the mean label and whose weight
    is the tie count. Requires n >= 2, scores in [0, 1], both classes
    present.
    """
    s, y = _check_scored(scores, labels, "calibration", unit=True, both=True, min_size=2)
    uniq, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    pos = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(pos, inverse, y)
    targets = pos / counts
    fitted = _pava(targets, counts.astype(np.float64))

    # one breakpoint per block endpoint: single-point blocks contribute
    # one knot, longer blocks contribute their first and last scores
    change = fitted[1:] != fitted[:-1]
    knots = np.r_[True, change] | np.r_[change, True]
    return IsotonicMap(uniq[knots], fitted[knots])


def apply_map(cal: IsotonicMap, scores) -> np.ndarray:
    """Evaluate the fitted map on an array of scores. Scores outside
    [first, last] breakpoint clamp to the edge values; NaN stays NaN."""
    s = np.asarray(scores, dtype=np.float64)
    # np.interp passes NaN through, except on a map of one breakpoint
    return np.where(np.isnan(s), s, np.interp(s, cal.breakpoints, cal.values))


@dataclass
class ReliabilityReport:
    """Equal-width reliability table plus expected calibration error."""

    bin_edges: np.ndarray
    mean_score: np.ndarray
    positive_rate: np.ndarray
    counts: np.ndarray
    ece: float


def reliability(scores, labels, n_bins: int = N_BINS) -> ReliabilityReport:
    """Bin scores into equal-width bins and compare to empirical rates.

    ECE is the count-weighted mean absolute gap between each non-empty
    bin's mean score and its positive rate. Empty bins hold NaN and are
    excluded. Scores of exactly 1.0 fall in the last bin.
    """
    s, y = _check_scored(scores, labels, unit=True)
    if n_bins < 1:
        raise DataError(f"n_bins must be >= 1, got {n_bins}")

    edges = np.linspace(0.0, 1.0, n_bins + 1)
    which = np.minimum((s * n_bins).astype(np.int64), n_bins - 1)
    counts = np.zeros(n_bins, dtype=np.int64)
    score_sum = np.zeros(n_bins, dtype=np.float64)
    pos_sum = np.zeros(n_bins, dtype=np.float64)
    np.add.at(counts, which, 1)
    np.add.at(score_sum, which, s)
    np.add.at(pos_sum, which, y)

    with np.errstate(invalid="ignore", divide="ignore"):
        mean_score = np.where(counts > 0, score_sum / counts, np.nan)
        positive_rate = np.where(counts > 0, pos_sum / counts, np.nan)
    nonempty = counts > 0
    gaps = np.abs(positive_rate[nonempty] - mean_score[nonempty])
    ece = float((counts[nonempty] / s.size * gaps).sum())
    return ReliabilityReport(
        bin_edges=edges,
        mean_score=mean_score,
        positive_rate=positive_rate,
        counts=counts,
        ece=ece,
    )
