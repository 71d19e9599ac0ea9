"""Independent reference implementations used as test oracles.

Everything here is written from the model definitions directly, in
plain dense NumPy, sharing no code with the package internals.
"""

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp
from scipy.stats import lognorm

from demoscope.data import CommunityVocabulary, LabeledCorpus


def corpus_from_dense(X, labels, k: int = 2, names=None, prefix="u") -> LabeledCorpus:
    """Corpus over a dense count matrix; every row must be non-empty."""
    X = np.asarray(X)
    n, d = X.shape
    if names is None:
        names = tuple(f"c{j:04d}" for j in range(d))
    return LabeledCorpus(
        vocabulary=CommunityVocabulary(tuple(names)),
        X=sp.csr_matrix(X),
        user_ids=[f"{prefix}{i:06d}" for i in range(n)],
        labels=np.asarray(labels, dtype=np.int64),
        k=k,
    )


def dense_nb_fit(X, y, k, alpha1, alpha2, use_log_normal):
    """Brute-force smoothed estimates from a dense count matrix."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    prior = np.empty(k)
    cond = np.empty((k, d))
    for c in range(k):
        rows = X[y == c]
        prior[c] = (alpha1 + rows.shape[0]) / (alpha1 * k + n)
        total = rows.sum()
        for j in range(d):
            cond[c, j] = (alpha2 + rows[:, j].sum()) / (alpha2 * d + total)
    activity = None
    if use_log_normal:
        activity = np.empty((k, 2))
        for c in range(k):
            la = np.log(X[y == c].sum(axis=1))
            activity[c, 0] = la.mean()
            activity[c, 1] = la.std()
    return prior, cond, activity


def dense_nb_log_posterior(prior, cond, activity, x):
    """Direct evaluation of the joint, normalized; linear-space activity."""
    x = np.asarray(x, dtype=np.float64)
    k = prior.size
    lj = np.empty(k)
    for c in range(k):
        v = np.log(prior[c])
        for j in range(x.size):
            if x[j] > 0:
                v += x[j] * np.log(cond[c, j])
        if activity is not None:
            a = x.sum()
            mu, sigma = activity[c]
            mass = lognorm.cdf(a + 1.0, s=sigma, scale=np.exp(mu)) - lognorm.cdf(
                a, s=sigma, scale=np.exp(mu)
            )
            v += np.log(mass)
        lj[c] = v
    return lj - logsumexp(lj)


def minimax_isotonic(values, weights):
    """Exact solution of the weighted monotone least-squares program.

    Uses the max-min characterization of the projection onto the
    non-decreasing cone: fit_i = max_{j<=i} min_{l>=i} mean(values[j..l]).
    O(n^2) with cumulative sums; independent of any pooling algorithm.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = v.size
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cwv = np.concatenate([[0.0], np.cumsum(w * v)])
    fit = np.empty(n)
    for i in range(n):
        best = -np.inf
        for j in range(i + 1):
            # suffix minimum over l >= i of mean(j..l)
            means = (cwv[i + 1 :] - cwv[j]) / (cw[i + 1 :] - cw[j])
            best = max(best, means.min())
        fit[i] = best
    return fit


def naive_roc_auc(scores, labels):
    """Quadratic pair-counting AUC with half credit for ties."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


class FixedPredictionClassifier:
    """Test double with per-user predetermined predictions.

    Scores echo the prediction as a degenerate probability; optionally a
    per-user score table. Implements the scoring-classifier protocol.
    """

    def __init__(self, predictions: dict, scores: dict | None = None, calibrated=False):
        self._pred = predictions
        self._scores = scores
        self.calibrated = calibrated

    def score(self, corpus):
        preds = np.array([self._pred[u] for u in corpus.user_ids], dtype=np.int64)
        if self._scores is not None:
            scores = np.array([self._scores[u] for u in corpus.user_ids], dtype=np.float64)
        else:
            scores = np.where(preds == 1, 0.9, 0.1)
        return scores, preds


class ConstantScoreClassifier:
    """Scores every row the same; prediction thresholds at 0.5."""

    def __init__(self, value: float, calibrated: bool = True):
        self.value = value
        self.calibrated = calibrated

    def score(self, corpus):
        return (
            np.full(corpus.n, self.value),
            np.full(corpus.n, 1 if self.value > 0.5 else 0, dtype=np.int64),
        )
