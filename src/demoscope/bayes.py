"""Multinomial Naive Bayes over community counts, with two extensions.

The generative story for a user with class y, count vector x, and total
activity a = sum(x):

    p(x, y) = p(y) * prod_j p(j | y)^x_j            (plain model)
    p(x, y) = p(y) * p(a | y) * prod_j p(j | y)^x_j (activity model)

p(a | y) is a discretized log-normal: the mass assigned to total
activity a is CDF(a + 1) - CDF(a) for a log-normal with per-class
parameters (mu_y, sigma_y). All computation is carried in log space.

Training is either fully supervised (closed-form smoothed counts) or
semi-supervised EM where labeled rows keep hard one-hot responsibilities
and unlabeled rows get posterior responsibilities. Both paths share one
maximization routine, so EM with zero unlabeled rows reproduces the
supervised fit bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .calibrate import IsotonicMap, apply_map
from .data import LabeledCorpus, class_pools
from .errors import DataError, NumericError
from .serialize import in_chunks

# scipy.special is imported only where the log-normal activity term
# needs log_ndtr, off the start-up path of every command (see data); the
# two-class posterior kernels below are plain numpy
if TYPE_CHECKING:
    import scipy.sparse as sp

# smallest log mass assigned to any activity bin; exp(-745) is the
# smallest positive normal-range double
LOG_FLOOR = -745.0

SIGMA_FLOOR = 1e-6

# how far a class row of log_prior or log_cond may be from summing to 1;
# fitted models are off by about 1e-13
NORM_TOL = 1e-9

# defaults of the fits, read by cli.RunConfig too
ALPHA1 = 1.0  # prior pseudo-count
ALPHA2 = 1.0  # conditional pseudo-count
MAX_ITER = 100  # EM iteration limit
TOL = 1e-6  # EM convergence tolerance
IMPORTANCE_BOOT = 50  # replicates of feature_log_odds_dispersion


@dataclass
class NaiveBayesModel:
    """Fitted parameters of a two-class model, all stored in log space.

    activity is None for the plain model, else an array of shape (2, 2)
    holding (mu_y, sigma_y) per class. An optional isotonic calibrator
    post-processes the class-1 posterior.
    """

    d: int
    log_prior: np.ndarray
    log_cond: np.ndarray
    activity: np.ndarray | None = None
    alpha1: float = ALPHA1
    alpha2: float = ALPHA2
    calibrator: IsotonicMap | None = None

    def __post_init__(self):
        self.log_prior = np.asarray(self.log_prior, dtype=np.float64)
        self.log_cond = np.asarray(self.log_cond, dtype=np.float64)
        if self.log_prior.shape != (2,):
            raise DataError("log_prior must have shape (2,)")
        if self.log_cond.shape != (2, self.d):
            raise DataError(f"log_cond must have shape (2, {self.d})")
        for name, logp in (("log_prior", self.log_prior), ("log_cond", self.log_cond)):
            if not np.all(np.isfinite(logp)):
                raise DataError(f"{name} must be finite")
            if np.any(logp > 0):
                raise DataError(f"{name} entries must be log probabilities (<= 0)")
            # entries are finite and <= 0, so exp cannot overflow; cheaper than logsumexp
            if np.any(np.abs(np.log(np.exp(logp).sum(axis=-1))) > NORM_TOL):
                raise DataError(f"{name} must be normalized (logsumexp within {NORM_TOL} of 0)")
        if self.activity is not None:
            self.activity = np.asarray(self.activity, dtype=np.float64)
            if self.activity.shape != (2, 2):
                raise DataError("activity must have shape (2, 2)")
            if not np.all(np.isfinite(self.activity)):
                raise DataError("activity must be finite")
            if np.any(self.activity[:, 1] <= 0):
                raise DataError("activity sigma must be positive")

    def score(self, corpus: LabeledCorpus) -> tuple[np.ndarray, np.ndarray]:
        """Class-1 posterior and hard predictions from one pass;
        posterior ties predict the lower class."""
        proba = predict_proba_matrix(self, corpus)
        return proba[:, 1], (proba[:, 1] > proba[:, 0]).astype(np.int64)

    @property
    def calibrated(self) -> bool:
        return self.calibrator is not None


@dataclass
class FitReport:
    """Trace of one training run.

    log_likelihood holds the smoothed training objective: the observed-
    data log likelihood plus the pseudo-count penalty alpha1 * sum log
    p(y) + alpha2 * sum log p(j|y). The smoothed M-step maximizes
    exactly this penalized objective, so the trace is non-decreasing;
    the raw likelihood alone is not guaranteed monotone once alpha > 0.
    """

    iterations: int
    log_likelihood: list[float] = field(default_factory=list)
    converged: bool = True
    n_labeled: int = 0
    n_unlabeled: int = 0


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - exp(x)) for x <= 0, numerically stable on both ends."""
    out = np.empty_like(x)
    small = x < -np.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[small] = np.log1p(-np.exp(x[small]))
        out[~small] = np.log(-np.expm1(x[~small]))
    return out


def log_activity_pmf(a, mu, sigma) -> np.ndarray:
    """log[ CDF(a + 1) - CDF(a) ] under LogNormal(mu, sigma).

    Computed as a difference of normal log-CDFs of ln(t), so the result
    stays finite far into the tails; floored at LOG_FLOOR. mu and sigma
    may be arrays of per-class parameters, whose axis then follows a's.
    Totals repeat across users, so each distinct total is computed once
    for every class.
    """
    from scipy.special import log_ndtr

    a = np.asarray(a, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(a < 1):
        raise DataError("total activity must be >= 1")
    totals, rows = np.unique(a, return_inverse=True)
    hi = log_ndtr(np.subtract.outer(np.log(totals + 1.0), mu) / sigma)
    lo = log_ndtr(np.subtract.outer(np.log(totals), mu) / sigma)
    out = np.maximum(hi + _log1mexp(np.minimum(lo - hi, 0.0)), LOG_FLOOR)
    return out.take(rows.ravel(), axis=0).reshape(a.shape + mu.shape)


def _m_step(
    X: sp.csr_matrix,
    log_activities: np.ndarray,
    resp: np.ndarray,
    alpha1: float,
    alpha2: float,
    use_log_normal: bool,
):
    """Smoothed maximization given responsibilities resp of shape (n, 2).

    Returns (log_prior, log_cond, activity or None). Priors use
    pseudo-count alpha1 per class; conditionals use alpha2 per
    (class, community) cell. Activity parameters are the responsibility-
    weighted mean and population std of log totals per class.
    """
    n, d = X.shape
    n_y = resp.sum(axis=0)
    prior = (alpha1 + n_y) / (alpha1 * 2 + n)
    counts = np.asarray((X.T @ resp).T)
    totals = counts.sum(axis=1)
    cond = (alpha2 + counts) / (alpha2 * d + totals)[:, None]
    activity = None
    if use_log_normal:
        activity = np.empty((2, 2), dtype=np.float64)
        if np.any(n_y <= 0):
            raise NumericError("a class lost all responsibility mass")
        mu = (resp * log_activities[:, None]).sum(axis=0) / n_y
        centered_sq = (log_activities[:, None] - mu[None, :]) ** 2
        var = (resp * centered_sq).sum(axis=0) / n_y
        activity[:, 0] = mu
        activity[:, 1] = np.sqrt(var)
        if np.any(activity[:, 1] < SIGMA_FLOOR):
            warnings.warn("activity sigma hit the floor; totals are near-constant")
            activity[:, 1] = np.maximum(activity[:, 1], SIGMA_FLOOR)
    return np.log(prior), np.log(cond), activity


def _one_hot(labels: np.ndarray) -> np.ndarray:
    return np.eye(2)[labels]


# The two kernels below are scipy.special's log_softmax and logsumexp
# over axis 1, bit for bit, written for exactly two columns: numpy
# reduces an (n, 2) array over its length-2 axis one row at a time,
# which cost more than the sparse products of a fit. They use only
# elementwise numpy operations on contiguous temporaries, the same exp,
# log and log1p loops scipy's versions run.


def _log_softmax(lj: np.ndarray) -> np.ndarray:
    """log p(y | x) from the log joint lj of shape (n, 2)."""
    hi = np.maximum(lj[:, 0], lj[:, 1])
    hi[~np.isfinite(hi)] = 0.0
    t0, t1 = lj[:, 0] - hi, lj[:, 1] - hi
    with np.errstate(divide="ignore"):
        log_norm = np.log(np.exp(t0) + np.exp(t1))
    out = np.empty(lj.shape)
    out[:, 0] = t0 - log_norm
    out[:, 1] = t1 - log_norm
    return out


def _logsumexp(lj: np.ndarray) -> np.ndarray:
    """log(exp(lj[:, 0]) + exp(lj[:, 1])) per row: scipy's
    log1p(s / m) + log(m) + max with m maxima, so a tied row is
    log(2) + max."""
    hi = np.maximum(lj[:, 0], lj[:, 1])
    lo = np.minimum(lj[:, 0], lj[:, 1])
    with np.errstate(invalid="ignore"):
        return np.where(lo == hi, np.log(2.0) + hi, np.log1p(np.exp(lo - hi)) + hi)


def log_joint_matrix(model: NaiveBayesModel, corpus: LabeledCorpus) -> np.ndarray:
    """log p(x, y) for every row and class, shape (n, 2).

    Raises DataError when the corpus does not have one column per model
    community.
    """
    X = corpus.X
    if X.shape[1] != model.d:
        raise DataError(
            f"corpus has {X.shape[1]} communities, the model was fit on {model.d}"
        )
    lj = np.asarray(X @ model.log_cond.T) + model.log_prior[None, :]
    if model.activity is not None:
        mu, sigma = model.activity[:, 0], model.activity[:, 1]
        lj = lj + log_activity_pmf(corpus.activities(), mu, sigma)
    return lj


def predict_proba_matrix(model: NaiveBayesModel, corpus: LabeledCorpus) -> np.ndarray:
    """Posterior p(y | x) per row, shape (n, 2); calibrated if attached."""
    lj = log_joint_matrix(model, corpus)
    proba = np.exp(_log_softmax(lj))
    if model.calibrator is not None:
        p1 = apply_map(model.calibrator, proba[:, 1])
        proba = np.stack([1.0 - p1, p1], axis=1)
    return proba


def _closed_form(
    corpus: LabeledCorpus,
    alpha1: float,
    alpha2: float,
    use_log_normal: bool = False,
) -> NaiveBayesModel:
    """The smoothed M-step on a fully labeled corpus with one-hot
    responsibilities; every class must have a row."""
    class_pools(corpus.labels, 1, "naive Bayes fit")
    X, log_act = corpus.X, np.log(corpus.activities())
    log_prior, log_cond, activity = _m_step(
        X, log_act, _one_hot(corpus.labels), alpha1, alpha2, use_log_normal
    )
    return NaiveBayesModel(
        d=corpus.d,
        log_prior=log_prior,
        log_cond=log_cond,
        activity=activity,
        alpha1=alpha1,
        alpha2=alpha2,
    )


def _objective(model: NaiveBayesModel, corpus: LabeledCorpus, lj: np.ndarray) -> float:
    """The smoothed training objective (see FitReport) given the log
    joint lj: joint likelihood of the labeled rows, marginal of the
    unlabeled rows, plus the pseudo-count penalty the smoothed M-step
    maximizes jointly with Q."""
    labels = corpus.labels
    labeled = labels >= 0
    ll = 0.0
    if labeled.any():
        ll += float(np.where(labels == 1, lj[:, 1], lj[:, 0])[labeled].sum())
    if (~labeled).any():
        ll += float(_logsumexp(lj.compress(~labeled, axis=0)).sum())
    return ll + float(model.alpha1 * model.log_prior.sum() + model.alpha2 * model.log_cond.sum())


def fit_semisupervised(
    corpus: LabeledCorpus,
    alpha1: float,
    alpha2: float,
    use_log_normal: bool,
    max_iter: int,
    tol: float,
) -> tuple[NaiveBayesModel, FitReport]:
    """EM over a partially labeled corpus, as fit(..., semi_supervised=True)
    runs it; fit holds the defaults.

    Labeled rows keep hard one-hot responsibilities throughout; unlabeled
    rows get posterior responsibilities each E step. Initialization is
    the supervised fit on the labeled rows alone. Stops when the relative
    change of the smoothed training objective (see FitReport) drops to
    tol, or after max_iter maximizations. The trace in the report starts
    with the objective of the initial model.
    """
    _validate_hyper(alpha1=alpha1, alpha2=alpha2)
    if max_iter < 1:
        raise DataError(f"max_iter must be >= 1, got {max_iter}")
    if not tol > 0:
        raise DataError(f"tol must be > 0, got {tol}")
    labeled = corpus.labeled_mask
    model = _closed_form(_labeled_rows(corpus), alpha1, alpha2, use_log_normal)
    X = corpus.X
    activities = corpus.activities()
    log_act = np.log(activities)
    hard1 = (corpus.labels[labeled] == 1).astype(np.float64)
    hard0 = 1.0 - hard1
    lj = log_joint_matrix(model, corpus)
    ll = _objective(model, corpus, lj)
    if not np.isfinite(ll):
        raise NumericError("non-finite log likelihood at initialization")
    if use_log_normal:
        # the current model's log activity mass per row and class, kept
        # from one iteration to the next rather than computed again
        log_mass = log_activity_pmf(activities, model.activity[:, 0], model.activity[:, 1])
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        resp = np.exp(_log_softmax(lj))
        resp[:, 0][labeled] = hard0
        resp[:, 1][labeled] = hard1
        log_prior, log_cond, activity = _m_step(X, log_act, resp, alpha1, alpha2, use_log_normal)
        if use_log_normal:
            # the weighted closed form maximizes a density surrogate of
            # the binned activity mass and can slip near convergence;
            # keep the previous parameters for any class it would hurt,
            # which preserves the EM ascent guarantee
            cand_mass = log_activity_pmf(activities, activity[:, 0], activity[:, 1])
            keep = (resp * cand_mass).sum(axis=0) >= (resp * log_mass).sum(axis=0)
            activity = np.where(keep[:, None], activity, model.activity)
            # each class's column depends on that class's parameters alone
            log_mass = np.where(keep[None, :], cand_mass, log_mass)
        model.log_prior = log_prior
        model.log_cond = log_cond
        model.activity = activity
        lj = log_joint_matrix(model, corpus)
        ll_new = _objective(model, corpus, lj)
        iterations = it
        if not np.isfinite(ll_new):
            raise NumericError(f"non-finite log likelihood at iteration {it}")
        trace.append(ll_new)
        if abs(ll_new - ll) <= tol * abs(ll):
            converged = True
            break
        ll = ll_new
    report = FitReport(
        iterations=iterations,
        log_likelihood=trace,
        converged=converged,
        n_labeled=int(labeled.sum()),
        n_unlabeled=int((~labeled).sum()),
    )
    return model, report


def fit(
    corpus: LabeledCorpus,
    alpha1: float = ALPHA1,
    alpha2: float = ALPHA2,
    use_log_normal: bool = False,
    semi_supervised: bool = False,
    max_iter: int = MAX_ITER,
    tol: float = TOL,
    report: bool = True,
) -> tuple[NaiveBayesModel, FitReport | None]:
    """EM over every row when semi_supervised (see fit_semisupervised),
    else the closed-form smoothed fit on the labeled rows alone, where
    every class must be represented; max_iter and tol apply to EM only.
    With report=False a supervised fit skips its FitReport, a further
    pass over the corpus for the objective, and returns None in its
    place; EM's report is its trace and always comes back."""
    if semi_supervised:
        return fit_semisupervised(corpus, alpha1, alpha2, use_log_normal, max_iter, tol)
    _validate_hyper(alpha1=alpha1, alpha2=alpha2)
    labeled = _labeled_rows(corpus)
    model = _closed_form(labeled, alpha1, alpha2, use_log_normal)
    if not report:
        return model, None
    ll = _objective(model, labeled, log_joint_matrix(model, labeled))
    return model, FitReport(iterations=0, log_likelihood=[ll], n_labeled=labeled.n)


def _labeled_rows(corpus: LabeledCorpus) -> LabeledCorpus:
    """The view of a corpus's labeled rows, on which the supervised fit,
    and so EM's initial model, is made; it must hold at least one."""
    labeled = corpus.subset(np.flatnonzero(corpus.labeled_mask))
    if labeled.n == 0:
        raise DataError("no labeled rows to fit")
    return labeled


def _validate_hyper(**alphas: float):
    for name, alpha in alphas.items():
        if not (alpha > 0 and np.isfinite(alpha)):
            raise DataError(f"{name} must be positive and finite, got {alpha}")


def feature_log_odds(model: NaiveBayesModel) -> np.ndarray:
    """Per-community evidence direction log p(j|1) - log p(j|0).

    Positive entries push posterior mass toward class 1.
    """
    return model.log_cond[1] - model.log_cond[0]


def feature_log_odds_dispersion(
    corpus: LabeledCorpus,
    n_boot: int = IMPORTANCE_BOOT,
    seed: int = 0,
    alpha2: float = ALPHA2,
) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap mean and sample std of the per-community log odds.

    Refits a supervised plain model on n_boot stratified resamples
    (labeled rows only, resampled with replacement within class).
    Resample b is drawn from child b of SeedSequence(seed), so a chunk of
    them (serialize.in_chunks) draws only its own.
    """
    if n_boot < 2:
        raise DataError(f"n_boot must be >= 2, got {n_boot}")
    # rows are drawn by position within each class pool, so drawing from
    # the corpus's pools takes the rows a labeled-only subset would
    pools = class_pools(corpus.labels, 1, "log-odds dispersion")
    _validate_hyper(alpha2=alpha2)

    def one(b: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        take = [rng.choice(pool, size=pool.size, replace=True) for pool in pools]
        boot = corpus.subset(np.sort(np.concatenate(take)))
        # the log odds read only the conditionals: no prior pseudo-count moves them
        return feature_log_odds(_closed_form(boot, ALPHA1, alpha2))

    draws = np.array(in_chunks(one, n_boot, "importance replicates"))
    return draws.mean(axis=0), draws.std(axis=0, ddof=1)
