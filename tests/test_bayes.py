import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst
from scipy.stats import lognorm, norm

from demoscope import bayes, synth
from demoscope.bayes import (
    LOG_FLOOR,
    NaiveBayesModel,
    _log1mexp,
    _log_softmax,
    _logsumexp,
    feature_log_odds,
    feature_log_odds_dispersion,
    fit,
    log_activity_pmf,
    log_joint_matrix,
    predict_proba_matrix,
)
from demoscope.calibrate import IsotonicMap
from demoscope.errors import DataError

from helpers import corpus_from_dense, dense_nb_fit, dense_nb_log_posterior


def _hand_model():
    return NaiveBayesModel(
        d=2,
        log_prior=np.log([0.4, 0.6]),
        log_cond=np.log([[0.7, 0.3], [0.2, 0.8]]),
    )


def test_posterior_hand_fixture():
    model = _hand_model()
    x = corpus_from_dense([[2, 1]], [-1])
    lj = log_joint_matrix(model, x)
    assert lj[0] == pytest.approx(np.log([0.4 * 0.49 * 0.3, 0.6 * 0.04 * 0.8]))
    post = predict_proba_matrix(model, x)
    assert post[0] == pytest.approx([49 / 65, 16 / 65], rel=1e-12)


def test_fit_hand_fixture():
    corpus = corpus_from_dense([[2, 1], [1, 0], [0, 3]], [0, 0, 1])
    model, report = fit(corpus)
    assert np.exp(model.log_prior) == pytest.approx([0.6, 0.4])
    assert np.exp(model.log_cond[0]) == pytest.approx([2 / 3, 1 / 3])
    assert np.exp(model.log_cond[1]) == pytest.approx([0.2, 0.8])
    assert model.activity is None
    assert report.iterations == 0
    assert report.converged
    assert report.n_labeled == 3 and report.n_unlabeled == 0
    # reported objective: joint of the observed labels plus the
    # pseudo-count penalty the smoothed estimates maximize
    expected = 0.0
    X = np.array([[2, 1], [1, 0], [0, 3]])
    prior = np.array([0.6, 0.4])
    cond = np.array([[2 / 3, 1 / 3], [0.2, 0.8]])
    for i, y in enumerate([0, 0, 1]):
        expected += np.log(prior[y]) + (X[i] * np.log(cond[y])).sum()
    expected += np.log(prior).sum() + np.log(cond).sum()
    assert report.log_likelihood[0] == pytest.approx(expected, rel=1e-12)


def test_activity_pmf_matches_lognorm_cdf():
    a = np.arange(1, 60, dtype=np.float64)
    mu, sigma = 0.3, 0.8
    got = log_activity_pmf(a, mu, sigma)
    want = np.log(
        lognorm.cdf(a + 1.0, s=sigma, scale=np.exp(mu))
        - lognorm.cdf(a, s=sigma, scale=np.exp(mu))
    )
    assert got == pytest.approx(want, rel=1e-9)
    assert log_activity_pmf(1.0, 0.0, 1.0) == pytest.approx(np.log(0.2558914), abs=1e-6)


@pytest.mark.parametrize("mu, sigma", [(0.3, 0.8), (-1.0, 3.0), (2.0, 0.05), (5.0, 1e-6)])
def test_activity_pmf_equals_norm_logcdf_formula_exactly(mu, sigma):
    a = np.concatenate([np.arange(1.0, 300.0), [1e3, 1e6, 1e9, 1e15]])
    a = np.concatenate([a, a[::-3], a[::7]])  # totals repeat, in any order
    hi = norm.logcdf((np.log(a + 1.0) - mu) / sigma)
    lo = norm.logcdf((np.log(a) - mu) / sigma)
    want = np.maximum(hi + _log1mexp(np.minimum(lo - hi, 0.0)), LOG_FLOOR)
    assert log_activity_pmf(a, mu, sigma).tobytes() == want.tobytes()


def test_activity_pmf_per_class_columns_equal_the_scalar_calls():
    a = np.concatenate([np.arange(1.0, 200.0), [1e9], np.arange(150.0, 1.0, -3.0)])
    both = log_activity_pmf(a, [0.3, 2.0], [0.8, 0.05])
    assert both.shape == (a.size, 2)
    for y, (mu, sigma) in enumerate([(0.3, 0.8), (2.0, 0.05)]):
        assert both[:, y].tobytes() == log_activity_pmf(a, mu, sigma).tobytes()


def test_activity_pmf_tail_hits_floor():
    out = log_activity_pmf(np.array([1e9]), 0.0, 0.5)
    assert np.isfinite(out).all()
    assert out[0] == LOG_FLOOR


def test_activity_pmf_rejects_below_one():
    with pytest.raises(DataError, match=">= 1"):
        log_activity_pmf(np.array([0.0]), 0.0, 1.0)


def test_log1mexp_matches_naive_midrange():
    x = np.linspace(-30.0, -0.01, 200)
    assert _log1mexp(x) == pytest.approx(np.log(1.0 - np.exp(x)), rel=1e-10)


def test_log1mexp_tiny_argument_stable():
    # naive 1 - exp(x) underflows to 0 here; the expm1 branch does not
    out = _log1mexp(np.array([-1e-18]))
    assert out[0] == pytest.approx(np.log(1e-18), rel=1e-9)


def _two_column_log_joints(n, seed):
    """Seeded (n, 2) inputs: per-row scales 1e-3 to 1e4, offsets down to
    -1e4, and one row in five tied."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 4.0, size=(n, 1))
    offset = -(10.0 ** rng.uniform(-3.0, 4.0, size=(n, 1)))
    lj = offset + scale * rng.standard_normal((n, 2))
    lj[::5, 1] = lj[::5, 0]
    return lj


def _assert_same_bits(got, want):
    """Equal bit patterns, except that a NaN only has to sit where scipy's does."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize("n", [0, 1, 20_000])
def test_two_class_kernels_match_scipy_bit_for_bit(n):
    """The posterior and the EM objective run on these kernels, so model
    files and fit traces depend on every bit matching scipy's."""
    from scipy.special import log_softmax, logsumexp

    lj = _two_column_log_joints(n, seed=n)
    assert lj.flags.c_contiguous
    assert np.array_equal(_log_softmax(lj).view(np.int64), log_softmax(lj, axis=1).view(np.int64))
    assert np.array_equal(_logsumexp(lj).view(np.int64), logsumexp(lj, axis=1).view(np.int64))


def test_two_class_kernels_match_scipy_on_non_finite_rows():
    from scipy.special import log_softmax, logsumexp

    values = [np.inf, -np.inf, np.nan, 0.5, -700.0]
    lj = np.array(list(itertools.product(values, repeat=2)))
    lj = np.concatenate([lj, _two_column_log_joints(50, seed=3)])
    with np.errstate(all="ignore"):
        _assert_same_bits(_log_softmax(lj), log_softmax(lj, axis=1))
        _assert_same_bits(_logsumexp(lj), logsumexp(lj, axis=1))


def _random_dense(rng, n=40, d=6):
    X = rng.integers(0, 6, size=(n, d))
    X[X.sum(axis=1) == 0, 0] = 1
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1
    return X, y


@pytest.mark.parametrize("use_log_normal", [False, True])
def test_supervised_matches_dense_oracle(rng, use_log_normal):
    X, y = _random_dense(rng)
    corpus = corpus_from_dense(X, y)
    model, _ = fit(corpus, alpha1=1.0, alpha2=1.0, use_log_normal=use_log_normal)
    prior, cond, activity = dense_nb_fit(X, y, 2, 1.0, 1.0, use_log_normal)
    assert np.exp(model.log_prior) == pytest.approx(prior, rel=1e-12)
    assert np.exp(model.log_cond) == pytest.approx(cond, rel=1e-12)
    if use_log_normal:
        assert model.activity == pytest.approx(activity, rel=1e-12)
    proba = predict_proba_matrix(model, corpus)
    for i in range(corpus.n):
        want = np.exp(dense_nb_log_posterior(prior, cond, activity, X[i]))
        assert proba[i] == pytest.approx(want, abs=1e-10)


def test_posterior_rows_sum_to_one(rng):
    X, y = _random_dense(rng, n=60, d=10)
    corpus = corpus_from_dense(X, y)
    for use_ln in (False, True):
        model, _ = fit(corpus, use_log_normal=use_ln)
        proba = predict_proba_matrix(model, corpus)
        assert proba.sum(axis=1) == pytest.approx(np.ones(corpus.n), abs=1e-12)
        assert proba.min() >= 0.0


def test_single_row_matches_matrix(rng):
    X, y = _random_dense(rng, n=20, d=5)
    corpus = corpus_from_dense(X, y)
    model, _ = fit(corpus, use_log_normal=True)
    proba = predict_proba_matrix(model, corpus)
    for i in (0, 7, 19):
        one = predict_proba_matrix(model, corpus.subset([i]))
        assert one[0] == pytest.approx(proba[i], abs=1e-12)


def test_classify_tie_breaks_to_lower_class():
    model = NaiveBayesModel(
        d=2,
        log_prior=np.log([0.5, 0.5]),
        log_cond=np.log([[0.5, 0.5], [0.5, 0.5]]),
    )
    corpus = corpus_from_dense([[1, 1], [3, 0]], [-1, -1])
    assert model.score(corpus)[1].tolist() == [0, 0]


def test_model_refuses_other_than_two_classes():
    with pytest.raises(DataError, match=r"log_prior must have shape \(2,\)"):
        NaiveBayesModel(d=2, log_prior=np.log([1 / 3] * 3), log_cond=np.log(np.full((3, 2), 0.5)))
    with pytest.raises(DataError, match=r"log_cond must have shape \(2, 2\)"):
        NaiveBayesModel(d=2, log_prior=np.log([0.5, 0.5]), log_cond=np.log(np.full((3, 2), 0.5)))
    with pytest.raises(DataError, match=r"activity must have shape \(2, 2\)"):
        NaiveBayesModel(
            d=2,
            log_prior=np.log([0.5, 0.5]),
            log_cond=np.log(np.full((2, 2), 0.5)),
            activity=np.ones((3, 2)),
        )


@pytest.mark.parametrize(
    "name, value",
    [
        ("log_cond", np.array([[-0.5, -1.0], [np.nan, -0.5]])),
        ("log_prior", np.array([0.0, -np.inf])),
        ("activity", np.array([[1.0, np.nan], [1.0, 1.0]])),
    ],
    ids=["log-cond-nan", "log-prior-minus-inf", "activity-sigma-nan"],
)
def test_model_refuses_non_finite_parameters(name, value):
    """JSON model files cannot hold these (their reader refuses NaN and
    Infinity), so only the constructor sees them."""
    params = {"d": 2, "log_prior": np.log([0.5, 0.5]), "log_cond": np.log(np.full((2, 2), 0.5))}
    with pytest.raises(DataError, match=f"{name} must be finite"):
        NaiveBayesModel(**params | {name: value})


def test_supervised_fits_labeled_rows_and_rejects_missing_class():
    corpus = corpus_from_dense([[1, 0], [0, 1], [1, 1]], [0, 1, -1])
    model, report = fit(corpus)
    labeled, _ = fit(corpus.subset([0, 1]))
    assert np.array_equal(model.log_prior, labeled.log_prior)
    assert np.array_equal(model.log_cond, labeled.log_cond)
    assert report.n_labeled == 2 and report.n_unlabeled == 0
    with pytest.raises(DataError, match="^no labeled rows to fit$"):
        fit(corpus_from_dense([[1, 0], [0, 1]], [-1, -1]))
    corpus = corpus_from_dense([[1, 0], [0, 1]], [0, 0])
    with pytest.raises(DataError, match="class 1"):
        fit(corpus)


def test_hyperparameter_validation():
    corpus = corpus_from_dense([[1, 0], [0, 1]], [0, 1])
    with pytest.raises(DataError, match="alpha1"):
        fit(corpus, alpha1=0.0)
    with pytest.raises(DataError, match="alpha2"):
        fit(corpus, alpha2=-1.0)
    with pytest.raises(DataError, match="max_iter"):
        fit(corpus, semi_supervised=True, max_iter=0)
    with pytest.raises(DataError, match="tol"):
        fit(corpus, semi_supervised=True, tol=0.0)


def test_em_zero_unlabeled_matches_supervised_exactly(rng):
    X, y = _random_dense(rng, n=50, d=8)
    corpus = corpus_from_dense(X, y)
    for use_ln in (False, True):
        sup, _ = fit(corpus, use_log_normal=use_ln)
        em, report = fit(corpus, use_log_normal=use_ln, semi_supervised=True)
        assert np.array_equal(sup.log_prior, em.log_prior)
        assert np.array_equal(sup.log_cond, em.log_cond)
        if use_ln:
            assert np.array_equal(sup.activity, em.activity)
        else:
            assert em.activity is None
        assert report.iterations == 1
        assert report.converged
        assert report.log_likelihood[0] == report.log_likelihood[1]


def test_em_monotone_likelihood():
    rng = np.random.default_rng(31)
    world, _ = synth.tilted_world(rng, d=40, gamma=0.5)
    corpus = synth.sample_corpus(world, 300, rng, labeled_fraction=0.25)
    for use_ln in (False, True):
        _, report = fit(corpus, use_log_normal=use_ln, semi_supervised=True, tol=1e-9)
        trace = np.array(report.log_likelihood)
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-8)
        assert report.n_labeled == int(corpus.labeled_mask.sum())
        assert report.n_unlabeled == corpus.n - report.n_labeled


def test_em_respects_max_iter():
    rng = np.random.default_rng(7)
    world, _ = synth.tilted_world(rng, d=30, gamma=0.3)
    corpus = synth.sample_corpus(world, 200, rng, labeled_fraction=0.2)
    _, report = fit(corpus, semi_supervised=True, max_iter=2, tol=1e-15)
    assert report.iterations <= 2
    if not report.converged:
        assert report.iterations == 2


def test_em_needs_labeled_rows():
    corpus = corpus_from_dense([[1, 0], [0, 1]], [-1, -1])
    with pytest.raises(DataError, match="labeled"):
        fit(corpus, semi_supervised=True)


def test_feature_log_odds_direction():
    model = _hand_model()
    lo = feature_log_odds(model)
    assert lo == pytest.approx([np.log(0.2 / 0.7), np.log(0.8 / 0.3)])


def test_feature_log_odds_dispersion(rng):
    X, y = _random_dense(rng, n=50, d=6)
    corpus = corpus_from_dense(X, y)
    mean1, std1 = feature_log_odds_dispersion(corpus, n_boot=10, seed=3)
    mean2, std2 = feature_log_odds_dispersion(corpus, n_boot=10, seed=3)
    assert np.array_equal(mean1, mean2) and np.array_equal(std1, std2)
    assert mean1.shape == (6,) and std1.shape == (6,)
    assert np.all(std1 >= 0) and np.all(np.isfinite(mean1))
    with pytest.raises(DataError, match="n_boot"):
        feature_log_odds_dispersion(corpus, n_boot=1)


def test_feature_log_odds_dispersion_bytes_are_pinned():
    """The exact mean and std of a fixed-seed dispersion over a partly
    labeled, imbalanced corpus: a change to the rows each draw takes, or
    to the seed of replicate b, fails here."""
    rng = np.random.default_rng(21)
    X, y = _random_dense(rng, n=45, d=5)
    y[2:][rng.uniform(size=43) < 0.3] = -1
    y[2:][rng.uniform(size=43) < 0.3] = 1
    mean, std = feature_log_odds_dispersion(corpus_from_dense(X, y), n_boot=6, seed=4)
    assert hashlib.sha256(mean.tobytes() + std.tobytes()).hexdigest() == (
        "6694fcdeb11eb1690c1c67b88980b0d772fe7c53e36e2c73e173e57f4e3c9010"
    )


@pytest.mark.parametrize("use_ln, want", [
    (False, "8a2d9ddc432316e2ec0fac17a9854e10b9a0701336c664696aea7606f0fd82ef"),
    (True, "ffe6250854994d366466409821fff8f23cf119045ccee512aa671a3a7c09b0f2"),
])
def test_em_fit_and_posterior_bytes_are_pinned(use_ln, want):
    """The exact parameters, EM trace and posterior of a fixed-seed
    semi-supervised fit: a change to the bits of the E step, the
    objective, the activity term or the posterior fails here."""
    rng = np.random.default_rng(26)
    world, _ = synth.tilted_world(rng, d=40, gamma=0.4, activity_mu=(2.8, 3.2))
    corpus = synth.sample_corpus(world, 600, rng, labeled_fraction=0.3)
    model, report = fit(corpus, use_log_normal=use_ln, semi_supervised=True, tol=1e-10)
    assert report.converged and report.iterations >= 6
    parts = [model.log_prior, model.log_cond, np.array(report.log_likelihood),
             predict_proba_matrix(model, corpus)]
    if use_ln:
        parts.append(model.activity)
    assert hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest() == want


def test_log_normal_em_computes_two_activity_terms_per_iteration(monkeypatch):
    """An iteration computes the activity term of the candidate
    parameters and that of the model it keeps; the term of the model it
    starts from is carried over from the iteration before."""
    rng = np.random.default_rng(26)
    world, _ = synth.tilted_world(rng, d=40, gamma=0.4, activity_mu=(2.8, 3.2))
    corpus = synth.sample_corpus(world, 600, rng, labeled_fraction=0.3)
    calls = []

    def counted(*args):
        calls.append(args)
        return log_activity_pmf(*args)

    monkeypatch.setattr(bayes, "log_activity_pmf", counted)
    found = []
    for max_iter in (1, 4):
        calls.clear()
        _, report = fit(corpus, use_log_normal=True, semi_supervised=True,
                        max_iter=max_iter, tol=1e-15)
        found.append((report.iterations, len(calls)))
    (short, short_calls), (long, long_calls) = found
    assert (short, long) == (1, 4)
    assert long_calls - short_calls == 2 * (long - short)


def test_log_joint_rejects_out_of_vocab():
    model = _hand_model()
    x = corpus_from_dense([[0, 0, 0, 0, 0, 1]], [-1])
    with pytest.raises(DataError, match="6 communities, the model was fit on 2"):
        log_joint_matrix(model, x)
    with pytest.raises(DataError, match="model was fit on 2"):
        predict_proba_matrix(model, corpus_from_dense([[1]], [-1]))


def test_calibrator_applied_to_posterior(rng):
    X, y = _random_dense(rng, n=30, d=5)
    corpus = corpus_from_dense(X, y)
    model, _ = fit(corpus)
    raw = predict_proba_matrix(model, corpus)
    model.calibrator = IsotonicMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    ident = predict_proba_matrix(model, corpus)
    assert ident == pytest.approx(raw, abs=1e-12)
    model.calibrator = IsotonicMap(np.array([0.5]), np.array([0.3]))
    flat = predict_proba_matrix(model, corpus)
    assert np.all(flat[:, 1] == 0.3)
    assert predict_proba_matrix(model, corpus.subset([0]))[0, 1] == pytest.approx(0.3)


@given(
    X=npst.arrays(np.int64, (12, 4), elements=st.integers(0, 9)),
    y=npst.arrays(np.int64, 12, elements=st.integers(0, 1)),
)
@settings(max_examples=50, deadline=None)
def test_fitted_conditionals_normalize(X, y):
    X = X.copy()
    X[X.sum(axis=1) == 0, 0] = 1
    y = y.copy()
    y[0], y[1] = 0, 1
    corpus = corpus_from_dense(X, y)
    model, _ = fit(corpus, alpha1=0.5, alpha2=2.0)
    assert np.exp(model.log_cond).sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)
    assert np.exp(model.log_prior).sum() == pytest.approx(1.0, abs=1e-12)
