import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, norm

from demoscope import bayes, synth
from demoscope.axis import build_axis
from demoscope.calibrate import fit_isotonic
from demoscope.errors import DataError, NumericError
from demoscope.quantify import (
    EXACT_LIMIT,
    QuantifierModel,
    _normal_half_width,
    estimate,
    evaluate_quantifier,
    exact_count_pmf,
    fit_quantifier,
    npp_sample,
    poisson_binomial_interval,
)

from helpers import ConstantScoreClassifier, FixedPredictionClassifier, cc_bias, corpus_from_dense


def _pool(n0, n1, seed=0, prefix="u"):
    rng = np.random.default_rng(seed)
    X = rng.integers(1, 4, size=(n0 + n1, 3))
    return corpus_from_dense(X, [0] * n0 + [1] * n1, prefix=prefix)


def test_quantifier_model_validation():
    clf = ConstantScoreClassifier(0.5)
    with pytest.raises(DataError, match="mode"):
        QuantifierModel(classifier=clf, mode="pcc")
    with pytest.raises(DataError, match="requires tpr"):
        QuantifierModel(classifier=clf, mode="acc")
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        QuantifierModel(classifier=clf, mode="acc", tpr=1.2, fpr=0.1)
    with pytest.raises(NumericError, match="degenerate correction"):
        QuantifierModel(classifier=clf, mode="acc", tpr=0.5, fpr=0.5)


def test_fit_quantifier_measures_exact_rates():
    pool = _pool(10, 10)
    preds = {}
    for i, user in enumerate(pool.user_ids):
        y = pool.labels[i]
        if y == 1:
            preds[user] = 1 if i % 10 < 8 else 0  # 8 of 10 hits
        else:
            preds[user] = 1 if i % 10 < 2 else 0  # 2 of 10 false alarms
    clf = FixedPredictionClassifier(preds)
    quant = fit_quantifier(clf, pool, mode="acc")
    assert quant.tpr == 0.8
    assert quant.fpr == 0.2
    assert quant.validation_size == 20


def test_fit_quantifier_cc_needs_no_validation():
    quant = fit_quantifier(ConstantScoreClassifier(0.7), None, mode="cc")
    assert quant.mode == "cc"
    assert quant.tpr is None


def test_fit_quantifier_errors():
    clf = ConstantScoreClassifier(0.9)
    with pytest.raises(DataError, match="validation"):
        fit_quantifier(clf, None, mode="acc")
    with pytest.raises(DataError, match="^unknown quantifier mode 'sld'$"):
        fit_quantifier(clf, None, mode="sld")
    one_class = corpus_from_dense([[1, 0], [0, 2]], [1, 1])
    with pytest.raises(DataError, match="both classes"):
        fit_quantifier(clf, one_class, mode="acc")
    # constant classifier predicts 1 for everything: tpr == fpr == 1
    with pytest.raises(NumericError, match="degenerate"):
        fit_quantifier(clf, _pool(5, 5), mode="acc")
    unscorable = FixedPredictionClassifier(
        {u: -1 for u in one_class.user_ids}
    )
    with pytest.raises(DataError, match="no scorable"):
        fit_quantifier(unscorable, one_class, mode="acc")


Z95 = 1.959963984540054


def test_pb_interval_hand_fixture():
    center, lo, hi = poisson_binomial_interval([0.5, 0.5, 0.5, 0.5])
    assert center == 0.5
    # variance sum is exactly 1.0
    assert lo == pytest.approx(0.5 - Z95 / 4, rel=1e-9)
    assert hi == pytest.approx(0.5 + Z95 / 4, rel=1e-9)


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_normal_half_width_z_equals_norm_ppf(confidence):
    # sqrt(sum q(1-q)) / m is exactly 1/4, so the half-width is z / 4
    z = float(norm.ppf(0.5 + confidence / 2.0))
    assert _normal_half_width(np.full(4, 0.5), confidence) == z / 4


def test_pb_interval_degenerate_scores():
    assert poisson_binomial_interval([0.0, 0.0]) == (0.0, 0.0, 0.0)
    assert poisson_binomial_interval([1.0, 1.0, 1.0]) == (1.0, 1.0, 1.0)


def test_pb_interval_clamps():
    center, lo, hi = poisson_binomial_interval([0.1, 0.1])
    assert lo == 0.0
    assert hi > center > lo


def test_pb_interval_validation():
    with pytest.raises(DataError):
        poisson_binomial_interval([])
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        poisson_binomial_interval([1.4])
    with pytest.raises(DataError, match="confidence"):
        poisson_binomial_interval([0.5], confidence=1.0)
    with pytest.raises(DataError, match="method"):
        poisson_binomial_interval([0.5], method="bootstrap")
    with pytest.raises(DataError, match=str(EXACT_LIMIT)):
        poisson_binomial_interval(np.full(EXACT_LIMIT + 1, 0.5), method="exact")


def test_exact_pmf_hand_and_binomial():
    assert exact_count_pmf([0.5, 0.5]) == pytest.approx([0.25, 0.5, 0.25])
    q = np.full(12, 0.3)
    want = binom.pmf(np.arange(13), 12, 0.3)
    assert exact_count_pmf(q) == pytest.approx(want, rel=1e-9)


def test_exact_interval_quantiles():
    # counts ~ Binomial(4, 1/2): cdf (.0625,.3125,.6875,.9375,1)
    center, lo, hi = poisson_binomial_interval([0.5] * 4, method="exact")
    assert center == 0.5
    assert lo == 0.0
    assert hi == 1.0
    # tighter confidence pulls the quantiles inward
    _, lo90, hi90 = poisson_binomial_interval([0.5] * 4, confidence=0.6, method="exact")
    assert lo90 == 0.25 and hi90 == 0.75


@given(st.lists(st.floats(0, 1, width=32), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_exact_pmf_is_a_distribution(qs):
    pmf = exact_count_pmf(np.array(qs, dtype=np.float64))
    assert pmf.size == len(qs) + 1
    assert pmf.min() >= 0.0
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    # mean of the count distribution equals the sum of the scores
    mean = (np.arange(pmf.size) * pmf).sum()
    assert mean == pytest.approx(float(np.sum(qs)), abs=1e-9)


def _fixed_clf(pool, flips_1=0.2, flips_0=0.2, calibrated=True):
    """Predictions wrong for a leading fraction of each class."""
    n1 = int((pool.labels == 1).sum())
    n0 = int((pool.labels == 0).sum())
    seen1 = seen0 = 0
    preds = {}
    scores = {}
    for i, user in enumerate(pool.user_ids):
        if pool.labels[i] == 1:
            wrong = seen1 < round(flips_1 * n1)
            seen1 += 1
        else:
            wrong = seen0 < round(flips_0 * n0)
            seen0 += 1
        y = int(pool.labels[i])
        preds[user] = (1 - y) if wrong else y
        scores[user] = 0.9 if preds[user] == 1 else 0.1
    return FixedPredictionClassifier(preds, scores, calibrated=calibrated)


def test_estimate_cc_and_acc_hand_values():
    pool = _pool(50, 50)
    clf = _fixed_clf(pool)  # tpr 0.8, fpr 0.2 by construction
    quant = fit_quantifier(clf, pool, mode="acc")
    assert (quant.tpr, quant.fpr) == (0.8, 0.2)
    est = estimate(quant, pool)
    # cc = 0.4*1 + ... : 40 predicted-1 of class 1, 10 of class 0 -> 0.5
    assert est.point == pytest.approx((0.5 - 0.2) / 0.6)
    assert est.method == "acc"
    assert est.cohort_size == 100
    cc_quant = fit_quantifier(clf, None, mode="cc")
    cc_est = estimate(cc_quant, pool)
    assert cc_est.point == pytest.approx(0.5)
    # acc interval is the cc interval stretched by 1/|tpr-fpr|
    cc_half = (cc_est.upper - cc_est.lower) / 2
    acc_half = (est.upper - est.lower) / 2
    assert acc_half == pytest.approx(cc_half / 0.6, rel=1e-9)


def test_estimate_clips_to_unit_interval():
    pool = _pool(20, 20)
    preds = {u: 0 for u in pool.user_ids}
    clf = FixedPredictionClassifier(preds, calibrated=True)
    quant = QuantifierModel(classifier=clf, mode="acc", tpr=0.9, fpr=0.3)
    est = estimate(quant, pool)
    assert est.point == 0.0  # (0 - 0.3) / 0.6 clipped
    assert est.lower == 0.0


def test_estimate_uncalibrated_warns_and_skips_interval():
    pool = _pool(10, 10)
    clf = _fixed_clf(pool, calibrated=False)
    quant = fit_quantifier(clf, pool, mode="acc")
    with pytest.warns(UserWarning, match="uncalibrated"):
        est = estimate(quant, pool)
    assert est.lower is None and est.upper is None


def test_estimate_excludes_unscorable_rows():
    pool = _pool(4, 4)
    preds = dict(zip(pool.user_ids, pool.labels.tolist()))
    scores = {u: 0.5 for u in pool.user_ids}
    first = pool.user_ids[0]
    preds[first] = -1
    scores[first] = np.nan
    clf = FixedPredictionClassifier(preds, scores, calibrated=True)
    quant = fit_quantifier(clf, None, mode="cc")
    est = estimate(quant, pool)
    assert est.excluded == 1
    assert est.cohort_size == 7
    assert est.point == pytest.approx(4 / 7)
    all_bad = FixedPredictionClassifier(
        {u: -1 for u in pool.user_ids},
        {u: np.nan for u in pool.user_ids},
    )
    with pytest.raises(DataError, match="no scorable"):
        estimate(fit_quantifier(all_bad, None, mode="cc"), pool)


def test_npp_sample_reproducible_and_without_replacement():
    pool = _pool(60, 40)
    cohorts = npp_sample(pool, 0.4, repeats=5, size=30, seed=11)
    again = npp_sample(pool, 0.4, repeats=5, size=30, seed=11)
    for a, b in zip(cohorts, again):
        assert a.tolist() == b.tolist()
    for r, idx in enumerate(cohorts):
        assert idx.shape == (30,)
        assert np.all(np.diff(idx) > 0)  # sorted, no row twice
        # the class-1 count is the documented per-cohort binomial draw
        rng = np.random.default_rng([11, r])
        want_c1 = int(rng.binomial(30, 0.4))
        assert int((pool.labels[idx] == 1).sum()) == want_c1


def test_npp_sample_indices_pinned():
    """The rows drawn for a fixed seed, from a pool with unlabeled rows
    between the labeled ones; these are the users the cohorts held when
    npp_sample returned corpora instead of indices."""
    rng = np.random.default_rng(0)
    labels = [[0, 1, -1, 1, 0][i % 5] for i in range(20)]
    pool = corpus_from_dense(rng.integers(1, 4, size=(20, 3)), labels)
    cohorts = npp_sample(pool, 0.5, repeats=3, size=6, seed=5)
    assert [idx.tolist() for idx in cohorts] == [
        [0, 1, 5, 8, 11, 18],
        [6, 8, 9, 10, 13, 16],
        [5, 8, 9, 10, 11, 19],
    ]
    assert all((pool.labels[idx] >= 0).all() for idx in cohorts)


def test_npp_sample_deficit_and_validation():
    pool = _pool(3, 3)
    with pytest.raises(DataError, match="pool has only"):
        npp_sample(pool, 1.0, repeats=1, size=5, seed=0)
    with pytest.raises(DataError, match="prevalence"):
        npp_sample(pool, 1.5, repeats=1, size=2)
    with pytest.raises(DataError, match=">= 1"):
        npp_sample(pool, 0.5, repeats=0, size=2)


def test_cc_bias_fixtures():
    assert cc_bias(0.8, 0.2, 0.25) == pytest.approx(0.1)
    assert cc_bias(1.0, 0.0, 0.7) == 0.0


def test_evaluate_quantifier_perfect_predictions_zero_mae():
    pool = _pool(120, 80)
    preds = dict(zip(pool.user_ids, pool.labels.tolist()))
    scores = {u: float(y) for u, y in zip(pool.user_ids, pool.labels)}
    clf = FixedPredictionClassifier(preds, scores, calibrated=True)
    quant = fit_quantifier(clf, None, mode="cc")
    report = evaluate_quantifier(quant, pool, repeats=8, size=40, seed=2)
    assert report.mae == 0.0
    assert report.coverage == 1.0
    assert report.estimates.shape == (8,)
    assert np.array_equal(report.estimates, report.truths)


def test_evaluate_quantifier_natural_prevalence_default():
    pool = _pool(75, 25)
    clf = _fixed_clf(pool)
    quant = fit_quantifier(clf, pool, mode="acc")
    report = evaluate_quantifier(quant, pool, repeats=6, size=20, seed=5)
    # cohorts are drawn around the pool rate 0.25
    assert abs(report.truths.mean() - 0.25) < 0.15
    assert report.mae < 0.3


def test_evaluate_quantifier_needs_labeled_pool():
    corpus = corpus_from_dense([[1, 0], [0, 1]], [-1, -1])
    clf = ConstantScoreClassifier(0.4)
    quant = QuantifierModel(classifier=clf, mode="cc")
    with pytest.raises(DataError, match="no labeled rows"):
        evaluate_quantifier(quant, corpus, repeats=2, size=1)


@pytest.mark.parametrize("kind", ["nb-calibrated", "axis"])
def test_evaluate_quantifier_equals_estimate_per_cohort(kind):
    """Scoring the pool once and slicing it gives each cohort the same
    estimate, bit for bit, as estimate() on that cohort's own corpus."""
    rng = np.random.default_rng(31)
    world, w = synth.tilted_world(rng, d=60, gamma=0.3)
    train = synth.sample_corpus(world, 400, rng)
    cal = synth.sample_corpus(world, 200, rng, prefix="c")
    pool = synth.sample_corpus(world, 500, rng, labeled_fraction=0.8, prefix="p")
    if kind == "axis":
        table = synth.derive_embeddings(world, w, rng, noise=0.8)
        seeds = synth.seed_sets_from_direction(world, w)
        clf = build_axis(table, seeds.pole_b, seeds.pole_a)
    else:
        clf = bayes.fit(train)[0]
        clf.calibrator = fit_isotonic(clf.score(cal)[0], cal.labels)
    quant = fit_quantifier(clf, cal, mode="acc")
    report = evaluate_quantifier(quant, pool, repeats=12, size=60, prevalence=0.3, seed=8)
    covered = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the axis is uncalibrated
        for r, idx in enumerate(npp_sample(pool, 0.3, repeats=12, size=60, seed=8)):
            cohort = pool.subset(idx)
            est = estimate(quant, cohort)
            assert est.point == report.estimates[r]
            assert float((cohort.labels == 1).mean()) == report.truths[r]
            if est.lower is not None:
                covered.append(est.lower <= report.truths[r] <= est.upper)
    assert report.mae == float(np.abs(report.estimates - report.truths).mean())
    assert report.coverage == (float(np.mean(covered)) if covered else None)
    assert (report.coverage is None) == (kind == "axis")


def test_normal_and_exact_intervals_agree_for_large_m(rng):
    q = rng.uniform(0.2, 0.8, size=400)
    _, lo_n, hi_n = poisson_binomial_interval(q, method="normal")
    _, lo_e, hi_e = poisson_binomial_interval(q, method="exact")
    assert (hi_n - lo_n) == pytest.approx(hi_e - lo_e, abs=0.01)
