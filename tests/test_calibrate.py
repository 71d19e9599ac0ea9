import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoscope.calibrate import (
    IsotonicMap,
    _pava,
    apply_map,
    fit_isotonic,
    reliability,
)
from demoscope.errors import DataError

from helpers import minimax_isotonic


def test_pava_hand_fixture():
    fitted = _pava(np.array([0.0, 1.0, 0.0, 1.0]), np.ones(4))
    assert fitted.tolist() == [0.0, 0.5, 0.5, 1.0]


def test_pava_already_monotone_is_identity():
    v = np.array([0.1, 0.2, 0.2, 0.9])
    # equal neighbours merge (>= condition) but the means are unchanged
    assert _pava(v, np.ones(4)).tolist() == v.tolist()


def test_pava_decreasing_collapses_to_mean():
    v = np.array([3.0, 2.0, 1.0])
    w = np.array([1.0, 1.0, 2.0])
    expected = (3.0 + 2.0 + 2.0) / 4.0
    assert np.allclose(_pava(v, w), expected)


def test_fit_isotonic_hand_fixture():
    cal = fit_isotonic([0.1, 0.2, 0.3, 0.4], [0, 1, 0, 1])
    assert cal.breakpoints.tolist() == [0.1, 0.2, 0.3, 0.4]
    assert cal.values.tolist() == [0.0, 0.5, 0.5, 1.0]
    out = apply_map(cal, np.array([0.15, 0.05, 0.9, 0.25, 0.35]))
    assert out[:3].tolist() == [pytest.approx(0.25), 0.0, 1.0]
    assert out[3:] == pytest.approx([0.5, 0.75])


def test_fit_isotonic_tie_grouping():
    # score 0.5 appears twice with labels 0 and 1: one point, target 0.5
    cal = fit_isotonic([0.2, 0.5, 0.5, 0.8], [0, 0, 1, 1])
    assert cal.breakpoints.tolist() == [0.2, 0.5, 0.8]
    assert cal.values.tolist() == [0.0, 0.5, 1.0]


def test_apply_map_batch_of_one():
    cal = fit_isotonic([0.0, 1.0], [0, 1])
    out = apply_map(cal, np.array([0.5]))
    assert out.shape == (1,) and out.dtype == np.float64


@pytest.mark.parametrize("breakpoints, values", [([0.2, 0.6], [0.1, 0.7]), ([0.4], [0.3])],
                         ids=["two-knots", "one-knot"])
def test_apply_map_passes_nan_and_clamps_infinities(breakpoints, values):
    """An unscorable row's NaN stays NaN through any map, and an
    infinite score takes the value at its edge."""
    cal = IsotonicMap(np.array(breakpoints), np.array(values))
    out = apply_map(cal, np.array([np.nan, -np.inf, np.inf, -np.nan]))
    assert np.isnan(out[0]) and np.isnan(out[3])
    assert out[1:3].tolist() == [values[0], values[-1]]


def test_fit_isotonic_validation():
    with pytest.raises(DataError, match=">= 2"):
        fit_isotonic([0.5], [1])
    with pytest.raises(DataError, match="both classes"):
        fit_isotonic([0.1, 0.9], [1, 1])
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        fit_isotonic([0.1, 1.5], [0, 1])
    with pytest.raises(DataError, match="0 or 1"):
        fit_isotonic([0.1, 0.9], [0, 2])
    with pytest.raises(DataError, match="equal length"):
        fit_isotonic([0.1, 0.9], [0, 1, 1])


def test_isotonic_map_validation():
    with pytest.raises(DataError, match="strictly increasing"):
        IsotonicMap(np.array([0.1, 0.1]), np.array([0.0, 1.0]))
    with pytest.raises(DataError, match="non-decreasing"):
        IsotonicMap(np.array([0.1, 0.2]), np.array([0.9, 0.1]))
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        IsotonicMap(np.array([0.1, 0.2]), np.array([0.5, 1.5]))
    with pytest.raises(DataError, match="finite"):
        IsotonicMap(np.array([0.1, np.inf]), np.array([0.0, 1.0]))
    # single knot is legal and constant
    cal = IsotonicMap(np.array([0.5]), np.array([0.3]))
    assert apply_map(cal, np.array([0.0, 1.0])).tolist() == [0.3, 0.3]


@st.composite
def _calibration_instance(draw):
    n = draw(st.integers(4, 60))
    scores = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=n, max_size=n
        )
    )
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if 0 not in labels:
        labels[0] = 0
    if 1 not in labels:
        labels[-1] = 1
    return np.array(scores, dtype=np.float64), np.array(labels)


@given(_calibration_instance())
@settings(max_examples=80, deadline=None)
def test_pava_matches_minimax_closed_form(instance):
    scores, labels = instance
    uniq, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    pos = np.zeros(uniq.size)
    np.add.at(pos, inverse, labels.astype(np.float64))
    targets = pos / counts
    weights = counts.astype(np.float64)
    fitted = _pava(targets, weights)
    oracle = minimax_isotonic(targets, weights)
    assert np.max(np.abs(fitted - oracle)) <= 1e-9


@given(_calibration_instance(), st.lists(st.floats(0, 1, width=32), min_size=2, max_size=10))
@settings(max_examples=60, deadline=None)
def test_apply_map_monotone_and_bounded(instance, queries):
    scores, labels = instance
    cal = fit_isotonic(scores, labels)
    q = np.sort(np.array(queries, dtype=np.float64))
    out = apply_map(cal, q)
    assert np.all(np.diff(out) >= 0)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_in_sample_ece_after_calibration_near_zero(rng):
    raw = rng.uniform(0, 1, size=400)
    labels = (rng.uniform(0, 1, size=400) < raw**2).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    cal = fit_isotonic(raw, labels)
    calibrated = apply_map(cal, raw)
    rep = reliability(calibrated, labels)
    assert rep.ece <= 1e-12


def test_reliability_hand_fixtures():
    rep = reliability(np.ones(8), np.zeros(8), n_bins=10)
    assert rep.counts[9] == 8
    assert rep.ece == pytest.approx(1.0)
    # scores match rates exactly
    rep = reliability([0.25] * 4, [1, 0, 0, 0], n_bins=4)
    assert rep.ece == pytest.approx(0.0)
    assert rep.counts.tolist() == [0, 4, 0, 0]
    assert np.isnan(rep.mean_score[0])
    # two bins, known gaps: bin0 rate 0 vs mean .1, bin1 rate 1 vs mean .6
    rep = reliability([0.1, 0.1, 0.6, 0.6], [0, 0, 1, 1], n_bins=2)
    assert rep.ece == pytest.approx(0.5 * 0.1 + 0.5 * 0.4)


def test_reliability_validation():
    with pytest.raises(DataError):
        reliability([], [])
    with pytest.raises(DataError, match="n_bins"):
        reliability([0.5], [1], n_bins=0)
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        reliability([1.2], [1])


def test_minimax_oracle_against_qp_solver():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(5)
    targets = rng.uniform(0, 1, size=25)
    weights = rng.uniform(0.5, 3.0, size=25)
    v = cvxpy.Variable(25)
    problem = cvxpy.Problem(
        cvxpy.Minimize(cvxpy.sum(cvxpy.multiply(weights, cvxpy.square(v - targets)))),
        [v[1:] >= v[:-1]],
    )
    problem.solve(solver=cvxpy.CLARABEL)
    oracle = minimax_isotonic(targets, weights)
    # first-order solver only reaches ~1e-6 accuracy
    assert np.max(np.abs(oracle - v.value)) <= 5e-5
