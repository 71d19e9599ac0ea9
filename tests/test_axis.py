import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoscope import synth
from demoscope.axis import (
    AxisModel,
    EmbeddingTable,
    build_axis,
    load_embeddings,
    score_corpus,
)
from demoscope.calibrate import IsotonicMap, fit_isotonic
from demoscope.errors import DataError

from helpers import corpus_from_dense


def _table():
    # 2-d layout chosen so the axis a-b is the x direction
    names = ("left1", "left2", "right1", "right2", "mid", "offside")
    vectors = np.array(
        [
            [-2.0, 0.5],
            [-2.0, -0.5],
            [2.0, 0.5],
            [2.0, -0.5],
            [0.0, 1.0],
            [0.5, -1.0],
        ]
    )
    return EmbeddingTable(names, vectors)


def _z_of(axis):
    """Each community's z score, by name."""
    return dict(zip(axis.communities, axis.z.tolist()))


def test_embedding_table_validation():
    with pytest.raises(DataError, match="duplicate"):
        EmbeddingTable(("a", "a"), np.zeros((2, 3)))
    with pytest.raises(DataError, match="empty"):
        EmbeddingTable((), np.zeros((0, 3)))
    with pytest.raises(DataError, match="aligned"):
        EmbeddingTable(("a",), np.zeros((2, 3)))
    with pytest.raises(DataError, match="finite"):
        EmbeddingTable(("a",), np.array([[np.nan, 0.0]]))


def test_axis_model_refuses_non_finite_z():
    with pytest.raises(DataError, match="z must be finite"):
        AxisModel("t", ("a", "b"), np.array([0.0, np.nan]), ("a",), ("b",))


def test_load_embeddings_roundtrip(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("a\t0.5\t-1.0\nb\t1.5\t2.0\n\n")
    table = load_embeddings(p)
    assert table.names == ("a", "b")
    assert table.dim == 2
    assert table.vectors.tolist() == [[0.5, -1.0], [1.5, 2.0]]


def test_load_embeddings_errors(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("a\t0.5\nb\t1.5\t2.0\n")
    with pytest.raises(DataError, match=r"emb\.tsv:2.*dimension"):
        load_embeddings(p)
    p.write_text("a\tx\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_embeddings(p)
    p.write_text("justname\n")
    with pytest.raises(DataError, match=r"emb\.tsv:1"):
        load_embeddings(p)
    p.write_text("\n")
    with pytest.raises(DataError, match="no embedding rows"):
        load_embeddings(p)


def test_build_axis_orientation():
    axis = build_axis(_table(), ("right1", "right2"), ("left1", "left2"))
    zof = _z_of(axis)
    # pole_a (right side) lands positive, pole_b negative
    assert zof["right1"] > 0 and zof["right2"] > 0
    assert zof["left1"] < 0 and zof["left2"] < 0
    # full-table standardization: mean 0, population std 1
    assert axis.z.mean() == pytest.approx(0.0, abs=1e-12)
    assert axis.z.std() == pytest.approx(1.0, rel=1e-12)


def test_pole_swap_negates_z_exactly():
    axis_ab = build_axis(_table(), ("right1", "right2"), ("left1", "left2"))
    axis_ba = build_axis(_table(), ("left1", "left2"), ("right1", "right2"))
    assert np.array_equal(axis_ab.z, -axis_ba.z)


def test_build_axis_pole_validation():
    table = _table()
    with pytest.raises(DataError, match="non-empty"):
        build_axis(table, (), ("left1",))
    with pytest.raises(DataError, match="overlap"):
        build_axis(table, ("mid", "right1"), ("mid",))
    with pytest.warns(UserWarning, match="not in table"):
        axis = build_axis(table, ("right1", "ghost"), ("left1",))
    assert axis.pole_a == ("right1", "ghost")
    with pytest.raises(DataError, match="no pole community"), pytest.warns(UserWarning):
        build_axis(table, ("ghost1", "ghost2"), ("left1",))


def test_build_axis_degenerate():
    table = EmbeddingTable(("a", "b"), np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DataError, match="degenerate axis"):
        build_axis(table, ("a",), ("b",))


def test_zero_norm_community_gets_zero_cosine():
    table = EmbeddingTable(
        ("a", "b", "zero"), np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    )
    axis = build_axis(table, ("a",), ("b",))
    # raw cosines are (1, -1, 0); after standardization zero maps to mean
    assert _z_of(axis)["zero"] == pytest.approx(0.0, abs=1e-12)


def test_score_corpus_weighted_mean():
    axis = build_axis(_table(), ("right1", "right2"), ("left1", "left2"))
    x = corpus_from_dense([[1, 0, 3, 0, 0, 0]], [-1], names=_table().names)
    z = _z_of(axis)
    want = (1 * z["left1"] + 3 * z["right1"]) / 4
    assert score_corpus(axis, x)[0] == pytest.approx(want, rel=1e-12)


def test_score_corpus_ignores_unembedded_and_nan_when_all_missing():
    axis = build_axis(_table(), ("right1",), ("left1",))
    names = ("left1", "notin1", "notin2")
    x = corpus_from_dense([[2, 9, 0]], [-1], names=names)
    assert score_corpus(axis, x)[0] == pytest.approx(_z_of(axis)["left1"])
    lost = corpus_from_dense([[0, 1, 1]], [-1], names=names)
    assert np.isnan(score_corpus(axis, lost)[0])


def test_score_corpus_one_row_batches_match_with_nan_rows():
    axis = build_axis(_table(), ("right1", "right2"), ("left1", "left2"))
    names = ("left1", "right1", "unknown")
    corpus = corpus_from_dense([[2, 1, 0], [0, 0, 5], [1, 0, 1]], [-1, -1, -1], names=names)
    scores = score_corpus(axis, corpus)
    z = _z_of(axis)
    want = (2 * z["left1"] + 1 * z["right1"]) / 3
    assert scores[0] == pytest.approx(want, rel=1e-12)
    assert np.isnan(scores[1])
    assert scores[2] == pytest.approx(z["left1"])
    for i in range(corpus.n):
        np.testing.assert_array_equal(score_corpus(axis, corpus.subset([i])), scores[[i]])


def _scored(raw, calibrator=None):
    """AxisModel.score over one row per entry of raw, whose raw score is
    that entry: row i counts only community ci, whose z is raw[i], and a
    NaN entry is a community the axis lacks."""
    names = tuple(f"c{i}" for i in range(len(raw)))
    kept = [i for i, r in enumerate(raw) if not np.isnan(r)]
    axis = AxisModel("t", tuple(names[i] for i in kept), np.array([raw[i] for i in kept]),
                     ("a",), ("b",), calibrator=calibrator)
    return axis.score(corpus_from_dense(np.eye(len(raw)), [-1] * len(raw), names=names))


def test_axis_score_predicts_above_zero_and_minus_one_for_nan():
    _, preds = _scored([-0.1, 0.0, 0.1, np.nan])
    assert preds.tolist() == [0, 0, 1, -1]


def test_axis_score_is_a_logistic_of_the_raw_score():
    one, _ = _scored([0.0, 1.0])
    assert one.tolist() == pytest.approx([0.5, 1 / (1 + np.exp(-1.0))])
    assert _scored([0.0])[0].shape == (1,)
    arr, _ = _scored([-1e9, 1e9, np.nan])
    assert arr[0] == pytest.approx(0.0, abs=1e-12)
    assert arr[1] == pytest.approx(1.0)
    assert np.isnan(arr[2])


def test_axis_score_with_calibrator():
    cal = IsotonicMap(np.array([0.0, 1.0]), np.array([0.2, 0.8]))
    arr, _ = _scored([0.0, np.nan], calibrator=cal)
    assert arr[0] == pytest.approx(0.5)
    assert np.isnan(arr[1])


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=60, deadline=None)
def test_axis_score_monotone(s1, s2):
    (lo, hi), _ = _scored(sorted((s1, s2)))
    assert lo <= hi


@pytest.mark.parametrize("calibrated, want", [
    (False, "7c54e59c8a4350aec3f18462c4325d7e6d8a306f8f95589c4180129f42b035d4"),
    (True, "a549eb50b7b26faf2ce158d5c723627a1f342dd4451cd538d62ebbf8fbdff7dd"),
])
def test_axis_scores_and_predictions_are_pinned(calibrated, want):
    """The exact scores and predictions of a fixed-seed axis, raw and
    calibrated, over a corpus whose first row counts only a community
    the embedding table lacks: a change to the squashing, the decision,
    the calibration step or the handling of an unscorable row fails here.
    A NaN score is hashed as -1, so its sign and payload bits do not count."""
    rng = np.random.default_rng(29)
    world, w = synth.tilted_world(rng, d=40, gamma=0.4)
    sample = synth.sample_corpus(world, 300, rng)
    table = synth.derive_embeddings(world, w, rng, noise=0.5)
    X = np.hstack([sample.X.toarray(), np.zeros((sample.n, 1))])
    X[0] = 0.0
    X[0, -1] = 4.0
    corpus = corpus_from_dense(X, sample.labels, names=(*world.vocabulary.names, "absent"))
    seeds = synth.seed_sets_from_direction(world, w)
    axis = build_axis(table, seeds.pole_b, seeds.pole_a)
    if calibrated:
        raw, _ = axis.score(corpus)
        axis.calibrator = fit_isotonic(raw[1:], corpus.labels[1:])
    scores, preds = axis.score(corpus)
    assert np.isnan(scores[0]) and preds[0] == -1
    assert np.isfinite(scores[1:]).all() and set(preds[1:].tolist()) == {0, 1}
    blob = np.where(np.isnan(scores), -1.0, scores).tobytes() + preds.tobytes()
    assert hashlib.sha256(blob).hexdigest() == want


def test_axis_separates_tilted_world(tilted):
    world, w, corpus = tilted

    rng = np.random.default_rng(99)
    table = synth.derive_embeddings(world, w, rng, noise=0.4)
    seeds = synth.seed_sets_from_direction(world, w)
    # seeds pole_a marks class 0 (low direction); axis pole_a lands
    # positive, so orient the axis with the class-1 pole as pole_a
    axis = build_axis(table, seeds.pole_b, seeds.pole_a)
    scores = score_corpus(axis, corpus)
    ok = np.isfinite(scores)
    pos = scores[ok & (corpus.labels == 1)]
    neg = scores[ok & (corpus.labels == 0)]
    assert pos.mean() > neg.mean()
