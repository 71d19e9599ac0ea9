"""The scorable-row contract every model kind keeps, read through score_rows."""

import numpy as np
import pytest
import scipy.sparse as sp

from demoscope import bayes, synth
from demoscope.axis import EmbeddingTable, build_axis
from demoscope.calibrate import fit_isotonic
from demoscope.classifiers import MajorityClassifier, score_rows
from demoscope.data import LabeledCorpus


@pytest.fixture
def world_corpus_axis(tilted):
    """The tilted corpus plus two rows whose activity lies only in
    communities the embedding table leaves out, and an axis over that
    table."""
    world, w, corpus = tilted
    rng = np.random.default_rng(5)
    table = synth.derive_embeddings(world, w, rng, noise=0.4)
    seeds = synth.seed_sets_from_direction(world, w)
    poles = set(seeds.pole_a) | set(seeds.pole_b)
    left_out = [j for j, name in enumerate(table.names) if name not in poles][:2]
    keep = [j for j in range(len(table.names)) if j not in left_out]
    table = EmbeddingTable(tuple(table.names[j] for j in keep), table.vectors[keep])
    extra = sp.csr_matrix(
        ([3.0, 1.0, 2.0], ([0, 0, 1], [left_out[0], left_out[1], left_out[1]])),
        shape=(2, corpus.d),
    )
    corpus = LabeledCorpus(
        vocabulary=corpus.vocabulary,
        X=sp.vstack([corpus.X, extra]).tocsr(),
        user_ids=np.concatenate([corpus.user_ids, ["lost0", "lost1"]]),
        labels=np.concatenate([corpus.labels, [-1, 1]]),
    )
    axis = build_axis(table, seeds.pole_b, seeds.pole_a)
    return corpus, axis


def _model(kind, corpus, axis):
    if kind == "majority":
        return MajorityClassifier.fit(corpus)
    base = kind.removesuffix("+cal")
    if base == "axis":
        model = axis
    else:
        model = bayes.fit(corpus, use_log_normal=base == "nb-ln")[0]
    if kind.endswith("+cal"):
        scores = model.score(corpus)[0]
        ok = np.isfinite(scores) & corpus.labeled_mask
        model.calibrator = fit_isotonic(scores[ok], corpus.labels[ok])
    return model


@pytest.mark.parametrize("kind", ["nb", "nb-ln", "majority", "axis", "nb+cal", "axis+cal"])
def test_nan_score_iff_minus_one_prediction(world_corpus_axis, kind):
    corpus, axis = world_corpus_axis
    model = _model(kind, corpus, axis)
    scores, preds = model.score(corpus)
    assert np.array_equal(np.isfinite(scores), preds >= 0)
    assert set(np.unique(preds).tolist()) <= {-1, 0, 1}
    again, again_preds, scorable = score_rows(model, corpus)
    assert np.array_equal(again, scores, equal_nan=True)
    assert np.array_equal(again_preds, preds)
    assert np.array_equal(scorable, preds >= 0)
    if kind.startswith("axis"):
        # exactly the two rows with no embedded community are unscorable
        assert np.flatnonzero(~scorable).tolist() == [corpus.n - 2, corpus.n - 1]
    else:
        assert scorable.all()
