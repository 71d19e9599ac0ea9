"""Metamorphic relations: how an output must move when its input moves.

None of these needs an oracle. Each tolerance was stated before its test
was written, from the arithmetic:

- Swapping the classes (labels y -> 1 - y) mirrors every fit: the class-1
  posterior p becomes 1 - p within one ulp of 1 (EPS, 2.2e-16), since
  p and 1 - p are rounded separately; EM takes as many iterations.
- An isotonic map fitted on the mirrored pairs (1 - s, 1 - y) is the
  mirrored map, within 64 EPS: pooling runs from the other end, so the
  weighted block means are summed in another order.
- ACC on the swapped world measures tpr' = 1 - fpr and fpr' = 1 - tpr
  within EPS, and its estimate is 1 - the estimate within 2 EPS, one
  rounding each for the count and the correction.
- Permuting the rows leaves the supervised log conditionals and log
  prior bit-identical: they are sums of integer counts, exact in any
  order.
"""

import numpy as np
import pytest

from demoscope import bayes, synth
from demoscope.calibrate import apply_map, fit_isotonic
from demoscope.data import LabeledCorpus
from demoscope.quantify import estimate, fit_quantifier

EPS = np.finfo(np.float64).eps

FITS = {
    "nb": {},
    "nb-ln": {"use_log_normal": True},
    "em": {"semi_supervised": True},
    "em-ln": {"semi_supervised": True, "use_log_normal": True},
}


def _world(seed: int, labeled_fraction: float) -> LabeledCorpus:
    rng = np.random.default_rng(seed)
    world, _ = synth.tilted_world(rng, d=120, gamma=0.35)
    return synth.sample_corpus(world, 2000, rng, labeled_fraction=labeled_fraction)


def _swapped(corpus: LabeledCorpus) -> LabeledCorpus:
    """The same rows with every label flipped; unlabeled rows stay -1."""
    labels = np.where(corpus.labels >= 0, 1 - corpus.labels, -1)
    return LabeledCorpus(vocabulary=corpus.vocabulary, X=corpus.X, user_ids=corpus.user_ids,
                         labels=labels)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", list(FITS))
def test_class_swap_mirrors_the_posterior(kind, seed):
    corpus = _world(seed, labeled_fraction=0.2)
    model, report = bayes.fit(corpus, **FITS[kind])
    mirror, mirror_report = bayes.fit(_swapped(corpus), **FITS[kind])
    p = bayes.predict_proba_matrix(model, corpus)[:, 1]
    p_mirror = bayes.predict_proba_matrix(mirror, corpus)[:, 1]
    assert np.abs(p_mirror - (1.0 - p)).max() <= EPS
    assert mirror_report.iterations == report.iterations
    if FITS[kind].get("semi_supervised"):
        assert report.iterations >= 2  # EM itself ran, not only its start


def test_isotonic_swap_mirrors_the_map():
    """Dyadic scores, so 1 - s is exact and no two scores merge."""
    rng = np.random.default_rng(3)
    s = rng.integers(0, 1025, size=2000) / 1024
    y = (rng.uniform(size=s.size) < s).astype(np.float64)
    forward, mirror = fit_isotonic(s, y), fit_isotonic(1.0 - s, 1.0 - y)
    grid = np.arange(1025) / 1024
    assert forward.values.size > 2  # the map pools into several steps
    gap = apply_map(mirror, 1.0 - grid) - (1.0 - apply_map(forward, grid))
    assert np.abs(gap).max() <= 64 * EPS


@pytest.mark.filterwarnings("ignore:scores are uncalibrated")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_acc_swap_mirrors_the_rates_and_the_estimate(seed):
    corpus = _world(seed, labeled_fraction=1.0)
    train, validation, cohort = (corpus.subset(np.arange(a, a + 500)) for a in (0, 1000, 1500))

    def acc(train, validation, cohort):
        quantifier = fit_quantifier(bayes.fit(train)[0], validation, mode="acc")
        return quantifier, estimate(quantifier, cohort).point

    q, point = acc(train, validation, cohort)
    q_mirror, point_mirror = acc(*map(_swapped, (train, validation, cohort)))
    assert abs(q_mirror.tpr - (1.0 - q.fpr)) <= EPS
    assert abs(q_mirror.fpr - (1.0 - q.tpr)) <= EPS
    assert 0.0 < point < 1.0  # unclamped, so the correction itself is mirrored
    assert abs(point_mirror - (1.0 - point)) <= 2 * EPS


def test_row_permutation_leaves_the_supervised_fit_bit_identical():
    corpus = _world(4, labeled_fraction=0.5)
    perm = np.random.default_rng(5).permutation(corpus.n)
    model, _ = bayes.fit(corpus)
    shuffled, _ = bayes.fit(corpus.subset(perm))
    assert shuffled.log_cond.tobytes() == model.log_cond.tobytes()
    assert shuffled.log_prior.tobytes() == model.log_prior.tobytes()
