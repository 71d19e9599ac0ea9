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
- Permuting the rows moves EM's log-normal fit by rounding only: every
  log conditional and log prior within 16 EPS (3.6e-15; 1.8e-15 was
  measured), with as many iterations. Its sums of responsibilities run
  in another order.
- The same permutation moves each activity parameter (mu_y, sigma_y)
  within 4n EPS of its value, relative, for n rows (8000 EPS, 1.8e-12,
  for the 2000 rows below; 3.5 EPS was measured). mu_y and sigma_y**2
  are responsibility-weighted means over the n rows: a sum of n
  non-negative terms over the sum of their n weights. Such a sum rounds
  at most n - 1 times, each time by at most EPS/2 of its total, so two
  orders differ by at most n EPS relative, and the quotient of two such
  sums by at most 2n EPS; sigma_y, a square root, by half its
  variance's gap. That is one M-step. EM's earlier iterations reach the
  last M-step only through its responsibilities, which the previous
  parameters' rounding moves; they are given as much again, 2n EPS.
- An isotonic map fitted on s**3 has bit-identical knot values, and its
  breakpoints are the cubes of the original ones: cubing is strictly
  increasing on doubles in [0, 1] that do not underflow, so the same
  pairs tie and pool.

Through the command line, on the demo corpus:

- With every label swapped, train, calibrate, quantify and predict give
  scores within 65 EPS of 1 - s, the isotonic swap's 64 EPS plus the
  posterior's one. predict scores the calibration corpus, so every score
  is a data point of the map, not a value interpolated between two.
  quantify's tpr and fpr trade places within EPS and its ACC estimate is
  1 - the estimate within 2 EPS, as in the library.
- Shuffled corpus lines give a bit-identical plain model file, and an
  EM log-normal model within 16 EPS, with as many iterations, as
  permuted rows do.
"""

import csv
import json

import numpy as np
import pytest

from demoscope import bayes, synth
from demoscope.calibrate import apply_map, fit_isotonic
from demoscope.cli import main
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


def test_row_permutation_moves_em_log_normal_by_rounding_only():
    corpus = _world(6, labeled_fraction=0.2)
    perm = np.random.default_rng(7).permutation(corpus.n)
    model, report = bayes.fit(corpus, **FITS["em-ln"])
    shuffled, shuffled_report = bayes.fit(corpus.subset(perm), **FITS["em-ln"])
    assert shuffled_report.iterations == report.iterations >= 2
    for name in ("log_cond", "log_prior"):
        assert np.abs(getattr(shuffled, name) - getattr(model, name)).max() <= 16 * EPS, name
    gap = np.abs(shuffled.activity - model.activity)
    assert np.all(gap <= 4 * corpus.n * EPS * np.abs(model.activity))


def test_isotonic_on_cubed_scores_keeps_the_knot_values():
    """Scores on a grid of 1/1000, so some tie, and none underflows when cubed."""
    rng = np.random.default_rng(8)
    s = rng.integers(0, 1001, size=2000) / 1000
    y = (rng.uniform(size=s.size) < s).astype(np.float64)
    forward, cubed = fit_isotonic(s, y), fit_isotonic(s**3, y)
    assert forward.values.size > 2  # the map pools into several steps
    assert cubed.values.tobytes() == forward.values.tobytes()
    assert cubed.breakpoints.tobytes() == (forward.breakpoints**3).tobytes()


def _swap_lines(source, path):
    """The corpus file with every label swapped; unlabeled lines stay."""
    with open(source, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    for row in rows:
        if row.get("label") in (0, 1):
            row["label"] = 1 - row["label"]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _run(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.mark.filterwarnings("ignore:dropped")
def test_cli_class_swap_mirrors_scores_and_prevalence(demo_files, tmp_path):
    d = demo_files["dir"]
    swapped = tmp_path / "swapped.jsonl"
    _swap_lines(d / "corpus.jsonl", swapped)

    def chain(corpus, out):
        data = ("--corpus", corpus, "--vocabulary", d / "vocab.txt")
        model = out / "calibrate" / "model.json"
        _run("train", *data, "--out-dir", out / "train")
        _run("calibrate", *data, "--model-path", out / "train" / "model.json",
             "--out-dir", out / "calibrate")
        _run("quantify", "--vocabulary", d / "vocab.txt", "--model-path", model,
             "--validation", corpus, "--target", d / "target.jsonl", "--out-dir", out / "quantify")
        _run("predict", *data, "--model-path", model, "--out-dir", out / "predict")
        with open(out / "predict" / "predictions.csv", encoding="utf-8", newline="") as fh:
            scores = np.array([float(row["score"]) for row in csv.DictReader(fh)])
        return scores, json.loads((out / "quantify" / "estimate.json").read_text())

    scores, est = chain(d / "corpus.jsonl", tmp_path / "a")
    mirror_scores, mirror_est = chain(swapped, tmp_path / "b")
    assert np.abs(mirror_scores - (1.0 - scores)).max() <= 65 * EPS
    assert abs(mirror_est["tpr"] - (1.0 - est["fpr"])) <= EPS
    assert abs(mirror_est["fpr"] - (1.0 - est["tpr"])) <= EPS
    assert 0.0 < est["point"] < 1.0  # unclamped, so the correction itself is mirrored
    assert abs(mirror_est["point"] - (1.0 - est["point"])) <= 2 * EPS


@pytest.mark.filterwarnings("ignore:dropped")
def test_cli_shuffled_lines_give_the_same_model(demo_files, tmp_path):
    d = demo_files["dir"]
    lines = (d / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    order = np.random.default_rng(9).permutation(len(lines))
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines[i] for i in order), encoding="utf-8")

    def train(corpus, out, *model):
        _run("train", "--corpus", corpus, "--vocabulary", d / "vocab.txt", *model,
             "--out-dir", out)
        return out

    plain = train(d / "corpus.jsonl", tmp_path / "a")
    plain_shuffled = train(shuffled, tmp_path / "b")
    assert (plain_shuffled / "model.json").read_bytes() == (plain / "model.json").read_bytes()
    fits = [train(corpus, tmp_path / name, "--model", "nb-ss-ln")
            for corpus, name in ((d / "corpus.jsonl", "c"), (shuffled, "d"))]
    (model, report), (model_shuffled, report_shuffled) = (
        [json.loads((out / name).read_text()) for name in ("model.json", "fit_report.json")]
        for out in fits)
    assert report_shuffled["iterations"] == report["iterations"] >= 2
    for name in ("log_cond", "log_prior"):
        gap = np.abs(np.array(model_shuffled[name]) - np.array(model[name])).max()
        assert gap <= 16 * EPS, name
