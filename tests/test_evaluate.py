import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from demoscope import serialize
from demoscope.classifiers import MajorityClassifier, nb_factory
from demoscope.errors import DataError
from demoscope.evaluate import (
    CurveData,
    bootstrap_eval,
    cv_roc,
    f1,
    learning_curve,
    robustness_sweep,
    roc_auc,
    roc_curve,
)

from helpers import (
    ConstantScoreClassifier,
    FixedPredictionClassifier,
    corpus_from_dense,
    curve_auc,
    naive_roc_auc,
)


def test_roc_auc_hand_values():
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert roc_auc([0.2, 0.8], [0, 1]) == 1.0
    assert roc_auc([0.8, 0.2], [0, 1]) == 0.0
    # constant scorer is exactly one half
    assert roc_auc([0.3, 0.3, 0.3], [0, 1, 1]) == 0.5
    # a tie between classes is half credit
    assert roc_auc([0.5, 0.5, 0.9], [0, 1, 1]) == 0.75


def test_roc_auc_validation():
    with pytest.raises(DataError, match="both classes"):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(DataError, match="finite"):
        roc_auc([np.nan, 0.2], [0, 1])
    with pytest.raises(DataError, match="0 or 1"):
        roc_auc([0.1, 0.2], [0, 2])
    with pytest.raises(DataError):
        roc_auc([], [])


@given(
    scores=st.lists(st.floats(0, 1, width=32), min_size=4, max_size=60),
    flips=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_roc_auc_matches_pair_counting(scores, flips):
    rng = np.random.default_rng(flips)
    labels = rng.integers(0, 2, size=len(scores))
    labels[0], labels[1] = 0, 1
    s = np.array(scores, dtype=np.float64)
    assert roc_auc(s, labels) == pytest.approx(naive_roc_auc(s, labels), abs=1e-12)


@given(st.lists(st.floats(0, 1, width=32), min_size=4, max_size=40))
@settings(max_examples=40, deadline=None)
def test_roc_auc_label_flip_symmetry(scores):
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 2, size=len(scores))
    labels[0], labels[1] = 0, 1
    s = np.array(scores, dtype=np.float64)
    assert roc_auc(s, labels) == pytest.approx(1.0 - roc_auc(s, 1 - labels), abs=1e-12)


def _tied_scores():
    rng = np.random.default_rng(3)
    heavy = rng.integers(0, 20, size=20_000).astype(np.float64)
    signed = np.where((heavy == 0) & (rng.random(heavy.size) < 0.5), -0.0, heavy)
    return {
        "all-tied": np.full(9, 0.25),
        "signed-zeros": np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, -0.0]),
        "heavy-ties": heavy,
        "heavy-ties-signed-zeros": signed,
    }


@pytest.mark.parametrize("case", list(_tied_scores()))
def test_roc_auc_equals_rankdata_auc_on_ties(case):
    s = _tied_scores()[case]
    y = np.arange(s.size) % 2
    n1, n0 = int(y.sum()), int((1 - y).sum())
    want = (rankdata(s)[y == 1].sum() - n1 * (n1 + 1) / 2.0) / (n0 * n1)
    assert roc_auc(s, y) == want


def test_roc_auc_monotone_transform_invariant(rng):
    s = rng.uniform(0, 1, size=50)
    y = rng.integers(0, 2, size=50)
    y[0], y[1] = 0, 1
    assert roc_auc(np.exp(3 * s) - 1, y) == pytest.approx(roc_auc(s, y), abs=1e-12)


def test_f1_hand_values():
    # tp=3 fp=1 fn=1
    assert f1([1, 1, 1, 1, 0, 0], [1, 1, 1, 0, 1, 0]) == pytest.approx(0.75)
    assert f1([0, 0], [1, 1]) == 0.0
    assert f1([1, 1], [1, 1]) == 1.0
    with pytest.raises(DataError):
        f1([1], [1, 0])


def test_roc_curve_hand_fixture():
    fpr, tpr = roc_curve([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    assert fpr.tolist() == [0.0, 0.0, 0.5, 0.5, 1.0]
    assert tpr.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]


def test_roc_curve_ties_collapse_points():
    fpr, tpr = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert fpr.tolist() == [0.0, 1.0]
    assert tpr.tolist() == [0.0, 1.0]
    with pytest.raises(DataError, match="both classes"):
        roc_curve([0.5, 0.6], [1, 1])


def test_roc_curve_monotone_property(rng):
    s = rng.uniform(0, 1, size=80)
    y = rng.integers(0, 2, size=80)
    y[0], y[1] = 0, 1
    fpr, tpr = roc_curve(s, y)
    assert np.all(np.diff(fpr) >= 0)
    assert np.all(np.diff(tpr) >= 0)
    assert fpr[0] == 0.0 and fpr[-1] == 1.0
    assert tpr[0] == 0.0 and tpr[-1] == 1.0


def _separable_corpus(n=120, seed=0, labeled_fraction=1.0):
    """Class 1 concentrates on the last feature, class 0 on the first."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    X = rng.integers(0, 3, size=(n, 4))
    X[y == 0, 0] += rng.integers(3, 8, size=int((y == 0).sum()))
    X[y == 1, 3] += rng.integers(3, 8, size=int((y == 1).sum()))
    X[X.sum(axis=1) == 0, 1] = 1
    labels = y.copy()
    hide = rng.uniform(size=n) > labeled_fraction
    labels[hide] = -1
    return corpus_from_dense(X, labels)


def test_bootstrap_eval_deterministic_and_worker_invariant(monkeypatch):
    corpus = _separable_corpus()
    a = bootstrap_eval({"nb": nb_factory()}, corpus, n_boot=6, seed=3)["nb"]
    b = bootstrap_eval({"nb": nb_factory()}, corpus, n_boot=6, seed=3)["nb"]
    spans = []
    real = serialize.fork_join
    monkeypatch.setattr(serialize, "fork_join", lambda *args: spans.append(args[1]) or real(*args))
    monkeypatch.setattr(serialize, "MIN_FORK_SECONDS", 0)
    monkeypatch.setattr(serialize, "usable_cpus", lambda: 2)
    c = bootstrap_eval({"nb": nb_factory()}, corpus, n_boot=6, seed=3)["nb"]
    assert spans == [[(1, 3), (3, 6)]]  # replicate 0 ran first here, 3-5 in a forked worker
    assert np.array_equal(a.metrics["roc_auc"], b.metrics["roc_auc"])
    assert np.array_equal(a.metrics["roc_auc"], c.metrics["roc_auc"])
    assert np.array_equal(a.metrics["f1"], c.metrics["f1"])
    assert a.n_replicates == 6
    summ = a.summary()
    assert set(summ) == {"roc_auc", "f1"}
    assert 0.8 < summ["roc_auc"]["mean"] <= 1.0
    assert summ["roc_auc"]["std"] >= 0.0


def test_bootstrap_eval_seed_changes_replicates():
    rng = np.random.default_rng(0)
    X = rng.integers(0, 4, size=(80, 4))
    X[X.sum(axis=1) == 0, 0] = 1
    y = rng.integers(0, 2, size=80)
    y[:2] = [0, 1]
    X[y == 1, 3] += rng.integers(0, 2, size=int((y == 1).sum()))  # weak signal
    corpus = corpus_from_dense(X, y)
    a = bootstrap_eval({"nb": nb_factory()}, corpus, n_boot=5, seed=1)["nb"]
    b = bootstrap_eval({"nb": nb_factory()}, corpus, n_boot=5, seed=2)["nb"]
    assert not np.array_equal(a.metrics["roc_auc"], b.metrics["roc_auc"])


def test_bootstrap_eval_majority_baseline_exact():
    corpus = _separable_corpus()
    rep = bootstrap_eval({"majority": MajorityClassifier.fit}, corpus, n_boot=4, seed=0)["majority"]
    # constant scores: AUC exactly one half on every replicate
    assert np.all(rep.metrics["roc_auc"] == 0.5)


def test_bootstrap_eval_validation():
    corpus = _separable_corpus(n=40)
    with pytest.raises(DataError, match="n_boot"):
        bootstrap_eval({"nb": nb_factory()}, corpus, n_boot=0)
    with pytest.raises(DataError, match="test_fraction"):
        bootstrap_eval({"nb": nb_factory()}, corpus, test_fraction=1.0)


def test_bootstrap_eval_names_the_model_whose_replicate_fails():
    """Every model is scored on one split per replicate; the one left
    without a test class, here by scoring no row, is named."""
    models = {"nb": nb_factory(), "blind": lambda train: ConstantScoreClassifier(np.nan)}
    with pytest.raises(DataError, match="^replicate 0: blind lost a test class to dropped rows$"):
        bootstrap_eval(models, _separable_corpus(n=40), n_boot=2)


def test_cv_roc_pools_all_labeled_rows():
    corpus = _separable_corpus(n=100, labeled_fraction=0.8)
    curve = cv_roc({"nb-ss": nb_factory(semi_supervised=True)}, corpus, folds=5, seed=4)["nb-ss"]
    assert curve_auc(curve) > 0.8
    # every labeled row is pooled: its scores are all distinct, so the
    # curve has one point per row past (0, 0), in steps of 1/n0 and 1/n1
    n0, n1 = corpus.class_counts()
    assert curve.x.size == 1 + n0 + n1
    assert np.array_equal(curve.x, np.round(curve.x * n0) / n0)
    assert np.array_equal(curve.y, np.round(curve.y * n1) / n1)
    assert np.all(np.diff(curve.x) >= 0)
    assert curve.y[-1] == 1.0
    again = cv_roc({"nb-ss": nb_factory(semi_supervised=True)}, corpus, folds=5, seed=4)["nb-ss"]
    assert np.array_equal(curve.y, again.y)
    with pytest.raises(DataError, match="folds"):
        cv_roc({"nb": nb_factory()}, corpus, folds=1)


def test_cv_roc_requires_enough_rows_per_class():
    corpus = _separable_corpus(n=12)
    with pytest.raises(DataError, match="needs >="):
        cv_roc({"nb": nb_factory()}, corpus, folds=10)


def test_learning_curve_shapes_and_determinism():
    corpus = _separable_corpus(n=250, seed=5)
    sizes = [20, 60, 120]
    curve = learning_curve(
        nb_factory(), corpus, sizes, repeats=4, cohort_size=30, seed=8
    )
    assert curve.x.tolist() == [20.0, 60.0, 120.0]
    assert curve.y.shape == (3,)
    assert np.all(np.isfinite(curve.y))
    assert np.all(curve.y >= 0)
    again = learning_curve(
        nb_factory(), corpus, sizes, repeats=4, cohort_size=30, seed=8
    )
    assert np.array_equal(curve.y, again.y)


def test_learning_curve_validation():
    corpus = _separable_corpus(n=80)
    with pytest.raises(DataError, match="strictly increasing"):
        learning_curve(nb_factory(), corpus, [30, 30], repeats=2, cohort_size=10)
    with pytest.raises(DataError, match="exceeds"):
        learning_curve(nb_factory(), corpus, [10_000], repeats=2, cohort_size=10)


def test_robustness_sweep_filters_by_confidence():
    corpus = corpus_from_dense(np.ones((8, 2), dtype=int), [0, 0, 0, 0, 1, 1, 1, 1])
    scores = {}
    preds = {}
    values = [0.05, 0.45, 0.48, 0.1, 0.95, 0.52, 0.55, 0.9]
    for user, v in zip(corpus.user_ids, values):
        scores[user] = v
        preds[user] = 1 if v > 0.5 else 0
    clf = FixedPredictionClassifier(preds, scores)
    curve = robustness_sweep(clf, corpus, [0.1, 0.5])
    # tau=0.1 keeps scores <= 0.1 or >= 0.9: four rows, perfectly split
    assert curve.aux["retained"][0] == pytest.approx(0.5)
    assert curve.y[0] == 1.0
    # tau=0.5 keeps everything
    assert curve.aux["retained"][1] == 1.0
    assert curve.y[1] == 1.0
    assert np.all(np.diff(curve.aux["retained"]) >= 0)


def test_robustness_sweep_nan_when_class_lost():
    corpus = corpus_from_dense(np.ones((4, 2), dtype=int), [0, 0, 1, 1])
    scores = dict(zip(corpus.user_ids, [0.4, 0.45, 0.95, 0.99]))
    preds = {u: (1 if v > 0.5 else 0) for u, v in scores.items()}
    clf = FixedPredictionClassifier(preds, scores)
    curve = robustness_sweep(clf, corpus, [0.05, 0.5])
    # tau=0.05 keeps only the two class-1 rows: AUC undefined
    assert np.isnan(curve.y[0])
    assert curve.y[1] == 1.0
    with pytest.raises(DataError, match="taus"):
        robustness_sweep(clf, corpus, [])
    with pytest.raises(DataError, match="taus"):
        robustness_sweep(clf, corpus, [0.7])


def test_robustness_boundary_tau_zero():
    corpus = corpus_from_dense(np.ones((4, 2), dtype=int), [0, 0, 1, 1])
    scores = dict(zip(corpus.user_ids, [0.0, 1.0, 1.0, 1.0]))
    preds = {u: (1 if v > 0.5 else 0) for u, v in scores.items()}
    curve = robustness_sweep(FixedPredictionClassifier(preds, scores), corpus, [0.0])
    # exact 0.0 and 1.0 scores survive tau = 0
    assert curve.aux["retained"][0] == 1.0


def test_curve_data_to_csv_roundtrip(tmp_path):
    curve = CurveData(
        x=np.array([10.0, 20.0]),
        y=np.array([0.125, 0.0625]),
        y_std=np.array([0.01, 0.0078125]),
        aux={"retained": np.array([1.0, 0.5])},
    )
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,y_std,retained"
    cells = lines[1].split(",")
    assert float(cells[0]) == 10.0
    assert float(cells[1]) == 0.125
    # repr round-trip keeps exact float values
    assert cells[2] == repr(0.01)


def test_scored_subset_drops_unscorable_rows():
    corpus = corpus_from_dense(np.ones((5, 2), dtype=int), [0, 1, 1, -1, 0])
    scores = {u: 0.6 for u in corpus.user_ids}
    preds = {u: 1 for u in corpus.user_ids}
    bad = corpus.user_ids[1]
    scores[bad] = np.nan
    preds[bad] = -1
    clf = FixedPredictionClassifier(preds, scores)
    curve = robustness_sweep(clf, corpus, [0.5])
    # the unscorable labeled row is dropped, not kept as a row no tau retains
    assert curve.aux["retained"].tolist() == [1.0]


def test_curve_csv_columns_and_float_text(tmp_path):
    curve = CurveData(
        x=np.array([0.1, 1.0]),
        y=np.array([np.nan, 0.5]),
        y_std=np.array([0.0, 1e-17]),
        aux={"retained": np.array([1, 0.25])},
    )
    curve.to_csv(tmp_path / "c.csv")
    text = (tmp_path / "c.csv").read_bytes().decode("utf-8")
    assert text == "x,y,y_std,retained\n0.1,nan,0.0,1.0\n1.0,0.5,1e-17,0.25\n"
    CurveData(x=np.array([]), y=np.array([])).to_csv(tmp_path / "e.csv")
    assert (tmp_path / "e.csv").read_text(encoding="utf-8") == "x,y\n"


def _recorded_training_rows(protocol, **kwargs) -> list[tuple[int, str]]:
    """Row count and user-id sha256 prefix of each training corpus the
    protocol hands its factory, on an imbalanced, partly labeled corpus."""
    rng = np.random.default_rng(13)
    y = (rng.uniform(size=150) < 0.3).astype(np.int64)
    X = rng.integers(0, 3, size=(150, 5))
    X[y == 1, 4] += rng.integers(1, 6, size=int(y.sum()))
    X[X.sum(axis=1) == 0, 0] = 1
    y[rng.uniform(size=150) < 0.25] = -1
    seen = []
    fit = nb_factory()

    def factory(train):
        seen.append((train.n, hashlib.sha256("\n".join(train.user_ids).encode()).hexdigest()[:16]))
        return fit(train)

    # cv_roc takes a mapping of models, learning_curve one factory
    protocol({"nb": factory} if protocol is cv_roc else factory, corpus_from_dense(X, y), **kwargs)
    return seen


def test_cv_roc_training_rows_are_pinned():
    """Every oversampled training fold, rows in order, at a fixed seed."""
    assert _recorded_training_rows(cv_roc, folds=3, seed=6) == [
        (152, "8d993c5f50535361"),
        (152, "a82a58d420b5c58d"),
        (152, "70d88870349a9f75"),
    ]


def test_learning_curve_training_rows_are_pinned():
    """Every oversampled fit part, rows in order, at a fixed seed."""
    rows = _recorded_training_rows(
        learning_curve, sizes=[20, 40], repeats=2, cohort_size=10, seed=7
    )
    assert rows == [(56, "8f2972a0d9436802"), (78, "c962a30b9673c61b")]
