"""Replicate loops run in chunks on several CPUs give what one serial loop
gives.

Forking is forced here by setting serialize.MIN_FORK_SECONDS to 0 and
faking the usable CPU count; real runs fork only when the replicates left
after the first, timed one would take tens of milliseconds here.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import demoscope
from demoscope import bayes, evaluate, serialize
from demoscope.classifiers import nb_factory
from demoscope.cli import main
from demoscope.errors import DataError, NumericError

from helpers import curve_auc


@pytest.fixture(params=[2, 3], ids=["2-cpus", "3-cpus"])
def in_workers(request, monkeypatch):
    """run(call): call() with every replicate loop after its replicate 0
    cut into one chunk per CPU, the later chunks in forked workers;
    returns the result and the chunk spans of each loop. run.cpus is the
    CPU count."""

    def run(call):
        spans = []
        real = serialize.fork_join
        with monkeypatch.context() as m:
            m.setattr(serialize, "fork_join", lambda *args: spans.append(args[1]) or real(*args))
            m.setattr(serialize, "MIN_FORK_SECONDS", 0)
            m.setattr(serialize, "MAX_RANGES", request.param)
            m.setattr(serialize, "usable_cpus", lambda: request.param)
            return call(), spans

    run.cpus = request.param
    return run


# two models, so each replicate's per-model results are joined across chunk edges
TWO_MODELS = {"nb-ln": nb_factory(use_log_normal=True), "nb-ss": nb_factory(semi_supervised=True)}


def test_bootstrap_in_workers_equals_one_loop(tilted, in_workers):
    boot = partial(evaluate.bootstrap_eval, TWO_MODELS, tilted[2], n_boot=6, seed=4)
    serial = boot()
    forked, spans = in_workers(boot)
    assert len(spans) == 1 and len(spans[0]) == in_workers.cpus
    assert list(forked) == list(serial) == list(TWO_MODELS)
    for name, report in serial.items():
        assert forked[name].metrics.keys() == report.metrics.keys()
        for metric, values in report.metrics.items():
            assert forked[name].metrics[metric].tobytes() == values.tobytes()
        assert forked[name].dropped_rows == report.dropped_rows
    # the models' replicates differ, so a swap of models would show
    aucs = [report.metrics["roc_auc"].tobytes() for report in serial.values()]
    assert aucs[0] != aucs[1]


def test_cv_roc_in_workers_equals_one_loop(tilted, in_workers):
    cv = partial(evaluate.cv_roc, TWO_MODELS, tilted[2], folds=4, seed=5)
    serial = cv()
    forked, spans = in_workers(cv)
    assert len(spans) == 1 and len(spans[0]) == in_workers.cpus
    assert list(forked) == list(serial) == list(TWO_MODELS)
    for name, curve in serial.items():
        assert forked[name].x.tobytes() == curve.x.tobytes()
        assert forked[name].y.tobytes() == curve.y.tobytes()
    assert curve_auc(serial["nb-ln"]) != curve_auc(serial["nb-ss"])


def test_log_odds_dispersion_in_workers_equals_one_loop(tilted, in_workers):
    dispersion = partial(bayes.feature_log_odds_dispersion, tilted[2], n_boot=5, seed=6)
    serial = dispersion()
    forked, spans = in_workers(dispersion)
    assert len(spans) == 1 and len(spans[0]) == in_workers.cpus
    assert [a.tobytes() for a in forked] == [a.tobytes() for a in serial]


@pytest.mark.parametrize("error", [DataError, NumericError])
def test_first_error_in_replicate_order_is_raised(in_workers, error):
    """Replicates 3 and 5 fail; 3 falls in a worker's chunk."""

    def one(r):
        if r in (3, 5):
            raise error(f"replicate {r} failed")
        return r

    with pytest.raises(error, match="^replicate 3 failed$"):
        in_workers(lambda: serialize.in_chunks(one, 6, "replicates"))


def test_first_failing_bootstrap_replicate_is_the_error_raised(tilted, in_workers):
    """Every replicate from 3 on fails, all of them in forked workers'
    chunks: the error is replicate 3's, as one loop raises it."""
    corpus = tilted[2]
    fit, seen = nb_factory(), []

    def key(train):
        return hashlib.sha256("\n".join(train.user_ids).encode()).hexdigest()

    evaluate.bootstrap_eval({"nb": lambda train: seen.append(key(train)) or fit(train)}, corpus,
                            n_boot=6)

    def failing(train):
        b = seen.index(key(train))
        if b >= 3:
            raise DataError(f"replicate {b} cannot fit")
        return fit(train)

    with pytest.raises(DataError, match="^replicate 3 cannot fit$"):
        in_workers(lambda: evaluate.bootstrap_eval({"nb": failing}, corpus, n_boot=6))


def test_a_killed_worker_exits_two(demo_files, tmp_path, capsys, monkeypatch, in_workers):
    parent, real = os.getpid(), evaluate.scored_sample

    def scored_sample(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(evaluate, "scored_sample", scored_sample)
    d, out = demo_files["dir"], tmp_path / "out"
    argv = ["evaluate", "--corpus", str(d / "corpus.jsonl"), "--vocabulary",
            str(d / "vocab.txt"), "--n-boot", "4", "--out-dir", str(out)]
    code, spans = in_workers(lambda: main(argv))
    assert code == 2
    start, end = spans[0][1]
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"demoscope: data error: the worker running bootstrap replicates {start}-{end} "
        "ended with exit code -9 and no result"
    ]
    assert not (out / "metrics.json").exists()


def test_a_cheap_loop_runs_here_and_a_costly_one_forks(monkeypatch):
    """Replicate 0 runs here and is timed; the rest fork only when they
    would take MIN_FORK_SECONDS here at its pace, and then this process
    goes on from replicate 1."""
    monkeypatch.setattr(serialize, "usable_cpus", lambda: 2)
    real, spans = serialize.fork_join, []
    monkeypatch.setattr(serialize, "fork_join", lambda *args: spans.append(args[1]) or real(*args))
    here = []

    def cheap(r):
        here.append(r)
        return os.getpid()

    assert serialize.in_chunks(cheap, 3, "replicates") == [os.getpid()] * 3
    assert spans == [] and here == [0, 1, 2]

    def costly(r):
        if r == 0:  # five replicates at this pace take 1.25 MIN_FORK_SECONDS
            time.sleep(serialize.MIN_FORK_SECONDS / 4)
        return cheap(r)

    here.clear()
    pids = serialize.in_chunks(costly, 6, "replicates")
    assert spans == [[(1, 3), (3, 6)]] and here == [0, 1, 2]
    assert pids[:3] == [os.getpid()] * 3 and os.getpid() not in pids[3:]


def test_a_worker_chunk_that_fails_reruns_the_loop_here(in_workers):
    """A chunk that fails only in a worker: the loop runs again in this
    process and gives its results."""
    parent = os.getpid()

    def one(r):
        if os.getpid() != parent:
            raise NumericError("worker")
        return r

    assert in_workers(lambda: serialize.in_chunks(one, 6, "replicates"))[0] == list(range(6))


def test_bootstrap_rerun_after_a_failed_worker_equals_one_loop(tilted, in_workers):
    """Replicates that already ran here run again with the same splits."""
    corpus, parent, fit = tilted[2], os.getpid(), nb_factory()
    serial = evaluate.bootstrap_eval({"nb": fit}, corpus, n_boot=6, seed=8)["nb"]

    def here_only(train):
        if os.getpid() != parent:
            raise DataError("not in a worker")
        return fit(train)

    rerun, spans = in_workers(
        lambda: evaluate.bootstrap_eval({"nb": here_only}, corpus, n_boot=6, seed=8)["nb"])
    assert len(spans) == 1
    assert rerun.metrics["roc_auc"].tobytes() == serial.metrics["roc_auc"].tobytes()
    assert rerun.metrics["f1"].tobytes() == serial.metrics["f1"].tobytes()


# run by a fresh interpreter, where nothing has loaded scipy.special yet:
# main with each replicate loop reporting, as it starts, whether it has
LOOP_START = """
import sys
from demoscope import cli, evaluate
real = evaluate.in_chunks
def in_chunks(one, n, what):
    print(what, "scipy.special" in sys.modules)
    return real(one, n, what)
evaluate.in_chunks = in_chunks
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_log_normal_loop_starts_with_its_import_done(demo_files, tmp_path):
    """in_chunks times replicate 0 to decide whether the rest fork, so
    replicate 0 must not pay a one-time import: the log-normal activity
    term's scipy.special (45-70 ms) made a 3-replicate nb-ln evaluate,
    about 12 ms a replicate, fork. The nb-ln factory loads it first."""
    d = demo_files["dir"]
    argv = ["evaluate", "--model", "nb-ln", "--n-boot", "3", "--corpus", str(d / "corpus.jsonl"),
            "--vocabulary", str(d / "vocab.txt"), "--out-dir", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(demoscope.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", LOOP_START, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "bootstrap replicates True"
