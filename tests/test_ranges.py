"""Inputs read in byte ranges on several CPUs give what one pass gives.

Splitting is forced here by shrinking serialize.MIN_RANGE_BYTES and
faking the usable CPU count; real runs split only files of a megabyte
or more.
"""

import atexit
import json
import os
import signal
import tempfile
import threading
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoscope import data as data_module
from demoscope import serialize
from demoscope.cli import main
from demoscope.data import MAX_COUNT, CommunityVocabulary, load_corpus
from demoscope.errors import DataError

_NAMES = ("a", "b", "c")


@pytest.fixture
def ranges(monkeypatch):
    """Force up to three ranges per file; returns the range lists cut."""
    cut = []
    real = serialize.line_ranges

    def spy(path, parts):
        cut.append(real(path, parts))
        return cut[-1]

    monkeypatch.setattr(serialize, "line_ranges", spy)
    monkeypatch.setattr(serialize, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(serialize, "MAX_RANGES", 3)
    monkeypatch.setattr(serialize, "usable_cpus", lambda: 3)
    return cut


def _load(path, cpus, monkeypatch):
    """load_corpus with cpus usable CPUs: (X arrays, user ids, labels,
    report, warnings), or the DataError message."""
    monkeypatch.setattr(serialize, "usable_cpus", lambda: cpus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            corpus, report = load_corpus(path, CommunityVocabulary(_NAMES))
        except DataError as e:
            return str(e)
    X = corpus.X
    return (
        (X.data.tobytes(), X.indices.tobytes(), X.indptr.tobytes(), X.shape),
        corpus.user_ids.tolist(),
        corpus.labels.tolist(),
        asdict(report),
        [str(w.message) for w in caught],
    )


@st.composite
def _corpus_bytes(draw):
    """A jsonl corpus and the offsets, each just after a \\n byte, where
    it is cut. Users come from a pool of six, so one often recurs across
    a cut, or of a thousand, so most are unique. Lines hold known and
    unknown communities, labels that may conflict and counts that
    overflow once merged; blank lines and \\n, \\r\\n or \\r endings."""
    pairs = st.dictionaries(
        st.sampled_from(_NAMES + ("zz",)), st.sampled_from([1, 2, 5, 2**30]), max_size=3
    )
    label = st.sampled_from([None, None, -1, 0, 1])
    users = st.integers(0, draw(st.sampled_from([5, 999]))).map("u{}".format)
    line = st.tuples(users, pairs, label)
    lines = draw(st.lists(st.one_of(line, st.just(None)), min_size=2, max_size=14))
    text = ""
    for k, item in enumerate(lines):
        if item is not None:
            user, counts, y = item
            rec = {"user": user, "counts": counts} | ({} if y is None else {"label": y})
            text += json.dumps(rec)
        text += "\n" if k == 0 else draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    data = text.encode()
    newlines = [i + 1 for i in range(len(data) - 1) if data[i] == ord("\n")]
    cuts = draw(st.lists(st.sampled_from(newlines), min_size=1, max_size=2, unique=True))
    return data, sorted(cuts)


@given(corpus=_corpus_bytes())
@settings(max_examples=60, deadline=None)
def test_corpus_in_ranges_equals_one_pass(corpus):
    """Equal to one pass, and the ranges are joined without reading the
    whole file again: by a load that succeeds, and by one that fails on
    a label conflict or a merged overflow, which is found after the join."""
    data, cuts = corpus
    spans = list(zip([0, *cuts], [*cuts, len(data)]))
    with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(data)
        serial = _load(path, 1, monkeypatch)
        cut, read_here = [], []
        real_read = data_module._read_jsonl

        def read(*args):
            read_here.append(args[2:])
            return real_read(*args)

        monkeypatch.setattr(serialize, "line_ranges", lambda *_: cut.append(spans) or spans)
        monkeypatch.setattr(data_module, "_read_jsonl", read)
        monkeypatch.setattr(serialize, "MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(serialize, "MAX_RANGES", 3)
        assert _load(path, 3, monkeypatch) == serial
        assert cut == [spans] and len(spans) > 1
        if isinstance(serial, str):  # these lines parse, so only a merge can fail
            assert "conflicting labels" in serial or "merged count" in serial
        assert read_here == [spans[0]]


def _good_lines(n: int) -> list[bytes]:
    return [json.dumps({"user": f"u{i}", "counts": {"a": 1 + i % 3}, "label": i % 2}).encode()
            for i in range(n)]


_OVERFLOW = [json.dumps({"user": "x", "counts": {"a": MAX_COUNT - 1}}).encode(),
             json.dumps({"user": "x", "counts": {"a": 2}}).encode()]

# lines that end a file of 31 good lines, and what the error says
_LAST_RANGE_FAULTS = {
    "invalid-utf8": ([b'{"user": "x\xff", "counts": {"a": 1}}'], ": not UTF-8 text (line 32)"),
    "invalid-json": ([b'{"user": "x", "counts": {'], ":32: invalid JSON"),
    "conflicting-labels": (
        [b'{"user": "x", "counts": {"a": 1}, "label": 0}',
         b'{"user": "x", "counts": {"b": 1}, "label": 1}'],
        ":33: user 'x' has conflicting labels 0 and 1",
    ),
    "conflicting-labels-across-a-cut": (
        [b'{"user": "u0", "counts": {"b": 1}, "label": 1}'],
        ":32: user 'u0' has conflicting labels 0 and 1",
    ),
    "merged-overflow": (_OVERFLOW, f":33: merged count for user 'x' exceeds {MAX_COUNT}"),
    "merged-overflow-before-invalid-json": (
        [*_OVERFLOW, b"not json"], f":33: merged count for user 'x' exceeds {MAX_COUNT}"
    ),
}


@pytest.mark.parametrize("fault", list(_LAST_RANGE_FAULTS))
def test_error_in_the_last_range_is_the_one_pass_error(tmp_path, ranges, monkeypatch, fault):
    """The first error in file order, with its line counted from the top
    of the file, as one pass reports it."""
    extra, message = _LAST_RANGE_FAULTS[fault]
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join(_good_lines(31) + extra) + b"\n")
    serial = _load(path, 1, monkeypatch)
    assert _load(path, 3, monkeypatch) == serial
    assert serial == f"{path}{message}" or serial.startswith(f"{path}{message} (")
    assert len(ranges[-1]) == 3
    assert ranges[-1][-1][0] < path.read_bytes().index(extra[0])  # the fault is in range 3


def test_extract_in_ranges_writes_the_one_pass_files(demo_files, tmp_path, ranges, monkeypatch):
    comments = demo_files["dir"] / "comments.jsonl"
    outputs = {}
    for cpus in (1, 3):
        monkeypatch.setattr(serialize, "usable_cpus", lambda c=cpus: c)
        out = tmp_path / f"cpus{cpus}"
        argv = ["extract", "--comments", str(comments), "--botlist",
                str(demo_files["dir"] / "botlist.txt"), "--out-dir", str(out)]
        assert main(argv) == 0
        names = ("declarations.jsonl", "labels.csv", "extract_report.json")
        outputs[cpus] = {name: (out / name).read_bytes() for name in names}
    assert outputs[3] == outputs[1]
    assert len(ranges[-1]) == 3


def test_ranges_cut_after_newlines_and_cover_the_file(tmp_path):
    path = tmp_path / "t.txt"
    data = b"ab\r\n" + b"x" * 200_000 + b"\n\xc3\xa9\rz\n\n" + b"tail"
    path.write_bytes(data)
    for parts in range(1, 8):
        cut = serialize.line_ranges(path, parts)
        assert cut[0][0] == 0 and cut[-1][1] == len(data) and len(cut) <= parts
        assert all(a < b for a, b in cut)
        assert all(prev[1] == nxt[0] and data[nxt[0] - 1] == ord("\n")
                   for prev, nxt in zip(cut, cut[1:]))
    no_newline = tmp_path / "one.txt"
    no_newline.write_bytes(b"x" * 1000)
    assert serialize.line_ranges(no_newline, 4) == [(0, 1000)]


def test_byte_order_mark_is_refused_only_at_the_start(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xef\xbb\xbfa\n\xef\xbb\xbfb\n")
    assert list(serialize.text_lines(path, 5, 10)) == ["\ufeffb\n"]
    with pytest.raises(DataError, match="byte-order mark"):
        list(serialize.text_lines(path, 0, 5))


def test_a_worker_runs_no_finally_block_or_exit_handler_of_the_parent(tmp_path, ranges):
    path = tmp_path / "t.txt"
    path.write_text("".join(f"line {i}\n" for i in range(30)))
    log = tmp_path / "ran.log"

    def mark():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")

    atexit.register(mark)
    try:
        pids = serialize.in_ranges(path, lambda start, end: os.getpid())
    finally:
        atexit.unregister(mark)
        mark()
    assert len(set(pids)) == 3 and pids[0] == os.getpid()
    assert log.read_text() == f"{os.getpid()}\n"


def test_a_worker_that_dies_is_an_error(tmp_path, ranges):
    path = tmp_path / "t.txt"
    path.write_text("".join(f"line {i}\n" for i in range(30)))
    parent = os.getpid()

    def work(start, end):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return start

    with pytest.raises(ChildProcessError, match=r"t\.txt: the worker reading bytes \d+-\d+ ended"):
        serialize.in_ranges(path, work)


def test_one_usable_cpu_reads_one_range_in_this_process(tmp_path, monkeypatch):
    path = tmp_path / "t.txt"
    path.write_text("".join(f"line {i}\n" for i in range(30)))
    monkeypatch.setattr(serialize, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert serialize.usable_cpus() == 1
    whole_file_here = [(os.getpid(), (0, None))]
    assert serialize.in_ranges(path, lambda *span: (os.getpid(), span)) == whole_file_here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert serialize.usable_cpus() == 3


def test_a_process_running_other_threads_reads_one_range(tmp_path, ranges):
    path = tmp_path / "t.txt"
    path.write_text("".join(f"line {i}\n" for i in range(30)))
    release = threading.Event()
    other = threading.Thread(target=release.wait, daemon=True)
    other.start()
    try:
        spans = serialize.in_ranges(path, lambda *span: (os.getpid(), span))
    finally:
        release.set()
        other.join(timeout=10)
    assert spans == [(os.getpid(), (0, None))] and not other.is_alive()


def test_no_more_than_max_ranges_however_many_cpus(tmp_path, monkeypatch):
    path = tmp_path / "t.txt"
    path.write_text("".join(f"line {i}\n" for i in range(30)))
    monkeypatch.setattr(serialize, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(serialize, "usable_cpus", lambda: 64)
    spans = serialize.in_ranges(path, lambda *span: span)
    assert len(spans) == serialize.MAX_RANGES == 2
