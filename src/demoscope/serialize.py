"""Versioned JSON persistence for every model family, and decode, the
typed reader of every JSON object that becomes a dataclass.

A model payload is a schema tag ("nb/1", "axis/1", "iso/1", "quant/1",
"majority/1"), its fixed tags and one key per field of the tag's class.
Floats are written with shortest round-trip repr via plain JSON, so save ->
load -> save is byte-identical and loaded parameters equal the saved ones bit for bit.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import threading
import time
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import DataError, NumericError


def schemas() -> dict[str, type]:
    """Schema tag -> the model class a payload with that tag holds."""
    # imported here because every model module imports this one
    from .axis import AxisModel
    from .bayes import NaiveBayesModel
    from .calibrate import IsotonicMap
    from .classifiers import MajorityClassifier
    from .quantify import QuantifierModel

    return {
        "nb/1": NaiveBayesModel,
        "axis/1": AxisModel,
        "iso/1": IsotonicMap,
        "quant/1": QuantifierModel,
        "majority/1": MajorityClassifier,
    }


def _json(kind, name: str):
    """A converter that passes only a JSON value of Python type kind;
    true and false count as bools, never as ints."""

    def convert(value):
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise TypeError(f"expected a JSON {name}, got {value!r:.40}")
        return value

    return convert


_integer, _string, _boolean = _json(int, "integer"), _json(str, "string"), _json(bool, "boolean")
_number = _json((int, float), "number")


def _float(value) -> float:
    """A JSON number as a float; an integer too large for one is a ValueError."""
    try:
        return float(_number(value))
    except OverflowError:
        raise ValueError("number too large for a float") from None


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a JSON list of strings")
    return tuple(value)


def _floats(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError("expected a JSON list of numbers")
    return tuple(map(_float, value))


def _array(value) -> np.ndarray:
    try:
        array = np.array(value)
    except ValueError:  # a ragged nesting; numpy's own message runs to three sentences
        raise TypeError("expected a rectangular JSON array of numbers") from None
    if array.dtype.kind not in "iuf":
        raise TypeError("expected a JSON array of numbers")
    return array.astype(np.float64)


def _classifier(value):
    """A quantifier's classifier: a tagged payload of a scoring model."""
    from .classifiers import ScoringClassifier

    model = from_payload(value)
    if not isinstance(model, ScoringClassifier):
        raise TypeError(f"expected a classifier payload, got {value['schema']!r}")
    return model


def _codec(annotation):
    """(decode, encode) for a field annotated `annotation`: decode checks a
    JSON value and converts it, encode gives the JSON value of the field."""
    from .calibrate import IsotonicMap
    from .classifiers import ScoringClassifier

    if get_origin(annotation) is UnionType:  # X | None
        (inner,) = set(get_args(annotation)) - {NoneType}
        dec, enc = _codec(inner)
        return (lambda v: None if v is None else dec(v)), (lambda v: None if v is None else enc(v))
    return {
        int: (_integer, int),
        float: (_float, float),
        str: (_string, str),
        bool: (_boolean, bool),
        tuple[str, ...]: (_strings, list),
        tuple[float, ...]: (_floats, list),
        list[str]: (lambda v: list(_strings(v)), list),
        np.ndarray: (_array, np.ndarray.tolist),
        # a nested calibrator is written untagged, a nested classifier tagged
        IsotonicMap: (partial(decode, IsotonicMap, where="model payload (iso/1)"), encode),
        ScoringClassifier: (_classifier, to_payload),
    }[annotation]


def decode(cls, obj, where: str, checks=None, defaults: bool = True):
    """An instance of dataclass cls from the JSON object obj: one key per
    field, each value checked against the field's annotation, in field
    order. checks maps a key to a check of its raw value, run first; a
    checked key that names no field is dropped. With defaults, a field
    that has a default may be left out. A missing field, a wrongly typed
    value, an unknown key, and a DataError or NumericError that cls
    raises for the values, are a DataError starting with where."""
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected a JSON object")
    checks, hints = checks or {}, get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    optional = {
        f.name for f in fields(cls) if f.default is not MISSING or f.default_factory is not MISSING
    }
    values = {}
    for name in [*(key for key in checks if key not in names), *names]:
        if name not in obj:
            if defaults and name in optional:
                continue
            raise DataError(f"{where} missing field {name!r}")
        try:
            if name in checks:
                checks[name](obj[name])
            if name in names:
                values[name] = _codec(hints[name])[0](obj[name])
        except (TypeError, ValueError) as e:
            raise DataError(f"{where} field {name!r}: {e}") from None
    unknown = [key for key in obj if key not in names and key not in checks]
    if unknown:
        raise DataError(f"{where} unknown field {unknown[0]!r}")
    try:
        return cls(**values)
    except (DataError, NumericError) as e:
        raise DataError(f"{where}: {e}") from e


def encode(obj) -> dict:
    """The JSON object of a dataclass: one key per field, written by the
    field's annotation."""
    hints = get_type_hints(type(obj))
    return {f.name: _codec(hints[f.name])[1](getattr(obj, f.name)) for f in fields(obj)}


def _two_classes(value):
    if _integer(value) != 2:
        raise ValueError(f"naive Bayes models have 2 classes, got {value}")


def _projection(value):
    if value != "cosine":
        raise ValueError(f"axis models score by cosine projection only, got {value!r:.40}")


def _zero_threshold(value):
    if _float(value) != 0.0:
        raise ValueError(f"axis models decide at a score of 0 only, got {value!r:.40}")


# what a schema writes beside its class's fields: fixed values, each with
# the check that reads it back. nb/1 files carry the class count "k",
# always 2, and axis/1 files the projection, always cosine, and the
# decision threshold, always 0
_SCHEMA_TAGS = {
    "nb/1": {"k": (2, _two_classes)},
    "axis/1": {"projection": ("cosine", _projection), "threshold": (0.0, _zero_threshold)},
}


def to_payload(model) -> dict:
    """Schema-tagged JSON-ready dict for any supported model object."""
    for schema, cls in schemas().items():
        if isinstance(model, cls):
            tags = {key: value for key, (value, _) in _SCHEMA_TAGS.get(schema, {}).items()}
            return {"schema": schema} | tags | encode(model)
    raise DataError(f"cannot serialize object of type {type(model).__name__}")


def from_payload(payload: dict):
    """Rebuild a model object from a schema-tagged payload; the payload
    must name every field of its class."""
    if not isinstance(payload, dict) or "schema" not in payload:
        raise DataError("model payload lacks a schema tag")
    body = dict(payload)
    schema = body.pop("schema")
    table = schemas()
    if not isinstance(schema, str) or schema not in table:
        raise DataError(f"unknown model schema {schema!r}; supported: {', '.join(table)}")
    checks = {key: check for key, (_, check) in _SCHEMA_TAGS.get(schema, {}).items()}
    return decode(table[schema], body, f"model payload ({schema})", checks, defaults=False)


def _numpy_scalar(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


def dumps(payload: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one trailing
    newline; numpy scalars are written as the Python numbers they hold."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=_numpy_scalar)
    return text + "\n"


def save_model(model, path):
    Path(path).write_text(dumps(to_payload(model)), encoding="utf-8")


def text_lines(path, start: int = 0, end: int | None = None):
    """Stream a UTF-8 file's lines with their endings; lines end at \\n,
    \\r\\n or \\r, as csv needs. The first line that is not UTF-8, or a
    leading byte-order mark, is a DataError naming the file. Every text
    input is read here.

    With start and end, only the lines of that byte range, as cut by
    line_ranges; line numbers in errors then count from start."""
    bad_byte = re.compile("[\udc80-\udcff]")  # as errors="surrogateescape" decodes one
    with open(path, "rb") as raw:
        raw.seek(start)
        data = raw if end is None else io.BufferedReader(_ByteRange(raw, end))
        fh = io.TextIOWrapper(data, encoding="utf-8", errors="surrogateescape", newline="")
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                if bad_byte.search(line):
                    raise DataError(f"{path}: not UTF-8 text (line {lineno})")
                if lineno == 1 and start == 0 and line[0] == "\ufeff":
                    raise DataError(f"{path}: starts with a UTF-8 byte-order mark")
            yield line


# bytes file_digest reads at a time; reads of 1 MiB raised the peak RSS of
# each demo-scale command by about 0.7 MB, reads of 64 KiB do not
HASH_CHUNK = 1 << 16


def file_digest(path) -> dict:
    """A manifest's record of a file: its path, sha256 and size. The file
    is read in chunks, so a large input is not held in memory twice."""
    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK):
            digest.update(chunk)
            size += len(chunk)
    return {"path": str(path), "sha256": digest.hexdigest(), "bytes": size}


class _ByteRange(io.RawIOBase):
    """A binary file, read from where it stands up to byte end."""

    def __init__(self, fh, end: int):
        self.fh, self.left = fh, end - fh.tell()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.fh.readinto(memoryview(buffer)[: self.left])
        self.left -= n
        return n


# A range holds at least this many bytes: below it, a worker costs more
# than it saves. In a fresh process on two cores, two ranges of a jsonl
# corpus overtake one at about 0.36 MiB each (comments files sooner);
# rounded up to a power of two.
MIN_RANGE_BYTES = 1 << 19

# Replicate loops fork only when the replicates after the first would take
# this long here at its pace. On two cores, loops of 17-31 ms of serial work
# ran 5-10 ms slower forked, 40-45 ms broke even and from 65 ms gained.
MIN_FORK_SECONDS = 0.05

# At most this many parts, however many CPUs there are: the gain was
# measured on two cores only, and a CPU quota the affinity mask does not
# show could leave more workers fighting for one or two cores while the
# parent joins their results one after another.
MAX_RANGES = 2


def usable_cpus() -> int:
    """CPUs this process may run on, as its affinity mask (taskset) says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def line_ranges(path, parts: int) -> list[tuple[int, int]]:
    """At most parts (start, end) byte ranges of about equal size that
    cover the file in order. Each cut falls just after a \\n byte, so it
    splits no line, no \\r\\n pair and no UTF-8 sequence."""
    size = os.path.getsize(path)
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, parts):
            pos = max(size * i // parts, cuts[-1])
            fh.seek(pos)
            while chunk := fh.read(1 << 16):
                newline = chunk.find(b"\n")
                if newline >= 0:
                    cuts.append(pos + newline + 1)
                    break
                pos += len(chunk)
    if cuts[-1] < size:
        cuts.append(size)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _parts(wanted: int) -> int:
    """How many of wanted parts may run at once: one per usable CPU, at
    most MAX_RANGES. Only 1 without fork, or while another thread runs,
    since fork copies only the calling thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(wanted, usable_cpus(), MAX_RANGES)


def fork_join(work, spans, what: str) -> list | None:
    """[work(start, end) for (start, end) in spans], in order. The first
    span runs in this process, each later one in a forked worker; None
    when a span raised a DataError or NumericError, and the caller then
    makes one serial pass, so the error it raises is the first in order.

    Workers are forked, never spawned: a spawned worker imports the
    package again, about 0.5 s. A worker that dies is a ChildProcessError
    naming what and its span.
    """
    import multiprocessing  # here, off every command's start-up path

    context = multiprocessing.get_context("fork")
    first, *rest = spans
    workers, failed = [], False
    try:
        for start, end in rest:
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_worker, args=(work, start, end, send))
            worker.start()
            send.close()  # so recv meets the end of the pipe if the worker dies
            workers.append((worker, receive, start, end))
        try:
            results = [work(*first)]
        except (DataError, NumericError):
            failed = True
        for worker, receive, start, end in workers:
            if failed:
                break
            try:
                failed, result = receive.recv()
            except EOFError:
                worker.join()
                raise ChildProcessError(
                    f"{what} {start}-{end} ended with exit code {worker.exitcode} and no result"
                ) from None
            results.append(result)
    finally:
        for worker, receive, *_ in workers:
            receive.close()
            worker.kill()
            worker.join()
    return None if failed else results


def _worker(work, start: int, end: int, send):
    """A forked worker's body: sends (failed, result) for one span.
    multiprocessing then leaves the process by os._exit, so none of the
    parent's exit handlers or finally blocks run here."""
    try:
        send.send((False, work(start, end)))
    except (DataError, NumericError):
        send.send((True, None))


def in_ranges(path, work) -> list:
    """[work(start, end) for each range of line_ranges(path)], in file
    order, run by fork_join.

    There is one range per usable CPU, at most MAX_RANGES and each at
    least MIN_RANGE_BYTES. A single range is work(0, None), the whole
    file read in this process; so is every run where a range raises a
    DataError, which makes the error the one a single pass meets first,
    with its line number.
    """
    parts = _parts(os.path.getsize(path) // MIN_RANGE_BYTES)
    if parts < 2:
        return [work(0, None)]
    results = fork_join(work, line_ranges(path, parts), f"{path}: the worker reading bytes")
    return [work(0, None)] if results is None else results


def in_chunks(one, n: int, what: str) -> list:
    """[one(r) for r in range(n)], the results of n >= 1 replicates in
    order. one(r) must depend only on r, as when it seeds replicate r by r.

    Replicate 0 runs here, timed. If the other n - 1 would take
    MIN_FORK_SECONDS here at its pace, they are cut into contiguous chunks,
    one per usable CPU, run by fork_join and joined in order; if a chunk
    fails they run again here, so the error raised is the first in order.
    """

    def work(lo: int, hi: int) -> list:
        return [one(r) for r in range(lo, hi)]

    start = time.perf_counter()
    first = [one(0)]
    parts = _parts(n - 1) if (n - 1) * (time.perf_counter() - start) >= MIN_FORK_SECONDS else 1
    if parts < 2:
        return first + work(1, n)
    # cut 0..n at ceilings; this process's chunk, first and larger, resumes at 1
    cuts = [1, *(-(-n * i // parts) for i in range(1, parts + 1))]
    results = fork_join(work, list(zip(cuts, cuts[1:])), f"the worker running {what}")
    return first + (work(1, n) if results is None else [r for chunk in results for r in chunk])


def parse_file(path, parse):
    """parse(text) of a file read by text_lines; nesting too deep for the
    parser is a DataError naming the file, parse's own errors pass."""
    try:
        return parse("".join(text_lines(path)))
    except RecursionError as e:
        raise DataError(f"{path}: nested too deeply to parse") from e


def unconverted(e: ValueError) -> str:
    """Why a parser could not convert a value, in one clause: an integer
    past Python's int-string limit (4,300 digits by default), the one
    such error of json.loads, or a YAML date that does not exist. The
    limit's message ends in a remedy for programs, not input files."""
    return str(e).partition(";")[0]


def read_json(path):
    """The JSON value a file holds; malformed JSON, the NaN, Infinity
    and -Infinity tokens, a number too large for a float and an integer
    past the int-string limit are a DataError naming the file. Every
    JSON input file is read through here."""

    def non_finite(token):
        raise DataError(f"{path}: invalid JSON (non-finite number {token})")

    def number(text):
        value = float(text)
        return value if math.isfinite(value) else non_finite(text)

    try:
        return parse_file(path, partial(json.loads, parse_constant=non_finite, parse_float=number))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON ({e.msg})") from e
    except ValueError as e:  # an integer past the int-string limit
        raise DataError(f"{path}: invalid JSON ({unconverted(e)})") from None


def load_model(path):
    payload = read_json(path)
    try:
        return from_payload(payload)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
