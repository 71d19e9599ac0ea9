"""Versioned JSON persistence for every model family, and decode, the
typed reader of every JSON object that becomes a dataclass.

A model payload is a schema tag ("nb/1", "axis/1", "iso/1", "quant/1",
"majority/1") plus one key per field of the tag's class. Floats are
written with shortest round-trip repr via plain JSON, so save -> load ->
save is byte-identical and loaded parameters equal the saved ones bit for bit.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import DataError


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


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a JSON list of strings")
    return tuple(value)


def _array(value) -> np.ndarray:
    array = np.array(value)  # a ragged nesting raises ValueError
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
        float: (lambda v: float(_number(v)), float),
        str: (_string, str),
        bool: (_boolean, bool),
        tuple[str, ...]: (_strings, list),
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
    value or an unknown key is a DataError starting with where; what cls
    itself refuses, it raises."""
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
    return cls(**values)


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


# what a schema adds to its class's fields: nb/1 files also carry the
# class count "k", always 2, and axis/1 models score by cosine only
_SCHEMA_CHECKS = {"nb/1": {"k": _two_classes}, "axis/1": {"projection": _projection}}


def to_payload(model) -> dict:
    """Schema-tagged JSON-ready dict for any supported model object."""
    for schema, cls in schemas().items():
        if isinstance(model, cls):
            tags = {"schema": schema, "k": 2} if schema == "nb/1" else {"schema": schema}
            return tags | encode(model)
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
    checks = _SCHEMA_CHECKS.get(schema)
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


def text_lines(path):
    """Stream a UTF-8 file's lines with their endings; lines end at \\n,
    \\r\\n or \\r, as csv needs. The first line that is not UTF-8, or a
    leading byte-order mark, is a DataError naming the file. Every text
    input is read here."""
    bad_byte = re.compile("[\udc80-\udcff]")  # as errors="surrogateescape" decodes one
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                if bad_byte.search(line):
                    raise DataError(f"{path}: not UTF-8 text (line {lineno})")
                if lineno == 1 and line[0] == "\ufeff":
                    raise DataError(f"{path}: starts with a UTF-8 byte-order mark")
            yield line


def parse_file(path, parse):
    """parse(text) of a file read by text_lines; nesting too deep for the
    parser is a DataError naming the file, parse's own errors pass."""
    try:
        return parse("".join(text_lines(path)))
    except RecursionError as e:
        raise DataError(f"{path}: nested too deeply to parse") from e


def read_json(path):
    """The JSON value a file holds; malformed JSON, and the NaN, Infinity
    and -Infinity tokens or a number too large for a float, are a
    DataError naming the file. Every JSON input file is read through here."""

    def non_finite(token):
        raise DataError(f"{path}: invalid JSON (non-finite number {token})")

    def number(text):
        value = float(text)
        return value if math.isfinite(value) else non_finite(text)

    try:
        return parse_file(path, partial(json.loads, parse_constant=non_finite, parse_float=number))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON ({e.msg})") from e


def load_model(path):
    payload = read_json(path)
    try:
        return from_payload(payload)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
