"""Versioned JSON persistence for every model family.

Each payload carries a schema tag ("nb/1", "axis/1", "iso/1",
"quant/1", "majority/1"). Floats are written with shortest round-trip
repr via plain JSON, so save -> load -> save is byte-identical and
loaded parameters equal the saved ones bit for bit.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError

SCHEMAS = ("nb/1", "axis/1", "iso/1", "quant/1", "majority/1")


def _cal_payload(cal):
    if cal is None:
        return None
    return {
        "breakpoints": cal.breakpoints.tolist(),
        "values": cal.values.tolist(),
    }


def _cal_from(payload):
    from .calibrate import IsotonicMap

    if not isinstance(payload, dict):
        raise TypeError("expected a JSON object")
    field = partial(_field, payload, "iso/1")
    return IsotonicMap(breakpoints=field("breakpoints", _array), values=field("values", _array))


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r:.40}")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r:.40}")
    return float(value)


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a JSON list of strings")
    return tuple(value)


def _array(value) -> np.ndarray:
    array = np.array(value)  # a ragged nesting raises ValueError
    if array.dtype.kind not in "iuf":
        raise TypeError("expected a JSON array of numbers")
    return array.astype(np.float64)


def _field(payload: dict, schema: str, name: str, convert=lambda v: v, optional=False):
    """payload[name] through convert; a missing or wrongly typed field is
    a DataError naming the schema and the field."""
    if name not in payload:
        raise DataError(f"model payload ({schema}) missing field {name!r}")
    value = payload[name]
    if optional and value is None:
        return None
    try:
        return convert(value)
    except (TypeError, ValueError) as e:
        raise DataError(f"model payload ({schema}) field {name!r}: {e}") from None


def to_payload(model) -> dict:
    """Schema-tagged JSON-ready dict for any supported model object."""
    from .axis import AxisModel
    from .bayes import NaiveBayesModel
    from .calibrate import IsotonicMap
    from .classifiers import MajorityClassifier
    from .quantify import QuantifierModel

    if isinstance(model, NaiveBayesModel):
        return {
            "schema": "nb/1",
            "k": model.k,
            "d": model.d,
            "log_prior": model.log_prior.tolist(),
            "log_cond": model.log_cond.tolist(),
            "activity": None if model.activity is None else model.activity.tolist(),
            "alpha1": float(model.alpha1),
            "alpha2": float(model.alpha2),
            "calibrator": _cal_payload(model.calibrator),
        }
    if isinstance(model, AxisModel):
        return {
            "schema": "axis/1",
            "attribute": model.attribute,
            "communities": list(model.communities),
            "z": model.z.tolist(),
            "pole_a": list(model.pole_a),
            "pole_b": list(model.pole_b),
            "threshold": float(model.threshold),
            "projection": model.projection,
            "calibrator": _cal_payload(model.calibrator),
        }
    if isinstance(model, IsotonicMap):
        return {"schema": "iso/1", **_cal_payload(model)}
    if isinstance(model, QuantifierModel):
        return {
            "schema": "quant/1",
            "mode": model.mode,
            "tpr": model.tpr,
            "fpr": model.fpr,
            "validation_size": model.validation_size,
            "classifier": to_payload(model.classifier),
        }
    if isinstance(model, MajorityClassifier):
        return {"schema": "majority/1", "majority": model.majority, "rate": model.rate}
    raise DataError(f"cannot serialize object of type {type(model).__name__}")


def from_payload(payload: dict):
    """Rebuild a model object from a schema-tagged payload."""
    from .axis import AxisModel
    from .bayes import NaiveBayesModel
    from .classifiers import MajorityClassifier
    from .quantify import QuantifierModel

    if not isinstance(payload, dict) or "schema" not in payload:
        raise DataError("model payload lacks a schema tag")
    schema = payload["schema"]
    field = partial(_field, payload, schema)
    if schema == "nb/1":
        return NaiveBayesModel(
            k=field("k", _integer),
            d=field("d", _integer),
            log_prior=field("log_prior", _array),
            log_cond=field("log_cond", _array),
            activity=field("activity", _array, optional=True),
            alpha1=field("alpha1", _number),
            alpha2=field("alpha2", _number),
            calibrator=field("calibrator", _cal_from, optional=True),
        )
    if schema == "axis/1":
        return AxisModel(
            attribute=field("attribute"),
            communities=field("communities", _strings),
            z=field("z", _array),
            pole_a=field("pole_a", _strings),
            pole_b=field("pole_b", _strings),
            threshold=field("threshold", _number),
            projection=field("projection"),
            calibrator=field("calibrator", _cal_from, optional=True),
        )
    if schema == "iso/1":
        return _cal_from(payload)
    if schema == "quant/1":
        return QuantifierModel(
            classifier=field("classifier", from_payload),
            mode=field("mode"),
            tpr=field("tpr", _number, optional=True),
            fpr=field("fpr", _number, optional=True),
            validation_size=field("validation_size", _integer),
        )
    if schema == "majority/1":
        return MajorityClassifier(majority=field("majority", _integer), rate=field("rate", _number))
    raise DataError(f"unknown model schema {schema!r}; supported: {', '.join(SCHEMAS)}")


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


def load_model(path):
    try:
        return from_payload(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON ({e.msg})") from e
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
