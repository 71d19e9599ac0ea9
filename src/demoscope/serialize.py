"""Versioned JSON persistence for every model family.

Each payload carries a schema tag ("nb/1", "axis/1", "iso/1",
"quant/1", "majority/1"). Floats are written with shortest round-trip
repr via plain JSON, so save -> load -> save is byte-identical and
loaded parameters equal the saved ones bit for bit.
"""

from __future__ import annotations

import json
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

    if payload is None:
        return None
    return IsotonicMap(
        breakpoints=np.array(payload["breakpoints"], dtype=np.float64),
        values=np.array(payload["values"], dtype=np.float64),
    )


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
    try:
        if schema == "nb/1":
            return NaiveBayesModel(
                k=int(payload["k"]),
                d=int(payload["d"]),
                log_prior=np.array(payload["log_prior"], dtype=np.float64),
                log_cond=np.array(payload["log_cond"], dtype=np.float64),
                activity=(
                    None
                    if payload["activity"] is None
                    else np.array(payload["activity"], dtype=np.float64)
                ),
                alpha1=float(payload["alpha1"]),
                alpha2=float(payload["alpha2"]),
                calibrator=_cal_from(payload["calibrator"]),
            )
        if schema == "axis/1":
            return AxisModel(
                attribute=payload["attribute"],
                communities=tuple(payload["communities"]),
                z=np.array(payload["z"], dtype=np.float64),
                pole_a=tuple(payload["pole_a"]),
                pole_b=tuple(payload["pole_b"]),
                threshold=float(payload["threshold"]),
                projection=payload["projection"],
                calibrator=_cal_from(payload["calibrator"]),
            )
        if schema == "iso/1":
            return _cal_from(payload)
        if schema == "quant/1":
            return QuantifierModel(
                classifier=from_payload(payload["classifier"]),
                mode=payload["mode"],
                tpr=payload["tpr"],
                fpr=payload["fpr"],
                validation_size=int(payload["validation_size"]),
            )
        if schema == "majority/1":
            return MajorityClassifier(
                majority=int(payload["majority"]), rate=float(payload["rate"])
            )
    except KeyError as e:
        raise DataError(f"model payload ({schema}) missing field {e.args[0]!r}") from e
    raise DataError(f"unknown model schema {schema!r}; supported: {', '.join(SCHEMAS)}")


def dumps(payload: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_model(model, path):
    Path(path).write_text(dumps(to_payload(model)), encoding="utf-8")


def load_model(path):
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON ({e.msg})") from e
    return from_payload(payload)
