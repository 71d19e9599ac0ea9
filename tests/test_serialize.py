"""Model persistence: schema-tagged JSON with bit-exact round-trips."""

import ast
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import demoscope
from demoscope.axis import AxisModel
from demoscope.bayes import NaiveBayesModel, fit
from demoscope.calibrate import IsotonicMap
from demoscope.classifiers import MajorityClassifier
from demoscope.errors import DataError
from demoscope.quantify import QuantifierModel
from demoscope.serialize import (
    HASH_CHUNK,
    dumps,
    file_digest,
    from_payload,
    load_model,
    save_model,
    schemas,
    text_lines,
    to_payload,
)
from helpers import corpus_from_dense


def _nb_model(use_log_normal=True, calibrator=None):
    X = np.array([[3, 1, 0], [2, 2, 1], [0, 1, 4], [1, 0, 5]])
    corpus = corpus_from_dense(X, [0, 0, 1, 1])
    model, _ = fit(corpus, use_log_normal=use_log_normal)
    if calibrator is not None:
        model.calibrator = calibrator
    return model


def _iso_map():
    return IsotonicMap(
        breakpoints=np.array([0.2, 0.8]), values=np.array([0.1, 0.9])
    )


def _axis_model(calibrator=None):
    return AxisModel(
        attribute="gender",
        communities=("c_a", "c_b", "c_c"),
        z=np.array([1.25, -0.5, -0.75]),
        pole_a=("c_a",),
        pole_b=("c_c",),
        calibrator=calibrator,
    )


class TestRoundTrips:
    def test_nb_model_bit_exact(self, tmp_path):
        model = _nb_model(calibrator=_iso_map())
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.d == model.d
        assert np.array_equal(loaded.log_prior, model.log_prior)
        assert np.array_equal(loaded.log_cond, model.log_cond)
        assert np.array_equal(loaded.activity, model.activity)
        assert loaded.alpha1 == model.alpha1
        assert loaded.alpha2 == model.alpha2
        assert np.array_equal(loaded.calibrator.breakpoints, model.calibrator.breakpoints)
        assert np.array_equal(loaded.calibrator.values, model.calibrator.values)

    def test_nb_model_without_activity_or_calibrator(self, tmp_path):
        model = _nb_model(use_log_normal=False)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.activity is None
        assert loaded.calibrator is None

    def test_axis_model(self, tmp_path):
        model = _axis_model(calibrator=_iso_map())
        path = tmp_path / "axis.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.attribute == "gender"
        assert loaded.communities == model.communities
        assert np.array_equal(loaded.z, model.z)
        assert loaded.pole_a == ("c_a",) and loaded.pole_b == ("c_c",)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["projection"] == "cosine" and payload["threshold"] == 0.0
        assert np.array_equal(loaded.calibrator.breakpoints, [0.2, 0.8])

    def test_isotonic_map(self, tmp_path):
        path = tmp_path / "iso.json"
        save_model(_iso_map(), path)
        loaded = load_model(path)
        assert isinstance(loaded, IsotonicMap)
        assert np.array_equal(loaded.breakpoints, [0.2, 0.8])
        assert np.array_equal(loaded.values, [0.1, 0.9])

    def test_quantifier_with_nb_classifier(self, tmp_path):
        q = QuantifierModel(
            classifier=_nb_model(),
            mode="acc",
            tpr=0.85,
            fpr=0.15,
            validation_size=40,
        )
        path = tmp_path / "quant.json"
        save_model(q, path)
        loaded = load_model(path)
        assert isinstance(loaded, QuantifierModel)
        assert isinstance(loaded.classifier, NaiveBayesModel)
        assert (loaded.mode, loaded.tpr, loaded.fpr) == ("acc", 0.85, 0.15)
        assert loaded.validation_size == 40
        assert np.array_equal(loaded.classifier.log_cond, q.classifier.log_cond)

    def test_quantifier_with_majority_classifier(self, tmp_path):
        q = QuantifierModel(
            classifier=MajorityClassifier(majority=0, rate=0.3),
            mode="cc",
            tpr=None,
            fpr=None,
            validation_size=0,
        )
        path = tmp_path / "quant.json"
        save_model(q, path)
        loaded = load_model(path)
        assert isinstance(loaded.classifier, MajorityClassifier)
        assert loaded.classifier.majority == 0
        assert loaded.classifier.rate == 0.3
        assert loaded.tpr is None and loaded.fpr is None

    def test_save_load_save_is_byte_identical(self, tmp_path):
        for name, model in (
            ("nb", _nb_model(calibrator=_iso_map())),
            ("axis", _axis_model()),
            ("iso", _iso_map()),
        ):
            p1 = tmp_path / f"{name}1.json"
            p2 = tmp_path / f"{name}2.json"
            save_model(model, p1)
            save_model(load_model(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()


# one model of each schema, and of each kind a schema nests: a calibrator
# in nb and axis models, each classifier kind in a quantifier
SCHEMA_CASES = {
    "nb": lambda: _nb_model(use_log_normal=False),
    "nb-calibrated": lambda: _nb_model(use_log_normal=False, calibrator=_iso_map()),
    "nb-ln": _nb_model,
    "axis": _axis_model,
    "axis-calibrated": lambda: _axis_model(calibrator=_iso_map()),
    "iso": _iso_map,
    "majority": lambda: MajorityClassifier(majority=1, rate=0.625),
    "quant-nb": lambda: QuantifierModel(_nb_model(calibrator=_iso_map()), "acc", 0.85, 0.15, 40),
    "quant-axis": lambda: QuantifierModel(_axis_model(), "cc"),
    "quant-majority": lambda: QuantifierModel(MajorityClassifier(majority=0, rate=0.3), "cc"),
}


@pytest.mark.parametrize("case", list(SCHEMA_CASES))
def test_schema_round_trip_writes_each_field_once(tmp_path, case):
    """save -> load -> save is byte-identical, and a payload's keys are the
    schema tag, its fixed tags ("k" for nb/1, "projection" and "threshold"
    for axis/1)
    and the class's fields, no more."""
    model = SCHEMA_CASES[case]()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text(encoding="utf-8"))
    fixed = {"nb/1": ["k"], "axis/1": ["projection", "threshold"]}
    tags = {"schema", *fixed.get(payload["schema"], [])}
    assert set(payload) == tags | {f.name for f in dataclasses.fields(model)}


def test_schema_cases_cover_the_schema_table():
    assert {to_payload(make())["schema"] for make in SCHEMA_CASES.values()} == set(schemas())


class TestDumps:
    def test_canonical_form(self):
        text = dumps({"b": 1, "a": [0.1]})
        assert text == '{\n  "a": [\n    0.1\n  ],\n  "b": 1\n}\n'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps({"x": float("nan")})


class TestErrors:
    def test_missing_schema_tag(self):
        with pytest.raises(DataError, match="schema tag"):
            from_payload({"k": 2})

    def test_unknown_schema(self):
        with pytest.raises(DataError, match="unknown model schema"):
            from_payload({"schema": "nb/99"})

    def test_missing_field_named(self):
        payload = to_payload(_nb_model())
        del payload["log_prior"]
        with pytest.raises(DataError, match="log_prior"):
            from_payload(payload)

    def test_model_field_with_a_default_is_still_required(self):
        payload = to_payload(_nb_model())
        del payload["calibrator"]
        with pytest.raises(DataError, match=r"model payload \(nb/1\) missing field 'calibrator'"):
            from_payload(payload)

    def test_unserializable_object(self):
        with pytest.raises(DataError, match="cannot serialize"):
            to_payload(object())

    def test_load_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope", encoding="utf-8")
        with pytest.raises(DataError, match="invalid JSON"):
            load_model(p)

    def test_loaded_scores_match_original(self, tmp_path):
        X = np.array([[3, 1, 0], [2, 2, 1], [0, 1, 4], [1, 0, 5], [2, 0, 1]])
        corpus = corpus_from_dense(X, [0, 0, 1, 1, -1])
        model = _nb_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        a = model.score(corpus)
        b = load_model(path).score(corpus)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestTextLines:
    def test_lines_keep_their_endings_and_split_only_at_line_ends(self, tmp_path):
        path = tmp_path / "t.txt"
        long = "x" * 8191 + "\u00e9"  # a two-byte character across the first read chunk
        path.write_bytes(f"a\nb\r\nc\rd\x0ce\u2028f\n{long}".encode())
        assert list(text_lines(path)) == ["a\n", "b\r\n", "c\r", "d\x0ce\u2028f\n", long]

    @pytest.mark.parametrize(
        "content, line", [(b"ok\n\xc3\xa9\n\xff\n", 3), (b"ok\r\nok\r\xc3", 3), (b"\xed\xa0\x80", 1)]
    )
    def test_first_line_not_utf8_is_a_data_error(self, tmp_path, content, line):
        path = tmp_path / "t.txt"
        path.write_bytes(content)
        lines = text_lines(path)
        for _ in range(line - 1):
            next(lines)
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text (line {line})")):
            next(lines)


@pytest.mark.parametrize("size", [0, HASH_CHUNK, 2 * HASH_CHUNK + 123])
def test_file_digest_read_in_chunks_is_the_whole_file_digest(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    assert file_digest(path) == {
        "path": str(path), "sha256": hashlib.sha256(data).hexdigest(), "bytes": size
    }


def _reads_a_file(call: ast.Call) -> bool:
    """Whether a call is read_text, or an open without a write mode."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "read_text":
        return True
    if name != "open":
        return False
    # open(file, mode, ...) or path.open(mode, ...)
    position = 1 if isinstance(func, ast.Name) else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position : position + 1]
    mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
    return not (isinstance(mode, str) and set(mode) & set("wax"))


def test_only_serialize_opens_a_text_input():
    """Every text input goes through serialize.text_lines: no other module
    calls read_text, or open without a write mode. read_bytes does not
    decode, so hashing a file stays allowed."""
    reads = {
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(demoscope.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _reads_a_file(node)
    }
    assert {r for r in reads if not r.startswith("serialize.py:")} == set()
    assert any(r.startswith("serialize.py:") for r in reads)  # the check sees text_lines


_PARALLEL_MODULES = ("multiprocessing", "concurrent", "threading")


def _goes_parallel(node: ast.AST) -> bool:
    """Whether a node imports a parallel module or calls os.fork."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in _PARALLEL_MODULES for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] in _PARALLEL_MODULES
    func = getattr(node, "func", None)
    return isinstance(func, ast.Attribute) and func.attr in ("fork", "forkpty")


def test_only_serialize_runs_work_in_parallel():
    """serialize.fork_join is the one parallel mechanism: no other module
    imports multiprocessing, concurrent.futures or threading, or forks."""
    found = {
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(demoscope.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _goes_parallel(node)
    }
    assert {r for r in found if not r.startswith("serialize.py:")} == set()
    assert any(r.startswith("serialize.py:") for r in found)  # the check sees fork_join
