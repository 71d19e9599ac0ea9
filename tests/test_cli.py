"""Command-line pipeline: exit codes, outputs, config precedence, manifests."""

import argparse
import builtins
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demoscope
from demoscope import labeling, synth
from demoscope.axis import AxisModel
from demoscope.bayes import fit
from demoscope.calibrate import IsotonicMap
from demoscope.classifiers import MajorityClassifier
from demoscope.cli import (
    NB_KINDS,
    Run,
    RunConfig,
    _COMMANDS,
    _factory_for,
    build_parser,
    load_config,
    main,
    stage_seed,
    write_manifest,
)
from demoscope.data import CommunityVocabulary, LabeledCorpus, load_corpus, load_vocabulary
from demoscope.quantify import QuantifierModel
from demoscope.serialize import load_model, save_model

from helpers import random_world, write_corpus_triplets


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports demoscope from this checkout, its
    output read through pipes, which it buffers as it does by default."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = os.path.dirname(os.path.dirname(os.path.realpath(demoscope.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


# prints the scipy and yaml modules a fresh interpreter has loaded
_PRINT_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml')))"


def test_cli_import_loads_no_scipy_stats():
    """Importing the CLI loads no scipy module and no yaml: scipy.sparse
    alone costs about as much to import as a demo-scale command takes to
    run, so each loads where it is first used."""
    done = _python("-c", f"import sys, demoscope.cli; {_PRINT_LOADED}")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _sparse_and_special_after(argv) -> str:
    """Which of scipy.sparse and scipy.special a fresh interpreter has
    loaded once main(argv) has returned 0, as a printed list."""
    code = ("import sys; from demoscope.cli import main; assert main(%r) == 0; "
            "print(sorted(m for m in ('scipy.sparse', 'scipy.special') if m in sys.modules))")
    done = _python("-c", code % argv)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_extract_loads_neither_sparse_nor_special(demo_files, tmp_path):
    d, out = demo_files["dir"], tmp_path / "out"
    argv = ["extract", "--comments", str(d / "comments.jsonl"), "--botlist",
            str(d / "botlist.txt"), "--out-dir", str(out)]
    assert _sparse_and_special_after(argv) == "[]"
    assert "scipy" in _read_json(out / "manifest.json")["versions"]


@pytest.mark.parametrize("argv, special", [
    (["evaluate", "--model", "nb", "--cv-roc", "--folds", "3"], False),
    (["train", "--model", "nb-ss"], False),
    (["train", "--model", "nb-ln"], True),
], ids=["evaluate-cv-roc", "train-em", "train-log-normal"])
def test_naive_bayes_loads_special_only_for_log_normal(demo_files, tmp_path, argv, special):
    """The naive Bayes posterior and EM are plain numpy; scipy.special
    loads only for the log-normal activity term's log_ndtr."""
    d = demo_files["dir"]
    argv = [*argv, "--corpus", str(d / "corpus.jsonl"), "--vocabulary", str(d / "vocab.txt"),
            "--out-dir", str(tmp_path / "out")]
    want = ["scipy.sparse", "scipy.special"] if special else ["scipy.sparse"]
    assert _sparse_and_special_after(argv) == str(want)


def test_range_worker_job_imports_no_scipy(demo_files):
    """data._read_jsonl, the job of a forked range worker, parses without
    scipy, so no worker is the first to pay for its import."""
    d = demo_files["dir"]
    code = (
        "import sys; from demoscope import data; "
        f"vocab = data.load_vocabulary({str(d / 'vocab.txt')!r}); "
        f"print(len(data._read_jsonl({str(d / 'corpus.jsonl')!r}, vocab).labels)); "
        + _PRINT_LOADED
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [str(demo_files["corpus"].n), "[]"]


def test_console_entry_through_a_pipe(demo_files, tmp_path):
    """python -m demoscope.cli flushes its line to a pipe on success, and
    exits 2 with one stderr line on a bad input."""
    out, missing = tmp_path / "out", tmp_path / "missing.jsonl"
    comments = str(demo_files["dir"] / "comments.jsonl")
    done = _python("-m", "demoscope.cli", "extract", "--comments", comments, "--out-dir", str(out))
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    assert line.startswith("extract: ") and line.endswith(f" -> {out}")
    done = _python("-m", "demoscope.cli", "extract", "--comments", str(missing),
                   "--out-dir", str(out))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [f"demoscope: data error: file not found: {missing}"]


class TestArgHandling:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert "demoscope" in capsys.readouterr().out

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 1

    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 1

    def test_bad_flag_value_exits_one(self):
        with pytest.raises(SystemExit) as e:
            main(["train", "--model", "transformer"])
        assert e.value.code == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--model", "nb", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, demo_files, tmp_path, capsys):
        d = demo_files["dir"]
        code = main(
            [
                "predict",
                "--model-path", str(d / "nope.json"),
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    def test_stage_seed_is_deterministic_and_distinct(self):
        assert stage_seed(0, "bootstrap") == stage_seed(0, "bootstrap")
        assert stage_seed(0, "bootstrap") != stage_seed(0, "cv-roc")
        assert stage_seed(0, "bootstrap") != stage_seed(1, "bootstrap")


class TestConfigFile:
    def test_flags_override_config(self, demo_files, tmp_path):
        d = demo_files["dir"]
        cfg = tmp_path / "run.yaml"
        cfg.write_text("alpha1: 2.5\nseed: 7\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "train",
                "--config", str(cfg),
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--model", "nb",
                "--alpha1", "5.0",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        manifest = _read_json(out / "manifest.json")
        assert manifest["config"]["alpha1"] == 5.0
        assert manifest["config"]["seed"] == 7
        assert manifest["seed"] == 7

    def test_yaml_int_in_a_float_setting_resolves_as_its_flag(self, demo_files, tmp_path):
        """YAML `alpha1: 2` is the 2.0 of `--alpha1 2`, taus elements
        too, so the two runs record one config and one config_hash."""
        d = demo_files["dir"]
        cfg = tmp_path / "run.yaml"
        cfg.write_text("alpha1: 2\ntol: 1\ntaus: [0, 1]\n", encoding="utf-8")
        out, manifests = tmp_path / "out", []
        for settings in (["--config", str(cfg)], ["--alpha1", "2", "--tol", "1", "--taus", "0", "1"]):
            argv = ["evaluate", "--corpus", str(d / "corpus.jsonl"), "--vocabulary",
                    str(d / "vocab.txt"), "--model", "nb", "--n-boot", "1",
                    "--out-dir", str(out), *settings]
            assert main(argv) == 0
            manifests.append(_read_json(out / "manifest.json"))
        by_yaml, by_flags = manifests
        assert by_yaml["config_hash"] == by_flags["config_hash"]
        loaded = load_config(cfg)
        assert [type(v) for v in (loaded.alpha1, loaded.tol, *loaded.taus)] == [float] * 4

    def test_setting_the_command_does_not_read_leaves_the_config_hash(self, demo_files, tmp_path):
        """evaluate reads no use_log_normal, so setting it in a YAML moves
        neither its outputs nor its manifest's config and config_hash."""
        d = demo_files["dir"]
        cfg = tmp_path / "run.yaml"
        cfg.write_text("use_log_normal: true\n", encoding="utf-8")
        out, runs = tmp_path / "out", []
        for settings in ([], ["--config", str(cfg)]):
            assert main(["evaluate", "--corpus", str(d / "corpus.jsonl"), "--vocabulary",
                         str(d / "vocab.txt"), "--model", "nb", "--n-boot", "3",
                         "--out-dir", str(out), *settings]) == 0
            runs.append((_read_json(out / "manifest.json"), (out / "metrics.json").read_bytes()))
        (plain, plain_metrics), (yaml, yaml_metrics) = runs
        assert "use_log_normal" not in plain["config"]
        assert plain["config"] == yaml["config"]
        assert plain["config_hash"] == yaml["config_hash"]
        assert plain_metrics == yaml_metrics

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("alpha_one: 2.5\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--model", "nb"])
        assert code == 2
        assert "config unknown field 'alpha_one'" in capsys.readouterr().err

    def test_invalid_yaml_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("alpha1: [unclosed\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--model", "nb"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"demoscope: data error: {cfg}:2:1: invalid YAML (expected ',' or ']'")

    @pytest.mark.parametrize(
        "yaml_text, corpus_is_dir, expected",
        [
            ("n_boot: many\n", False, "field 'n_boot': expected a JSON integer, got 'many'"),
            ("models: 5\n", False, "field 'models': expected a JSON list of strings"),
            ("", True, "Is a directory"),
            ("1: x\n", False, "config unknown field 1"),
            ("true: 1\n", False, "config unknown field True"),
            (f"alpha1: 1{'0' * 400}\n", False, "field 'alpha1': number too large for a float"),
            ("seed: 2001-13-14\n", False, "run.yaml: invalid YAML (month must be in 1..12)"),
        ],
        ids=["n_boot-string", "models-int", "corpus-directory", "int-key", "bool-key",
             "alpha1-huge", "date-nonexistent"],
    )
    def test_bad_value_or_path_exits_two_with_one_line(
        self, demo_files, tmp_path, capsys, yaml_text, corpus_is_dir, expected
    ):
        d = demo_files["dir"]
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml_text, encoding="utf-8")
        corpus = tmp_path if corpus_is_dir else d / "corpus.jsonl"
        code = main(
            [
                "report",
                "--config", str(cfg),
                "--corpus", str(corpus),
                "--vocabulary", str(d / "vocab.txt"),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("demoscope: data error:")
        assert expected in err[0]

    @pytest.mark.parametrize("text", ["", "{}\n"], ids=["empty", "empty-mapping"])
    def test_empty_config_is_the_defaults(self, tmp_path, text):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text, encoding="utf-8")
        assert load_config(cfg) == RunConfig()

    def test_config_validation(self, demo_files, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("confidence: 1.5\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--model", "nb"])
        assert code == 2
        assert "confidence" in capsys.readouterr().err


def _offered_model_choices():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.dest, choice)
        for command, p in sub.choices.items()
        for action in p._actions
        if action.dest in ("model", "models") and action.choices
        for choice in action.choices
    ]


@pytest.mark.parametrize("command,dest,choice", _offered_model_choices())
def test_offered_model_choice_passes_validation(command, dest, choice):
    RunConfig(**{dest: choice if dest == "model" else (choice,)}).validate()


class TestExtract:
    def test_extract_writes_labels_and_report(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        code = main(
            [
                "extract",
                "--comments", str(d / "comments.jsonl"),
                "--attribute", "gender",
                "--botlist", str(d / "botlist.txt"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        report = _read_json(out / "extract_report.json")
        assert report["attribute"] == "gender"
        assert report["users_labeled"] > 0
        assert report["bot_declarations_dropped"] > 0
        lines = (out / "labels.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "user,label"
        assert len(lines) == report["users_labeled"] + 1
        truth = demo_files["truth"]["gender"]
        wrong = sum(
            1
            for line in lines[1:]
            for u, v in [line.split(",")]
            if u in truth and {"0": "male", "1": "female"}[v] != truth[u]
        )
        assert wrong == 0
        manifest = _read_json(out / "manifest.json")
        assert manifest["command"] == "extract"
        assert set(manifest["inputs"]) == {"comments", "botlist"}
        assert manifest["outputs"] == sorted(
            ["declarations.jsonl", "labels.csv", "extract_report.json"]
        )

    @pytest.mark.parametrize("content", ["", "# none\n"], ids=["empty", "all-commented"])
    def test_botlist_naming_no_bot_drops_nothing(self, demo_files, tmp_path, content):
        """A botlist with no id in it is a valid list of no bots: the run
        writes what a run without --botlist writes, and records the file."""
        d = demo_files["dir"]
        botlist = tmp_path / "bots.txt"
        botlist.write_text(content, encoding="utf-8")
        extract = ["extract", "--comments", str(d / "comments.jsonl")]
        assert main([*extract, "--out-dir", str(tmp_path / "plain")]) == 0
        out = tmp_path / "out"
        assert main([*extract, "--botlist", str(botlist), "--out-dir", str(out)]) == 0
        assert _read_json(out / "extract_report.json")["bot_declarations_dropped"] == 0
        for name in ("labels.csv", "declarations.jsonl", "extract_report.json"):
            assert (out / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        assert set(_read_json(out / "manifest.json")["inputs"]) == {"comments", "botlist"}

    def test_extract_frozen_median(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        code = main(
            [
                "extract",
                "--comments", str(d / "comments.jsonl"),
                "--attribute", "year",
                "--median", "1990",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert _read_json(out / "extract_report.json")["median_birth_year"] == 1990.0

    @pytest.mark.parametrize("negation", [r"(?P<n>not)", r"(no)\1"], ids=["named", "backref"])
    def test_negation_that_cannot_join_exits_two_with_one_line(
        self, demo_files, tmp_path, capsys, negation
    ):
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps([{"attribute": "gender", "patterns": [r"\bi am a (?P<gender>\w+)"],
                         "negation_patterns": [r"\bnever\b", negation]}]),
            encoding="utf-8",
        )
        argv = ["extract", "--comments", str(demo_files["dir"] / "comments.jsonl"),
                "--rules", str(rules), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"demoscope: data error: {rules}: rule 0: rule 'gender' negation 1: "
        )


class TestLabelDistant:
    def test_labels_written(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        code = main(
            [
                "label-distant",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--seeds", str(d / "seeds.json"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        report = _read_json(out / "distant_report.json")
        assert report["users"] == 500
        assert report["labeled"] == report["label_counts"]["0"] + report["label_counts"]["1"]
        lines = (out / "labels.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == report["labeled"] + 1


class TestTrain:
    def _train(self, d, out, *extra):
        return main(
            [
                "train",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--out-dir", str(out),
                *extra,
            ]
        )

    def test_cli_matches_library_bit_for_bit(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        assert self._train(d, out, "--model", "nb-ln") == 0

        vocab = load_vocabulary(d / "vocab.txt")
        corpus, _ = load_corpus(d / "corpus.jsonl", vocab)
        labeled = corpus.subset(np.flatnonzero(corpus.labeled_mask))
        model, _ = fit(labeled, use_log_normal=True)
        ref = tmp_path / "ref.json"
        save_model(model, ref)
        assert ref.read_bytes() == (out / "model.json").read_bytes()

    def test_rerun_is_byte_identical(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self._train(d, out1, "--model", "nb-ss") == 0
        assert self._train(d, out2, "--model", "nb-ss") == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_triplets_format_equivalent(self, demo_files, tmp_path):
        d = demo_files["dir"]
        corpus = demo_files["corpus"]
        write_corpus_triplets(corpus, tmp_path / "c.csv", labels_path=tmp_path / "l.csv")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self._train(d, out1, "--model", "nb") == 0
        code = main(
            [
                "train",
                "--corpus", str(tmp_path / "c.csv"),
                "--labels", str(tmp_path / "l.csv"),
                "--vocabulary", str(d / "vocab.txt"),
                "--model", "nb",
                "--out-dir", str(out2),
            ]
        )
        assert code == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_distant_labels_train_a_jsonl_corpus_as_its_triplets_twin(self, demo_files, tmp_path):
        """label-distant's labels.csv replaces a jsonl corpus's inline
        labels, as it labels the same corpus written as triplets."""
        d = demo_files["dir"]
        distant = tmp_path / "distant"
        assert main(["label-distant", "--corpus", str(d / "corpus.jsonl"), "--vocabulary",
                     str(d / "vocab.txt"), "--seeds", str(d / "seeds.json"),
                     "--out-dir", str(distant)]) == 0
        labels = str(distant / "labels.csv")
        write_corpus_triplets(demo_files["corpus"], tmp_path / "c.csv")
        jsonl, triplets = tmp_path / "a", tmp_path / "b"
        assert self._train(d, jsonl, "--labels", labels) == 0
        assert main(["train", "--corpus", str(tmp_path / "c.csv"), "--labels", labels,
                     "--vocabulary", str(d / "vocab.txt"), "--out-dir", str(triplets)]) == 0
        assert (jsonl / "model.json").read_bytes() == (triplets / "model.json").read_bytes()
        inline = tmp_path / "inline"
        assert self._train(d, inline) == 0
        assert (jsonl / "model.json").read_bytes() != (inline / "model.json").read_bytes()

    @pytest.mark.parametrize("kind", ["nb", "nb-ss"])
    def test_corpus_without_labels_exits_two_with_one_line(
        self, demo_files, tmp_path, capsys, kind
    ):
        write_corpus_triplets(demo_files["target"], tmp_path / "t.csv")
        out = tmp_path / "out"
        argv = ["train", "--corpus", str(tmp_path / "t.csv"), "--model", kind,
                "--vocabulary", str(demo_files["dir"] / "vocab.txt"), "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "demoscope: data error: no labeled rows to fit"
        ]
        assert not out.exists()

    def test_train_axis(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        code = main(
            [
                "train",
                "--model", "axis",
                "--embeddings", str(d / "embeddings.tsv"),
                "--seeds", str(d / "seeds.json"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        payload = _read_json(out / "model.json")
        assert payload["schema"] == "axis/1"
        # the model file names its positive pole pole_a: the seed set's
        # class-1 pole, pole_b
        assert tuple(payload["pole_a"]) == demo_files["seeds"].pole_b

    def test_train_axis_uses_the_named_seed_set(self, demo_files, tmp_path, capsys):
        d = demo_files["dir"]
        seeds = demo_files["seeds"]
        two_sets = [
            {"attribute": seeds.attribute, "pole_a": list(seeds.pole_a),
             "pole_b": list(seeds.pole_b)},
            {"attribute": "gender", "pole_a": list(seeds.pole_b), "pole_b": list(seeds.pole_a)},
        ]
        seeds_path = tmp_path / "seeds.json"
        seeds_path.write_text(json.dumps(two_sets), encoding="utf-8")

        def train(attribute, out):
            return main(
                [
                    "train",
                    "--model", "axis",
                    "--embeddings", str(d / "embeddings.tsv"),
                    "--seeds", str(seeds_path),
                    "--attribute", attribute,
                    "--out-dir", str(out),
                ]
            )

        assert train("gender", tmp_path / "gender") == 0
        payload = _read_json(tmp_path / "gender" / "model.json")
        assert payload["attribute"] == "gender"
        assert tuple(payload["pole_a"]) == seeds.pole_a
        capsys.readouterr()
        # as in label-distant: no set for the attribute and more than one set
        assert train("partisan", tmp_path / "partisan") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "no entry for 'partisan'" in err[0]
        assert err[0].startswith(f"demoscope: data error: {seeds_path}: seed file has no entry")
        assert not (tmp_path / "partisan" / "model.json").exists()

    @pytest.mark.parametrize(
        "keep, code, tail",
        [
            (True, 0, []),
            (False, 2, ["demoscope: data error: pole_b: no pole community found in the table"]),
        ],
        ids=["one-missing", "all-missing"],
    )
    def test_train_axis_names_the_seed_files_pole(self, demo_files, tmp_path, keep, code, tail):
        """A pole_b community missing from the embedding table is named
        under pole_b, the seed file's own name for it; keep says whether
        the rest of pole_b stays."""
        d, seeds = demo_files["dir"], demo_files["seeds"]
        pole_b = [*seeds.pole_b, "ghost_b"] if keep else ["ghost_b"]
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({"attribute": seeds.attribute, "pole_a": list(seeds.pole_a),
                                    "pole_b": pole_b}), encoding="utf-8")
        done = _python("-m", "demoscope.cli", "train", "--model", "axis",
                       "--embeddings", str(d / "embeddings.tsv"), "--seeds", str(path),
                       "--out-dir", str(tmp_path / "out"))
        assert done.returncode == code, done.stderr
        assert done.stderr.splitlines() == [
            "demoscope: warning: pole_b: 1 pole communities not in table: ['ghost_b']", *tail
        ]

    @pytest.mark.parametrize(
        "kind,spelling",
        [
            ("nb-ln", ("nb", "--use-log-normal")),
            ("nb-ss", ("nb", "--semi-supervised")),
            ("nb-ss-ln", ("nb", "--semi-supervised", "--use-log-normal")),
            ("nb-ss-ln", ("nb-ln", "--semi-supervised")),
        ],
        ids=["nb-ln---use-log-normal", "nb-ss---semi-supervised", "nb-ss-ln---both-switches",
             "nb-ss-ln---nb-ln-semi-supervised"],
    )
    def test_train_nb_variant_fits_as_nb_with_its_flag(self, demo_files, tmp_path, kind,
                                                        spelling):
        """train's switches are a second spelling of a kind: the same
        model bytes, and a fit report that names the kind fitted."""
        d = demo_files["dir"]
        assert self._train(d, tmp_path / "kind", "--model", kind) == 0
        assert self._train(d, tmp_path / "flag", "--model", *spelling) == 0
        model = (tmp_path / "kind" / "model.json").read_bytes()
        assert model == (tmp_path / "flag" / "model.json").read_bytes()
        for out in ("kind", "flag"):
            assert _read_json(tmp_path / out / "fit_report.json")["model"] == kind

    def test_train_majority(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        assert self._train(d, out, "--model", "majority") == 0
        assert _read_json(out / "model.json")["schema"] == "majority/1"

    def test_fit_report_semi_supervised(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        assert self._train(d, out, "--model", "nb-ss") == 0
        report = _read_json(out / "fit_report.json")
        # the kind is the whole model, so no switch is reported beside it
        assert report["model"] == "nb-ss" and "semi_supervised" not in report
        assert report["n_unlabeled"] == 100
        assert report["iterations"] >= 1


class TestPredictCalibrateQuantify:
    @pytest.fixture()
    def trained(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "train"
        code = main(
            [
                "train",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--model", "nb-ln",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        return d, out / "model.json"

    def test_predict_writes_scores(self, trained, tmp_path):
        d, model_path = trained
        out = tmp_path / "pred"
        code = main(
            [
                "predict",
                "--model-path", str(model_path),
                "--corpus", str(d / "target.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "user,score,prediction"
        assert len(lines) == 201
        user, score, pred = lines[1].split(",")
        assert 0.0 <= float(score) <= 1.0
        assert pred in ("0", "1")

    def test_predict_rejects_vocabulary_narrower_than_model(self, trained, tmp_path, capsys):
        d, model_path = trained
        names = (d / "vocab.txt").read_text(encoding="utf-8").splitlines()
        short = tmp_path / "short.txt"
        short.write_text("\n".join(names[:-1]) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="outside the vocabulary"):
            code = main(
                [
                    "predict",
                    "--model-path", str(model_path),
                    "--corpus", str(d / "target.jsonl"),
                    "--vocabulary", str(short),
                    "--out-dir", str(tmp_path / "pred"),
                ]
            )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "demoscope: data error: corpus has 59 communities, the model was fit on 60"
        ]

    def test_calibrate_reduces_ece_and_stores_map(self, trained, tmp_path, capsys):
        d, model_path = trained
        out = tmp_path / "cal"
        code = main(
            [
                "calibrate",
                "--model-path", str(model_path),
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        report = _read_json(out / "calibration_report.json")
        assert report["ece_after"] <= report["ece_before"] + 1e-12
        assert _read_json(out / "model.json")["calibrator"] is not None
        assert load_model(out / "model.json").calibrator is not None

    def test_calibrate_refuses_majority_model(self, demo_files, tmp_path, capsys):
        d = demo_files["dir"]
        data = ["--corpus", str(d / "corpus.jsonl"), "--vocabulary", str(d / "vocab.txt")]
        train_out, cal_out = tmp_path / "train", tmp_path / "cal"
        assert main(["train", "--model", "majority", *data, "--out-dir", str(train_out)]) == 0
        capsys.readouterr()
        code = main(
            [
                "calibrate",
                "--model-path", str(train_out / "model.json"),
                *data,
                "--out-dir", str(cal_out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("demoscope: data error:")
        assert "majority model" in err[0]
        assert not (cal_out / "model.json").exists()

    def test_quantify_acc_with_interval(self, trained, tmp_path):
        d, model_path = trained
        cal_out = tmp_path / "cal"
        main(
            [
                "calibrate",
                "--model-path", str(model_path),
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--out-dir", str(cal_out),
            ]
        )
        out = tmp_path / "quant"
        code = main(
            [
                "quantify",
                "--model-path", str(cal_out / "model.json"),
                "--validation", str(d / "corpus.jsonl"),
                "--target", str(d / "target.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--mode", "acc",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        est = _read_json(out / "estimate.json")
        assert 0.0 <= est["point"] <= 1.0
        assert est["lower"] is not None and est["upper"] is not None
        assert est["lower"] <= est["point"] <= est["upper"]
        assert est["cohort_size"] == 200
        assert (out / "quantifier.json").exists()

        # a saved quantifier reproduces the estimate without refitting
        out2 = tmp_path / "quant2"
        code = main(
            [
                "quantify",
                "--quantifier", str(out / "quantifier.json"),
                "--target", str(d / "target.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--mode", "acc",
                "--out-dir", str(out2),
            ]
        )
        assert code == 0
        assert (out2 / "estimate.json").read_bytes() == (out / "estimate.json").read_bytes()
        assert not (out2 / "quantifier.json").exists()

    @pytest.mark.filterwarnings("ignore:scores are uncalibrated")
    @pytest.mark.parametrize("target", ["triplets", "jsonl"])
    def test_labels_label_a_triplets_validation_whatever_the_target(
        self, demo_files, trained, tmp_path, target
    ):
        """--labels labels the validation corpus, which estimate needs,
        never the target: each run writes what the jsonl files give."""
        d, model_path = trained
        write_corpus_triplets(demo_files["corpus"], tmp_path / "v.csv",
                              labels_path=tmp_path / "vl.csv")
        write_corpus_triplets(demo_files["target"], tmp_path / "t.csv")
        targets = {"triplets": tmp_path / "t.csv", "jsonl": d / "target.jsonl"}
        argv = ["quantify", "--model-path", str(model_path), "--vocabulary", str(d / "vocab.txt")]
        want, got = tmp_path / "want", tmp_path / "got"
        assert main([*argv, "--validation", str(d / "corpus.jsonl"),
                     "--target", str(d / "target.jsonl"), "--out-dir", str(want)]) == 0
        assert main([*argv, "--validation", str(tmp_path / "v.csv"),
                     "--labels", str(tmp_path / "vl.csv"),
                     "--target", str(targets[target]), "--out-dir", str(got)]) == 0
        for name in ("estimate.json", "quantifier.json"):
            assert (got / name).read_bytes() == (want / name).read_bytes()

    @pytest.mark.parametrize("command", ["predict", "calibrate", "quantify"])
    @pytest.mark.parametrize("saved", ["quantifier", "isotonic"])
    def test_model_path_rejects_non_classifier(self, demo_files, tmp_path, capsys, command, saved):
        d = demo_files["dir"]
        path = tmp_path / f"{saved}.json"
        if saved == "quantifier":
            save_model(QuantifierModel(MajorityClassifier(majority=0, rate=0.3), mode="cc"), path)
        else:
            save_model(IsotonicMap(np.array([0.2, 0.8]), np.array([0.1, 0.9])), path)
        args = [
            command,
            "--model-path", str(path),
            "--vocabulary", str(d / "vocab.txt"),
            "--out-dir", str(tmp_path / "out"),
        ]
        if command == "quantify":
            args += ["--validation", str(d / "corpus.jsonl"), "--target", str(d / "target.jsonl")]
        else:
            args += ["--corpus", str(d / "corpus.jsonl")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("demoscope: data error:")
        assert "not a classifier model" in lines[0]

    def test_degenerate_rates_exit_three(self, demo_files, tmp_path, capsys):
        d = demo_files["dir"]
        train_out = tmp_path / "train"
        main(
            [
                "train",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--model", "majority",
                "--out-dir", str(train_out),
            ]
        )
        code = main(
            [
                "quantify",
                "--model-path", str(train_out / "model.json"),
                "--validation", str(d / "corpus.jsonl"),
                "--target", str(d / "target.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--mode", "acc",
                "--out-dir", str(tmp_path / "q"),
            ]
        )
        assert code == 3
        assert "numeric error" in capsys.readouterr().err


def test_csv_outputs_quote_fields_holding_commas(demo_files, tmp_path):
    """A user id or community name holding a comma reads back as one field."""
    corpus = demo_files["corpus"]
    user_ids = corpus.user_ids.copy()
    user_ids[0] = "x,1"
    vocabulary = CommunityVocabulary(("c,1", *corpus.vocabulary.names[1:]))
    odd = LabeledCorpus(vocabulary, corpus.X, user_ids, corpus.labels)
    synth.write_vocabulary(vocabulary, tmp_path / "vocab.txt")
    synth.write_corpus_jsonl(odd, tmp_path / "corpus.jsonl")
    comment = {"user": "x,1", "text": "I'm 25M and this fits my experience.",
               "created_utc": 1577836800, "community": "c,1"}
    (tmp_path / "comments.jsonl").write_text(json.dumps(comment) + "\n", encoding="utf-8")
    data = ["--corpus", str(tmp_path / "corpus.jsonl"), "--vocabulary", str(tmp_path / "vocab.txt")]
    model = str(tmp_path / "t" / "model.json")
    for argv in (
        ["extract", "--comments", str(tmp_path / "comments.jsonl"), "--attribute", "gender",
         "--out-dir", str(tmp_path / "x")],
        ["train", "--model", "nb", *data, "--out-dir", str(tmp_path / "t")],
        ["predict", "--model-path", model, *data, "--out-dir", str(tmp_path / "p")],
        ["importance", *data, "--out-dir", str(tmp_path / "i")],
    ):
        assert main(argv) == 0
    for path, first in (("x/labels.csv", "x,1"), ("p/predictions.csv", "x,1"),
                        ("i/importance.csv", "c,1")):
        with open(tmp_path / path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {len(rows[0])}
        assert first in [row[0] for row in rows]


class TestEvaluateReport:
    def test_evaluate_deterministic_given_seed(self, demo_files, tmp_path):
        d = demo_files["dir"]
        args = [
            "evaluate",
            "--corpus", str(d / "corpus.jsonl"),
            "--vocabulary", str(d / "vocab.txt"),
            "--model", "nb",
            "--n-boot", "8",
            "--seed", "3",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
        metrics = _read_json(out1 / "metrics.json")
        assert metrics["n_replicates"] == 8
        assert 0.5 <= metrics["metrics"]["roc_auc"]["mean"] <= 1.0

    def test_evaluate_cv_roc_curve(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--model", "nb",
                "--n-boot", "4",
                "--folds", "3",
                "--cv-roc",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "roc_curve.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,y"
        assert len(lines) > 2
        assert lines[1] == "0.0,0.0"
        assert lines[-1] == "1.0,1.0"

    def test_robustness_needs_model_path(self, demo_files, tmp_path, capsys):
        d = demo_files["dir"]
        code = main(
            [
                "evaluate",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--model", "nb",
                "--n-boot", "4",
                "--robustness",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "--model-path" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:scores are uncalibrated")
    def test_robustness_scores_only_the_saved_model(self, demo_files, tmp_path, monkeypatch):
        d = demo_files["dir"]
        model_path = tmp_path / "model.json"
        save_model(fit(demo_files["corpus"])[0], model_path)
        monkeypatch.setattr(
            "demoscope.evaluate.bootstrap_eval",
            lambda *a, **k: pytest.fail("--robustness ran the bootstrap"),
        )
        out = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--robustness",
                "--model-path", str(model_path),
                "--taus", "0.1", "0.5",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "robustness.csv"]
        assert _read_json(out / "manifest.json")["outputs"] == ["robustness.csv"]
        lines = (out / "robustness.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,y,retained" and len(lines) == 3

    @pytest.mark.filterwarnings("ignore:scores are uncalibrated")
    def test_robustness_from_yaml_resolves_as_its_flag(self, demo_files, tmp_path):
        d = demo_files["dir"]
        model_path = tmp_path / "model.json"
        save_model(fit(demo_files["corpus"])[0], model_path)
        cfg = tmp_path / "run.yaml"
        cfg.write_text("robustness: true\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["evaluate", "--corpus", str(d / "corpus.jsonl"), "--vocabulary",
                str(d / "vocab.txt"), "--model-path", str(model_path), "--out-dir", str(out)]
        manifests = []
        for extra in (["--robustness"], ["--config", str(cfg)]):
            assert main([*argv, *extra]) == 0
            assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "robustness.csv"]
            manifests.append(_read_json(out / "manifest.json"))
        flag, yaml = manifests
        assert flag["config"]["robustness"] is True and flag["config"]["cv_roc"] is False
        assert flag["config_hash"] == yaml["config_hash"]

    def test_robustness_with_cv_roc_exits_two_with_one_line(self, demo_files, tmp_path, capsys):
        d = demo_files["dir"]
        model_path = tmp_path / "model.json"
        save_model(fit(demo_files["corpus"])[0], model_path)
        code = main(
            [
                "evaluate",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--robustness",
                "--cv-roc",
                "--model-path", str(model_path),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--cv-roc" in err[0]
        assert not (tmp_path / "out").exists()

    def test_report_benchmarks_models(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        code = main(
            [
                "report",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--models", "majority", "nb",
                "--n-boot", "5",
                "--folds", "2",
                "--repeats", "3",
                "--cohort-size", "25",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        report = _read_json(out / "report.json")
        assert set(report["classification"]) == {"majority", "nb"}
        assert report["classification"]["nb"]["roc_auc"]["mean"] > 0.5
        # the constant classifier cannot carry an adjusted count estimate
        assert "error" in report["quantification"]["majority"]
        assert report["quantification"]["nb"]["mae"] >= 0.0
        assert (out / "roc_nb.csv").exists()
        assert (out / "roc_majority.csv").exists()

    def test_a_models_report_row_is_its_evaluate_output(self, demo_files, tmp_path):
        """Every model of report runs on the same replicates as evaluate
        --model runs it alone, so its classification row and ROC curve
        are evaluate's, whichever models it is compared with."""
        d = demo_files["dir"]
        common = ["--corpus", str(d / "corpus.jsonl"), "--vocabulary", str(d / "vocab.txt"),
                  "--embeddings", str(d / "embeddings.tsv"), "--seeds", str(d / "seeds.json"),
                  "--n-boot", "4", "--folds", "3", "--seed", "5"]
        report_out = tmp_path / "report"
        assert main(["report", *common, "--models", "nb", "axis", "--repeats", "2",
                     "--cohort-size", "20", "--out-dir", str(report_out)]) == 0
        report = _read_json(report_out / "report.json")
        for kind in ("nb", "axis"):
            out = tmp_path / kind
            assert main(["evaluate", *common, "--model", kind, "--cv-roc",
                         "--out-dir", str(out)]) == 0
            metrics = _read_json(out / "metrics.json")
            row = metrics["metrics"] | {"dropped_rows": metrics["dropped_rows"]}
            assert report["classification"][kind] == row
            roc = (report_out / f"roc_{kind}.csv").read_bytes()
            assert roc == (out / "roc_curve.csv").read_bytes()

    def test_nb_ln_factory_honours_yaml_alpha2(self, demo_files, tmp_path):
        labeled = demo_files["corpus"].subset(np.flatnonzero(demo_files["corpus"].labeled_mask))
        cfg_path = tmp_path / "run.yaml"
        for alpha2 in (0.5, 2.0):
            cfg_path.write_text(f"alpha2: {alpha2}\n", encoding="utf-8")
            run = Run("evaluate", load_config(cfg_path))
            model = _factory_for("nb-ln", run)(labeled)
            expected, _ = fit(labeled, alpha2=alpha2, use_log_normal=True)
            assert model.alpha2 == alpha2
            assert np.array_equal(model.log_cond, expected.log_cond)
            assert np.array_equal(model.activity, expected.activity)

    @pytest.mark.parametrize("kind", ["nb-ln", "nb-ss"])
    def test_evaluate_runs_nb_variants(self, demo_files, tmp_path, kind):
        d = demo_files["dir"]
        out = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--model", kind,
                "--n-boot", "3",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert _read_json(out / "metrics.json")["model"] == kind

    def test_nb_settings_apply_to_every_nb_kind(self, demo_files, tmp_path):
        """alpha2 from YAML reaches every NB kind's fit; train's switches,
        which a shared YAML may carry, change no kind evaluate fits."""
        corpus = demo_files["corpus"]
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text("alpha2: 2.0\nuse_log_normal: true\nsemi_supervised: true\n",
                            encoding="utf-8")
        run = Run("evaluate", load_config(cfg_path))
        for kind, switches in NB_KINDS.items():
            model = _factory_for(kind, run)(corpus)
            expected, _ = fit(corpus, alpha2=2.0, **switches)
            assert model.alpha2 == 2.0, kind
            assert np.array_equal(model.log_cond, expected.log_cond), kind
            assert (model.activity is None) == (not switches["use_log_normal"]), kind

    def test_report_rejects_unknown_kind_before_writing(self, demo_files, tmp_path, capsys):
        d = demo_files["dir"]
        out = tmp_path / "out"
        code = main(
            [
                "report",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--models", "nb", "bogus",
                "--n-boot", "3",
                "--folds", "2",
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert "unknown model 'bogus'" in capsys.readouterr().err
        assert not (out / "roc_nb.csv").exists()

    def test_importance_table(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        code = main(
            [
                "importance",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--importance-boot", "5",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "importance.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "community,log_odds,std"
        assert len(lines) == 61


class TestManifest:
    def test_manifest_contents(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        main(
            [
                "train",
                "--corpus", str(d / "corpus.jsonl"),
                "--vocabulary", str(d / "vocab.txt"),
                "--model", "nb",
                "--seed", "9",
                "--out-dir", str(out),
            ]
        )
        manifest = _read_json(out / "manifest.json")
        assert manifest["command"] == "train"
        assert len(manifest["config_hash"]) == 64
        assert manifest["seed"] == 9
        for name in ("corpus", "vocabulary"):
            entry = manifest["inputs"][name]
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0
        assert manifest["outputs"] == ["fit_report.json", "model.json"]
        assert set(manifest["versions"]) == {"demoscope", "numpy", "scipy", "python"}

    def test_manifest_counts_what_the_load_dropped_and_merged(self, demo_files, tmp_path):
        d = demo_files["dir"]
        lines = (d / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(lines[0])
        community = (d / "vocab.txt").read_text(encoding="utf-8").split()[0]
        lines += [
            json.dumps({"user": first["user"], "counts": {community: 1}}) + "\n",
            json.dumps({"user": "ghost", "counts": {"nowhere": 2}}) + "\n",
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["train", "--corpus", str(corpus), "--vocabulary", str(d / "vocab.txt"),
                "--model", "nb", "--out-dir", str(out)]
        with pytest.warns(UserWarning, match="dropped 1 activity pairs"):
            assert main(argv) == 0
        assert _read_json(out / "manifest.json")["counters"] == {
            "corpus": {
                "lines_read": len(lines),
                "users_kept": len(lines) - 2,
                "users_rejected_empty": 1,
                "unknown_community_pairs": 1,
                "merged_duplicate_users": 1,
            }
        }

    def test_calibrate_over_its_model_path_records_the_model_it_read(self, demo_files, tmp_path):
        d = demo_files["dir"]
        data = ["--corpus", str(d / "corpus.jsonl"), "--vocabulary", str(d / "vocab.txt")]
        out = tmp_path / "m"
        assert main(["train", *data, "--model", "nb", "--out-dir", str(out)]) == 0
        read = hashlib.sha256((out / "model.json").read_bytes()).hexdigest()
        args = ["calibrate", *data, "--model-path", str(out / "model.json"), "--out-dir", str(out)]
        assert main(args) == 0
        written = hashlib.sha256((out / "model.json").read_bytes()).hexdigest()
        assert written != read
        assert _read_json(out / "manifest.json")["inputs"]["model_path"]["sha256"] == read

    def test_calibrating_a_calibrated_model_refits_its_map(self, demo_files, tmp_path):
        """The map is fitted to the model's uncalibrated scores, and
        replaces a map already attached: calibrating twice writes what
        calibrating once does."""
        d = demo_files["dir"]
        data = ["--corpus", str(d / "corpus.jsonl"), "--vocabulary", str(d / "vocab.txt")]
        model = tmp_path / "m" / "model.json"
        assert main(["train", *data, "--model", "nb", "--out-dir", str(model.parent)]) == 0
        once, twice = tmp_path / "once", tmp_path / "twice"
        for out in (once, twice):
            assert main(["calibrate", *data, "--model-path", str(model), "--out-dir", str(out)]) == 0
            model = out / "model.json"
        for name in ("model.json", "calibration_report.json"):
            assert (once / name).read_bytes() == (twice / name).read_bytes()


CORPUS = ["--corpus", "{d}/corpus.jsonl", "--vocabulary", "{d}/vocab.txt"]
TRIPLETS = ["--corpus", "{t}/c.csv", "--labels", "{t}/l.csv",
            "--vocabulary", "{d}/vocab.txt"]
AXIS = ["--embeddings", "{d}/embeddings.tsv", "--seeds", "{d}/seeds.json"]
TINY = ["--n-boot", "2", "--folds", "2"]

# argv (formatted with the demo dir d, a trained NB model m, a saved
# quantifier q and the triplets dir t) and the inputs the command reads
MANIFEST_CASES = {
    "extract": (["extract", "--comments", "{d}/comments.jsonl", "--botlist", "{d}/botlist.txt"],
                {"comments", "botlist"}),
    "label-distant": (["label-distant", *CORPUS, "--seeds", "{d}/seeds.json"],
                      {"corpus", "vocabulary", "seeds"}),
    "train-nb-triplets": (["train", *TRIPLETS], {"corpus", "vocabulary", "labels"}),
    "train-axis": (["train", "--model", "axis", *AXIS, "--vocabulary", "{d}/vocab.txt"],
                   {"embeddings", "seeds"}),
    "predict": (["predict", "--model-path", "{m}", *CORPUS],
                {"model_path", "corpus", "vocabulary"}),
    "calibrate-triplets": (["calibrate", "--model-path", "{m}", *TRIPLETS],
                           {"model_path", "corpus", "vocabulary", "labels"}),
    "quantify": (["quantify", "--model-path", "{m}", "--validation", "{d}/corpus.jsonl",
                  "--target", "{d}/target.jsonl", "--vocabulary", "{d}/vocab.txt"],
                 {"model_path", "validation", "target", "vocabulary"}),
    "quantify-saved": (["quantify", "--quantifier", "{q}", "--model-path", "{m}",
                        "--target", "{d}/target.jsonl", "--vocabulary", "{d}/vocab.txt"],
                       {"quantifier", "target", "vocabulary"}),
    "quantify-triplets-validation": (["quantify", "--model-path", "{m}", "--validation",
                                      "{t}/c.csv", "--labels", "{t}/l.csv", "--target",
                                      "{d}/target.jsonl", "--vocabulary", "{d}/vocab.txt"],
                                     {"model_path", "validation", "labels", "target",
                                      "vocabulary"}),
    # a saved quantifier needs no validation corpus, so the labels go unread
    "quantify-saved-labels": (["quantify", "--quantifier", "{q}", "--labels", "{t}/l.csv",
                               "--target", "{d}/target.jsonl", "--vocabulary", "{d}/vocab.txt"],
                              {"quantifier", "target", "vocabulary"}),
    "evaluate-robustness": (["evaluate", *CORPUS, *TINY, "--robustness", "--model-path", "{m}"],
                            {"corpus", "vocabulary", "model_path"}),
    "evaluate-axis": (["evaluate", *CORPUS, *TINY, "--model", "axis", *AXIS],
                      {"corpus", "vocabulary", "embeddings", "seeds"}),
    "importance": (["importance", *CORPUS, "--importance-boot", "2"], {"corpus", "vocabulary"}),
    "report-axis": (["report", *CORPUS, *TINY, "--models", "nb", "axis", *AXIS,
                     "--repeats", "2", "--cohort-size", "25"],
                    {"corpus", "vocabulary", "embeddings", "seeds"}),
}


def _spy_on_reads(monkeypatch) -> set:
    """Real paths of the files opened for reading from now on."""
    opened = set()
    real_open = io.open

    def spy(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            opened.add(os.path.realpath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    monkeypatch.setattr(io, "open", spy)
    return opened


@pytest.mark.filterwarnings("ignore:scores are uncalibrated")
@pytest.mark.parametrize("case", list(MANIFEST_CASES))
def test_manifest_inputs_are_the_files_read(demo_files, tmp_path, monkeypatch, case):
    d = demo_files["dir"]
    corpus = demo_files["corpus"]
    write_corpus_triplets(corpus, tmp_path / "c.csv", labels_path=tmp_path / "l.csv")
    model, _ = fit(corpus, use_log_normal=True)
    save_model(model, tmp_path / "m.json")
    save_model(QuantifierModel(model, mode="cc"), tmp_path / "q.json")
    argv, expected = MANIFEST_CASES[case]
    argv = [a.format(d=d, m=tmp_path / "m.json", q=tmp_path / "q.json", t=tmp_path) for a in argv]
    out = tmp_path / "out"

    opened = _spy_on_reads(monkeypatch)
    assert main([*argv, "--out-dir", str(out)]) == 0
    monkeypatch.undo()

    inputs = _read_json(out / "manifest.json")["inputs"]
    assert set(inputs) == expected
    package = os.path.dirname(os.path.realpath(demoscope.__file__))
    read = {path for path in opened if not path.startswith(package + os.sep)}
    assert read == {os.path.realpath(entry["path"]) for entry in inputs.values()}
    for entry in inputs.values():
        assert entry["sha256"] == hashlib.sha256(open(entry["path"], "rb").read()).hexdigest()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_manifest_config_holds_the_settings_the_command_offers(tmp_path, command):
    """Its keys are the command's flags, --config aside: no setting it
    never reads, so none that would only move config_hash."""
    write_manifest(Run(command, RunConfig(out_dir=str(tmp_path))))
    config = _read_json(tmp_path / "manifest.json")["config"]
    offered = {a.dest for a in _subparsers()[command]._actions} - {"help", "config"}
    assert set(config) == offered


def _bad_nb(demo_files, tmp_path, **fields) -> list[str]:
    return _bad_model(fit(demo_files["corpus"])[0], demo_files, tmp_path, **fields)


def _bad_axis(demo_files, tmp_path, **fields) -> list[str]:
    model = AxisModel("synthetic", ("a", "b"), np.array([1.0, -1.0]), ("a",), ("b",))
    return _bad_model(model, demo_files, tmp_path, **fields)


def _bad_model(model, demo_files, tmp_path, **fields) -> list[str]:
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = _read_json(path)
    payload |= {k: v(payload[k]) if callable(v) else v for k, v in fields.items()}
    path.write_text(json.dumps(payload), encoding="utf-8")
    d = demo_files["dir"]
    return ["predict", "--model-path", str(path), "--corpus", str(d / "target.jsonl"),
            "--vocabulary", str(d / "vocab.txt")]


def _bad_majority(demo_files, tmp_path, **fields) -> list[str]:
    return _bad_model(MajorityClassifier(majority=0, rate=0.3), demo_files, tmp_path, **fields)


def _bad_quant(demo_files, tmp_path, **fields) -> list[str]:
    quant = QuantifierModel(MajorityClassifier(majority=0, rate=0.3), mode="cc")
    _bad_model(quant, demo_files, tmp_path, **fields)
    d = demo_files["dir"]
    return ["quantify", "--quantifier", str(tmp_path / "model.json"),
            "--target", str(d / "target.jsonl"), "--vocabulary", str(d / "vocab.txt")]


def _bad_rules(demo_files, tmp_path, **fields) -> list[str]:
    """extract with the default rules, the gender rule's fields replaced."""
    rules = _read_json(Path(labeling.__file__).parent / "resources" / "rules.default.json")
    rules[1] |= fields
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules), encoding="utf-8")
    return ["extract", "--comments", str(demo_files["dir"] / "comments.jsonl"),
            "--rules", str(path)]


def _bad_seeds(demo_files, tmp_path, **fields) -> list[str]:
    seeds = demo_files["seeds"]
    item = {"attribute": seeds.attribute, "pole_a": list(seeds.pole_a),
            "pole_b": list(seeds.pole_b)} | fields
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(item), encoding="utf-8")
    d = demo_files["dir"]
    return ["label-distant", "--corpus", str(d / "corpus.jsonl"),
            "--vocabulary", str(d / "vocab.txt"), "--seeds", str(path)]


@pytest.mark.parametrize(
    "make, fields, expected",
    [
        (_bad_nb, {"k": "two"}, "field 'k': expected a JSON integer"),
        (_bad_nb, {"k": 3}, "field 'k'"),
        (_bad_nb, {"log_cond": [[-1.0, -2.0], [-1.0]]}, "field 'log_cond'"),
        (_bad_nb, {"alpha1": [1.0]}, "field 'alpha1': expected a JSON number"),
        (_bad_axis, {"communities": "ab"}, "field 'communities': expected a JSON list of strings"),
        (_bad_axis, {"projection": "dot"}, "field 'projection': axis models score by cosine"),
        (_bad_axis, {"threshold": 0.1}, "field 'threshold'"),
        (_bad_seeds, {"threshold": "x"}, "field 'threshold': expected a JSON integer"),
        (_bad_seeds, {"threshold": 2.7}, "field 'threshold': expected a JSON integer"),
        (_bad_seeds, {"pole_a": "abc"}, "field 'pole_a': expected a JSON list of strings"),
        (_bad_seeds, {"treshold": 2}, "seed set 0 unknown field 'treshold'"),
        (_bad_rules, {"negation_patterns": "not"},
         "rule 1 field 'negation_patterns': expected a JSON list of strings"),
        (_bad_rules, {"negation_patterns": [1]},
         "rule 1 field 'negation_patterns': expected a JSON list of strings"),
        (_bad_rules, {"first_person_required": "false"},
         "rule 1 field 'first_person_required': expected a JSON boolean"),
        (_bad_rules, {"negation_pattern": ["not"]}, "rule 1 unknown field 'negation_pattern'"),
        (_bad_nb, {"alpha3": 1.0}, "model payload (nb/1) unknown field 'alpha3'"),
        (_bad_axis, {"attribute": 7}, "field 'attribute': expected a JSON string"),
        (_bad_nb, {"log_cond": lambda lc: [[5.0, *lc[0][1:]], lc[1]]},
         "log_cond entries must be log probabilities"),
        (_bad_nb, {"log_prior": [0.0, 0.0]}, "log_prior must be normalized"),
        (_bad_nb, {"log_cond": lambda lc: [[v - 3.0 for v in lc[0]], lc[1]]},
         "log_cond must be normalized"),
        (_bad_majority, {"majority": 5}, "majority must be class 0 or 1, got 5"),
        (_bad_majority, {"rate": 7.0}, "rate must lie in [0, 1], got 7.0"),
        (_bad_majority, {"rate": 10**400}, "field 'rate': number too large for a float"),
        (_bad_quant, {"validation_size": -5}, "validation_size must be >= 0, got -5"),
        (_bad_quant, {"classifier": {"schema": "iso/1", "breakpoints": [0.5], "values": [0.5]}},
         "field 'classifier': expected a classifier payload, got 'iso/1'"),
        (_bad_axis, {"communities": ["a", "a"]}, "duplicate community names"),
        (_bad_seeds, {"pole_a": ["a", "b"], "pole_b": ["b", "c"]},
         "seeds.json: seed set 0: seed poles overlap: ['b']"),
        (_bad_quant, {"mode": "acc", "tpr": 0.5, "fpr": 0.5},
         "model.json: model payload (quant/1): degenerate correction: tpr == fpr == 0.5"),
    ],
    ids=["model-k-string", "model-k-three", "model-ragged-log-cond", "model-alpha-list",
         "axis-communities-string",
         "axis-projection-dot", "axis-threshold-nonzero",
         "seeds-threshold-string", "seeds-threshold-float", "seeds-pole-string",
         "seeds-threshold-typo", "rules-negation-string", "rules-negation-number",
         "rules-first-person-string", "rules-negation-typo", "model-unknown-key",
         "axis-attribute-number", "nb-log-cond-positive", "nb-log-prior-zeros",
         "nb-row-shifted", "majority-class-five", "majority-rate-seven", "majority-rate-huge",
         "quant-validation-negative", "quant-iso-classifier", "axis-duplicate-community",
         "seeds-poles-overlap", "quant-tpr-equals-fpr"],
)
def test_wrong_typed_json_input_exits_two_with_one_line(
    demo_files, tmp_path, capsys, make, fields, expected
):
    argv = make(demo_files, tmp_path, **fields)
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("demoscope: data error:")
    assert expected in err[0]
    assert str(tmp_path) in err[0]


def test_axis_file_without_threshold_exits_two(demo_files, tmp_path, capsys):
    """axis/1 files name their fixed threshold: a file that leaves it
    out is refused, as one that leaves out the projection is."""
    argv = _bad_axis(demo_files, tmp_path)
    path = tmp_path / "model.json"
    payload = _read_json(path)
    del payload["threshold"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"demoscope: data error: {path}: model payload (axis/1) missing field 'threshold'"
    ]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# the flags each subcommand took before its settings were declared on
# RunConfig, less --threads (evaluation forks workers by itself), --format
# (a corpus file's first record names its format) and the settings no
# output of the command read: --pooled-activity (a class-independent
# activity term cancels in the posterior), importance --alpha1 (the log
# odds read only the conditionals) and quantify --corpus
_FLAGS_BEFORE_TABLE = {
    "extract": {"--attribute", "--botlist", "--comments", "--config", "--median", "--out-dir",
                "--rules", "--seed"},
    "label-distant": {"--attribute", "--config", "--corpus", "--labels",
                      "--out-dir", "--seed", "--seeds", "--vocabulary"},
    "train": {"--alpha1", "--alpha2", "--attribute", "--config", "--corpus", "--embeddings",
              "--labels", "--max-iter", "--model", "--out-dir", "--seed", "--seeds",
              "--semi-supervised", "--tol", "--use-log-normal", "--vocabulary"},
    "predict": {"--config", "--corpus", "--labels", "--model-path", "--out-dir",
                "--seed", "--vocabulary"},
    "calibrate": {"--config", "--corpus", "--labels", "--model-path", "--n-bins",
                  "--out-dir", "--seed", "--vocabulary"},
    "quantify": {"--confidence", "--config", "--labels", "--mode",
                 "--model-path", "--out-dir", "--quantifier", "--seed", "--target",
                 "--validation", "--vocabulary"},
    "evaluate": {"--alpha1", "--alpha2", "--attribute", "--config", "--corpus", "--cv-roc",
                 "--embeddings", "--folds", "--labels", "--model", "--model-path",
                 "--n-boot", "--out-dir", "--robustness", "--seed", "--seeds", "--taus",
                 "--test-fraction", "--vocabulary"},
    "importance": {"--alpha2", "--config", "--corpus",
                   "--importance-boot", "--labels", "--out-dir", "--seed", "--vocabulary"},
    "report": {"--attribute", "--cohort-size", "--config", "--corpus", "--embeddings",
               "--folds", "--labels", "--mode", "--models", "--n-boot",
               "--out-dir", "--repeats", "--seed", "--seeds", "--test-fraction",
               "--vocabulary"},
}


class TestFlagInventory:
    def test_every_subcommand_keeps_its_flags_and_dests(self):
        subparsers = _subparsers()
        assert set(subparsers) == set(_FLAGS_BEFORE_TABLE)
        for command, flags in _FLAGS_BEFORE_TABLE.items():
            actions = subparsers[command]._option_string_actions
            assert flags <= set(actions), command
            for flag in flags:
                assert actions[flag].dest == flag[2:].replace("-", "_"), (command, flag)

    @pytest.mark.parametrize("name,value", [("threads", "2"), ("pooled_activity", "true"),
                                            ("format", "jsonl")],
                             ids=["threads", "pooled-activity", "format"])
    def test_deleted_setting_is_no_flag_and_no_config_key(self, tmp_path, capsys, name, value):
        flag = "--" + name.replace("_", "-")
        assert all(flag not in p._option_string_actions for p in _subparsers().values())
        with pytest.raises(SystemExit) as e:
            main(["report", flag, value])
        assert e.value.code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{name}: {value}\n", encoding="utf-8")
        assert main(["report", "--config", str(cfg)]) == 2
        assert f"config unknown field '{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["importance", "--alpha1", "2"],
                                      ["quantify", "--corpus", "x"]],
                             ids=["importance-alpha1", "quantify-corpus"])
    def test_setting_the_command_does_not_read_is_no_flag_of_it(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_every_config_field_is_a_flag(self):
        dests = {a.dest for p in _subparsers().values() for a in p._actions}
        assert {f.name for f in dataclasses.fields(RunConfig)} <= dests

    def test_evaluate_and_report_offer_every_nb_setting(self):
        """Every NB setting but the switches, which would rename a kind;
        train keeps them as a second spelling of one."""
        subparsers = _subparsers()
        nb = {"--alpha1", "--alpha2", "--max-iter", "--tol"}
        switches = {"--use-log-normal", "--semi-supervised"}
        quant = {"--confidence", "--calibration-fraction", "--prevalence"}
        for command, wanted in (("evaluate", nb), ("report", nb | quant)):
            offered = set(subparsers[command]._option_string_actions)
            assert wanted <= offered and not switches & offered, command
        assert nb | switches <= set(subparsers["train"]._option_string_actions)


def _offered_choices():
    return sorted(
        {
            (action.dest, choice)
            for p in _subparsers().values()
            for action in p._actions
            if action.choices and action.dest != "command"
            for choice in action.choices
        }
    )


@pytest.mark.parametrize("dest,choice", _offered_choices())
def test_every_offered_choice_passes_validation(dest, choice):
    RunConfig(**{dest: choice}).validate()


@pytest.mark.parametrize("command", ["label-distant", "train", "evaluate", "report"])
def test_unknown_attribute_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as e:
        main([command, "--attribute", "foo"])
    assert e.value.code == 1
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_extract_synthetic_attribute_finds_no_declarations(demo_files, tmp_path, capsys):
    d = demo_files["dir"]
    argv = ["extract", "--comments", str(d / "comments.jsonl"), "--attribute", "synthetic",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "demoscope: data error: the built-in rules: no rule for attribute 'synthetic'"
    ]
    assert not (tmp_path / "out").exists()


def _float_settings():
    """(field, first subcommand with its flag, whether it is a tuple)."""
    subparsers = _subparsers()
    return [
        (f.name, next(c for c, p in subparsers.items()
                      if any(a.dest == f.name for a in p._actions)), f.type.startswith("tuple"))
        for f in dataclasses.fields(RunConfig)
        if "float" in f.type
    ]


@pytest.mark.parametrize("value,yaml_value", [("nan", ".nan"), ("inf", ".inf"),
                                              ("-inf", "-.inf")])
@pytest.mark.parametrize("form", ["flag", "yaml"])
@pytest.mark.parametrize("name,command,many", _float_settings())
def test_non_finite_setting_exits_two_with_one_line(
    tmp_path, capsys, name, command, many, form, value, yaml_value
):
    out = tmp_path / "out"
    if form == "flag":
        argv = [command, f"--{name.replace('_', '-')}={value}"]
    else:
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{name}: {f'[0.5, {yaml_value}]' if many else yaml_value}\n",
                       encoding="utf-8")
        argv = [command, "--config", str(cfg)]
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("demoscope:")
    assert f"{name} must be finite" in err[0]
    assert not (out / "manifest.json").exists()


def test_a_kind_name_is_the_whole_model(tmp_path, capsys):
    """On a world whose activity depends on the class, report's nb and
    nb-ln rows differ; neither switch is a flag of evaluate or report,
    and a YAML that sets both leaves every row as it was."""
    rng = np.random.default_rng(14)
    # concentrated conditionals, so no fold separates the classes perfectly
    world = random_world(rng, d=30, concentration=100.0)
    synth.write_vocabulary(world.vocabulary, tmp_path / "vocab.txt")
    synth.write_corpus_jsonl(synth.sample_corpus(world, 400, rng, labeled_fraction=0.8),
                             tmp_path / "corpus.jsonl")
    argv = ["report", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--vocabulary", str(tmp_path / "vocab.txt"), "--models", "nb", "nb-ln",
            "--n-boot", "3", "--folds", "2", "--repeats", "2", "--cohort-size", "20"]
    assert main([*argv, "--out-dir", str(tmp_path / "plain")]) == 0
    plain = (tmp_path / "plain" / "report.json").read_bytes()
    rows = json.loads(plain)["classification"]
    assert rows["nb"] != rows["nb-ln"]
    cfg = tmp_path / "run.yaml"
    cfg.write_text("use_log_normal: true\nsemi_supervised: true\n", encoding="utf-8")
    assert main([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / "yaml")]) == 0
    assert (tmp_path / "yaml" / "report.json").read_bytes() == plain
    for command in (argv, ["evaluate", *argv[1:5], "--model", "nb"]):
        for flag in ("--use-log-normal", "--semi-supervised"):
            capsys.readouterr()
            with pytest.raises(SystemExit) as e:
                main([*command, flag])
            assert e.value.code == 1
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_report_takes_nb_and_quantification_flags(demo_files, tmp_path):
    d = demo_files["dir"]
    out = tmp_path / "out"
    code = main(
        [
            "report",
            "--corpus", str(d / "corpus.jsonl"),
            "--vocabulary", str(d / "vocab.txt"),
            "--models", "majority", "nb",
            "--n-boot", "2", "--folds", "2", "--repeats", "2", "--cohort-size", "50",
            "--alpha1", "2", "--confidence", "0.9",
            "--calibration-fraction", "0.3", "--prevalence", "0.4",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    config = _read_json(out / "manifest.json")["config"]
    assert (config["alpha1"], config["confidence"]) == (2.0, 0.9)
    assert (config["calibration_fraction"], config["prevalence"]) == (0.3, 0.4)


def _with_token(path, token):
    path.write_text(path.read_text(encoding="utf-8").replace('"@@"', token), encoding="utf-8")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_model_file_with_non_finite_number_exits_two(demo_files, tmp_path, capsys, token):
    argv = _bad_nb(demo_files, tmp_path)
    path = tmp_path / "model.json"
    payload = _read_json(path)
    payload["log_cond"][0][0] = "@@"
    path.write_text(json.dumps(payload), encoding="utf-8")
    _with_token(path, token)
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("demoscope: data error:")
    assert f"{path}: invalid JSON (non-finite number {token})" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_seeds_file_with_non_finite_number_exits_two(demo_files, tmp_path, capsys, token):
    argv = _bad_seeds(demo_files, tmp_path, threshold="@@")
    path = tmp_path / "seeds.json"
    _with_token(path, token)
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("demoscope: data error:")
    assert f"{path}: invalid JSON (non-finite number {token})" in err[0]
    assert not out.exists()


# each input kind: argv formatted as MANIFEST_CASES are (with m a saved
# NB model), the file of that kind it reads, and whether that file holds
# JSON or YAML
UNREADABLE_CASES = {
    "jsonl-corpus": (["train", *CORPUS], "{d}/corpus.jsonl", True),
    "triplets-corpus": (["train", *TRIPLETS], "{t}/c.csv", False),
    "labels": (["train", *TRIPLETS], "{t}/l.csv", False),
    "vocabulary": (["train", *CORPUS], "{d}/vocab.txt", False),
    "comments": (["extract", "--comments", "{d}/comments.jsonl"], "{d}/comments.jsonl", False),
    "botlist": (["extract", "--comments", "{d}/comments.jsonl", "--botlist", "{d}/botlist.txt"],
                "{d}/botlist.txt", False),
    "embeddings": (["train", "--model", "axis", *AXIS], "{d}/embeddings.tsv", False),
    "seeds": (["label-distant", *CORPUS, "--seeds", "{d}/seeds.json"], "{d}/seeds.json", True),
    "rules": (["extract", "--comments", "{d}/comments.jsonl", "--rules", "{d}/rules.json"],
              "{d}/rules.json", True),
    "config": (["train", "--config", "{d}/run.yaml"], "{d}/run.yaml", True),
    "model": (["predict", "--model-path", "{m}", *CORPUS], "{m}", True),
}


def _unreadable_case(demo_files, tmp_path, reader):
    """The argv and input path of UNREADABLE_CASES[reader], every input
    written valid."""
    d = demo_files["dir"]
    write_corpus_triplets(demo_files["corpus"], tmp_path / "c.csv", labels_path=tmp_path / "l.csv")
    save_model(fit(demo_files["corpus"])[0], tmp_path / "m.json")
    rules = Path(labeling.__file__).parent / "resources" / "rules.default.json"
    (d / "rules.json").write_bytes(rules.read_bytes())
    (d / "run.yaml").write_text("alpha1: 1.0\n", encoding="utf-8")
    argv, path, _ = UNREADABLE_CASES[reader]
    names = {"d": d, "m": tmp_path / "m.json", "t": tmp_path}
    return [a.format(**names) for a in argv], Path(path.format(**names))


# a JSON or YAML file whose top-level value has the wrong type: its
# content by test id, and per input kind the refusal of each
WRONG_TOP_LEVEL = {"list": "[]", "string": '"x"', "object": "{}", "numbers": "[1]"}
# an integer of more digits than Python converts from a string by default
LONG_INTEGER = "1" + "0" * 5000
WRONG_TOP_LEVEL_REFUSALS = {
    "jsonl-corpus": dict.fromkeys(WRONG_TOP_LEVEL, ":1: expected an object with a 'user' field"),
    "seeds": {
        "list": "seed file has no entry for 'gender'",
        "string": "seed set 0: expected a JSON object",
        "object": "seed set 0 missing field 'attribute'",
        "numbers": "seed set 0: expected a JSON object",
    },
    "rules": {
        "list": "no rule for attribute 'gender'",
        "string": "expected a JSON list of rules",
        "object": "expected a JSON list of rules",
        "numbers": "rule 0: expected a JSON object",
    },
    # an empty mapping is a valid config
    "config": dict.fromkeys(("list", "string", "numbers"), "config: expected a JSON object"),
    "model": dict.fromkeys(WRONG_TOP_LEVEL, "model payload lacks a schema tag"),
}


def _unreadable_contents(reader: str, structured: bool) -> tuple[str, ...]:
    return (
        ("invalid-utf8", "bom", "deep-nesting")[: 2 + structured]
        + ("empty",) * (reader.endswith("-corpus") or reader == "comments")
        + ("truncated",) * (reader in ("jsonl-corpus", "seeds", "model"))
        + ("long-integer",) * (reader in ("jsonl-corpus", "triplets-corpus", "labels")
                               or structured)
        + tuple(WRONG_TOP_LEVEL_REFUSALS.get(reader, ()))
        + ("lists",) * (reader == "comments")
        + ("duplicate", "non-finite") * (reader == "embeddings")
    )


@pytest.mark.parametrize(
    "reader, content",
    [
        pytest.param(reader, content, id=f"{reader}-{content}")
        for reader, (_, _, structured) in UNREADABLE_CASES.items()
        for content in _unreadable_contents(reader, structured)
    ],
)
def test_unreadable_file_exits_two_naming_it(demo_files, tmp_path, capsys, reader, content):
    """Invalid UTF-8 or a leading byte-order mark in any input, nesting
    too deep to parse, a truncated file or a top-level value of the wrong
    type in a JSON or YAML input, an empty corpus, and a comments file
    with no comment in it, is one data-error line naming the file (or,
    for an empty corpus given a labels file, the labels file's line)."""
    argv, path = _unreadable_case(demo_files, tmp_path, reader)
    named = path  # the file the error line starts with
    if content == "empty":
        path.write_bytes(b"")
        # without the triplets header a file is jsonl: read as such, it holds
        # no user, so the first user its labels file names is unknown
        if reader == "triplets-corpus":
            named = tmp_path / "l.csv"
        expected = {
            "triplets-corpus": f"{named}:2: label for unknown user 'u000000'",
            "comments": f"{path}: no coherent 'gender' declarations found",
        }.get(reader, f"{path}: no user rows")
    elif content == "lists":
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(f"[{line}]\n" for line in lines), encoding="utf-8")
        expected = f"{path}: no coherent 'gender' declarations found"
    elif content == "truncated":
        path.write_bytes(path.read_bytes().rstrip()[:-1])
        expected = "invalid JSON ("
    elif content == "long-integer":
        # past Python's int-string limit, where json and yaml raise ValueError
        if reader == "jsonl-corpus":
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            line = f'{{"user": "long", "counts": {{"c": {LONG_INTEGER}}}}}\n'
            path.write_text("".join([*lines, line]), encoding="utf-8")
            expected = f"{path}:{len(lines) + 1}: invalid JSON (Exceeds the limit"
        elif reader in ("triplets-corpus", "labels"):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            # the first record with its last field, the count or label, replaced
            line = lines[1].rstrip("\n").rpartition(",")[0] + f",{LONG_INTEGER}\n"
            path.write_text("".join([*lines, line]), encoding="utf-8")
            what = "count" if reader == "triplets-corpus" else "label"
            expected = f"{path}:{len(lines) + 1}: {what} too long (Exceeds the limit"
        else:
            path.write_text(LONG_INTEGER + "\n", encoding="utf-8")
            kind = "YAML" if reader == "config" else "JSON"
            expected = f"{path}: invalid {kind} (Exceeds the limit"
    elif content == "duplicate":
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([*lines, lines[0]]), encoding="utf-8")
        names = [lines[0].split("\t")[0]]
        expected = f"{path}: duplicate table entries: {names}"
    elif content == "non-finite":
        name, _, rest = path.read_text(encoding="utf-8").split("\t", 2)
        path.write_text("\t".join([name, "nan", rest]), encoding="utf-8")
        expected = f"{path}: embedding vectors must be finite"
    elif content in WRONG_TOP_LEVEL:
        path.write_text(WRONG_TOP_LEVEL[content] + "\n", encoding="utf-8")
        expected = WRONG_TOP_LEVEL_REFUSALS[reader][content]
    elif content == "invalid-utf8":
        lines = path.read_bytes().splitlines()
        path.write_bytes(b"\n".join([*lines, b"\xff"]))
        expected = f"{path}: not UTF-8 text (line {len(lines) + 1})"
    elif content == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        expected = f"{path}: starts with a UTF-8 byte-order mark"
    else:
        path.write_bytes(b"[" * 100_000)
        expected = "nested too deeply to parse"
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"demoscope: data error: {named}")
    assert expected in err[0]
    assert len(err[0]) < len(str(named)) + 200
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["predict", "label-distant", "quantify"])
@pytest.mark.parametrize(
    "content", [b"", b"\n  \n", b"user,community,count\n"],
    ids=["empty", "blank-lines", "header-only"],
)
def test_corpus_without_user_rows_exits_two_before_writing(
    demo_files, tmp_path, capsys, command, content
):
    d, empty = demo_files["dir"], tmp_path / "empty"
    empty.write_bytes(content)
    save_model(fit(demo_files["corpus"])[0], tmp_path / "m.json")
    data = ["--vocabulary", str(d / "vocab.txt")]
    argv = {
        "predict": ["predict", "--model-path", str(tmp_path / "m.json"), "--corpus", str(empty)],
        "label-distant": ["label-distant", "--corpus", str(empty), "--seeds", str(d / "seeds.json")],
        "quantify": ["quantify", "--model-path", str(tmp_path / "m.json"), "--target", str(empty),
                     "--validation", str(d / "corpus.jsonl")],
    }[command]
    out = tmp_path / "out"
    assert main([*argv, *data, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"demoscope: data error: {empty}: no user rows"]
    assert not out.exists() or list(out.iterdir()) == []


def test_corpus_format_is_read_from_its_first_record(tmp_path, capsys):
    """A file whose first CSV record starts with the triplets header, in
    any shape csv reads, loads as the jsonl file holding the same rows
    does; any other file is jsonl, so a first line that is not JSON, or
    that csv cannot parse, is one jsonl error at line 1."""
    vocab = CommunityVocabulary(("a", "b"))
    twin, f, labels = tmp_path / "c.jsonl", tmp_path / "c.csv", tmp_path / "l.csv"
    twin.write_text('{"user": "u", "counts": {"a": 2, "b": 1}, "label": 1}\n'
                    '{"user": "w", "counts": {"b": 4}, "label": 0}\n', encoding="utf-8")
    labels.write_text("user,label\nu,1\nw,0\n", encoding="utf-8")
    want, _ = load_corpus(twin, vocab)
    for header in ("user,community,count", '"user","community","count"',
                   " user , community ,count ", "user,community,count,note"):
        f.write_text(f"{header}\nu,a,2\nu,b,1\nw,b,4\n", encoding="utf-8")
        got, _ = load_corpus(f, vocab, labels_path=labels)
        assert got.user_ids.tolist() == want.user_ids.tolist(), header
        assert got.labels.tolist() == want.labels.tolist(), header
        assert np.array_equal(got.X.toarray(), want.X.toarray()), header
    (tmp_path / "vocab.txt").write_text("a\nb\n", encoding="utf-8")
    argv = ["train", "--corpus", str(f), "--vocabulary", str(tmp_path / "vocab.txt"),
            "--out-dir", str(tmp_path / "out")]
    for first in (b'\x00{"user": "u", "counts": {"a": 1}}', b"user;community;count",
                  b'"' + b"x" * 200_000):  # past csv's field limit
        f.write_bytes(first + b"\n" + twin.read_bytes())
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"demoscope: data error: {f}:1: invalid JSON (")
        assert len(err[0]) < len(str(f)) + 100


def _comment_line_is_skipped_and_counted(demo_files, tmp_path, bad_line: bytes, *extra: str):
    argv, path = _unreadable_case(demo_files, tmp_path, "comments")
    argv += extra
    assert main([*argv, "--out-dir", str(tmp_path / "clean")]) == 0
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join([*lines[:3], bad_line + b"\n", *lines[3:]]))
    assert main([*argv, "--out-dir", str(tmp_path / "bad")]) == 0
    clean = _read_json(tmp_path / "clean" / "extract_report.json")
    bad = _read_json(tmp_path / "bad" / "extract_report.json")
    assert bad["comments_skipped"] == clean["comments_skipped"] + 1
    assert bad["comments_seen"] == clean["comments_seen"] + 1
    assert bad["users_labeled"] == clean["users_labeled"]


def test_too_deep_comment_is_skipped_and_counted(demo_files, tmp_path):
    _comment_line_is_skipped_and_counted(demo_files, tmp_path, b"[" * 100_000)


def test_comment_with_a_too_long_integer_is_skipped_and_counted(demo_files, tmp_path):
    line = f'{{"user": "u", "text": "I am a woman", "created_utc": {LONG_INTEGER}}}'
    _comment_line_is_skipped_and_counted(demo_files, tmp_path, line.encode())


@pytest.mark.parametrize(
    "created_utc",
    ["99999999999999999999", "253402300800", "-1e18"],
    ids=["past-int64", "year-10000", "minus-1e18"],
)
def test_comment_with_a_timestamp_past_datetime_is_skipped_and_counted(
    demo_files, tmp_path, created_utc
):
    """A birth year from a created_utc no datetime holds: the comment is
    skipped, not a traceback or an error naming no file."""
    line = f'{{"user": "u", "text": "I\'m 25 years old.", "created_utc": {created_utc}}}'
    _comment_line_is_skipped_and_counted(
        demo_files, tmp_path, line.encode(), "--attribute", "year"
    )


@pytest.mark.parametrize("name,command", [("models", "report"), ("taus", "evaluate")])
def test_empty_tuple_setting_from_yaml_exits_two(tmp_path, capsys, name, command):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"{name}: []\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"demoscope: data error: {name} must not be empty"]
    assert not out.exists()


@pytest.mark.parametrize(
    "source, name, value, least",
    [
        pytest.param("flag", "importance_boot", 1, 2, id="flag"),
        pytest.param("yaml", "importance_boot", 1, 2, id="yaml"),
        pytest.param("flag", "seed", -1, 0, id="seed-flag"),
        pytest.param("yaml", "seed", -1, 0, id="seed-yaml"),
    ],
)
def test_importance_boot_below_two_exits_two_naming_it(
    demo_files, tmp_path, capsys, source, name, value, least
):
    """importance_boot below 2, and a negative seed, exit 2 before anything runs."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"{name}: {value}\n", encoding="utf-8")
    flag = f"--{name.replace('_', '-')}"
    setting = [f"{flag}={value}"] if source == "flag" else ["--config", str(cfg)]
    argv = ["importance", *[a.format(d=demo_files["dir"]) for a in CORPUS], *setting]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"demoscope: data error: {name} must be >= {least}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("attribute", ["gender", "partisan"])
def test_extract_median_without_year_exits_two(demo_files, tmp_path, capsys, attribute):
    out = tmp_path / "out"
    comments = str(demo_files["dir"] / "comments.jsonl")
    argv = ["extract", "--comments", comments, "--attribute", attribute, "--median", "1990"]
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"demoscope: data error: a median applies only to attribute 'year', not {attribute!r}"
    ]
    assert not out.exists()


def test_warning_is_one_line_on_stderr(demo_files, tmp_path):
    """The console entry prints a warning as one line, without Python's
    file:line prefix or the source line."""
    d = demo_files["dir"]
    names = (d / "vocab.txt").read_text(encoding="utf-8").splitlines()
    (tmp_path / "half.txt").write_text("\n".join(names[::2]) + "\n", encoding="utf-8")
    argv = ["train", "--model", "majority", "--corpus", str(d / "corpus.jsonl"),
            "--vocabulary", str(tmp_path / "half.txt"), "--out-dir", str(tmp_path / "out")]
    done = _python("-m", "demoscope.cli", *argv)
    assert done.returncode == 0, done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("demoscope: warning: dropped ")
    assert err[0].endswith(" activity pairs referencing communities outside the vocabulary")


def test_supervised_train_warns_of_unlabeled_rows_in_one_line(demo_files, tmp_path):
    """A supervised fit reads only the labeled rows; the rows it leaves
    out are counted in one warning line."""
    d = demo_files["dir"]
    unlabeled = int((demo_files["corpus"].labels < 0).sum())
    argv = ["train", "--model", "nb", "--corpus", str(d / "corpus.jsonl"),
            "--vocabulary", str(d / "vocab.txt"), "--out-dir", str(tmp_path / "out")]
    done = _python("-m", "demoscope.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert unlabeled == 100
    assert done.stderr.splitlines() == [
        f"demoscope: warning: dropped {unlabeled} unlabeled rows from the supervised fit"
    ]


def test_huge_embedding_component_exits_two_in_one_line(demo_files, tmp_path):
    """A component whose square overflows is refused at its line, before
    any norm is taken: no floating-point warning line comes first."""
    d = demo_files["dir"]
    lines = (d / "embeddings.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    name, _, rest = lines[1].split("\t", 2)
    path = tmp_path / "embeddings.tsv"
    path.write_text("".join([lines[0], f"{name}\t1e308\t{rest}", *lines[2:]]), encoding="utf-8")
    argv = ["train", "--model", "axis", "--embeddings", str(path), "--seeds",
            str(d / "seeds.json"), "--out-dir", str(tmp_path / "out")]
    done = _python("-m", "demoscope.cli", *argv)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"demoscope: data error: {path}:2: embedding value too large (limit 1e+150)"
    ]


@pytest.mark.parametrize("value, refusal", [("0", "n_bins must be >= 1"),
                                            ("10000000000000", "n_bins must be <= 1000000")],
                         ids=["zero", "ten-trillion"])
def test_n_bins_out_of_range_exits_two_before_any_input(tmp_path, capsys, value, refusal):
    """Refused while the settings resolve: the command names no input,
    so nothing is read and no reliability table is allocated."""
    out = tmp_path / "out"
    assert main(["calibrate", "--n-bins", value, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"demoscope: data error: {refusal}"]
    assert not out.exists()


@pytest.mark.parametrize("flags, refusal", [
    (["--models", "nb", "axis", "nb"], "models must not repeat a kind, got nb axis nb"),
    (["--prevalence", "1.5"], "prevalence must lie in [0, 1], got 1.5"),
], ids=["repeated-model", "prevalence-above-one"])
def test_report_setting_out_of_range_exits_two_before_any_input(tmp_path, capsys, flags, refusal):
    """Refused while the settings resolve, not after every bootstrap
    replicate has run: the command names no input, so nothing is read."""
    out = tmp_path / "out"
    assert main(["report", *flags, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"demoscope: data error: {refusal}"]
    assert not out.exists()
