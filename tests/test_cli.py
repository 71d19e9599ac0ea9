"""Command-line pipeline: exit codes, outputs, config precedence, manifests."""

import argparse
import builtins
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import demoscope
from demoscope import synth
from demoscope.axis import AxisModel
from demoscope.bayes import fit, fit_supervised
from demoscope.calibrate import IsotonicMap
from demoscope.classifiers import MajorityClassifier
from demoscope.cli import (
    Run,
    RunConfig,
    _factory_for,
    build_parser,
    load_config,
    main,
    stage_seed,
)
from demoscope.data import CommunityVocabulary, LabeledCorpus, load_corpus, load_vocabulary
from demoscope.quantify import QuantifierModel
from demoscope.serialize import load_model, save_model

from helpers import write_corpus_triplets


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_cli_import_loads_no_scipy_stats():
    """scipy.stats costs more to import than most commands take to run."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.realpath(demoscope.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, demoscope.cli; print(sorted(m for m in sys.modules if 'scipy.stats' in m))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("alpha_one: 2.5\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--model", "nb"])
        assert code == 2
        assert "unknown config keys: alpha_one" in capsys.readouterr().err

    def test_invalid_yaml_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("alpha1: [unclosed\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--model", "nb"])
        assert code == 2
        assert "invalid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "yaml_text, corpus_is_dir, expected",
        [
            ("n_boot: many\n", False, "'n_boot' must be int"),
            ("models: 5\n", False, "'models' must be tuple[str, ...]"),
            ("", True, "Is a directory"),
        ],
        ids=["n_boot-string", "models-int", "corpus-directory"],
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
        assert err[0].startswith("demoscope: data error: rule 'gender' negation 1: ")


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
        assert self._train(d, out, "--model", "nb", "--use-log-normal") == 0

        vocab = load_vocabulary(d / "vocab.txt")
        corpus, _ = load_corpus(d / "corpus.jsonl", vocab)
        labeled = corpus.subset(np.flatnonzero(corpus.labeled_mask))
        model, _ = fit_supervised(labeled, use_log_normal=True)
        ref = tmp_path / "ref.json"
        save_model(model, ref)
        assert ref.read_bytes() == (out / "model.json").read_bytes()

    def test_rerun_is_byte_identical(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self._train(d, out1, "--model", "nb", "--semi-supervised") == 0
        assert self._train(d, out2, "--model", "nb", "--semi-supervised") == 0
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
                "--format", "triplets",
                "--labels", str(tmp_path / "l.csv"),
                "--vocabulary", str(d / "vocab.txt"),
                "--model", "nb",
                "--out-dir", str(out2),
            ]
        )
        assert code == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_labels_with_jsonl_corpus_exits_two_with_one_line(self, demo_files, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text("user,label\n", encoding="utf-8")
        out = tmp_path / "out"
        assert self._train(demo_files["dir"], out, "--labels", str(labels)) == 2
        err = capsys.readouterr().err.splitlines()
        corpus = demo_files["dir"] / "corpus.jsonl"
        assert err == [
            "demoscope: data error: --labels applies only with --format triplets; "
            f"--corpus {corpus} is read as jsonl"
        ]
        assert not (out / "model.json").exists()

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
        # distant-label poles mark class 0 with pole_a; the axis scores
        # its own pole_a as class 1, so training swaps them
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
        assert not (tmp_path / "partisan" / "model.json").exists()

    @pytest.mark.parametrize(
        "kind,flag", [("nb-ln", "--use-log-normal"), ("nb-ss", "--semi-supervised")]
    )
    def test_train_nb_variant_fits_as_nb_with_its_flag(self, demo_files, tmp_path, kind, flag):
        d = demo_files["dir"]
        assert self._train(d, tmp_path / "kind", "--model", kind) == 0
        assert self._train(d, tmp_path / "flag", "--model", "nb", flag) == 0
        model = (tmp_path / "kind" / "model.json").read_bytes()
        assert model == (tmp_path / "flag" / "model.json").read_bytes()
        assert _read_json(tmp_path / "kind" / "fit_report.json")["model"] == kind

    def test_train_majority(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        assert self._train(d, out, "--model", "majority") == 0
        assert _read_json(out / "model.json")["schema"] == "majority/1"

    def test_fit_report_semi_supervised(self, demo_files, tmp_path):
        d = demo_files["dir"]
        out = tmp_path / "out"
        assert self._train(d, out, "--model", "nb", "--semi-supervised") == 0
        report = _read_json(out / "fit_report.json")
        assert report["semi_supervised"] is True
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
                "--model", "nb",
                "--use-log-normal",
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
            "--corpus", str(d / "corpus.jsonl"),
            "--vocabulary", str(d / "vocab.txt"),
            "--out-dir", str(tmp_path / "out"),
        ]
        if command == "quantify":
            args += ["--validation", str(d / "corpus.jsonl"), "--target", str(d / "target.jsonl")]
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

    def test_nb_ln_factory_honours_yaml_pooled_activity(self, demo_files, tmp_path):
        labeled = demo_files["corpus"].subset(np.flatnonzero(demo_files["corpus"].labeled_mask))
        cfg_path = tmp_path / "run.yaml"
        for pooled in (True, False):
            cfg_path.write_text(f"pooled_activity: {str(pooled).lower()}\n", encoding="utf-8")
            run = Run("evaluate", load_config(cfg_path), argparse.Namespace())
            model = _factory_for("nb-ln", run)(labeled)
            # pooled statistics give every class the same (mu, sigma)
            assert np.array_equal(model.activity[0], model.activity[1]) == pooled

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
        d = demo_files["dir"]
        cfg = tmp_path / "run.yaml"
        cfg.write_text("use_log_normal: true\n", encoding="utf-8")

        def replicates(kind, *config):
            out = tmp_path / f"{kind}{len(config)}"
            code = main(
                [
                    "evaluate",
                    *config,
                    "--corpus", str(d / "corpus.jsonl"),
                    "--vocabulary", str(d / "vocab.txt"),
                    "--model", kind,
                    "--n-boot", "3",
                    "--out-dir", str(out),
                ]
            )
            assert code == 0
            return _read_json(out / "metrics.json")["replicates"]

        log_normal = replicates("nb-ln")
        assert replicates("nb", "--config", str(cfg)) == log_normal
        assert replicates("nb") != log_normal

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


CORPUS = ["--corpus", "{d}/corpus.jsonl", "--vocabulary", "{d}/vocab.txt"]
TRIPLETS = ["--corpus", "{t}/c.csv", "--format", "triplets", "--labels", "{t}/l.csv",
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


def _bad_nb(demo_files, tmp_path, **fields) -> list[str]:
    return _bad_model(fit(demo_files["corpus"])[0], demo_files, tmp_path, **fields)


def _bad_axis(demo_files, tmp_path, **fields) -> list[str]:
    model = AxisModel("synthetic", ("a", "b"), np.array([1.0, -1.0]), ("a",), ("b",))
    return _bad_model(model, demo_files, tmp_path, **fields)


def _bad_model(model, demo_files, tmp_path, **fields) -> list[str]:
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = _read_json(path) | fields
    path.write_text(json.dumps(payload), encoding="utf-8")
    d = demo_files["dir"]
    return ["predict", "--model-path", str(path), "--corpus", str(d / "target.jsonl"),
            "--vocabulary", str(d / "vocab.txt")]


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
        (_bad_seeds, {"threshold": "x"}, "threshold must be a JSON integer"),
        (_bad_seeds, {"threshold": 2.7}, "threshold must be a JSON integer"),
        (_bad_seeds, {"pole_a": "abc"}, "pole_a must be a list of strings"),
    ],
    ids=["model-k-string", "model-k-three", "model-ragged-log-cond", "model-alpha-list",
         "axis-communities-string",
         "axis-projection-dot",
         "seeds-threshold-string", "seeds-threshold-float", "seeds-pole-string"],
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
