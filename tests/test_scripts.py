"""Smoke runs of the command-line scripts under scripts/ at a tiny size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script, args, files",
    [
        (
            "make_demo_data.py",
            ["--n-train", "80", "--n-target", "40", "--d", "20"],
            ["vocab.txt", "corpus.jsonl", "target.jsonl", "comments.jsonl", "embeddings.tsv",
             "seeds.json", "botlist.txt", "run.yaml", "truth.json"],
        ),
        (
            "run_synthetic_benchmark.py",
            ["--n", "600", "--d", "30", "--n-boot", "2", "--repeats", "2",
             "--cohort-size", "20", "--sizes", "20", "40"],
            ["classification.csv", "quantification.csv", "learning_nb.csv",
             "learning_axis.csv", "summary.json"],
        ),
    ],
    ids=["make_demo_data", "run_synthetic_benchmark"],
)
def test_script_runs_and_writes_outputs(script, args, files, tmp_path):
    out = tmp_path / "out"
    proc = _run(script, "--out-dir", str(out), "--seed", "0", *args)
    assert proc.returncode == 0, proc.stderr
    for name in files:
        assert (out / name).stat().st_size > 0, name


def test_synthetic_benchmark_bytes_repeat_across_runs(tmp_path):
    """Same seed, same bytes: the four CSVs and summary.json (but for its
    elapsed_s) of two smoke-size runs into the same directory."""
    out = tmp_path / "out"
    csvs = ["classification.csv", "quantification.csv", "learning_nb.csv", "learning_axis.csv"]
    runs = []
    for _ in range(2):
        proc = _run("run_synthetic_benchmark.py", "--out-dir", str(out), "--seed", "0",
                    "--n", "600", "--d", "30", "--n-boot", "2", "--repeats", "2",
                    "--cohort-size", "20", "--sizes", "20", "40")
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary.pop("elapsed_s") >= 0
        runs.append(({name: (out / name).read_bytes() for name in csvs}, summary))
    assert runs[0] == runs[1]
    # calibrated models: every quantification row reports a coverage
    rows = runs[0][0]["quantification.csv"].decode("utf-8").splitlines()[1:]
    assert rows and all(row.split(",")[4] for row in rows)


def test_demo_chain_digests_repeat_across_runs(tmp_path):
    """Same seed, same bytes: every output and manifest of the CLI chain,
    run twice. The outputs also match tests/data/demo_chain_digests.json,
    so a change that moves any output byte fails here until that file is
    rewritten from a run of this chain."""
    digests, manifests = [], []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = _run("demo_chain.py", "--out-dir", str(out), "--seed", "1",
                    "--n-train", "200", "--n-target", "80", "--d", "30")
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads((out / "digests.json").read_text(encoding="utf-8")))
        manifests.append(json.loads((out / "manifests.json").read_text(encoding="utf-8")))
    assert digests[0] == digests[1]
    assert manifests[0] == manifests[1]
    pinned = json.loads((ROOT / "tests" / "data" / "demo_chain_digests.json").read_text("utf-8"))
    assert digests[0] == pinned
    assert set(manifests[0]) == {name.split("/")[0] for name in digests[0]}
    assert manifests[0]["robustness"]["command"] == "evaluate"
    assert set(manifests[0]["robustness"]["inputs"]) == {"corpus", "vocabulary", "model_path"}
    # the files each step writes besides its manifest, as its manifest lists them
    written: dict[str, list[str]] = {}
    for name in digests[0]:
        step, file = name.split("/", 1)
        written.setdefault(step, []).append(file)
    assert written == CHAIN_OUTPUTS
    assert {step: m["outputs"] for step, m in manifests[0].items()} == CHAIN_OUTPUTS


CHAIN_OUTPUTS = {
    "extract": ["declarations.jsonl", "extract_report.json", "labels.csv"],
    "distant": ["distant_report.json", "labels.csv"],
    "train": ["fit_report.json", "model.json"],
    "calibrate": ["calibration_report.json", "model.json"],
    "quantify": ["estimate.json", "quantifier.json"],
    "predict": ["predictions.csv"],
    "evaluate": ["metrics.json", "roc_curve.csv"],
    "robustness": ["robustness.csv"],
    "report": ["report.json", "roc_axis.csv", "roc_majority.csv", "roc_nb.csv", "roc_nb_ln.csv"],
    "importance": ["importance.csv"],
    "train-axis": ["fit_report.json", "model.json"],
    "quantify-axis": ["estimate.json", "quantifier.json"],
    "predict-axis": ["predictions.csv"],
}
