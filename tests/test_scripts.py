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


def test_demo_chain_digests_repeat_across_runs(tmp_path):
    """Same seed, same bytes: every output of the CLI chain, run twice."""
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = _run("demo_chain.py", "--out-dir", str(out), "--seed", "1",
                    "--n-train", "200", "--n-target", "80", "--d", "30")
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads((out / "digests.json").read_text(encoding="utf-8")))
    assert digests[0] == digests[1]
    # each step of the chain wrote something besides its manifest
    steps = {name.split("/")[0] for name in digests[0]}
    assert {"extract", "train", "calibrate", "quantify", "predict", "robustness", "report",
            "importance", "train-axis", "quantify-axis", "predict-axis"} <= steps
