#!/usr/bin/env python3
"""Run the whole CLI on a demo dataset and fingerprint what it writes.

    python3 scripts/demo_chain.py --out-dir DIR [--seed N] [make_demo_data options]

Makes demo data in DIR/data with make_demo_data.py (any further options,
such as --n-train 300, pass through to it), then runs the README chain
plus axis train/quantify/predict and an evaluate --robustness sweep, one
command per directory under DIR/out. It runs in DIR and names every
file relative to it, so the outputs and resolved configs of two runs do
not depend on where each DIR is. Writes DIR/digests.json: the sha256
of every file under DIR/out except manifest.json, which records a
creation time. Writes DIR/manifests.json: per step, its manifest's
command, config_hash, its inputs as name -> sha256 (paths dropped) and
its outputs. Two runs of one seed, or two commits that should behave
alike, are compared by diffing their digests.json and manifests.json; a
change that moves a setting's resolved value shows in config_hash even
where the outputs stay the same.

Exits 1 if a command does not exit 0.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from demoscope.cli import main as demoscope


def chain(data: Path, out: Path) -> list[tuple[str, list[str]]]:
    cfg = ["--config", str(data / "run.yaml")]
    vocab = ["--vocabulary", str(data / "vocab.txt")]
    corpus, target = str(data / "corpus.jsonl"), str(data / "target.jsonl")
    nb, ax = str(out / "calibrate" / "model.json"), str(out / "train-axis" / "model.json")
    steps = {
        "extract": ["extract", "--comments", str(data / "comments.jsonl"),
                    "--botlist", str(data / "botlist.txt"), "--attribute", "gender"],
        "distant": ["label-distant", "--corpus", corpus, *vocab,
                    "--seeds", str(data / "seeds.json"), "--attribute", "synthetic"],
        "train": ["train", *cfg, "--model", "nb", "--semi-supervised", "--use-log-normal"],
        "calibrate": ["calibrate", *cfg, "--model-path", str(out / "train" / "model.json")],
        "quantify": ["quantify", *cfg, "--model-path", nb, "--validation", corpus,
                     "--target", target, "--mode", "acc"],
        "predict": ["predict", "--model-path", nb, "--corpus", target, *vocab],
        "evaluate": ["evaluate", *cfg, "--model", "nb", "--cv-roc"],
        "robustness": ["evaluate", *cfg, "--model", "nb", "--robustness", "--model-path", nb],
        "report": ["report", *cfg],
        "importance": ["importance", *cfg],
        "train-axis": ["train", *cfg, "--model", "axis"],
        "quantify-axis": ["quantify", *cfg, "--model-path", ax, "--validation", corpus,
                          "--target", target, "--mode", "acc"],
        "predict-axis": ["predict", "--model-path", ax, "--corpus", target, *vocab],
    }
    return [(name, argv + ["--out-dir", str(out / name)]) for name, argv in steps.items()]


def digests(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def manifests(out: Path) -> dict[str, dict]:
    found = {}
    for path in sorted(out.glob("*/manifest.json")):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        found[path.parent.name] = {
            "command": manifest["command"],
            "config_hash": manifest["config_hash"],
            "inputs": {name: entry["sha256"] for name, entry in manifest["inputs"].items()},
            "outputs": manifest["outputs"],
        }
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args, data_args = ap.parse_known_args()

    root = Path(args.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    make = [sys.executable, str(Path(__file__).resolve().with_name("make_demo_data.py")),
            "--out-dir", "data", "--seed", str(args.seed), *data_args]
    # every path the chain passes is relative to DIR, so no resolved
    # config, and no config_hash, depends on where DIR is; PYTHONPATH is
    # made absolute first so that it still finds the package from DIR
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in paths if p))
    os.chdir(root)
    subprocess.run(make, check=True, env=env)
    data, out = Path("data"), Path("out")
    for name, argv in chain(data, out):
        code = demoscope(argv)
        if code != 0:
            sys.exit(f"demo_chain: {name} exited {code}")
    for name, payload in (("digests.json", digests(out)), ("manifests.json", manifests(out))):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        Path(name).write_text(text, encoding="utf-8")
    print(f"demo_chain: digests and manifests of {root / out} -> {root}")


if __name__ == "__main__":
    main()
