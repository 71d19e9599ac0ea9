#!/usr/bin/env python3
"""Run the whole CLI on a demo dataset and fingerprint what it writes.

    python3 scripts/demo_chain.py --out-dir DIR [--seed N] [make_demo_data options]

Makes demo data in DIR/data with make_demo_data.py (any further options,
such as --n-train 300, pass through to it), then runs the README chain
plus axis train/quantify/predict and an evaluate --robustness sweep, one
command per directory under DIR/out. Writes DIR/digests.json: the sha256
of every file under DIR/out except manifest.json, which records a
creation time. Two runs of one seed, or two commits that should behave
alike, are compared by diffing their digests.json.

Exits 1 if a command does not exit 0.
"""

import argparse
import hashlib
import json
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


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args, data_args = ap.parse_known_args()

    root = Path(args.out_dir)
    data, out = root / "data", root / "out"
    make = [sys.executable, str(Path(__file__).with_name("make_demo_data.py")),
            "--out-dir", str(data), "--seed", str(args.seed), *data_args]
    subprocess.run(make, check=True)
    for name, argv in chain(data, out):
        code = demoscope(argv)
        if code != 0:
            sys.exit(f"demo_chain: {name} exited {code}")
    (root / "digests.json").write_text(
        json.dumps(digests(out), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"demo_chain: digests of {out} -> {root / 'digests.json'}")


if __name__ == "__main__":
    main()
