#!/usr/bin/env python3
"""Benchmark the model family on one synthetic world.

Three stages, all written under --out-dir:
  classification.csv   bootstrap ROC AUC / F1 per model
  quantification.csv   cohort-prevalence MAE and coverage per model and mode
  learning_nb.csv      quantification MAE vs labeled training rows
  learning_axis.csv    same protocol for the fixed embedding axis
  summary.json         run parameters plus the headline numbers

The world is a two-class tilted multinomial with log-normal activity;
the embedding axis gets noisy projections of the true class direction,
so it starts strong but cannot improve with more labels.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from demoscope import synth
from demoscope.axis import build_axis
from demoscope.calibrate import fit_isotonic
from demoscope.classifiers import MajorityClassifier, axis_factory, nb_factory
from demoscope.cli import RunConfig, nb_options
from demoscope.data import split
from demoscope.evaluate import bootstrap_eval, learning_curve
from demoscope.quantify import evaluate_quantifier, fit_quantifier


def classification_stage(factories, corpus, n_boot, seed, out):
    lines = ["model,auc_mean,auc_std,f1_mean,f1_std"]
    headline = {}
    # one call: every model is fitted and scored on the same replicates
    for tag, rep in bootstrap_eval(factories, corpus, n_boot=n_boot, seed=seed).items():
        s = rep.summary()
        lines.append(
            f"{tag},{s['roc_auc']['mean']:.4f},{s['roc_auc']['std']:.4f},"
            f"{s['f1']['mean']:.4f},{s['f1']['std']:.4f}"
        )
        headline[tag] = round(s["roc_auc"]["mean"], 4)
        print(f"  {tag:10s} AUC {s['roc_auc']['mean']:.4f} +/- {s['roc_auc']['std']:.4f}")
    (out / "classification.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return headline


def quantification_stage(factories, corpus, repeats, cohort_size, seed, out):
    # the evaluation pool must hold several cohorts' worth of each class
    rest, eval_pool = split(corpus, 0.4, seed)
    fit_part, cal_part = split(rest, 0.25, seed + 1)
    lines = ["model,mode,mae,ae_std,coverage"]
    headline = {}
    for tag, factory in factories.items():
        clf = factory(fit_part)
        # calibrated scores buy prevalence intervals on top of the point
        clf.calibrator = fit_isotonic(clf.score(cal_part)[0], cal_part.labels)
        for mode in ("cc", "acc"):
            quant = fit_quantifier(clf, cal_part, mode=mode)
            rep = evaluate_quantifier(
                quant, eval_pool, repeats=repeats, size=cohort_size, seed=seed
            )
            cov = "" if rep.coverage is None else f"{rep.coverage:.4f}"
            lines.append(f"{tag},{mode},{rep.mae:.4f},{rep.ae_std:.4f},{cov}")
            headline[f"{tag}_{mode}"] = round(rep.mae, 4)
            print(f"  {tag:10s} {mode:3s} MAE {rep.mae:.4f} coverage {cov or 'n/a'}")
    (out / "quantification.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return headline


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="benchmark_out")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=8000)
    ap.add_argument("--d", type=int, default=120)
    ap.add_argument("--gamma", type=float, default=0.35)
    ap.add_argument("--labeled-fraction", type=float, default=0.5)
    ap.add_argument("--embedding-noise", type=float, default=1.0)
    ap.add_argument("--n-boot", type=int, default=50)
    ap.add_argument("--repeats", type=int, default=50)
    ap.add_argument("--cohort-size", type=int, default=500)
    # the curve trains on the 70% side of the labeled rows, so the largest
    # size must stay below 0.7 * labeled_fraction * n
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 300, 1000, 2000])
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    rng = np.random.default_rng(args.seed)

    world, w = synth.tilted_world(rng, d=args.d, gamma=args.gamma)
    corpus = synth.sample_corpus(world, args.n, rng, labeled_fraction=args.labeled_fraction)
    table = synth.derive_embeddings(world, w, rng, noise=args.embedding_noise)
    seeds = synth.seed_sets_from_direction(world, w, per_pole=5)
    # seed pole_a marks class 0; the axis puts its positive pole first
    axis = build_axis(table, pole_a=seeds.pole_b, pole_b=seeds.pole_a,
                      attribute="synthetic")

    # each NB kind as the CLI's --model defines it, at the default settings
    defaults = RunConfig()
    nb_kinds = {kind: nb_factory(**nb_options(kind, defaults)) for kind in ("nb", "nb-ln", "nb-ss")}
    factories = {"majority": MajorityClassifier.fit, **nb_kinds, "axis": axis_factory(axis)}

    print(f"classification ({args.n_boot} bootstrap replicates)")
    cls_headline = classification_stage(factories, corpus, args.n_boot, args.seed, out)

    print(f"quantification ({args.repeats} cohorts of {args.cohort_size})")
    quant_factories = {k: factories[k] for k in ("nb", "nb-ln", "axis")}
    quant_headline = quantification_stage(
        quant_factories, corpus, args.repeats, args.cohort_size, args.seed, out
    )

    print(f"learning curves over sizes {args.sizes}")
    nb_curve = learning_curve(
        factories["nb-ln"], corpus, args.sizes,
        repeats=args.repeats, cohort_size=args.cohort_size, seed=args.seed,
    )
    nb_curve.to_csv(out / "learning_nb.csv")
    ax_curve = learning_curve(
        factories["axis"], corpus, args.sizes,
        repeats=args.repeats, cohort_size=args.cohort_size, seed=args.seed,
    )
    ax_curve.to_csv(out / "learning_axis.csv")
    for s, a, b in zip(args.sizes, nb_curve.y, ax_curve.y):
        print(f"  size {s:5d}  nb-ln MAE {a:.4f}  axis MAE {b:.4f}")

    summary = {
        "params": vars(args),
        "auc": cls_headline,
        "quant_mae": quant_headline,
        "learning_sizes": args.sizes,
        "learning_nb_mae": [round(float(v), 4) for v in nb_curve.y],
        "learning_axis_mae": [round(float(v), 4) for v in ax_curve.y],
        "elapsed_s": round(time.monotonic() - t0, 2),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out}/summary.json in {summary['elapsed_s']} s")


if __name__ == "__main__":
    main()
