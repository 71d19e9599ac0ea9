#!/usr/bin/env python3
"""Generate a small synthetic dataset exercising every pipeline input.

Writes into --out-dir:
  vocab.txt          community vocabulary
  corpus.jsonl       labeled training corpus (labels on a fraction of rows)
  target.jsonl       unlabeled cohort at a shifted class mix
  comments.jsonl     comment stream with plantable self-declarations
  embeddings.tsv     community embedding table
  seeds.json         seed communities for distant labels / axis building
  botlist.txt        known bot accounts
  run.yaml           config file wired to these paths
"""

import argparse
import json
from pathlib import Path

import numpy as np

from demoscope import synth
from demoscope.data import LabeledCorpus


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="demo_data")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-train", type=int, default=1500)
    ap.add_argument("--n-target", type=int, default=600)
    ap.add_argument("--d", type=int, default=150)
    ap.add_argument("--labeled-fraction", type=float, default=0.8)
    ap.add_argument("--target-prevalence", type=float, default=0.35)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    world, w = synth.tilted_world(rng, d=args.d, gamma=0.4)
    corpus = synth.sample_corpus(
        world, args.n_train, rng, labeled_fraction=args.labeled_fraction
    )
    # target cohort at a different prevalence than the training prior
    shifted = synth.SynthWorld(
        prior=np.array([1.0 - args.target_prevalence, args.target_prevalence]),
        cond=world.cond,
        activity_mu=world.activity_mu,
        activity_sigma=world.activity_sigma,
        vocabulary=world.vocabulary,
    )
    target = synth.sample_corpus(shifted, args.n_target, rng, prefix="t")
    target_prev = float((target.labels == 1).mean())
    target_hidden = LabeledCorpus(
        vocabulary=target.vocabulary,
        X=target.X,
        user_ids=target.user_ids,
        labels=np.full(target.n, -1, dtype=np.int64),
    )

    emb = synth.derive_embeddings(world, w, rng, noise=0.8)
    seeds = synth.seed_sets_from_direction(world, w, per_pole=5, threshold=3)
    comments, truth = synth.synth_declaration_comments(rng, n_users=80)

    synth.write_vocabulary(world.vocabulary, out / "vocab.txt")
    synth.write_corpus_jsonl(corpus, out / "corpus.jsonl")
    synth.write_corpus_jsonl(target_hidden, out / "target.jsonl")
    synth.write_embeddings_tsv(emb, out / "embeddings.tsv")
    synth.write_seeds_json(seeds, out / "seeds.json")
    with open(out / "comments.jsonl", "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(json.dumps(c, sort_keys=True) + "\n")
    with open(out / "botlist.txt", "w", encoding="utf-8") as fh:
        for b in sorted(truth["bots"]):
            fh.write(b + "\n")
    with open(out / "run.yaml", "w", encoding="utf-8") as fh:
        fh.write(
            "\n".join(
                [
                    f"corpus: {out / 'corpus.jsonl'}",
                    f"vocabulary: {out / 'vocab.txt'}",
                    f"embeddings: {out / 'embeddings.tsv'}",
                    f"seeds: {out / 'seeds.json'}",
                    "attribute: synthetic",
                    "models: [majority, nb, nb-ln, axis]",
                    "n_boot: 20",
                    "folds: 5",
                    "repeats: 20",
                    "cohort_size: 200",
                    f"seed: {args.seed}",
                ]
            )
            + "\n"
        )
    meta = {
        "n_train": corpus.n,
        "n_target": target.n,
        "target_prevalence_true": target_prev,
        "train_labeled": int(corpus.labeled_mask.sum()),
        "seed": args.seed,
    }
    (out / "truth.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote demo dataset to {out} (true target prevalence {target_prev:.4f})")


if __name__ == "__main__":
    main()
