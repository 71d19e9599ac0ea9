import numpy as np
import pytest

from demoscope import synth

from helpers import random_world


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_world(rng):
    return random_world(rng, d=12)


@pytest.fixture
def small_corpus(rng, small_world):
    return synth.sample_corpus(small_world, 120, rng)


@pytest.fixture
def tilted():
    """A separable binary world plus its class direction, fixed seed."""
    rng = np.random.default_rng(777)
    world, w = synth.tilted_world(rng, d=80, gamma=0.45)
    corpus = synth.sample_corpus(world, 600, rng)
    return world, w, corpus


@pytest.fixture
def demo_files(tmp_path):
    """A full on-disk dataset for CLI tests."""
    rng = np.random.default_rng(42)
    world, w = synth.tilted_world(rng, d=60, gamma=0.45)
    corpus = synth.sample_corpus(world, 500, rng, labeled_fraction=0.8)
    target = synth.sample_corpus(world, 200, rng, prefix="t")
    emb = synth.derive_embeddings(world, w, rng, noise=0.7)
    seeds = synth.seed_sets_from_direction(world, w)
    comments, truth = synth.synth_declaration_comments(rng, n_users=40)

    synth.write_vocabulary(world.vocabulary, tmp_path / "vocab.txt")
    synth.write_corpus_jsonl(corpus, tmp_path / "corpus.jsonl")
    synth.write_corpus_jsonl(target, tmp_path / "target.jsonl")
    synth.write_embeddings_tsv(emb, tmp_path / "embeddings.tsv")
    synth.write_seeds_json(seeds, tmp_path / "seeds.json")
    import json

    with open(tmp_path / "comments.jsonl", "w") as fh:
        for c in comments:
            fh.write(json.dumps(c) + "\n")
    with open(tmp_path / "botlist.txt", "w") as fh:
        for b in sorted(truth["bots"]):
            fh.write(b + "\n")
    return {
        "dir": tmp_path,
        "world": world,
        "corpus": corpus,
        "target": target,
        "truth": truth,
        "seeds": seeds,
    }
