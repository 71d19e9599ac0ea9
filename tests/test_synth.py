"""Synthetic data generators and their on-disk round trips."""

import numpy as np
import pytest

from demoscope import synth
from demoscope.axis import load_embeddings
from demoscope.data import load_corpus, load_vocabulary
from demoscope.errors import DataError
from demoscope.labeling import (
    binarize,
    default_rules,
    extract_declarations,
    filter_bots,
    load_seed_sets,
    resolve_coherence,
)

from helpers import random_world, write_corpus_triplets


class TestWorlds:
    def test_random_world_is_a_distribution(self, rng):
        world = random_world(rng, d=30)
        assert world.cond.shape == (2, 30) and world.d == 30
        assert world.prior.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(world.cond.sum(axis=1), 1.0)
        assert len(world.vocabulary.names) == 30

    def test_tilted_world_tilts_along_w(self, rng):
        world, w = synth.tilted_world(rng, d=100, gamma=0.4)
        log_ratio = np.log(world.cond[1]) - np.log(world.cond[0])
        # cond1/cond0 = exp(2 gamma w) up to the two normalizers, so the
        # log ratio is affine in w with slope 2 gamma
        slope = np.polyfit(w, log_ratio, 1)[0]
        assert slope == pytest.approx(0.8, rel=1e-6)

    def test_sample_shapes_and_labels(self, rng):
        world = random_world(rng, d=20)
        corpus = synth.sample_corpus(world, 50, rng, prefix="z")
        assert corpus.n == 50
        assert corpus.user_ids[0] == "z000000"
        assert set(np.unique(corpus.labels)) <= {0, 1}
        assert (corpus.activities() >= 1).all()

    def test_labeled_fraction_stratified(self, rng):
        world = random_world(rng, d=20)
        corpus = synth.sample_corpus(world, 200, rng, labeled_fraction=0.6)
        labeled = corpus.labels >= 0
        assert labeled.sum() == pytest.approx(120, abs=1)
        assert set(np.unique(corpus.labels)) == {-1, 0, 1}

    def test_sample_validation(self, rng):
        world = random_world(rng, d=5)
        with pytest.raises(DataError, match=">= 1"):
            synth.sample_corpus(world, 0, rng)
        with pytest.raises(DataError, match="labeled_fraction"):
            synth.sample_corpus(world, 5, rng, labeled_fraction=1.5)

    def test_sampling_is_reproducible(self):
        world = random_world(np.random.default_rng(5), d=15)
        a = synth.sample_corpus(world, 30, np.random.default_rng(6))
        b = synth.sample_corpus(world, 30, np.random.default_rng(6))
        assert np.array_equal(a.labels, b.labels)
        assert a.user_ids.tolist() == b.user_ids.tolist()
        assert (a.to_csr() != b.to_csr()).nnz == 0

    def test_embeddings_track_direction(self):
        rng = np.random.default_rng(0)
        world, w = synth.tilted_world(rng, d=200)
        emb = synth.derive_embeddings(world, w, rng, noise=0.3)
        r = np.corrcoef(emb.vectors[:, 0], w)[0, 1]
        assert r > 0.9

    def test_seed_sets_take_extremes(self, rng):
        world, w = synth.tilted_world(rng, d=50)
        seeds = synth.seed_sets_from_direction(world, w, per_pole=4)
        order = np.argsort(w)
        names = world.vocabulary.names
        assert set(seeds.pole_a) == {names[j] for j in order[:4]}
        assert set(seeds.pole_b) == {names[j] for j in order[-4:]}


class TestRoundTrips:
    def test_corpus_jsonl(self, tmp_path, rng):
        world = random_world(rng, d=15)
        corpus = synth.sample_corpus(world, 40, rng, labeled_fraction=0.5)
        synth.write_vocabulary(world.vocabulary, tmp_path / "vocab.txt")
        synth.write_corpus_jsonl(corpus, tmp_path / "corpus.jsonl")
        vocab = load_vocabulary(tmp_path / "vocab.txt")
        assert vocab.names == world.vocabulary.names
        loaded, report = load_corpus(tmp_path / "corpus.jsonl", vocab)
        assert loaded.n == corpus.n
        assert np.array_equal(loaded.labels, corpus.labels)
        assert loaded.user_ids.tolist() == corpus.user_ids.tolist()
        assert np.array_equal(loaded.to_csr().indptr, corpus.to_csr().indptr)
        assert np.array_equal(loaded.to_csr().indices, corpus.to_csr().indices)
        assert np.array_equal(loaded.to_csr().data, corpus.to_csr().data)

    def test_corpus_triplets(self, tmp_path, rng):
        world = random_world(rng, d=15)
        corpus = synth.sample_corpus(world, 40, rng, labeled_fraction=0.5)
        synth.write_vocabulary(world.vocabulary, tmp_path / "vocab.txt")
        write_corpus_triplets(
            corpus, tmp_path / "corpus.csv", labels_path=tmp_path / "labels.csv"
        )
        vocab = load_vocabulary(tmp_path / "vocab.txt")
        loaded, _ = load_corpus(
            tmp_path / "corpus.csv",
            vocab,
            fmt="triplets",
            labels_path=tmp_path / "labels.csv",
        )
        assert np.array_equal(loaded.labels, corpus.labels)
        assert loaded.user_ids.tolist() == corpus.user_ids.tolist()
        assert np.array_equal(loaded.to_csr().toarray(), corpus.to_csr().toarray())

    def test_embeddings_tsv(self, tmp_path, rng):
        world, w = synth.tilted_world(rng, d=25)
        emb = synth.derive_embeddings(world, w, rng)
        synth.write_embeddings_tsv(emb, tmp_path / "emb.tsv")
        loaded = load_embeddings(tmp_path / "emb.tsv")
        assert loaded.names == emb.names
        assert np.array_equal(loaded.vectors, emb.vectors)

    def test_seeds_json(self, tmp_path, rng):
        world, w = synth.tilted_world(rng, d=25)
        seeds = synth.seed_sets_from_direction(world, w)
        synth.write_seeds_json(seeds, tmp_path / "seeds.json")
        loaded = load_seed_sets(tmp_path / "seeds.json")
        assert loaded[seeds.attribute] == seeds


class TestDeclarationComments:
    def test_truth_is_recoverable(self):
        rng = np.random.default_rng(11)
        comments, truth = synth.synth_declaration_comments(rng, n_users=30)
        decls, _ = extract_declarations(comments, default_rules())
        decls = filter_bots(decls, truth["bots"])
        coherent = resolve_coherence(decls)
        for attribute in ("gender", "partisan"):
            resolved = coherent.resolved.get(attribute, {})
            assert len(resolved) >= 20
            assert all(truth[attribute][u] == v for u, v in resolved.items())
        years = coherent.resolved.get("year", {})
        assert len(years) >= 20
        assert all(truth["year"][u] == v for u, v in years.items())
        labels, median = binarize(years, "year")
        assert set(labels.values()) <= {0, 1}
        assert median is not None
