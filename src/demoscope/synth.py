"""Synthetic worlds with known parameters, for tests and benchmarks.

Users are drawn from the same generative story the classifier assumes:
class from a prior, total activity from a per-class log-normal, then a
multinomial split of that activity over communities. A separable world
also derives a community embedding whose first coordinate is a noisy
copy of the class log-odds direction, so axis baselines have signal.

The write_* helpers emit the on-disk formats the loaders and the CLI
consume, so a full pipeline can run against generated files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .axis import EmbeddingTable
from .data import CommunityVocabulary, LabeledCorpus
from .errors import DataError
from .labeling import SeedSets
from .serialize import encode


@dataclass
class SynthWorld:
    """Ground truth for a generated population."""

    prior: np.ndarray
    cond: np.ndarray
    activity_mu: np.ndarray
    activity_sigma: np.ndarray
    vocabulary: CommunityVocabulary

    @property
    def d(self) -> int:
        return self.cond.shape[1]


def tilted_world(
    rng,
    d: int = 300,
    gamma: float = 0.35,
    activity_mu=(3.0, 3.0),
    activity_sigma=(0.6, 0.6),
) -> tuple[SynthWorld, np.ndarray]:
    """Binary world where the two conditionals share a base measure
    tilted along one direction w: cond_y proportional to base * exp(+/- gamma w).

    Returns the world and w (the true per-community class direction).
    """
    base = rng.dirichlet(np.full(d, 2.0))
    w = rng.normal(0.0, 1.0, size=d)
    cond1 = base * np.exp(gamma * w)
    cond0 = base * np.exp(-gamma * w)
    cond = np.stack([cond0 / cond0.sum(), cond1 / cond1.sum()])
    names = tuple(f"c{j:04d}" for j in range(d))
    world = SynthWorld(
        prior=np.array([0.5, 0.5]),
        cond=cond,
        activity_mu=np.asarray(activity_mu, dtype=np.float64),
        activity_sigma=np.asarray(activity_sigma, dtype=np.float64),
        vocabulary=CommunityVocabulary(names),
    )
    return world, w


def sample_corpus(
    world: SynthWorld,
    n: int,
    rng,
    labeled_fraction: float = 1.0,
    prefix: str = "u",
) -> LabeledCorpus:
    """Draw n users; a stratified share of rows keeps labels, rest get -1.

    Total activity is ceil of a log-normal draw, so every row has at
    least one count.
    """
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    if not (0.0 <= labeled_fraction <= 1.0):
        raise DataError("labeled_fraction must lie in [0, 1]")
    d = world.d
    ys = rng.choice(2, size=n, p=world.prior)
    indices, counts = [], []
    for i in range(n):
        y = ys[i]
        a = int(np.ceil(rng.lognormal(world.activity_mu[y], world.activity_sigma[y])))
        row = rng.multinomial(max(a, 1), world.cond[y])
        idx = np.flatnonzero(row)
        indices.append(idx)
        counts.append(row[idx])
    indptr = np.concatenate([[0], np.cumsum([idx.size for idx in indices])])
    X = sp.csr_matrix(
        (np.concatenate(counts).astype(np.float64), np.concatenate(indices), indptr),
        shape=(n, d),
    )
    labels = ys.astype(np.int64)
    if labeled_fraction < 1.0:
        hide = np.ones(n, dtype=bool)
        for y in (0, 1):
            pool = np.flatnonzero(ys == y)
            n_keep = int(round(labeled_fraction * pool.size))
            keep = rng.choice(pool, size=n_keep, replace=False)
            hide[keep] = False
        labels = labels.copy()
        labels[hide] = -1
    user_ids = np.array([f"{prefix}{i:06d}" for i in range(n)], dtype=object)
    return LabeledCorpus(vocabulary=world.vocabulary, X=X, user_ids=user_ids, labels=labels)


def derive_embeddings(
    world: SynthWorld,
    w: np.ndarray,
    rng,
    dim: int = 8,
    noise: float = 0.6,
) -> EmbeddingTable:
    """Community embedding whose first column tracks w, rest is noise."""
    d = world.d
    vectors = rng.normal(0.0, 1.0, size=(d, dim))
    vectors[:, 0] = w + noise * rng.normal(0.0, 1.0, size=d)
    return EmbeddingTable(world.vocabulary.names, vectors)


def seed_sets_from_direction(
    world: SynthWorld,
    w: np.ndarray,
    per_pole: int = 5,
    threshold: int = 3,
    attribute: str = "synthetic",
) -> SeedSets:
    """Pick the extreme communities of the class direction as seed poles.

    pole_a holds the most class-0-leaning communities (lowest w), in
    keeping with pole_a marking class 0 for distant labels.
    """
    order = np.argsort(w)
    lo = [world.vocabulary.names[j] for j in order[:per_pole]]
    hi = [world.vocabulary.names[j] for j in order[-per_pole:]]
    return SeedSets(attribute=attribute, pole_a=tuple(lo), pole_b=tuple(hi), threshold=threshold)


# ------------------------------------------------------------- file output


def write_vocabulary(vocabulary: CommunityVocabulary, path):
    with open(path, "w", encoding="utf-8") as fh:
        for name in vocabulary.names:
            fh.write(name + "\n")


def _rows(corpus: LabeledCorpus):
    """(user id, community indices, counts) per row, read off the CSR arrays."""
    X = corpus.X
    for i, user in enumerate(corpus.user_ids):
        lo, hi = X.indptr[i], X.indptr[i + 1]
        yield user, X.indices[lo:hi].tolist(), X.data[lo:hi].astype(np.int64).tolist()


def write_corpus_jsonl(corpus: LabeledCorpus, path, include_labels: bool = True):
    names = corpus.vocabulary.names
    with open(path, "w", encoding="utf-8") as fh:
        for (user, idx, cnt), label in zip(_rows(corpus), corpus.labels.tolist()):
            rec = {"user": user, "counts": {names[j]: c for j, c in zip(idx, cnt)}}
            if include_labels and label >= 0:
                rec["label"] = label
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_embeddings_tsv(table: EmbeddingTable, path):
    with open(path, "w", encoding="utf-8") as fh:
        for name, vec in zip(table.names, table.vectors):
            fh.write(name + "\t" + "\t".join(repr(float(v)) for v in vec) + "\n")


def write_seeds_json(seeds: SeedSets, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(encode(seeds), indent=2, sort_keys=True) + "\n")


# --------------------------------------------------- declaration comments

_GENDER_TEMPLATES_M = [
    "I'm {age}M and this fits my experience.",
    "I am a man, for what it's worth.",
    "I'm {age} years old. Still learning.",
    "speaking for myself as a guy, this rings true.",
]
_GENDER_TEMPLATES_F = [
    "I'm {age}F and this fits my experience.",
    "I am a woman, for what it's worth.",
    "I'm {age} years old. Still learning.",
    "speaking for myself as a girl, this rings true.",
]
_PARTY_TEMPLATES = {
    "democrat": ["I'm a democrat and I disagree.", "i voted democrat last time."],
    "republican": ["I'm a republican and I disagree.", "i voted republican last time."],
}
_NOISE = [
    "My sister is 40 and she loves it.",
    "He said he's a republican but who knows.",
    "This thread is 20 times better than the last one.",
    "I'm not a democrat, stop assuming.",
    "What a day.",
]


def synth_declaration_comments(
    rng,
    n_users: int = 60,
    base_utc: int = 1577836800,  # 2020-01-01 UTC
    communities=("c0000", "c0001"),
):
    """Comments with known ground truth for the extraction pipeline.

    Returns (comments, truth) where truth maps attribute -> user -> value
    (birth year int, 'male'/'female', 'democrat'/'republican'). Bots
    named like 'bot...' emit misleading declarations and appear in truth
    under the 'bots' key.
    """
    comments = []
    truth = {"year": {}, "gender": {}, "partisan": {}, "bots": set()}
    year_of = 2020
    for i in range(n_users):
        user = f"p{i:04d}"
        age = int(rng.integers(18, 60))
        male = bool(rng.integers(0, 2))
        party = "democrat" if rng.integers(0, 2) == 0 else "republican"
        truth["year"][user] = year_of - age
        truth["gender"][user] = "male" if male else "female"
        truth["partisan"][user] = party
        templates = _GENDER_TEMPLATES_M if male else _GENDER_TEMPLATES_F
        picks = rng.choice(len(templates), size=2, replace=False)
        for t in picks:
            comments.append(
                {
                    "user": user,
                    "text": templates[t].format(age=age),
                    "created_utc": base_utc + int(rng.integers(0, 10_000_000)),
                    "community": communities[int(rng.integers(0, len(communities)))],
                }
            )
        comments.append(
            {
                "user": user,
                "text": _PARTY_TEMPLATES[party][int(rng.integers(0, 2))],
                "created_utc": base_utc + int(rng.integers(0, 10_000_000)),
                "community": communities[0],
            }
        )
        if rng.random() < 0.3:
            comments.append(
                {
                    "user": user,
                    "text": _NOISE[int(rng.integers(0, len(_NOISE)))],
                    "created_utc": base_utc + int(rng.integers(0, 10_000_000)),
                    "community": communities[0],
                }
            )
    for b in range(3):
        bot = f"bot{b:02d}"
        truth["bots"].add(bot)
        comments.append(
            {
                "user": bot,
                "text": "I'm 25M and I am a woman and I'm a democrat and I'm a republican.",
                "created_utc": base_utc,
                "community": communities[0],
            }
        )
    order = rng.permutation(len(comments))
    return [comments[i] for i in order], truth
