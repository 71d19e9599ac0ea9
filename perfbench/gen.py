"""Seeded input generator for the benchmark workloads.

Everything here is plain numpy and the standard library; nothing imports
demoscope, so a change to the package's own synthetic helpers or row
objects cannot change a workload's bytes. The same (workload, seed)
always writes the same files, and the ground truth the output checks
need (true labels, true prevalence, class direction) is returned beside
them rather than written where the program could read it.

Generative story (the one the naive Bayes model assumes): class from a
prior, total activity ceil(lognormal), then that many draws over
communities from a class conditional base * exp(+/- gamma * w), where w
is the true per-community class direction.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np

BASE_UTC = 1577836800  # 2020-01-01

# gender declarations the default rules accept (first person, no negation)
_DECLARE = {
    0: [
        "I'm {age}M and this matches what I have seen.",
        "For context I am a guy who reads this every day.",
        "Honestly I'm a man and I agree with the top comment.",
    ],
    1: [
        "I'm {age}F and this matches what I have seen.",
        "For context I am a woman who reads this every day.",
        "Honestly I'm a girl and I agree with the top comment.",
    ],
}
# declarations of the other class that the rules must suppress
# (negated, or not in the first person)
_DECOY = {
    0: ["I never said I am a woman, read again.", "My sister is a woman who loves this."],
    1: ["I never said I am a man, read again.", "My brother is a guy who loves this."],
}
_CHATTER = [
    "What a day.",
    "This thread is 20 times better than the last one.",
    "Source? I would like to read more.",
    "Thanks, this helped a lot.",
    "The second chart is misleading.",
]


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())]))


def community_names(d: int) -> list[str]:
    return [f"c{j:04d}" for j in range(d)]


def tilted_world(rng, d: int, gamma: float):
    """Two class conditionals sharing a base measure, tilted along w."""
    base = rng.dirichlet(np.full(d, 2.0))
    w = rng.normal(0.0, 1.0, size=d)
    cond = np.stack([base * np.exp(-gamma * w), base * np.exp(gamma * w)])
    cond /= cond.sum(axis=1, keepdims=True)
    return cond, w


def sample_rows(rng, cond, ys, mu: float, sigma: float):
    """CSR-style (indptr, indices, counts) for users of classes ys."""
    n, d = ys.size, cond.shape[1]
    acts = np.maximum(np.ceil(rng.lognormal(mu, sigma, size=n)), 1).astype(np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), acts)
    comm = np.empty(owner.size, dtype=np.int64)
    cls = ys[owner]
    for y in range(cond.shape[0]):
        pick = cls == y
        comm[pick] = rng.choice(d, size=int(pick.sum()), p=cond[y])
    keys, counts = np.unique(owner * d + comm, return_counts=True)
    users = keys // d
    indptr = np.searchsorted(users, np.arange(n + 1, dtype=np.int64))
    return indptr, keys % d, counts


def hide_labels(rng, ys, labeled_fraction: float) -> np.ndarray:
    """Stratified: keep round(fraction * class size) labels per class."""
    labels = np.full(ys.size, -1, dtype=np.int64)
    for y in (0, 1):
        pool = np.flatnonzero(ys == y)
        keep = rng.choice(pool, size=int(round(labeled_fraction * pool.size)), replace=False)
        labels[keep] = y
    return labels


def write_corpus(path, names, prefix, rows, labels):
    """jsonl corpus, byte-compatible with json.dumps(rec, sort_keys=True)."""
    indptr, indices, counts = rows
    keys = [f'"{n}": ' for n in names]
    idx, cnt = indices.tolist(), counts.tolist()
    out = []
    for i, label in enumerate(labels.tolist()):
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        body = ", ".join([keys[j] + str(c) for j, c in zip(idx[lo:hi], cnt[lo:hi])])
        tail = "" if label < 0 else f', "label": {label}'
        out.append(f'{{"counts": {{{body}}}{tail}, "user": "{prefix}{i:06d}"}}\n')
    Path(path).write_text("".join(out), encoding="utf-8")


def make_comments(rng, n_users: int, n_bots: int, incoherent: float):
    """Gender-declaring comment stream and its truth.

    Each user posts two declarations of their class and one chatter
    line; 30% also post a decoy the rules must suppress. A share of
    users declare both classes and must be rejected as incoherent. Bots
    declare coherently, so only the botlist keeps them unlabeled.
    """
    gender = rng.integers(0, 2, size=n_users)
    ages = rng.integers(18, 60, size=n_users)
    mixed = rng.random(n_users) < incoherent
    decoy = rng.random(n_users) < 0.3
    texts, users = [], []
    for i in range(n_users):
        user = f"u{i:06d}"
        g = int(gender[i])
        a, b = rng.choice(3, size=2, replace=False)
        texts.append(_DECLARE[g][a].format(age=ages[i]))
        second = 1 - g if mixed[i] else g
        texts.append(_DECLARE[second][b].format(age=ages[i]))
        texts.append(_CHATTER[int(rng.integers(len(_CHATTER)))])
        users += [user] * 3
        if decoy[i]:
            texts.append(_DECOY[g][int(rng.integers(2))])
            users.append(user)
    bots = [f"bot{b:04d}" for b in range(n_bots)]
    for bot in bots:
        for _ in range(10):
            texts.append(_DECLARE[1][int(rng.integers(3))].format(age=25))
            users.append(bot)
    n = len(texts)
    stamps = BASE_UTC + rng.integers(0, 10_000_000, size=n)
    comms = rng.integers(0, 50, size=n)
    order = rng.permutation(n)
    lines = [
        json.dumps(
            {
                "community": f"c{int(comms[i]):04d}",
                "created_utc": int(stamps[i]),
                "text": texts[i],
                "user": users[i],
            },
            sort_keys=True,
        )
        + "\n"
        for i in order
    ]
    truth = {
        f"u{i:06d}": int(gender[i]) for i in range(n_users) if not mixed[i]
    }
    return "".join(lines), bots, truth


def write_embeddings(path, names, w, rng, dim: int = 8, noise: float = 0.8):
    vectors = rng.normal(0.0, 1.0, size=(len(names), dim))
    vectors[:, 0] = w + noise * rng.normal(0.0, 1.0, size=len(names))
    lines = [
        name + "\t" + "\t".join(repr(float(v)) for v in vec) + "\n"
        for name, vec in zip(names, vectors)
    ]
    Path(path).write_text("".join(lines), encoding="utf-8")


def write_seeds(path, names, w, per_pole: int, threshold: int):
    """pole_a holds the most class-0 communities (lowest w)."""
    order = np.argsort(w, kind="stable")
    payload = {
        "attribute": "synthetic",
        "pole_a": [names[j] for j in order[:per_pole]],
        "pole_b": [names[j] for j in order[-per_pole:]],
        "threshold": threshold,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def generate(spec: dict, seed: int, out: Path) -> dict:
    """Write the inputs a workload spec asks for into out; return truth.

    The returned dict holds the true class direction w, the true classes
    per corpus file, the extract truth (gender per coherent user, bots)
    and the sha256 of every file written.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, spec["name"])
    d = spec["d"]
    names = community_names(d)
    cond, w = tilted_world(rng, d, spec["gamma"])
    mu, sigma = spec["activity"]
    truth: dict = {"w": w, "classes": {}}
    (out / "vocab.txt").write_text("".join(n + "\n" for n in names), encoding="utf-8")

    for part in spec["corpora"]:
        ys = (rng.random(part["n"]) < part["prevalence"]).astype(np.int64)
        rows = sample_rows(rng, cond, ys, mu, sigma)
        labels = ys if part["labeled"] == 1.0 else hide_labels(rng, ys, part["labeled"])
        write_corpus(out / part["file"], names, part["prefix"], rows, labels)
        truth["classes"][part["file"]] = ys

    if "comments" in spec:
        c = spec["comments"]
        text, bots, gender = make_comments(rng, c["users"], c["bots"], c["incoherent"])
        (out / "comments.jsonl").write_text(text, encoding="utf-8")
        (out / "botlist.txt").write_text("".join(b + "\n" for b in bots), encoding="utf-8")
        truth["gender"] = gender
        truth["bots"] = set(bots)
    if "seeds" in spec:
        write_seeds(out / "seeds.json", names, w, *spec["seeds"])
    if spec.get("embeddings"):
        write_embeddings(out / "embeddings.tsv", names, w, rng)
    (out / "run.yaml").write_text(
        "".join(f"{k}: {v}\n" for k, v in spec["config"].items()) + f"seed: {seed}\n",
        encoding="utf-8",
    )
    truth["digests"] = {p.name: sha256(p) for p in sorted(out.iterdir())}
    return truth
