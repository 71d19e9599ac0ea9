"""Seeded mutation fuzzing of every input file kind, through cli.main.

Each case starts from valid demo inputs, applies one mutation to one file
and runs a command that reads it. Whatever the mutation, the command
exits 0, 2 (data error) or 3 (numeric failure), and a refusal is exactly
one short stderr line: never a traceback, never an echo of a huge field.
No mutation makes numpy warn (a RuntimeWarning); the UserWarnings of a
command that goes on, such as dropped activity pairs, are allowed.
The mutations are drawn from fixed seeds, so every run tries the same
files.
"""

import json
import random
import re
import shutil
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from demoscope import labeling, quantify, synth
from demoscope.bayes import fit
from demoscope.cli import main
from demoscope.serialize import save_model

from helpers import write_corpus_triplets

ROUNDS = 3
# longest refusal line accepted, once the test directories are taken out
LINE_MAX = 300

# a number is swapped for one of these: an integer past Python's
# int-string limit (4,300 digits), one too large for a float, and the
# usual edge values
LONG_INTEGER = "1" + "0" * 5000
NUMBERS = (LONG_INTEGER, "1" + "0" * 400, "0", "-1", "1", "0.5", "-0.0", "1e308", "1e999",
           "99999999999999999999")
# inserted at a random position: JSON, CSV, YAML and TSV syntax, a
# comment mark, a letter, a digit and a byte that is not UTF-8
CHARS = (b'"', b",", b"{", b"]", b":", b"\n", b"\t", b"#", b" ", b"x", b"0", b"\xff")
# a number standing alone, not the digits of a user id, a community name or a path
NUMBER = re.compile(rb"(?<![\w.-])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")

CORPUS = ["--corpus", "{d}/corpus.jsonl", "--vocabulary", "{d}/vocab.txt"]
TRIPLETS = ["--corpus", "{d}/c.csv", "--labels", "{d}/l.csv",
            "--vocabulary", "{d}/vocab.txt"]
TARGET = ["--corpus", "{d}/target.jsonl", "--vocabulary", "{d}/vocab.txt"]
EXTRACT = ["extract", "--comments", "{d}/comments.jsonl"]
AXIS = ["--embeddings", "{d}/embeddings.tsv", "--seeds", "{d}/seeds.json"]

# input kind: (the file mutated, a command that reads it)
KINDS = {
    "nb-model": ("nb.json", ["predict", "--model-path", "{d}/nb.json", *TARGET]),
    "axis-model": ("axis.json", ["predict", "--model-path", "{d}/axis.json", *TARGET]),
    "quantifier": ("quant.json", ["quantify", "--quantifier", "{d}/quant.json",
                                  "--target", "{d}/target.jsonl", "--vocabulary", "{d}/vocab.txt"]),
    "jsonl-corpus": ("corpus.jsonl", ["train", *CORPUS]),
    "triplets-corpus": ("c.csv", ["train", *TRIPLETS]),
    "labels": ("l.csv", ["train", *TRIPLETS]),
    "vocabulary": ("vocab.txt", ["predict", "--model-path", "{d}/nb.json", *TARGET]),
    "comments": ("comments.jsonl", EXTRACT),
    "comments-year": ("comments.jsonl", [*EXTRACT, "--attribute", "year"]),
    "seeds": ("seeds.json", ["label-distant", *CORPUS, "--seeds", "{d}/seeds.json"]),
    "rules": ("rules.json", [*EXTRACT, "--rules", "{d}/rules.json"]),
    "config": ("run.yaml", ["train", "--config", "{d}/run.yaml"]),
    "embeddings": ("embeddings.tsv", ["train", "--model", "axis", *AXIS]),
    "botlist": ("botlist.txt", [*EXTRACT, "--botlist", "{d}/botlist.txt"]),
}


def _cut(data: bytes, rng: random.Random) -> bytes:
    return data[: rng.randrange(len(data))]


def _swap_number(data: bytes, rng: random.Random, number: str) -> bytes:
    found = list(NUMBER.finditer(data))
    if not found:
        return _insert(data, rng)
    m = rng.choice(found)
    return data[: m.start()] + number.encode() + data[m.end() :]


def _delete_line(data: bytes, rng: random.Random) -> bytes:
    lines = data.splitlines(keepends=True)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _repeat_line(data: bytes, rng: random.Random) -> bytes:
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    return b"".join([*lines[: k + 1], lines[k], *lines[k + 1 :]])


def _insert(data: bytes, rng: random.Random) -> bytes:
    k = rng.randrange(len(data) + 1)
    return data[:k] + rng.choice(CHARS) + data[k:]


# (label, mutation) per case: each of NUMBERS swapped in once, and each
# other mutation tried ROUNDS times
CASES = [
    *((f"swap in {n:.12}", partial(_swap_number, number=n)) for n in NUMBERS),
    *((f"{m.__name__[1:]} {r}", m)
      for m in (_cut, _delete_line, _repeat_line, _insert) for r in range(ROUNDS)),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small valid input of every kind, shared by the cases, which
    mutate copies."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    world, w = synth.tilted_world(rng, d=30, gamma=0.45)
    corpus = synth.sample_corpus(world, 120, rng, labeled_fraction=0.8)
    synth.write_vocabulary(world.vocabulary, d / "vocab.txt")
    synth.write_corpus_jsonl(corpus, d / "corpus.jsonl")
    synth.write_corpus_jsonl(synth.sample_corpus(world, 40, rng, prefix="t"), d / "target.jsonl")
    write_corpus_triplets(corpus, d / "c.csv", labels_path=d / "l.csv")
    synth.write_embeddings_tsv(synth.derive_embeddings(world, w, rng, noise=0.7),
                               d / "embeddings.tsv")
    synth.write_seeds_json(synth.seed_sets_from_direction(world, w), d / "seeds.json")
    comments, truth = synth.synth_declaration_comments(rng, n_users=20)
    (d / "comments.jsonl").write_text("".join(json.dumps(c) + "\n" for c in comments),
                                      encoding="utf-8")
    (d / "botlist.txt").write_text("".join(f"{b}\n" for b in sorted(truth["bots"])),
                                   encoding="utf-8")
    shutil.copy(Path(labeling.__file__).parent / "resources" / "rules.default.json",
                d / "rules.json")
    nb, _ = fit(corpus)
    save_model(nb, d / "nb.json")
    save_model(quantify.fit_quantifier(nb, corpus, mode="acc"), d / "quant.json")
    assert main(["train", "--model", "axis", *[a.format(d=d) for a in AXIS],
                 "--out-dir", str(d / "axis")]) == 0
    shutil.copy(d / "axis" / "model.json", d / "axis.json")
    (d / "run.yaml").write_text(
        f"corpus: {d}/corpus.jsonl\nvocabulary: {d}/vocab.txt\nmodel: nb\n"
        "alpha1: 1.0\nalpha2: 2\nuse_log_normal: true\nsemi_supervised: true\n"
        "max_iter: 20\ntol: 1.0e-6\nseed: 0\n",
        encoding="utf-8",
    )
    return d


@pytest.mark.parametrize("kind", list(KINDS))
def test_mutated_input_exits_zero_two_or_three_with_one_short_line(
    inputs, tmp_path, capsys, kind
):
    name, argv = KINDS[kind]
    path = tmp_path / name
    valid = (inputs / name).read_bytes()
    # every input from the shared set but the one mutated
    argv = [a.format(d=inputs).replace(str(inputs / name), str(path)) for a in argv]
    for seed, (label, mutate) in enumerate(CASES):
        path.write_bytes(mutate(valid, random.Random(f"{kind}-{seed}")))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--out-dir", str(tmp_path / f"out-{seed}")])
        err = capsys.readouterr().err.splitlines()
        case = f"{kind} seed {seed} ({label}): exit {code}, stderr {err!r:.300}"
        assert code in (0, 2, 3), case
        numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert numeric == [], case
        if code:
            assert len(err) == 1, case
            kind_of_error = "data" if code == 2 else "numeric"
            assert err[0].startswith(f"demoscope: {kind_of_error} error: "), case
            short = err[0].replace(str(tmp_path), "").replace(str(inputs), "")
            assert len(short) <= LINE_MAX, case
