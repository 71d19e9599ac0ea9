"""Corpus model: community vocabulary, a sparse count matrix, loaders, splits.

A corpus is one CSR (compressed sparse row) matrix of users x
communities: row i is user i's participation profile, positive integer
counts over a fixed community vocabulary. Aligned arrays hold the user
ids and optional binary class labels (-1 marks unlabeled rows). Subsets
are row slices of that matrix.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError

# Counts above this are treated as corrupt input rather than real activity.
MAX_COUNT = 2**31 - 1

# corpus file formats load_corpus reads
FORMATS = ("jsonl", "triplets")


@dataclass(frozen=True)
class CommunityVocabulary:
    """Ordered, duplicate-free community name list; position = feature index."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise DataError("vocabulary is empty")
        if any(not isinstance(n, str) or n == "" for n in self.names):
            raise DataError("vocabulary entries must be non-empty strings")
        if len(set(self.names)) != len(self.names):
            seen, dups = set(), []
            for n in self.names:
                if n in seen:
                    dups.append(n)
                seen.add(n)
            raise DataError(f"duplicate vocabulary entries: {sorted(set(dups))[:5]}")

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def index(self) -> dict[str, int]:
        # cached in __dict__; frozen dataclass allows direct dict writes
        cached = self.__dict__.get("_index")
        if cached is None:
            cached = {name: i for i, name in enumerate(self.names)}
            self.__dict__["_index"] = cached
        return cached


@dataclass
class LabeledCorpus:
    """A user x community count matrix with aligned user ids and labels.

    X is a canonical float64 CSR matrix of shape (n, vocabulary.size):
    per row, column indices are sorted and unique and every stored
    count is an integer in 1..MAX_COUNT; no row is empty. labels[i] is
    in {-1, 0, ..., k-1}; -1 means unlabeled. The arrays are treated as
    immutable once the corpus is built.
    """

    vocabulary: CommunityVocabulary
    X: sp.csr_matrix
    user_ids: np.ndarray
    labels: np.ndarray
    k: int = 2

    def __post_init__(self):
        X = self.X if isinstance(self.X, sp.csr_matrix) else sp.csr_matrix(self.X)
        self.X = X = X.astype(np.float64, copy=False)
        self.user_ids = np.asarray(self.user_ids, dtype=object)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.k < 2:
            raise DataError(f"k must be >= 2, got {self.k}")
        n, d = X.shape
        if len(self.user_ids) != n or len(self.labels) != n:
            raise DataError(
                f"rows/ids/labels misaligned: {n} rows, {len(self.user_ids)} ids, "
                f"{len(self.labels)} labels"
            )
        if self.labels.size and (self.labels.min() < -1 or self.labels.max() >= self.k):
            raise DataError(f"labels must lie in -1..{self.k - 1}")
        if d != self.vocabulary.size:
            raise DataError(
                f"count matrix has {d} columns for a vocabulary of size {self.vocabulary.size}"
            )
        if X.nnz and (X.indices.min() < 0 or X.indices.max() >= d):
            raise DataError(f"community index outside vocabulary of size {d}")
        # integral counts >= 1 stay so when duplicate entries merge
        data = X.data
        if X.nnz and not (data.min() >= 1 and np.array_equal(np.floor(data), data)):
            self._reject((data < 1) | (np.floor(data) != data), "counts must be integers >= 1")
        X.sum_duplicates()
        if X.nnz and X.data.max() > MAX_COUNT:
            self._reject(X.data > MAX_COUNT, f"count exceeds {MAX_COUNT}")
        empty = np.flatnonzero(np.diff(X.indptr) == 0)
        if empty.size:
            raise DataError(f"user {self.user_ids[empty[0]]!r}: empty activity vector")

    def _reject(self, bad: np.ndarray, what: str):
        row = int(np.searchsorted(self.X.indptr, np.flatnonzero(bad)[0], side="right")) - 1
        raise DataError(f"user {self.user_ids[row]!r}: {what}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.vocabulary.size

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.labels >= 0

    def class_counts(self) -> np.ndarray:
        """Number of labeled rows per class, shape (k,)."""
        return np.bincount(self.labels[self.labeled_mask], minlength=self.k).astype(np.int64)

    def to_csr(self) -> sp.csr_matrix:
        """The count matrix X, float64, shape (n, d)."""
        return self.X

    def activities(self) -> np.ndarray:
        """Total activity (row sum) per row, float64, shape (n,). Cached."""
        cached = self.__dict__.get("_activities")
        if cached is None:
            cached = self.__dict__["_activities"] = np.asarray(self.X.sum(axis=1)).ravel()
        return cached

    def subset(self, indices) -> "LabeledCorpus":
        """New corpus holding the given rows in the given order; indices may repeat."""
        idx = np.asarray(indices, dtype=np.int64)
        out = LabeledCorpus(
            vocabulary=self.vocabulary,
            X=self.X[idx],
            user_ids=self.user_ids[idx],
            labels=self.labels[idx],
            k=self.k,
        )
        out.__dict__["_activities"] = self.activities()[idx]
        return out


@dataclass
class LoadReport:
    """What happened during a corpus load."""

    lines_read: int = 0
    users_kept: int = 0
    users_rejected_empty: int = 0
    unknown_community_pairs: int = 0
    merged_duplicate_users: int = 0


def load_vocabulary(path) -> CommunityVocabulary:
    """Read one community name per line; blank lines ignored."""
    names = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        name = line.strip()
        if name:
            names.append(name)
    return CommunityVocabulary(tuple(names))


def _check_count(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: count must be an integer, got {value!r}")
    if value < 1:
        raise DataError(f"{where}: count {value} below 1")
    if value > MAX_COUNT:
        raise DataError(f"{where}: count {value} exceeds {MAX_COUNT}")
    return value


def _check_label(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: label must be an integer, got {value!r}")
    if value not in (-1, 0, 1):
        raise DataError(f"{where}: label {value} outside -1..1")
    return value


class _Accumulator:
    """Merges per-user counts and labels in first-appearance order."""

    def __init__(self, vocabulary: CommunityVocabulary):
        self.vocabulary = vocabulary
        self.order: list[str] = []
        self.counts: dict[str, dict[int, int]] = {}
        self.labels: dict[str, int] = {}
        self.report = LoadReport()

    def add_user(self, user: str, pairs, label: int, where: str):
        if user in self.counts:
            self.report.merged_duplicate_users += 1
        else:
            self.order.append(user)
            self.counts[user] = {}
            self.labels[user] = -1
        acc = self.counts[user]
        for j, c in pairs:
            acc[j] = acc.get(j, 0) + c
            if acc[j] > MAX_COUNT:
                raise DataError(f"{where}: merged count for user {user!r} exceeds {MAX_COUNT}")
        self.set_label(user, label, where)

    def set_label(self, user: str, label: int, where: str):
        """Record a known user's label; -1 keeps what is there, a second
        different class is an error."""
        if label == -1:
            return
        prev = self.labels[user]
        if prev != -1 and prev != label:
            raise DataError(f"{where}: user {user!r} has conflicting labels {prev} and {label}")
        self.labels[user] = label

    def finish(self) -> tuple[LabeledCorpus, LoadReport]:
        kept = [user for user in self.order if self.counts[user]]
        self.report.users_kept = len(kept)
        self.report.users_rejected_empty = len(self.order) - len(kept)
        if self.report.unknown_community_pairs:
            warnings.warn(
                f"dropped {self.report.unknown_community_pairs} activity pairs "
                "referencing communities outside the vocabulary",
                stacklevel=3,
            )
        rows = [self.counts[user] for user in kept]
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows], dtype=np.int64)])
        nnz = int(indptr[-1])
        # dict order; the corpus constructor sorts each row's indices
        indices = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=nnz)
        data = np.fromiter(
            chain.from_iterable(r.values() for r in rows), dtype=np.float64, count=nnz
        )
        corpus = LabeledCorpus(
            vocabulary=self.vocabulary,
            X=sp.csr_matrix((data, indices, indptr), shape=(len(kept), self.vocabulary.size)),
            user_ids=np.array(kept, dtype=object),
            labels=np.array([self.labels[user] for user in kept], dtype=np.int64),
        )
        return corpus, self.report


def _load_jsonl(path, vocabulary: CommunityVocabulary) -> tuple[LabeledCorpus, LoadReport]:
    acc = _Accumulator(vocabulary)
    index = vocabulary.index
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            acc.report.lines_read += 1
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{where}: invalid JSON ({e.msg})") from e
            if not isinstance(rec, dict) or "user" not in rec:
                raise DataError(f"{where}: expected an object with a 'user' field")
            user = rec["user"]
            if not isinstance(user, str) or not user:
                raise DataError(f"{where}: 'user' must be a non-empty string")
            counts = rec.get("counts", {})
            if not isinstance(counts, dict):
                raise DataError(f"{where}: 'counts' must be an object")
            pairs = []
            for name, c in counts.items():
                c = _check_count(c, where)
                j = index.get(name)
                if j is None:
                    acc.report.unknown_community_pairs += 1
                    continue
                pairs.append((j, c))
            label = _check_label(rec.get("label", -1), where)
            acc.add_user(user, pairs, label, where)
    return acc.finish()


def _load_triplets(
    path, vocabulary: CommunityVocabulary, labels_path=None
) -> tuple[LabeledCorpus, LoadReport]:
    acc = _Accumulator(vocabulary)
    index = vocabulary.index
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["user", "community", "count"]:
            raise DataError(f"{path}: expected header 'user,community,count'")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            acc.report.lines_read += 1
            where = f"{path}:{lineno}"
            if len(rec) != 3:
                raise DataError(f"{where}: expected 3 fields, got {len(rec)}")
            user, name, raw = rec[0], rec[1], rec[2]
            if not user:
                raise DataError(f"{where}: empty user id")
            try:
                c = int(raw)
            except ValueError:
                raise DataError(f"{where}: count must be an integer, got {raw!r}") from None
            c = _check_count(c, where)
            j = index.get(name)
            if j is None:
                acc.report.unknown_community_pairs += 1
                acc.add_user(user, [], -1, where)
            else:
                acc.add_user(user, [(j, c)], -1, where)
    if labels_path is not None:
        with open(labels_path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["user", "label"]:
                raise DataError(f"{labels_path}: expected header 'user,label'")
            for lineno, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                where = f"{labels_path}:{lineno}"
                if len(rec) != 2:
                    raise DataError(f"{where}: expected 2 fields, got {len(rec)}")
                user, raw = rec[0], rec[1]
                try:
                    label = int(raw)
                except ValueError:
                    raise DataError(f"{where}: label must be an integer, got {raw!r}") from None
                label = _check_label(label, where)
                if user not in acc.counts:
                    raise DataError(f"{where}: label for unknown user {user!r}")
                acc.set_label(user, label, where)
    return acc.finish()


def load_corpus(
    path,
    vocabulary: CommunityVocabulary,
    fmt: str = "jsonl",
    labels_path=None,
) -> tuple[LabeledCorpus, LoadReport]:
    """Load a corpus from disk.

    Formats:
      jsonl    one object per line: {"user": str, "counts": {community: int},
               "label": int (optional, -1 = unlabeled)}
      triplets CSV 'user,community,count' plus an optional labels CSV
               'user,label' given via labels_path.

    Duplicate users are merged by entry-wise count sum. Unknown
    communities are dropped (counted in the report, single warning).
    Users left with no in-vocabulary activity are rejected, not errors.
    Conflicting labels for one user raise DataError.
    """
    if fmt not in FORMATS:
        raise DataError(f"unknown corpus format {fmt!r}")
    if fmt == "triplets":
        return _load_triplets(path, vocabulary, labels_path)
    if labels_path is not None:
        raise DataError("labels_path only applies to fmt='triplets'")
    return _load_jsonl(path, vocabulary)


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split parameters.

    test_fraction applies to the labeled rows of each class, rounded
    down; the rest of the labeled rows and every unlabeled row go to
    train.
    """

    test_fraction: float = 0.3
    oversample: bool = False
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise DataError("test_fraction must lie strictly between 0 and 1")


def split(corpus: LabeledCorpus, spec: SplitSpec) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Seeded train/test split, stratified over labels.

    Returns (train, test). Row order within each side follows the
    original corpus order. With spec.oversample the train side is
    additionally passed through random_oversample.
    """
    if isinstance(spec.seed, np.random.SeedSequence):
        seq = spec.seed  # evaluation protocols pass spawned children directly
    else:
        seq = np.random.SeedSequence(spec.seed)
    split_seed, over_seed = seq.spawn(2)
    rng = np.random.default_rng(split_seed)
    labeled_idx = np.flatnonzero(corpus.labeled_mask)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for y in range(corpus.k):
        pool = labeled_idx[corpus.labels[labeled_idx] == y]
        if len(pool) < 2:
            raise DataError(
                f"stratified split needs >= 2 labeled rows per class, "
                f"class {y} has {len(pool)}"
            )
        shuffled = pool.copy()
        rng.shuffle(shuffled)
        n_test = int(np.floor(spec.test_fraction * len(shuffled)))
        test_idx += shuffled[:n_test].tolist()
        train_idx += shuffled[n_test:].tolist()
    train_idx += np.flatnonzero(~corpus.labeled_mask).tolist()
    train = corpus.subset(sorted(train_idx))
    test = corpus.subset(sorted(test_idx))
    if spec.oversample:
        train = random_oversample(train, seed=over_seed)
    return train, test


def random_oversample(corpus: LabeledCorpus, seed=0) -> LabeledCorpus:
    """Balance labeled classes by duplicating minority rows with replacement.

    Every class must have at least one labeled row. Unlabeled rows pass
    through unchanged. Original rows keep their order; duplicates are
    appended, grouped by class. A balanced corpus comes back unchanged.
    """
    counts = corpus.class_counts()
    if counts.min() < 1:
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DataError(f"oversampling needs >= 1 labeled row per class, class {missing} has 0")
    target = int(counts.max())
    rng = np.random.default_rng(seed)
    extra: list[int] = []
    for y in range(corpus.k):
        deficit = target - int(counts[y])
        if deficit == 0:
            continue
        pool = np.flatnonzero(corpus.labels == y)
        extra += rng.choice(pool, size=deficit, replace=True).tolist()
    if not extra:
        return corpus
    keep = list(range(corpus.n)) + extra
    return corpus.subset(keep)
