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
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import compress, count, islice, repeat
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError
from .serialize import in_ranges, text_lines

# scipy.sparse takes about 0.25 s to import, so it is imported where a
# matrix is first built: a command that builds none never loads it
if TYPE_CHECKING:
    import scipy.sparse as sp

# Counts above this are treated as corrupt input rather than real activity.
MAX_COUNT = 2**31 - 1

# corpus file formats load_corpus reads
FORMATS = ("jsonl", "triplets")

# the type set of a line whose counts are all JSON integers
_INT = frozenset({int})


class NameIndex:
    """Unique names, each at a position, with a cached name -> position
    map. The community vocabulary and the embedding table are both one."""

    _where = ""  # what holds the names, as pole messages call it

    @property
    def index(self) -> dict[str, int]:
        # cached in __dict__; frozen dataclasses allow direct dict writes
        cached = self.__dict__.get("_index")
        if cached is None:
            cached = self.__dict__["_index"] = {name: i for i, name in enumerate(self.names)}
        return cached

    def pole(self, names, tag: str, noun: str) -> np.ndarray:
        """Positions of a pole's community names. Missing names are
        warned about and skipped; a pole with none of them here is a
        DataError."""
        index = self.index
        found = [index[n] for n in names if n in index]
        missing = [n for n in names if n not in index]
        if missing:
            warnings.warn(f"{tag}: {len(missing)} {noun} communities not in {self._where}: {missing}")
        if not found:
            raise DataError(f"{tag}: no {noun} community found in the {self._where}")
        return np.array(found, dtype=np.int64)


@dataclass(frozen=True)
class CommunityVocabulary(NameIndex):
    """Ordered, duplicate-free community name list; position = feature index."""

    names: tuple[str, ...]
    _where = "vocabulary"

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


@dataclass
class LabeledCorpus:
    """A user x community count matrix with aligned user ids and labels.

    X is a canonical float64 CSR matrix of shape (n, vocabulary.size):
    per row, column indices are sorted and unique and every stored
    count is an integer in 1..MAX_COUNT; no row is empty. labels[i] is
    -1 (unlabeled), 0 or 1. The arrays are treated as immutable once the
    corpus is built.

    Only this constructor checks. Rows of a valid corpus are valid, so
    subset() and the corpora split() and random_oversample() return
    inherit validity and are built without re-checking.
    """

    vocabulary: CommunityVocabulary
    X: sp.csr_matrix
    user_ids: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        import scipy.sparse as sp

        X = self.X if isinstance(self.X, sp.csr_matrix) else sp.csr_matrix(self.X)
        self.X = X = X.astype(np.float64, copy=False)
        self.user_ids = np.asarray(self.user_ids, dtype=object)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n, d = X.shape
        if len(self.user_ids) != n or len(self.labels) != n:
            raise DataError(
                f"rows/ids/labels misaligned: {n} rows, {len(self.user_ids)} ids, "
                f"{len(self.labels)} labels"
            )
        if self.labels.size and (self.labels.min() < -1 or self.labels.max() > 1):
            raise DataError("labels must lie in -1..1")
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
        """Number of labeled rows per class, shape (2,)."""
        return np.bincount(self.labels[self.labeled_mask], minlength=2).astype(np.int64)

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
        X = self.X[idx]
        X.has_canonical_format = True  # rows of a canonical matrix are canonical
        out = object.__new__(LabeledCorpus)
        out.__dict__.update(
            vocabulary=self.vocabulary,
            X=X,
            user_ids=self.user_ids[idx],
            labels=self.labels[idx],
            _activities=self.activities()[idx],
        )
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
    """Read one community name per line; blank lines ignored. An empty
    vocabulary or a repeated name is a DataError naming the file."""
    names = tuple(name for name in (line.strip() for line in text_lines(path)) if name)
    try:
        return CommunityVocabulary(names)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


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


class _Builder:
    """Collects a corpus file's lines, or one byte range's, as flat
    (row, column, count) entries.

    Rows are users in first-appearance order. Entries go to typed
    buffers, and each line keeps its row, entry count and line number
    for error messages. matrix() merges duplicate users' entries into
    one CSR matrix; counts are checked per line before they get here.
    """

    def __init__(self, vocabulary: CommunityVocabulary, path):
        self.vocabulary = vocabulary
        self.index = vocabulary.index
        self.path = path
        self.rows: dict[str, int] = {}
        self.labels: list[int] = []
        self.cols = array("i")
        self.counts = array("d")
        self.line_rows = array("i")
        self.line_sizes = array("q")
        self.line_nos = array("q")
        self.lines = 0  # lines read, blank ones too
        self.report = LoadReport()

    def add(self, user: str, names, counts: list, label: int, lineno: int, where: str):
        """One line: user, community names and their checked counts, label."""
        row = self.rows.get(user)
        if row is None:
            row = self.rows[user] = len(self.labels)
            self.labels.append(-1)
        else:
            self.report.merged_duplicate_users += 1
        cols = list(map(self.index.get, names))
        if None in cols:
            known = [i for i, j in enumerate(cols) if j is not None]
            self.report.unknown_community_pairs += len(cols) - len(known)
            cols = [cols[i] for i in known]
            counts = [counts[i] for i in known]
        self.cols.extend(cols)
        self.counts.extend(counts)
        self.line_rows.append(row)
        self.line_sizes.append(len(cols))
        self.line_nos.append(lineno)
        self.set_label(row, label, where)

    @staticmethod
    def joined(parts: list) -> "_Builder | None":
        """The builders of consecutive byte ranges of a file as one, as if
        the first had read on through the others: a user met in an earlier
        range keeps its row and label, and counts as a merged duplicate.
        None when such a user's labels conflict, a load error that one pass
        must name at its line. parts is emptied as they are taken in,
        which frees each."""
        acc = parts.pop(0)
        while parts:
            part = parts.pop(0)
            base, n = len(acc.labels), len(part.labels)
            rows = np.fromiter(map(acc.rows.get, part.rows, repeat(-1)), np.intc, n)
            new = rows < 0  # users no earlier range has
            shared = np.flatnonzero(~new).tolist()
            rows[new] = np.arange(base, base + n - len(shared), dtype=np.intc)
            acc.rows.update(zip(compress(part.rows, new.tolist()), count(base)))
            acc.labels += compress(part.labels, new.tolist())
            for k in shared:
                label, row = part.labels[k], rows[k]
                if label != -1:
                    if acc.labels[row] not in (-1, label):
                        return None
                    acc.labels[row] = label
            acc.report.merged_duplicate_users += len(shared)
            acc.cols += part.cols
            acc.counts += part.counts
            acc.line_rows.frombytes(rows[np.frombuffer(part.line_rows, dtype=np.intc)].tobytes())
            acc.line_sizes += part.line_sizes
            line_nos = np.frombuffer(part.line_nos, dtype=np.longlong) + acc.lines
            acc.line_nos.frombytes(line_nos.tobytes())
            acc.lines += part.lines
            acc.report.unknown_community_pairs += part.report.unknown_community_pairs
            acc.report.merged_duplicate_users += part.report.merged_duplicate_users
        return acc

    def set_label(self, row: int, label: int, where: str):
        """Record a row's label; -1 keeps what is there, a second
        different class is an error."""
        if label == -1:
            return
        prev = self.labels[row]
        if prev != -1 and prev != label:
            user = list(self.rows)[row]
            raise DataError(f"{where}: user {user!r} has conflicting labels {prev} and {label}")
        self.labels[row] = label

    def raise_merged_overflow(self):
        """Raise the error of the first line, in file order, that pushed a
        user's merged count for one community past MAX_COUNT, if any did."""
        cols, counts = iter(self.cols), iter(self.counts)
        merged: dict[tuple[int, int], float] = {}
        for row, size, lineno in zip(self.line_rows, self.line_sizes, self.line_nos):
            for j, c in zip(islice(cols, size), islice(counts, size)):
                total = merged[row, j] = merged.get((row, j), 0) + c
                if total > MAX_COUNT:
                    user = list(self.rows)[row]
                    raise DataError(
                        f"{self.path}:{lineno}: merged count for user {user!r} exceeds {MAX_COUNT}"
                    )

    def matrix(self) -> sp.csr_matrix:
        """Every entry in one CSR matrix, duplicates summed, one row per
        user seen; a merged count above MAX_COUNT is an error."""
        import scipy.sparse as sp

        sizes = np.frombuffer(self.line_sizes, dtype=np.longlong)
        rows = np.repeat(np.frombuffer(self.line_rows, dtype=np.intc), sizes)
        cols = np.frombuffer(self.cols, dtype=np.intc)
        counts = np.frombuffer(self.counts, dtype=np.float64)
        X = sp.csr_matrix((counts, (rows, cols)), shape=(len(self.labels), self.vocabulary.size))
        if X.nnz and X.data.max() > MAX_COUNT:
            self.raise_merged_overflow()
        return X

    def finish(self, X: sp.csr_matrix) -> tuple[LabeledCorpus, LoadReport]:
        users = np.array(list(self.rows), dtype=object)
        labels = np.array(self.labels, dtype=np.int64)
        kept = np.diff(X.indptr) > 0
        if not kept.all():
            X, users, labels = X[kept], users[kept], labels[kept]
        self.report.lines_read = len(self.line_nos)  # one per non-blank line
        self.report.users_kept = len(users)
        self.report.users_rejected_empty = len(self.rows) - len(users)
        if self.report.unknown_community_pairs:
            warnings.warn(
                f"dropped {self.report.unknown_community_pairs} activity pairs "
                "referencing communities outside the vocabulary",
                stacklevel=3,
            )
        corpus = LabeledCorpus(vocabulary=self.vocabulary, X=X, user_ids=users, labels=labels)
        return corpus, self.report


def _load_jsonl(path, vocabulary: CommunityVocabulary) -> tuple[LabeledCorpus, LoadReport]:
    acc = _Builder.joined(in_ranges(path, partial(_read_jsonl, path, vocabulary)))
    if acc is None:  # labels that conflict across ranges: fail as one pass does
        acc = _read_jsonl(path, vocabulary)
    return acc.finish(acc.matrix())


def _read_jsonl(path, vocabulary: CommunityVocabulary, start: int = 0, end=None) -> "_Builder":
    """The lines of a jsonl corpus, or of one byte range of it, in a _Builder."""
    acc = _Builder(vocabulary, path)
    lineno = 0
    try:
        for lineno, line in enumerate(text_lines(path, start, end), start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{where}: invalid JSON ({e.msg})") from e
            except RecursionError as e:
                raise DataError(f"{where}: nested too deeply to parse") from e
            if not isinstance(rec, dict) or "user" not in rec:
                raise DataError(f"{where}: expected an object with a 'user' field")
            user = rec["user"]
            if not isinstance(user, str) or not user:
                raise DataError(f"{where}: 'user' must be a non-empty string")
            counts = rec.get("counts", {})
            if not isinstance(counts, dict):
                raise DataError(f"{where}: 'counts' must be an object")
            values = list(counts.values())
            if values and not (
                set(map(type, values)) <= _INT and min(values) >= 1 and max(values) <= MAX_COUNT
            ):
                for c in values:  # the first bad count raises
                    _check_count(c, where)
            label = _check_label(rec.get("label", -1), where)
            acc.add(user, counts, values, label, lineno, where)
    except DataError:
        acc.raise_merged_overflow()  # an earlier line's error comes first
        raise
    acc.lines = lineno
    return acc


def _csv_records(path, header: tuple[str, ...]):
    """(line number, "path:line", record) for each non-blank record of a
    CSV file whose first record starts with header; any other field count,
    and a record csv cannot parse, is an error at its path:line."""
    reader = csv.reader(text_lines(path))
    try:
        first = next(reader, None)
        if first is None or [h.strip() for h in first[: len(header)]] != list(header):
            raise DataError(f"{path}: expected header '{','.join(header)}'")
        for rec in reader:
            if not rec:
                continue
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(header):
                raise DataError(f"{where}: expected {len(header)} fields, got {len(rec)}")
            yield reader.line_num, where, rec
    except csv.Error as e:
        raise DataError(f"{path}:{reader.line_num}: {e}") from e


def _load_triplets(
    path, vocabulary: CommunityVocabulary, labels_path=None
) -> tuple[LabeledCorpus, LoadReport]:
    acc = _Builder(vocabulary, path)
    try:
        for lineno, where, (user, name, raw) in _csv_records(path, ("user", "community", "count")):
            if not user:
                raise DataError(f"{where}: empty user id")
            try:
                c = int(raw)
            except ValueError:
                raise DataError(f"{where}: count must be an integer, got {raw!r}") from None
            acc.add(user, (name,), [_check_count(c, where)], -1, lineno, where)
    except DataError:
        acc.raise_merged_overflow()  # an earlier line's error comes first
        raise
    X = acc.matrix()
    if labels_path is not None:
        for _, where, (user, raw) in _csv_records(labels_path, ("user", "label")):
            try:
                label = int(raw)
            except ValueError:
                raise DataError(f"{where}: label must be an integer, got {raw!r}") from None
            label = _check_label(label, where)
            if user not in acc.rows:
                raise DataError(f"{where}: label for unknown user {user!r}")
            acc.set_label(acc.rows[user], label, where)
    return acc.finish(X)


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


def write_csv(path, header, rows):
    """Write a header row and rows as CSV with LF line ends. Fields
    holding a comma, quote or line break are quoted, so csv.reader reads
    every row back with its own field count."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    additionally oversampled as random_oversample does it.
    """
    if isinstance(spec.seed, np.random.SeedSequence):
        seq = spec.seed  # evaluation protocols pass spawned children directly
    else:
        seq = np.random.SeedSequence(spec.seed)
    split_seed, over_seed = seq.spawn(2)
    rng = np.random.default_rng(split_seed)
    labels = corpus.labels
    train_parts, test_parts = [], []
    for y in (0, 1):
        pool = np.flatnonzero(labels == y)
        if len(pool) < 2:
            raise DataError(
                f"stratified split needs >= 2 labeled rows per class, "
                f"class {y} has {len(pool)}"
            )
        rng.shuffle(pool)
        n_test = int(np.floor(spec.test_fraction * len(pool)))
        test_parts.append(pool[:n_test])
        train_parts.append(pool[n_test:])
    train_parts.append(np.flatnonzero(labels < 0))
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    if spec.oversample:
        train_idx = train_idx[_oversample_rows(labels[train_idx], over_seed)]
    return corpus.subset(train_idx), corpus.subset(test_idx)


def _oversample_rows(labels: np.ndarray, seed) -> np.ndarray:
    """Row positions that balance the labeled classes of these labels.

    Every position in order, then minority-class positions drawn with
    replacement, grouped by class; every class needs a labeled row.
    Composing these onto a corpus's row indices oversamples in the same
    slice that selects the rows.
    """
    counts = np.bincount(labels[labels >= 0], minlength=2)
    if counts.min() < 1:
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DataError(f"oversampling needs >= 1 labeled row per class, class {missing} has 0")
    target = int(counts.max())
    rng = np.random.default_rng(seed)
    parts = [np.arange(labels.size)]
    for y in (0, 1):
        deficit = target - int(counts[y])
        if deficit:
            parts.append(rng.choice(np.flatnonzero(labels == y), size=deficit, replace=True))
    return np.concatenate(parts)


def random_oversample(corpus: LabeledCorpus, seed=0) -> LabeledCorpus:
    """Balance labeled classes by duplicating minority rows with replacement.

    Every class must have at least one labeled row. Unlabeled rows pass
    through unchanged. Original rows keep their order; duplicates are
    appended, grouped by class. A balanced corpus comes back unchanged.
    """
    rows = _oversample_rows(corpus.labels, seed)
    return corpus if rows.size == corpus.n else corpus.subset(rows)
