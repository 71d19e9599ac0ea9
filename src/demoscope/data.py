"""Corpus model: community vocabulary, a sparse count matrix, loaders, splits.

A corpus is one CSR (compressed sparse row) matrix of users x
communities: row i is user i's participation profile, positive integer
counts over a fixed community vocabulary. Aligned arrays hold the user
ids and optional binary class labels (-1 marks unlabeled rows). Subsets
are row views of that matrix: each slices its rows out on first read.
"""

from __future__ import annotations

import csv
import json
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import count, islice
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError
from .serialize import in_ranges, text_lines, unconverted

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

    def _refuse_repeats(self):
        """Raise a DataError naming up to five repeated names, if any repeat."""
        if len(set(self.names)) != len(self.names):
            repeated = sorted(n for n, k in Counter(self.names).items() if k > 1)
            raise DataError(f"duplicate {self._where} entries: {repeated[:5]}")

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
        self._refuse_repeats()

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
    subset() and the corpora split() returns inherit validity and are
    built without re-checking.

    A subset is a view: it holds its base corpus and its row indices,
    with labels and row sums sliced at once. Its X and user_ids are
    sliced from the base on first read and then kept, so a fit that
    reads only labels copies no rows.
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
            raise DataError(f"user {self.user_ids[empty[0]]!r:.40}: empty activity vector")

    def _reject(self, bad: np.ndarray, what: str):
        row = int(np.searchsorted(self.X.indptr, np.flatnonzero(bad)[0], side="right")) - 1
        raise DataError(f"user {self.user_ids[row]!r:.40}: {what}")

    def __getattr__(self, name):
        # reached only for an attribute not yet set: a view's X or user_ids
        view = self.__dict__.get("_view")
        if view is None or name not in ("X", "user_ids"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        base, rows = view
        if name == "X":
            value = base.X[rows]
            value.has_canonical_format = True  # rows of a canonical matrix are canonical
        else:
            value = base.user_ids[rows]
        self.__dict__[name] = value
        return value

    @property
    def n(self) -> int:
        return self.labels.shape[0]

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
        """The count matrix X. The program reads X; this stays only for
        perfbench/tracer.py, which sizes a loaded corpus through it."""
        return self.X

    def activities(self) -> np.ndarray:
        """Total activity (row sum) per row, float64, shape (n,). Cached."""
        cached = self.__dict__.get("_activities")
        if cached is None:
            cached = self.__dict__["_activities"] = np.asarray(self.X.sum(axis=1)).ravel()
        return cached

    def subset(self, indices) -> "LabeledCorpus":
        """A view of the given rows in the given order; indices may repeat.
        A subset of a view indexes the same base, so no corpus in between
        builds its rows."""
        idx = np.array(indices, dtype=np.int64)  # a copy: the view keeps it
        base, rows = self.__dict__.get("_view", (self, None))
        out = object.__new__(LabeledCorpus)
        out.__dict__.update(
            vocabulary=self.vocabulary,
            labels=self.labels[idx],
            _activities=self.activities()[idx],
            _view=(base, idx if rows is None else rows[idx]),
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


# each check echoes at most 40 characters of the value it refuses
def _check_count(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: count must be an integer, got {value!r:.40}")
    if value < 1:
        raise DataError(f"{where}: count {value!r:.40} below 1")
    if value > MAX_COUNT:
        raise DataError(f"{where}: count {value!r:.40} exceeds {MAX_COUNT}")
    return value


def _check_label(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: label must be an integer, got {value!r:.40}")
    if value not in (-1, 0, 1):
        raise DataError(f"{where}: label {value!r:.40} outside -1..1")
    return value


class _Lines:
    """A corpus file's non-blank lines as read, or one byte range's: each
    line's user id, label, entry count and line number, and its
    in-vocabulary (column, count) entries in flat typed buffers. Nothing
    is merged while lines are read, so byte ranges join by concatenation;
    corpus() merges once, over every line."""

    def __init__(self, path):
        self.path = path
        self.users: list[str] = []
        self.labels = array("b")
        self.sizes = array("q")
        self.line_nos = array("q")
        self.cols = array("i")
        self.counts = array("d")
        self.lines = 0  # lines read, blank ones too
        self.unknown = 0  # entries dropped for a community outside the vocabulary

    def add(self, user: str, cols: list, counts: list, label: int, lineno: int):
        """One line; a column is None for a community outside the vocabulary."""
        if None in cols:
            known = [i for i, j in enumerate(cols) if j is not None]
            self.unknown += len(cols) - len(known)
            cols = [cols[i] for i in known]
            counts = [counts[i] for i in known]
        self.users.append(user)
        self.labels.append(label)
        self.sizes.append(len(cols))
        self.line_nos.append(lineno)
        self.cols.extend(cols)
        self.counts.extend(counts)

    @staticmethod
    def joined(parts: list) -> "_Lines":
        """The lines of consecutive byte ranges of a file as one, as if the
        first had read on through the others. parts is emptied as they are
        taken in, which frees each."""
        acc = parts.pop(0)
        while parts:
            part = parts.pop(0)
            part.line_nos = array("q", [lineno + acc.lines for lineno in part.line_nos])
            for name in ("users", "labels", "sizes", "line_nos", "cols", "counts"):
                getattr(acc, name).extend(getattr(part, name))
            acc.lines += part.lines
            acc.unknown += part.unknown
        return acc

    def rows(self) -> tuple[list[str], np.ndarray]:
        """The users in first-appearance order, and each line's row: its
        user's position among them."""
        users = list(dict.fromkeys(self.users))
        if len(users) == len(self.users):  # no user repeats
            return users, np.arange(len(users), dtype=np.intc)
        index = dict(zip(users, count()))
        return users, np.fromiter(map(index.__getitem__, self.users), np.intc, len(self.users))

    def row_labels(self, rows: np.ndarray, n: int, overflow: bool) -> np.ndarray:
        """Each of n rows' first label other than -1 (-1 if none), line k
        being in row rows[k]. Raises the first merge error in file order:
        a labeled line that disagrees with its row's first label or, if
        overflow, a line that pushes its user's summed count for one
        community past MAX_COUNT, which comes first on one line."""
        labels = np.frombuffer(self.labels, dtype=np.int8)
        labeled = np.flatnonzero(labels != -1)
        firsts = labeled[np.unique(rows[labeled], return_index=True)[1]]
        out = np.full(n, -1, dtype=np.int64)
        out[rows[firsts]] = labels[firsts]
        conflicts = labeled[labels[labeled] != out[rows[labeled]]]
        k = int(conflicts[0]) if conflicts.size else len(rows)
        if overflow:
            self._raise_overflow(rows[: k + 1])
        if k < len(rows):
            raise DataError(
                f"{self.path}:{self.line_nos[k]}: user {self.users[k]!r:.40} has conflicting "
                f"labels {out[rows[k]]} and {labels[k]}"
            )
        return out

    def _raise_overflow(self, rows: np.ndarray):
        """Raise the error of the first line, of those rows covers, that
        pushed its user's summed count for one community past MAX_COUNT."""
        cols, counts = iter(self.cols), iter(self.counts)
        merged: dict[tuple[int, int], float] = {}
        for k, (row, size) in enumerate(zip(rows.tolist(), self.sizes)):
            for j, c in zip(islice(cols, size), islice(counts, size)):
                total = merged[row, j] = merged.get((row, j), 0) + c
                if total > MAX_COUNT:
                    raise DataError(
                        f"{self.path}:{self.line_nos[k]}: merged count for user "
                        f"{self.users[k]!r:.40} exceeds {MAX_COUNT}"
                    )

    def check(self):
        """Raise the first merge error of the lines read so far, if any."""
        users, rows = self.rows()
        # a count over MAX_COUNT is refused per line, so a merged count can
        # pass it only in a row whose counts sum past it
        entry_rows = np.repeat(rows, np.frombuffer(self.sizes, dtype=np.longlong))
        totals = np.bincount(entry_rows, weights=np.frombuffer(self.counts), minlength=1)
        self.row_labels(rows, len(users), overflow=totals.max() > MAX_COUNT)

    def corpus(self, vocabulary: CommunityVocabulary, labels_path=None):
        """The corpus these lines hold, one row per user with a count, and
        its LoadReport. A row sums its user's lines' counts and takes their
        first label other than -1, or that of labels_path, a 'user,label'
        CSV. Raises the first merge error in file order."""
        import scipy.sparse as sp

        users, rows = self.rows()
        n = len(users)
        sizes = np.frombuffer(self.sizes, dtype=np.longlong)
        cols = np.frombuffer(self.cols, dtype=np.intc)
        counts = np.frombuffer(self.counts, dtype=np.float64)
        if n < len(self.users):  # merged users: COO sums their entries
            X = sp.csr_matrix((counts, (np.repeat(rows, sizes), cols)), shape=(n, vocabulary.size))
        else:  # a line per row: X takes over the lines' buffers as its arrays
            indptr = np.concatenate([[0], np.cumsum(sizes)])
            X = sp.csr_matrix((counts, cols, indptr), shape=(n, vocabulary.size))
            X.sort_indices()  # in place; JSON key order is not column order
        labels = self.row_labels(rows, n, overflow=bool(X.nnz) and X.data.max() > MAX_COUNT)
        if labels_path is not None:
            labels = _read_labels(labels_path, users)
        users = np.array(users, dtype=object)
        kept = np.diff(X.indptr) > 0
        if not kept.all():
            X, users, labels = X[kept], users[kept], labels[kept]
        report = LoadReport(
            lines_read=len(self.users), users_kept=len(users), users_rejected_empty=n - len(users),
            unknown_community_pairs=self.unknown, merged_duplicate_users=len(self.users) - n,
        )
        if self.unknown:
            what = f"{self.unknown} activity pairs referencing communities outside the vocabulary"
            warnings.warn(f"dropped {what}", stacklevel=3)
        return LabeledCorpus(vocabulary=vocabulary, X=X, user_ids=users, labels=labels), report


def _load_jsonl(path, vocabulary: CommunityVocabulary) -> tuple[LabeledCorpus, LoadReport]:
    parts = in_ranges(path, partial(_read_jsonl, path, vocabulary))
    return _Lines.joined(parts).corpus(vocabulary)


def _read_jsonl(path, vocabulary: CommunityVocabulary, start: int = 0, end=None) -> _Lines:
    """The lines of a jsonl corpus, or of one byte range of it."""
    acc, index = _Lines(path), vocabulary.index
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
            except ValueError as e:  # an integer past the int-string limit
                raise DataError(f"{where}: invalid JSON ({unconverted(e)})") from None
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
            acc.add(user, list(map(index.get, counts)), values, label, lineno)
    except DataError:
        acc.check()  # a merge error on an earlier line comes first
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


def _int_field(raw: str, what: str, where: str) -> int:
    """A CSV field read as an integer: one that is none is echoed, cut to
    40 characters, and one past Python's int-string limit named as such."""
    try:
        return int(raw)
    except ValueError as e:
        if str(e).startswith("Exceeds the limit"):
            raise DataError(f"{where}: {what} too long ({unconverted(e)})") from None
        raise DataError(f"{where}: {what} must be an integer, got {raw!r:.40}") from None


def _load_triplets(
    path, vocabulary: CommunityVocabulary, labels_path=None
) -> tuple[LabeledCorpus, LoadReport]:
    acc, index = _Lines(path), vocabulary.index
    try:
        for lineno, where, (user, name, raw) in _csv_records(path, ("user", "community", "count")):
            if not user:
                raise DataError(f"{where}: empty user id")
            c = _int_field(raw, "count", where)
            acc.add(user, [index.get(name)], [_check_count(c, where)], -1, lineno)
    except DataError:
        acc.check()  # a merge error on an earlier line comes first
        raise
    return acc.corpus(vocabulary, labels_path)


def _read_labels(path, users: list[str]) -> np.ndarray:
    """Each user's label in a 'user,label' CSV, merged as a corpus's line
    labels are; -1 for a user it does not name, which users must hold."""
    given, index = _Lines(path), dict(zip(users, count()))
    try:
        for lineno, where, (user, raw) in _csv_records(path, ("user", "label")):
            label = _check_label(_int_field(raw, "label", where), where)
            if user not in index:
                raise DataError(f"{where}: label for unknown user {user!r:.40}")
            given.add(user, [], [], label, lineno)
    finally:  # an earlier line's conflict replaces a line error
        rows = np.fromiter(map(index.__getitem__, given.users), np.intc, len(given.users))
        labels = given.row_labels(rows, len(users), overflow=False)
    return labels


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


def split(
    corpus: LabeledCorpus, test_fraction: float, seed, oversample: bool = False
) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Seeded train/test split, stratified over labels.

    test_fraction, strictly between 0 and 1, applies to the labeled rows
    of each class, rounded down; the rest of the labeled rows and every
    unlabeled row go to train. Returns (train, test). Row order within
    each side follows the original corpus order. With oversample the
    train side's labeled classes are then balanced by _oversample_rows.
    seed is an int or a SeedSequence (evaluation protocols pass spawned
    children directly).
    """
    if not (0.0 < test_fraction < 1.0):
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    split_seed, over_seed = seed.spawn(2)
    labels, counts = corpus.labels, corpus.class_counts()
    for y in (0, 1):
        if counts[y] < 2:
            raise DataError(
                f"stratified split needs >= 2 labeled rows per class, class {y} has {counts[y]}"
            )
    position = class_positions(labels, np.random.default_rng(split_seed))
    n_test = np.floor(test_fraction * counts).astype(np.int64)
    test = (labels >= 0) & (position < n_test[labels])  # unlabeled rows go to train
    train_idx, test_idx = np.flatnonzero(~test), np.flatnonzero(test)
    if oversample:
        train_idx = train_idx[_oversample_rows(labels[train_idx], over_seed)]
    return corpus.subset(train_idx), corpus.subset(test_idx)


def class_positions(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Each labeled row's position in a shuffle of its class's rows, -1 for
    an unlabeled row; rng shuffles class 0's rows, then class 1's."""
    position = np.full(labels.size, -1, dtype=np.int64)
    for y in (0, 1):
        pool = np.flatnonzero(labels == y)
        rng.shuffle(pool)
        position[pool] = np.arange(pool.size)
    return position


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
