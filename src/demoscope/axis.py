"""Embedding-axis baseline: score users along a seeded semantic direction.

An axis is the difference between the mean embedding of two curated
community pole sets. Every community in the table gets a cosine
similarity to the axis, z-standardized over the whole table. A user's
score is the activity-weighted average of the z scores of the
communities they participate in; class 1 iff the score is above 0.
Communities absent from the embedding table are ignored; users with no
embeddable activity are unscorable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import IsotonicMap, apply_map
from .data import CommunityVocabulary, LabeledCorpus, NameIndex
from .errors import DataError
from .labeling import SeedSets
from .serialize import text_lines


@dataclass(frozen=True)
class EmbeddingTable(NameIndex):
    """Community name -> dense vector, all rows the same dimension."""

    names: tuple[str, ...]
    vectors: np.ndarray
    _where = "table"

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", vec)
        if len(self.names) == 0:
            raise DataError("embedding table is empty")
        self._refuse_repeats()
        if vec.ndim != 2 or vec.shape[0] != len(self.names):
            raise DataError("vectors must be a 2-d array aligned with names")
        if not np.all(np.isfinite(vec)):
            raise DataError("embedding vectors must be finite")


# largest |component| accepted: build_axis's norms and dot products stay finite
MAX_COMPONENT = 1e150


def load_embeddings(path) -> EmbeddingTable:
    """Read a TSV of 'name\\tv1\\tv2...' rows into an EmbeddingTable."""
    names: list[str] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(text_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\r\n").split("\t")
        if len(parts) < 2:
            raise DataError(f"{path}:{lineno}: expected 'name<TAB>values...'")
        try:
            vec = [float(v) for v in parts[1:]]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric embedding value") from None
        if any(abs(v) > MAX_COMPONENT for v in vec):
            raise DataError(f"{path}:{lineno}: embedding value too large (limit {MAX_COMPONENT:g})")
        if rows and len(vec) != len(rows[0]):
            dim = len(rows[0])
            raise DataError(f"{path}:{lineno}: dimension {len(vec)} differs from first row ({dim})")
        names.append(parts[0])
        rows.append(vec)
    if not names:
        raise DataError(f"{path}: no embedding rows")
    try:
        return EmbeddingTable(tuple(names), np.array(rows, dtype=np.float64))
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


@dataclass
class AxisModel:
    """A fitted axis: per-community z scores and an optional calibrator.
    pole_a holds the positive side's pole communities, pole_b the
    negative side's."""

    attribute: str
    communities: tuple[str, ...]
    z: np.ndarray
    pole_a: tuple[str, ...]
    pole_b: tuple[str, ...]
    calibrator: IsotonicMap | None = None

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        if self.z.shape != (len(self.communities),):
            raise DataError("z must align with communities")
        if len(set(self.communities)) != len(self.communities):
            raise DataError("duplicate community names in axis model")
        if not np.all(np.isfinite(self.z)):
            raise DataError("z must be finite")

    def score(self, corpus: LabeledCorpus) -> tuple[np.ndarray, np.ndarray]:
        """Raw scores squashed to (0, 1) by a unit-slope logistic, then
        mapped by the calibrator if one is attached, and predictions:
        1 iff the raw score is above 0, 0 otherwise, -1 where it is not
        finite. An unscorable row's NaN passes through as its score."""
        raw = score_corpus(self, corpus)
        with np.errstate(over="ignore"):
            proba = 1.0 / (1.0 + np.exp(-raw))
        if self.calibrator is not None:
            proba = apply_map(self.calibrator, proba)
        preds = (raw > 0).astype(np.int64)
        preds[~np.isfinite(raw)] = -1
        return proba, preds

    @property
    def calibrated(self) -> bool:
        return self.calibrator is not None


def _cosine(vectors: np.ndarray, axis_vec: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1) * np.linalg.norm(axis_vec)
    dots = vectors @ axis_vec
    out = np.zeros(len(vectors), dtype=np.float64)
    ok = norms > 0
    out[ok] = dots[ok] / norms[ok]
    return out


def build_axis(table: EmbeddingTable, seeds: SeedSets) -> AxisModel:
    """Build a cosine axis from a seed set's two pole community sets.

    The axis direction is mean(pole_b vectors) - mean(pole_a vectors),
    so the class-1 pole, pole_b, lands on the positive side. Pole names
    missing from the table are warned about and skipped; each pole needs
    at least one resolvable name. Cosine similarities to the axis are
    z-standardized over the full table.
    Swapping the poles exactly negates every z score.
    """
    ia = table.pole(seeds.pole_a, "pole_a", "pole")
    ib = table.pole(seeds.pole_b, "pole_b", "pole")
    axis_vec = table.vectors[ib].mean(axis=0) - table.vectors[ia].mean(axis=0)
    if np.linalg.norm(axis_vec) == 0.0:
        raise DataError("degenerate axis: pole means coincide")
    raw = _cosine(table.vectors, axis_vec)
    std = raw.std()
    if std == 0.0:
        raise DataError("degenerate axis: all communities project identically")
    z = (raw - raw.mean()) / std
    return AxisModel(
        attribute=seeds.attribute,
        communities=table.names,
        z=z,
        pole_a=seeds.pole_b,
        pole_b=seeds.pole_a,
    )


def _z_for_vocabulary(axis: AxisModel, vocabulary: CommunityVocabulary):
    """Align axis z scores to a vocabulary: (values, coverage mask)."""
    values = np.zeros(vocabulary.size, dtype=np.float64)
    mask = np.zeros(vocabulary.size, dtype=bool)
    for j, z in zip(map(vocabulary.index.get, axis.communities), axis.z.tolist()):
        if j is not None:
            values[j] = z
            mask[j] = True
    return values, mask


def score_corpus(axis: AxisModel, corpus: LabeledCorpus) -> np.ndarray:
    """Axis score per row; NaN for rows with no embeddable activity."""
    values, mask = _z_for_vocabulary(axis, corpus.vocabulary)
    X = corpus.X
    num = X @ (values * mask)
    den = X @ mask.astype(np.float64)
    out = np.full(corpus.n, np.nan, dtype=np.float64)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    return out
