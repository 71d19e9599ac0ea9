"""Scoring protocol, majority baseline and training factories.

Evaluation and quantification only need two things from a model: one
scoring pass that returns probability-like scores for class 1 together
with hard predictions, and whether the scores are calibrated. Fitted
NaiveBayesModel and AxisModel objects provide both themselves. Scores
are NaN (and predictions -1) for rows a model cannot score; score_rows
is the one place that turns that into a mask, and scored_sample the one
place that keeps a model's scorable labeled rows, the sample every metric,
calibration and correction rate is measured on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from . import axis as axis_mod
from . import bayes
from .data import LabeledCorpus
from .errors import DataError


@runtime_checkable
class ScoringClassifier(Protocol):
    def score(self, corpus: LabeledCorpus) -> tuple[np.ndarray, np.ndarray]:
        """(class-1 scores, hard predictions) per row, from one pass."""
        ...

    @property
    def calibrated(self) -> bool: ...


def score_rows(
    model: ScoringClassifier, corpus: LabeledCorpus
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scores, predictions, scorable) from one scoring pass. A row is
    scorable unless its score is NaN or its prediction is -1."""
    scores, preds = model.score(corpus)
    return scores, preds, np.isfinite(scores) & (preds >= 0)


def scored_sample(
    model: ScoringClassifier, corpus: LabeledCorpus
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scores, predictions, labels) of the labeled rows the model can
    score, in row order, from one scoring pass; empty when there are none."""
    scores, preds, ok = score_rows(model, corpus)
    ok &= corpus.labeled_mask
    return scores[ok], preds[ok], corpus.labels[ok]


@dataclass
class MajorityClassifier:
    """Predicts the majority training class; scores are the class-1 rate."""

    majority: int
    rate: float

    def __post_init__(self):
        if self.majority not in (0, 1):
            raise DataError(f"majority must be class 0 or 1, got {self.majority}")
        if not 0.0 <= self.rate <= 1.0:
            raise DataError(f"rate must lie in [0, 1], got {self.rate}")

    @classmethod
    def fit(cls, corpus: LabeledCorpus) -> "MajorityClassifier":
        counts = corpus.class_counts()
        if counts.sum() == 0:
            raise DataError("majority fit needs labeled rows")
        majority = int(np.argmax(counts))  # tie resolves to class 0
        rate = float(counts[1] / counts.sum())
        return cls(majority=majority, rate=rate)

    def score(self, corpus: LabeledCorpus) -> tuple[np.ndarray, np.ndarray]:
        n = corpus.n
        return np.full(n, self.rate, dtype=np.float64), np.full(n, self.majority, dtype=np.int64)

    @property
    def calibrated(self) -> bool:
        return False


TrainFn = Callable[[LabeledCorpus], ScoringClassifier]


def nb_factory(**options) -> TrainFn:
    """Training closure for evaluation protocols: the model of bayes.fit
    with options, fitted without a report nothing reads."""
    if options.get("use_log_normal"):  # now, not in replicate 0, which in_chunks times
        import scipy.special  # noqa: F401

    def train(corpus: LabeledCorpus) -> bayes.NaiveBayesModel:
        return bayes.fit(corpus, report=False, **options)[0]

    return train


def axis_factory(model: axis_mod.AxisModel) -> TrainFn:
    """Constant closure: the axis does not retrain per split."""

    def train(corpus: LabeledCorpus) -> axis_mod.AxisModel:
        return model

    return train
