"""Infer binary sociodemographic attributes from community-participation
counts and estimate group prevalence.

The pipeline: mine or distantly derive training labels, fit a count
model (Naive Bayes family) or an embedding-axis baseline, calibrate its
scores, then quantify prevalence over user cohorts with uncertainty.
"""

__version__ = "0.1.0"

from .axis import AxisModel, EmbeddingTable, build_axis, load_embeddings, score_corpus
from .bayes import (
    FitReport,
    NaiveBayesModel,
    feature_log_odds,
    feature_log_odds_dispersion,
    fit_semisupervised,
    fit_supervised,
    predict_proba_matrix,
)
from .calibrate import IsotonicMap, apply_map, fit_isotonic, reliability
from .classifiers import MajorityClassifier, axis_factory, majority_factory, nb_factory
from .data import (
    CommunityVocabulary,
    LabeledCorpus,
    SplitSpec,
    load_corpus,
    load_vocabulary,
    random_oversample,
    split,
)
from .errors import DataError, NumericError
from .evaluate import (
    CurveData,
    MetricReport,
    bootstrap_eval,
    cv_roc,
    f1,
    learning_curve,
    robustness_sweep,
    roc_auc,
    roc_curve,
)
from .labeling import (
    Comment,
    Declaration,
    DeclarationRule,
    SeedSets,
    binarize,
    default_rules,
    distant_label,
    extract_declarations,
    filter_bots,
    resolve_coherence,
)
from .quantify import (
    PrevalenceEstimate,
    QuantifierModel,
    estimate,
    evaluate_quantifier,
    fit_quantifier,
    mae,
    npp_sample,
    poisson_binomial_interval,
)
from .serialize import load_model, save_model

__all__ = [
    "AxisModel",
    "Comment",
    "CommunityVocabulary",
    "CurveData",
    "DataError",
    "Declaration",
    "DeclarationRule",
    "EmbeddingTable",
    "FitReport",
    "IsotonicMap",
    "LabeledCorpus",
    "MajorityClassifier",
    "MetricReport",
    "NaiveBayesModel",
    "NumericError",
    "PrevalenceEstimate",
    "QuantifierModel",
    "SeedSets",
    "SplitSpec",
    "apply_map",
    "axis_factory",
    "binarize",
    "bootstrap_eval",
    "build_axis",
    "cv_roc",
    "default_rules",
    "distant_label",
    "estimate",
    "evaluate_quantifier",
    "extract_declarations",
    "f1",
    "feature_log_odds",
    "feature_log_odds_dispersion",
    "filter_bots",
    "fit_isotonic",
    "fit_quantifier",
    "fit_semisupervised",
    "fit_supervised",
    "learning_curve",
    "load_corpus",
    "load_embeddings",
    "load_model",
    "load_vocabulary",
    "mae",
    "majority_factory",
    "nb_factory",
    "npp_sample",
    "poisson_binomial_interval",
    "predict_proba_matrix",
    "random_oversample",
    "reliability",
    "resolve_coherence",
    "robustness_sweep",
    "roc_auc",
    "roc_curve",
    "save_model",
    "score_corpus",
    "split",
]
