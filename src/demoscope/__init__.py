"""Infer binary sociodemographic attributes from community-participation
counts and estimate group prevalence.

The pipeline: mine or distantly derive training labels, fit a count
model (Naive Bayes family) or an embedding-axis baseline, calibrate its
scores, then quantify prevalence over user cohorts with uncertainty.
"""

__version__ = "0.1.0"
