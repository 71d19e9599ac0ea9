"""Independent reference implementations used as test oracles, and
the test-only generators and writers.

The oracles are written from the model definitions directly, in plain
dense NumPy or plain Python loops, sharing no code with the package
internals: the corpus loader as per-user dict merges, and the
declaration miner as its first per-pattern loop.
"""

import csv
import json
import re
from datetime import datetime, timezone

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp
from scipy.stats import lognorm

from demoscope.data import MAX_COUNT, CommunityVocabulary, LabeledCorpus
from demoscope.errors import DataError
from demoscope.labeling import GROUP_FOR, Declaration, ExtractReport
from demoscope.synth import SynthWorld


def corpus_from_dense(X, labels, names=None, prefix="u") -> LabeledCorpus:
    """Corpus over a dense count matrix; every row must be non-empty."""
    X = np.asarray(X)
    n, d = X.shape
    if names is None:
        names = tuple(f"c{j:04d}" for j in range(d))
    return LabeledCorpus(
        vocabulary=CommunityVocabulary(tuple(names)),
        X=sp.csr_matrix(X),
        user_ids=[f"{prefix}{i:06d}" for i in range(n)],
        labels=np.asarray(labels, dtype=np.int64),
    )


def random_world(
    rng,
    d: int = 50,
    activity_mu=(3.0, 3.2),
    activity_sigma=(0.5, 0.6),
    concentration: float = 1.0,
) -> SynthWorld:
    """Dirichlet-random class conditionals and a Dirichlet-random prior."""
    prior = rng.dirichlet(np.full(2, 5.0))
    cond = rng.dirichlet(np.full(d, concentration), size=2)
    names = tuple(f"c{j:04d}" for j in range(d))
    return SynthWorld(
        prior=prior,
        cond=cond,
        activity_mu=np.asarray(activity_mu, dtype=np.float64),
        activity_sigma=np.asarray(activity_sigma, dtype=np.float64),
        vocabulary=CommunityVocabulary(names),
    )


def write_corpus_triplets(corpus: LabeledCorpus, path, labels_path=None):
    """A corpus as a 'user,community,count' CSV, plus a 'user,label' CSV
    of its labeled rows when labels_path is given."""
    names = corpus.vocabulary.names
    X = corpus.to_csr()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user,community,count\n")
        for i, user in enumerate(corpus.user_ids):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            for j, c in zip(X.indices[lo:hi].tolist(), X.data[lo:hi].astype(np.int64).tolist()):
                fh.write(f"{user},{names[j]},{c}\n")
    if labels_path is not None:
        with open(labels_path, "w", encoding="utf-8") as fh:
            fh.write("user,label\n")
            for user, label in zip(corpus.user_ids, corpus.labels.tolist()):
                if label >= 0:
                    fh.write(f"{user},{label}\n")


def cc_bias(tpr: float, fpr: float, prevalence: float) -> float:
    """Expected CC distortion fpr*(1-p) - (1-tpr)*p at true prevalence p."""
    return fpr * (1.0 - prevalence) - (1.0 - tpr) * prevalence


def dense_nb_fit(X, y, k, alpha1, alpha2, use_log_normal):
    """Brute-force smoothed estimates from a dense count matrix."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    prior = np.empty(k)
    cond = np.empty((k, d))
    for c in range(k):
        rows = X[y == c]
        prior[c] = (alpha1 + rows.shape[0]) / (alpha1 * k + n)
        total = rows.sum()
        for j in range(d):
            cond[c, j] = (alpha2 + rows[:, j].sum()) / (alpha2 * d + total)
    activity = None
    if use_log_normal:
        activity = np.empty((k, 2))
        for c in range(k):
            la = np.log(X[y == c].sum(axis=1))
            activity[c, 0] = la.mean()
            activity[c, 1] = la.std()
    return prior, cond, activity


def dense_nb_log_posterior(prior, cond, activity, x):
    """Direct evaluation of the joint, normalized; linear-space activity."""
    x = np.asarray(x, dtype=np.float64)
    k = prior.size
    lj = np.empty(k)
    for c in range(k):
        v = np.log(prior[c])
        for j in range(x.size):
            if x[j] > 0:
                v += x[j] * np.log(cond[c, j])
        if activity is not None:
            a = x.sum()
            mu, sigma = activity[c]
            mass = lognorm.cdf(a + 1.0, s=sigma, scale=np.exp(mu)) - lognorm.cdf(
                a, s=sigma, scale=np.exp(mu)
            )
            v += np.log(mass)
        lj[c] = v
    return lj - logsumexp(lj)


def minimax_isotonic(values, weights):
    """Exact solution of the weighted monotone least-squares program.

    Uses the max-min characterization of the projection onto the
    non-decreasing cone: fit_i = max_{j<=i} min_{l>=i} mean(values[j..l]).
    O(n^2) with cumulative sums; independent of any pooling algorithm.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = v.size
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cwv = np.concatenate([[0.0], np.cumsum(w * v)])
    fit = np.empty(n)
    for i in range(n):
        best = -np.inf
        for j in range(i + 1):
            # suffix minimum over l >= i of mean(j..l)
            means = (cwv[i + 1 :] - cwv[j]) / (cw[i + 1 :] - cw[j])
            best = max(best, means.min())
        fit[i] = best
    return fit


def naive_roc_auc(scores, labels):
    """Quadratic pair-counting AUC with half credit for ties."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def curve_auc(curve) -> float:
    """Trapezoid area under a ROC curve's points: the rank AUC of the
    scores it was swept from, ties counted half."""
    return float(np.sum(np.diff(curve.x) * (curve.y[1:] + curve.y[:-1]) / 2))


class FixedPredictionClassifier:
    """Test double with per-user predetermined predictions.

    Scores echo the prediction as a degenerate probability; optionally a
    per-user score table. Implements the scoring-classifier protocol.
    """

    def __init__(self, predictions: dict, scores: dict | None = None, calibrated=False):
        self._pred = predictions
        self._scores = scores
        self.calibrated = calibrated

    def score(self, corpus):
        preds = np.array([self._pred[u] for u in corpus.user_ids], dtype=np.int64)
        if self._scores is not None:
            scores = np.array([self._scores[u] for u in corpus.user_ids], dtype=np.float64)
        else:
            scores = np.where(preds == 1, 0.9, 0.1)
        return scores, preds


class ConstantScoreClassifier:
    """Scores every row the same; prediction thresholds at 0.5."""

    def __init__(self, value: float, calibrated: bool = True):
        self.value = value
        self.calibrated = calibrated

    def score(self, corpus):
        return (
            np.full(corpus.n, self.value),
            np.full(corpus.n, 1 if self.value > 0.5 else 0, dtype=np.int64),
        )


def dict_load_corpus(path, names, fmt="jsonl", labels_path=None):
    """Corpus file read by per-user dict merges, one line at a time.

    Returns (users, rows, labels, report): users in first-appearance
    order with at least one in-vocabulary count, rows[i] a {column:
    merged count} dict, labels[i] in -1..1 (those of labels_path, a
    'user,label' CSV, if given), and the LoadReport fields as a dict.
    Raises DataError at the first bad line.
    """
    index = {name: j for j, name in enumerate(names)}
    counts: dict[str, dict[int, int]] = {}
    labels: dict[str, int] = {}
    report = dict(lines_read=0, users_kept=0, users_rejected_empty=0,
                  unknown_community_pairs=0, merged_duplicate_users=0)

    def check_count(c, where):
        if type(c) is not int:
            raise DataError(f"{where}: count must be an integer, got {c!r}")
        if not 1 <= c <= MAX_COUNT:
            raise DataError(f"{where}: count {c} " + ("below 1" if c < 1 else f"exceeds {MAX_COUNT}"))

    def check_label(label, where):
        if type(label) is not int:
            raise DataError(f"{where}: label must be an integer, got {label!r}")
        if label not in (-1, 0, 1):
            raise DataError(f"{where}: label {label} outside -1..1")

    def set_label(user, label, where):
        prev = labels[user]
        if label != -1 and prev != -1 and prev != label:
            raise DataError(f"{where}: user {user!r} has conflicting labels {prev} and {label}")
        if label != -1:
            labels[user] = label

    def add(user, pairs, label, where):
        for _, c in pairs:
            check_count(c, where)
        check_label(label, where)
        if user in counts:
            report["merged_duplicate_users"] += 1
        else:
            counts[user], labels[user] = {}, -1
        row = counts[user]
        for name, c in pairs:
            if name not in index:
                report["unknown_community_pairs"] += 1
                continue
            j = index[name]
            row[j] = row.get(j, 0) + c
            if row[j] > MAX_COUNT:
                raise DataError(f"{where}: merged count for user {user!r} exceeds {MAX_COUNT}")
        set_label(user, label, where)

    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "jsonl":
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    report["lines_read"] += 1
                    rec = json.loads(line)
                    add(rec["user"], list(rec.get("counts", {}).items()), rec.get("label", -1),
                        f"{path}:{lineno}")
        else:
            reader = csv.reader(fh)
            next(reader)
            for rec in reader:
                if rec:
                    report["lines_read"] += 1
                    add(rec[0], [(rec[1], int(rec[2]))], -1, f"{path}:{reader.line_num}")
    if labels_path is not None:
        # the file's labels replace the corpus's, checked above
        labels = dict.fromkeys(labels, -1)
        with open(labels_path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for rec in reader:
                if rec:
                    where = f"{labels_path}:{reader.line_num}"
                    check_label(int(rec[1]), where)
                    if rec[0] not in counts:
                        raise DataError(f"{where}: label for unknown user {rec[0]!r}")
                    set_label(rec[0], int(rec[1]), where)
    users = [u for u in counts if counts[u]]
    report["users_kept"] = len(users)
    report["users_rejected_empty"] = len(counts) - len(users)
    return users, [counts[u] for u in users], [labels[u] for u in users], report


# The declaration miner as it was written first: every negation pattern
# compiled and searched on its own, and a linear scan for the anchor
# token. Kept as the reference for the mining tests.

_REF_FIRST_PERSON = {"i", "im", "me", "my", "mine", "myself"}
_REF_TOKEN_RE = re.compile(r"\S+")
_REF_SENTENCE_RE = re.compile(r"[^.!?\n]+")
_REF_STRIP_CHARS = "\"'’.,!?;:()[]{}<>*~_-"
_REF_GENDER = {"m": "male", "male": "male", "man": "male", "guy": "male", "boy": "male",
               "dude": "male", "f": "female", "female": "female", "woman": "female",
               "girl": "female", "gal": "female", "lady": "female"}


def _ref_fields(element) -> tuple:
    user = element["user"]
    text = element["text"]
    ts = element["created_utc"]
    community = element.get("community", "")
    if not isinstance(user, str) or not user:
        raise ValueError("bad user")
    if not isinstance(text, str):
        raise ValueError("bad text")
    if isinstance(ts, bool) or not isinstance(ts, (int, float)):
        raise ValueError("bad timestamp")
    if not isinstance(community, str):
        raise ValueError("bad community")
    datetime.fromtimestamp(int(ts), tz=timezone.utc)  # fails past the years datetime holds
    return user, text, int(ts), community


def _ref_is_first_person(tok: str) -> bool:
    t = tok.lower().strip(_REF_STRIP_CHARS)
    return t in _REF_FIRST_PERSON or t.startswith("i'") or t.startswith("i’")


def _ref_has_anchor(tokens, match_start: int) -> bool:
    t = None
    for i, m in enumerate(tokens):
        if m.start() <= match_start < m.end():
            t = i
            break
    if t is None:
        return False
    return any(_ref_is_first_person(tokens[i].group()) for i in range(max(0, t - 3), t + 1))


def _ref_value(rule, match, created_utc, report):
    raw = match.group(GROUP_FOR[rule.attribute])
    if raw is None:
        report.unparsed_value += 1
        return None
    if rule.attribute == "year":
        age = int(raw)
        if not (13 <= age <= 100):
            report.out_of_range_age += 1
            return None
        return datetime.fromtimestamp(created_utc, tz=timezone.utc).year - age
    if rule.attribute == "gender":
        value = _REF_GENDER.get(raw.lower())
        if value is None:
            report.unparsed_value += 1
        return value
    token = raw.lower()
    if token.startswith("dem"):
        return "democrat"
    if token.startswith("rep") or token == "gop":
        return "republican"
    report.unparsed_value += 1
    return None


def reference_extract_declarations(comments, rules):
    """(declarations, ExtractReport), one negation search per pattern."""
    report = ExtractReport()
    out = []
    negations = [[re.compile(p, re.IGNORECASE) for p in rule.negation_patterns] for rule in rules]
    for element in comments:
        report.comments_seen += 1
        try:
            user, text, created_utc, community = _ref_fields(element)
        except Exception:
            report.comments_skipped += 1
            continue
        if not text:
            continue
        sentences = tokens = None
        emitted = set()
        for rule, rule_negations in zip(rules, negations):
            for pattern in rule.compiled:
                for match in pattern.finditer(text):
                    if sentences is None:
                        sentences = [m.span() for m in _REF_SENTENCE_RE.finditer(text)]
                    start, end = next(
                        ((a, b) for a, b in sentences if a <= match.start() < b), (0, 0)
                    )
                    if any(neg.search(text, start, end) for neg in rule_negations):
                        report.suppressed_negation += 1
                        continue
                    if rule.first_person_required:
                        if tokens is None:
                            tokens = list(_REF_TOKEN_RE.finditer(text))
                        if not _ref_has_anchor(tokens, match.start()):
                            report.suppressed_no_first_person += 1
                            continue
                    value = _ref_value(rule, match, created_utc, report)
                    if value is None or (rule.attribute, value) in emitted:
                        continue
                    emitted.add((rule.attribute, value))
                    out.append(Declaration(user, rule.attribute, value, created_utc, community))
                    report.declarations += 1
    return out, report
