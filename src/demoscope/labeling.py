"""Label acquisition: self-declaration mining and community-based distant labels.

Declaration mining scans comment text with per-attribute regex rules.
A match only counts when it is anchored to the author (first-person
pronoun in the matched token or within the three tokens before it) and
its sentence contains no negation pattern. Per-user declarations are
then checked for coherence and binarized into class labels.

Distant supervision skips text entirely: a user is labeled by comparing
their activity counts in two curated seed community sets.

Class coding throughout: for birth year, 1 = born strictly after the
median year (young); for gender, 0 = male, 1 = female; for
partisanship, 0 = democrat, 1 = republican.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import LabeledCorpus, write_csv
from .errors import DataError
from .serialize import decode, in_ranges, read_json, text_lines, unconverted

try:
    from re import _parser as _sre_parse  # Python 3.11+
except ImportError:  # pragma: no cover
    import sre_parse as _sre_parse

ATTRIBUTES = ("year", "gender", "partisan")

# named capture group each attribute's patterns must define
GROUP_FOR = {"year": "age", "gender": "gender", "partisan": "party"}

AGE_MIN, AGE_MAX = 13, 100
# the created_utc range a datetime holds: 0001-01-01 to 9999-12-31T23:59:59 UTC
UTC_MIN, UTC_MAX = -62135596800, 253402300799

_FIRST_PERSON = {"i", "im", "me", "my", "mine", "myself"}
_TOKEN_RE = re.compile(r"\S+")
_SENTENCE_RE = re.compile(r"[^.!?\n]+")
_STRIP_CHARS = "\"'’.,!?;:()[]{}<>*~_-"

_GENDER_VALUES = {
    "m": "male",
    "male": "male",
    "man": "male",
    "guy": "male",
    "boy": "male",
    "dude": "male",
    "f": "female",
    "female": "female",
    "woman": "female",
    "girl": "female",
    "gal": "female",
    "lady": "female",
}


class Declaration(NamedTuple):
    """One mined self-declaration.

    value is a birth year (int) for 'year', else a normalized token
    ('male'/'female', 'democrat'/'republican').
    """

    user_id: str
    attribute: str
    value: object
    created_utc: int
    community: str


def _compile(pattern: str, what: str) -> re.Pattern:
    """pattern compiled case-blind; one that does not compile, or whose
    repeat count overflows or is past the int-string limit, a DataError."""
    try:
        return re.compile(pattern, re.IGNORECASE)
    except (re.error, OverflowError, ValueError) as e:
        raise DataError(f"{what}: {unconverted(e)}") from e


@dataclass
class DeclarationRule:
    """Patterns for one attribute plus its suppression patterns."""

    attribute: str
    patterns: list[str]
    negation_patterns: list[str] = field(default_factory=list)
    first_person_required: bool = True

    def __post_init__(self):
        if self.attribute not in ATTRIBUTES:
            raise DataError(f"unknown attribute {self.attribute!r}; expected one of {ATTRIBUTES}")
        if not self.patterns:
            raise DataError(f"rule for {self.attribute!r} has no patterns")
        group = GROUP_FOR[self.attribute]
        compiled = []
        for i, pat in enumerate(self.patterns):
            c = _compile(pat, f"rule {self.attribute!r} pattern {i}")
            if group not in c.groupindex:
                raise DataError(
                    f"rule {self.attribute!r} pattern {i} lacks the (?P<{group}>...) group"
                )
            compiled.append(c)
        for i, pat in enumerate(self.negation_patterns):
            negation = _compile(pat, f"rule {self.attribute!r} negation {i}")
            if not _joinable(negation):
                raise DataError(
                    f"rule {self.attribute!r} negation {i}: named groups, backreferences "
                    "and global flags are not allowed in negation patterns"
                )
        joined = "|".join(f"(?:{pat})" for pat in self.negation_patterns)
        self.__dict__["_compiled"] = compiled
        self.__dict__["_negation"] = re.compile(joined, re.IGNORECASE) if joined else None

    @property
    def compiled(self) -> list[re.Pattern]:
        return self.__dict__["_compiled"]

    @property
    def negation(self) -> re.Pattern | None:
        """All negation patterns as one alternation; None when there are none."""
        return self.__dict__["_negation"]


@dataclass
class ExtractReport:
    comments_seen: int = 0
    comments_skipped: int = 0
    declarations: int = 0
    suppressed_negation: int = 0
    suppressed_no_first_person: int = 0
    out_of_range_age: int = 0
    unparsed_value: int = 0


def _comment_fields(element) -> tuple[str, str, int, str]:
    """user, text, created_utc and community of a comment record."""
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
    ts = int(ts)
    if not UTC_MIN <= ts <= UTC_MAX:
        raise ValueError("bad timestamp")
    return user, text, ts, community


def _joinable(negation: re.Pattern) -> bool:
    """True when the pattern means the same inside one alternation of
    negations: it sets no global flags (they fail to compile there),
    names no group (names would clash) and refers to no group by number
    (numbers would shift)."""
    try:
        re.compile(f"(?:{negation.pattern})")
    except re.error:
        return False
    return not negation.groupindex and not _refers_to_groups(_sre_parse.parse(negation.pattern))


def _refers_to_groups(node) -> bool:
    """True when a parsed regex, or a part of one, holds a backreference
    or a group conditional."""
    if isinstance(node, _sre_parse.SubPattern):
        return any(
            op in (_sre_parse.GROUPREF, _sre_parse.GROUPREF_EXISTS) or _refers_to_groups(av)
            for op, av in node
        )
    if isinstance(node, (tuple, list)):
        return any(map(_refers_to_groups, node))
    return False


def _sentence_span(spans, pos: int):
    for start, end in spans:
        if start <= pos < end:
            return start, end
    return 0, 0


def _strip_token(tok: str) -> str:
    return tok.lower().strip(_STRIP_CHARS)


def _is_first_person(tok: str) -> bool:
    t = _strip_token(tok)
    return t in _FIRST_PERSON or t.startswith("i'") or t.startswith("i’")


def _has_first_person_anchor(text: str, tokens: list[str], match_start: int) -> bool:
    """True when the matched token, or one of the 3 before it, is first person.

    tokens is _TOKEN_RE.findall(text); the matched token's index is the
    number of tokens that start at or before match_start, less one.
    """
    if _TOKEN_RE.match(text, match_start) is None:
        return False
    t = len(_TOKEN_RE.findall(text, 0, match_start + 1)) - 1
    return any(map(_is_first_person, tokens[max(0, t - 3) : t + 1]))


def _extract_value(rule: DeclarationRule, match: re.Match, created_utc: int, report):
    raw = match.group(GROUP_FOR[rule.attribute])
    if raw is None:
        report.unparsed_value += 1
        return None
    if rule.attribute == "year":
        age = int(raw)
        if not (AGE_MIN <= age <= AGE_MAX):
            report.out_of_range_age += 1
            return None
        year = datetime.fromtimestamp(created_utc, tz=timezone.utc).year
        return year - age
    if rule.attribute == "gender":
        value = _GENDER_VALUES.get(raw.lower())
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


def extract_declarations(comments, rules) -> tuple[list[Declaration], ExtractReport]:
    """Mine self-declarations from a comment stream.

    Each comment is a dict with user, text, created_utc and optional
    community fields, as parsed from a comments JSONL line; unreadable
    elements are skipped and counted. Within one comment, identical
    (attribute, value) findings collapse to a single declaration. Output
    order follows the input stream.
    """
    report = ExtractReport()
    out: list[Declaration] = []
    for element in comments:
        report.comments_seen += 1
        try:
            user, text, created_utc, community = _comment_fields(element)
        except Exception:
            report.comments_skipped += 1
            continue
        if not text:
            continue
        sentences = None
        tokens = None
        emitted: set[tuple[str, object]] = set()
        for rule in rules:
            negation = rule.negation
            for pattern in rule.compiled:
                for match in pattern.finditer(text):
                    if negation is not None:
                        if sentences is None:
                            sentences = [m.span() for m in _SENTENCE_RE.finditer(text)]
                        start, end = _sentence_span(sentences, match.start())
                        if negation.search(text, start, end):
                            report.suppressed_negation += 1
                            continue
                    if rule.first_person_required:
                        if tokens is None:
                            tokens = _TOKEN_RE.findall(text)
                        if not _has_first_person_anchor(text, tokens, match.start()):
                            report.suppressed_no_first_person += 1
                            continue
                    value = _extract_value(rule, match, created_utc, report)
                    if value is None:
                        continue
                    key = (rule.attribute, value)
                    if key in emitted:
                        continue
                    emitted.add(key)
                    out.append(
                        Declaration(
                            user_id=user,
                            attribute=rule.attribute,
                            value=value,
                            created_utc=created_utc,
                            community=community,
                        )
                    )
                    report.declarations += 1
    return out, report


def _read_comments(path, start: int = 0, end=None):
    """The comment records of a comments JSONL file, or of one byte range
    of it; a line that is not JSON becomes a record extract_declarations
    skips."""
    for lineno, line in enumerate(text_lines(path, start, end), start=1):
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except (ValueError, RecursionError):  # JSONDecodeError, or an integer too long
            yield {"_malformed": lineno}


def _extract_range(path, rules, start: int = 0, end=None):
    found, report = extract_declarations(_read_comments(path, start, end), rules)
    # plain tuples: a worker pickles them about ten times faster
    return [tuple(d) for d in found], report


def extract_file(path, rules) -> tuple[list[Declaration], ExtractReport]:
    """extract_declarations over a comments JSONL file. Its byte ranges
    are mined on the usable CPUs (serialize.in_ranges) and joined in file
    order, so the result is the one a single pass gives."""
    parts = in_ranges(path, partial(_extract_range, path, rules))
    declarations = [Declaration._make(d) for found, _ in parts for d in found]
    report = ExtractReport(
        **{f.name: sum(getattr(r, f.name) for _, r in parts) for f in fields(ExtractReport)}
    )
    return declarations, report


def filter_bots(declarations, bot_users) -> list[Declaration]:
    """Drop declarations authored by known bot accounts."""
    bots = set(bot_users)
    return [d for d in declarations if d.user_id not in bots]


@dataclass
class CoherenceResult:
    """Per-attribute resolved user values and conflict rejections."""

    resolved: dict[str, dict[str, object]]
    rejected: dict[str, set[str]]

    def rejection_rate(self, attribute: str) -> float:
        kept = len(self.resolved.get(attribute, {}))
        lost = len(self.rejected.get(attribute, set()))
        total = kept + lost
        return lost / total if total else 0.0


def resolve_coherence(declarations) -> CoherenceResult:
    """Keep users whose repeated declarations agree; reject the rest.

    Birth years tolerate a spread of one year (declarations straddle
    birthdays); the modal year wins, ties to the smaller. Categorical
    attributes must be unanimous. A user with any two declarations in
    conflict is rejected for that attribute only.
    """
    groups: dict[tuple[str, str], list] = defaultdict(list)
    for d in declarations:
        groups[(d.attribute, d.user_id)].append(d.value)
    resolved: dict[str, dict[str, object]] = defaultdict(dict)
    rejected: dict[str, set[str]] = defaultdict(set)
    for (attribute, user), values in groups.items():
        if attribute == "year":
            lo, hi = min(values), max(values)
            if hi - lo > 1:
                rejected[attribute].add(user)
                continue
            counts = Counter(values)
            top = max(counts.values())
            resolved[attribute][user] = min(v for v, c in counts.items() if c == top)
        else:
            if len(set(values)) > 1:
                rejected[attribute].add(user)
                continue
            resolved[attribute][user] = values[0]
    return CoherenceResult(resolved=dict(resolved), rejected=dict(rejected))


def binarize(values, attribute: str, median: float | None = None):
    """Map resolved attribute values to binary labels.

    year: 1 iff birth year strictly above the median (ties to 0); the
    median comes from the input unless one is passed in (freeze it from
    training data and reuse it elsewhere); passing one for another
    attribute is a DataError. Returns (labels, median) for year and
    (labels, None) otherwise.
    """
    if attribute not in ATTRIBUTES:
        raise DataError(f"unknown attribute {attribute!r}")
    if median is not None and attribute != "year":
        raise DataError(f"a median applies only to attribute 'year', not {attribute!r}")
    if not values:
        raise DataError(f"binarize({attribute!r}): empty input, threshold undefined")
    if attribute == "year":
        years = {u: int(v) for u, v in values.items()}
        med = float(np.median(list(years.values()))) if median is None else float(median)
        return {u: (1 if v > med else 0) for u, v in years.items()}, med
    if attribute == "gender":
        coding = {"male": 0, "female": 1}
    else:
        coding = {"democrat": 0, "republican": 1}
    labels = {}
    for u, v in values.items():
        if v not in coding:
            raise DataError(f"binarize({attribute!r}): unknown value {v!r:.40} for user {u!r:.40}")
        labels[u] = coding[v]
    return labels, None


@dataclass(frozen=True)
class SeedSets:
    """Two disjoint community lists that define a distant-label contrast.

    pole_a communities indicate class 0, pole_b class 1.
    """

    attribute: str
    pole_a: tuple[str, ...]
    pole_b: tuple[str, ...]
    threshold: int = 3

    def __post_init__(self):
        if not self.pole_a or not self.pole_b:
            raise DataError("seed poles must be non-empty")
        overlap = set(self.pole_a) & set(self.pole_b)
        if overlap:
            raise DataError(f"seed poles overlap: {sorted(overlap)}")
        if self.threshold < 1:
            raise DataError(f"seed threshold must be >= 1, got {self.threshold}")


def distant_label(corpus: LabeledCorpus, seeds: SeedSets) -> np.ndarray:
    """Label users by their seed-community activity imbalance.

    With delta = (counts in pole_a) - (counts in pole_b): label 0 when
    delta > threshold, 1 when -delta > threshold, else -1. Seed names
    missing from the vocabulary are warned about and skipped; a pole
    with no resolvable community is an error.
    """
    ia = corpus.vocabulary.pole(seeds.pole_a, "pole_a", "seed")
    ib = corpus.vocabulary.pole(seeds.pole_b, "pole_b", "seed")
    X = corpus.X
    ca = np.asarray(X[:, ia].sum(axis=1)).ravel()
    cb = np.asarray(X[:, ib].sum(axis=1)).ravel()
    delta = ca - cb
    # past every int64 count sum it labels nobody, and numpy can compare it
    threshold = min(seeds.threshold, np.iinfo(np.int64).max)
    labels = np.full(corpus.n, -1, dtype=np.int64)
    labels[delta > threshold] = 0
    labels[-delta > threshold] = 1
    return labels


def load_rules(path) -> list[DeclarationRule]:
    """Read declaration rules from a JSON list of rule objects."""
    raw = read_json(path)
    if not isinstance(raw, list):
        raise DataError(f"{path}: expected a JSON list of rules")
    return [decode(DeclarationRule, item, f"{path}: rule {i}") for i, item in enumerate(raw)]


def load_seed_sets(path) -> dict[str, SeedSets]:
    """Read seed sets from JSON: one object or a list, keyed by attribute."""
    raw = read_json(path)
    out: dict[str, SeedSets] = {}
    for i, item in enumerate(raw if isinstance(raw, list) else [raw]):
        seeds = decode(SeedSets, item, f"{path}: seed set {i}")
        if seeds.attribute in out:
            raise DataError(f"{path}: duplicate seed set for {seeds.attribute!r}")
        out[seeds.attribute] = seeds
    return out


def load_botlist(path) -> set[str]:
    """Read bot user ids, one per line; blank lines and # comments ignored."""
    names = (line.strip() for line in text_lines(path))
    return {name for name in names if name and not name.startswith("#")}


def write_declarations(declarations, path):
    """One JSON object per line, with the bytes json.JSONEncoder(sort_keys=True)
    writes: keys sorted, ASCII only; a value is a string or an int."""
    text = json.encoder.encode_basestring_ascii
    lines = (
        f'{{"attribute": {text(d.attribute)}, "community": {text(d.community)}, '
        f'"created_utc": {d.created_utc}, "user": {text(d.user_id)}, '
        f'"value": {text(d.value) if isinstance(d.value, str) else d.value}}}\n'
        for d in declarations
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def write_labels_csv(labels: dict, path):
    """Write 'user,label' rows sorted by user id."""
    write_csv(path, ["user", "label"], ((user, labels[user]) for user in sorted(labels)))


def default_rules() -> list[DeclarationRule]:
    """Built-in declaration rules, read from the packaged rules.default.json."""
    return load_rules(Path(__file__).parent / "resources" / "rules.default.json")
