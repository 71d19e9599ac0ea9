"""Declaration mining, coherence, binarization, distant labels."""

import json
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoscope.errors import DataError
from demoscope.labeling import (
    Declaration,
    DeclarationRule,
    SeedSets,
    binarize,
    default_rules,
    distant_label,
    extract_declarations,
    filter_bots,
    load_botlist,
    load_rules,
    load_seed_sets,
    resolve_coherence,
    write_declarations,
    write_labels_csv,
)
from helpers import corpus_from_dense, reference_extract_declarations

DATA_DIR = Path(__file__).parent / "data"

# 2020-01-02T00:00:00Z
TS = 1577923200


def _comment(text, user="u1", ts=TS, community="c"):
    return {"user": user, "text": text, "created_utc": ts, "community": community}


def _extract(text, rules=None, **kw):
    decls, report = extract_declarations([_comment(text, **kw)], rules or default_rules())
    return decls, report


def _triples(decls):
    return [(d.user_id, d.attribute, d.value) for d in decls]


class TestRuleValidation:
    def test_unknown_attribute(self):
        with pytest.raises(DataError, match="unknown attribute"):
            DeclarationRule(attribute="shoe_size", patterns=[r"(?P<age>\d+)"])

    def test_no_patterns(self):
        with pytest.raises(DataError, match="no patterns"):
            DeclarationRule(attribute="year", patterns=[])

    def test_bad_regex(self):
        with pytest.raises(DataError, match="pattern 0"):
            DeclarationRule(attribute="year", patterns=[r"(?P<age>\d+"])

    def test_missing_named_group(self):
        with pytest.raises(DataError, match="age"):
            DeclarationRule(attribute="year", patterns=[r"\bi am \d+\b"])

    def test_bad_negation_regex(self):
        with pytest.raises(DataError, match="negation 0"):
            DeclarationRule(
                attribute="year", patterns=[r"(?P<age>\d+)"], negation_patterns=["(unclosed"]
            )

    @pytest.mark.parametrize(
        "negation",
        [r"(?P<neg>never)", r"(\w)\1", r"(not)?(?(1)x|y)", r"(?P<n>no)(?P=n)", r"(?i)nope"],
        ids=["named-group", "backreference", "group-conditional", "named-reference", "global-flag"],
    )
    def test_negation_that_one_alternation_would_change_is_refused(self, negation):
        with pytest.raises(DataError, match=r"^rule 'gender' negation 1: "):
            DeclarationRule("gender", [r"\bi am a (?P<gender>\w+)\b"], [r"\bnot\b", negation])

    def test_negation_with_plain_groups_is_joined(self):
        rule = DeclarationRule(
            "gender", [r"\bi am a (?P<gender>\w+)\b"], [r"\b(not|never)\b", r"(?:used) to"]
        )
        assert rule.negation.pattern == r"(?:\b(not|never)\b)|(?:(?:used) to)"
        for text, suppressed in (
            ("i am a girl.", 0), ("never, i am a girl.", 1), ("i used to... i am a girl", 0)
        ):
            assert _extract(text, rules=[rule])[1].suppressed_negation == suppressed


class TestExtraction:
    def test_years_old_phrase(self):
        decls, report = _extract("I'm 25 years old and I love this.")
        assert _triples(decls) == [("u1", "year", 1995)]
        assert report.declarations == 1

    def test_age_then_punctuation(self):
        decls, _ = _extract("I'm 28, just moved here.")
        assert _triples(decls) == [("u1", "year", 1992)]

    def test_turned_phrase(self):
        decls, _ = _extract("I just turned 21 yesterday!")
        assert _triples(decls) == [("u1", "year", 1999)]

    def test_compact_age_gender(self):
        decls, _ = _extract("I'm 32F and tired of this thread.")
        assert _triples(decls) == [("u1", "year", 1988), ("u1", "gender", "female")]

    def test_compact_gender_age(self):
        decls, _ = _extract("I go by M25 here.")
        assert _triples(decls) == [("u1", "year", 1995), ("u1", "gender", "male")]

    def test_unicode_apostrophe(self):
        decls, _ = _extract("I’m 19 years old. Still learning.")
        assert _triples(decls) == [("u1", "year", 2001)]

    def test_bare_m_after_apostrophe_not_a_gender(self):
        # the m in "I'm" must not satisfy the compact gender pattern
        decls, _ = _extract("I'm 25 years old and I love this.")
        assert all(d.attribute != "gender" for d in decls)

    def test_birth_year_uses_comment_timestamp(self):
        late_2019 = 1577750400
        decls, _ = _extract("I'm 30, for context.", ts=late_2019)
        assert decls[0].value == 1989

    def test_negation_in_sentence_suppresses(self):
        for text in (
            "I'm a democrat, not anymore though.",
            "If I turned 30 tomorrow I would cry.",
            "I used to say I am a republican.",
            "I wish things were easier since I am a girl here.",
        ):
            decls, report = _extract(text)
            assert decls == []
            assert report.suppressed_negation == 1

    def test_negation_scoped_to_sentence(self):
        decls, report = _extract("I'm not a republican. I'm a democrat.")
        assert _triples(decls) == [("u1", "partisan", "democrat")]
        assert report.suppressed_negation == 0

    def test_first_person_anchor_required(self):
        decls, report = _extract("26F here, lurking mostly.")
        assert decls == []
        # the compact pattern sits in the year rule and the gender rule
        assert report.suppressed_no_first_person == 2

    def test_anchor_within_three_tokens(self):
        decls, _ = _extract("My sister is 45 f and she hates reddit.")
        assert _triples(decls) == [("u1", "year", 1975), ("u1", "gender", "female")]

    def test_anchor_window_is_three_tokens(self):
        decls, report = _extract("my buddy says he is 30 m okay")
        assert decls == []
        assert report.suppressed_no_first_person == 2

    def test_first_person_after_match_does_not_anchor(self):
        decls, report = _extract("As a guy, I think this is overblown.")
        assert decls == []
        assert report.suppressed_no_first_person == 1

    def test_first_person_not_required_when_disabled(self):
        rule = DeclarationRule(
            attribute="gender",
            patterns=[r"\b(?P<age>\d{1,3})\s*(?P<gender>[mf])\b"],
            first_person_required=False,
        )
        decls, report = _extract("26f here, lurking.", rules=[rule])
        assert _triples(decls) == [("u1", "gender", "female")]
        assert report.suppressed_no_first_person == 0

    def test_age_bounds(self):
        for text, ok_year in (
            ("I'm 13 years old.", 2007),
            ("I'm 100 years old.", 1920),
        ):
            decls, report = _extract(text)
            assert _triples(decls) == [("u1", "year", ok_year)]
            assert report.out_of_range_age == 0
        for text in ("I am 12 years old.", "I am 101 years old."):
            decls, report = _extract(text)
            assert decls == []
            assert report.out_of_range_age == 1

    def test_duplicate_finding_collapses(self):
        decls, report = _extract("I'm 33 years old. Yes, I'm 33, as I said.")
        assert _triples(decls) == [("u1", "year", 1987)]
        assert report.declarations == 1

    def test_two_attributes_one_comment(self):
        decls, _ = _extract("I'm a woman. I'm a democrat.")
        assert _triples(decls) == [("u1", "gender", "female"), ("u1", "partisan", "democrat")]

    def test_gender_value_normalization(self):
        for text, want in (
            ("I'm a dude, relax.", "male"),
            ("I'm a boy btw.", "male"),
            ("I am a lady of habit.", "female"),
            ("speaking for myself as a girl, this is accurate.", "female"),
        ):
            decls, _ = _extract(text)
            assert _triples(decls) == [("u1", "gender", want)]

    def test_party_value_normalization(self):
        for text, want in (
            ("I'm a dem, always have been.", "democrat"),
            ("I voted for the Democrats last time.", "democrat"),
            ("I'm a repub and tired of both sides.", "republican"),
            ("I am GOP through and through.", "republican"),
            ("I'm a lifelong republican and proud.", "republican"),
        ):
            decls, _ = _extract(text)
            assert _triples(decls) == [("u1", "partisan", want)]

    def test_unparsed_value_counted(self):
        cases = [
            (DeclarationRule("gender", [r"\bi am a (?P<gender>\w+)\b"]), "i am a plumber."),
            (DeclarationRule("partisan", [r"\bi am (?P<party>\w+)\b"]), "i am centrist."),
            (
                DeclarationRule("year", [r"\bi am (?:(?P<age>\d+)\s+)?years old\b"]),
                "i am years old",
            ),
        ]
        for rule, text in cases:
            decls, report = _extract(text, rules=[rule])
            assert decls == []
            assert report.unparsed_value == 1

    def test_malformed_elements_skipped(self):
        elements = [
            {"user": "", "text": "I'm 40 years old.", "created_utc": TS},
            {"user": "ok", "created_utc": TS},
            "not an object",
            {"user": "ok", "text": "hi", "created_utc": True},
            {"user": "u9", "text": "I'm 40 years old.", "created_utc": TS},
        ]
        decls, report = extract_declarations(elements, default_rules())
        assert report.comments_seen == 5
        assert report.comments_skipped == 4
        assert _triples(decls) == [("u9", "year", 1980)]

    def test_timestamp_outside_datetime_is_skipped(self):
        """created_utc from the first to the last second a datetime holds
        gives a birth year; one step past either end, or a number no
        datetime reaches, skips the comment."""
        first, last = -62135596800, 253402300799  # 0001-01-01, 9999-12-31T23:59:59 UTC
        for ts, year in ((first, 1 - 40), (last, 9999 - 40)):
            decls, report = _extract("I'm 40 years old.", ts=ts)
            assert _triples(decls) == [("u1", "year", year)]
            assert report.comments_skipped == 0
        for ts in (first - 1, last + 1, 10**20, -1e18, 1e300):
            decls, report = _extract("I'm 40 years old.", ts=ts)
            assert decls == []
            assert report.comments_skipped == 1

    def test_empty_text_is_seen_not_skipped(self):
        _, report = _extract("")
        assert report.comments_seen == 1
        assert report.comments_skipped == 0

    def test_dict_comments_accepted(self):
        decls, _ = extract_declarations(
            [{"user": "d1", "text": "I'm 25 years old.", "created_utc": TS, "community": "x"}],
            default_rules(),
        )
        assert decls == [
            Declaration(user_id="d1", attribute="year", value=1995, created_utc=TS, community="x")
        ]


@settings(max_examples=40, deadline=None)
@given(
    st.permutations(
        [
            {"user": "a", "text": "I'm 25 years old.", "created_utc": TS, "community": "c"},
            {"user": "b", "text": "I'm a democrat.", "created_utc": TS, "community": "c"},
            {"user": "c", "text": "I'm 32F and done.", "created_utc": TS, "community": "c"},
            {"user": "d", "text": "nothing to see", "created_utc": TS, "community": "c"},
            {"user": "e", "text": "I used to say I am a republican.", "created_utc": TS, "community": "c"},
            {"user": "f", "text": "26F here.", "created_utc": TS, "community": "c"},
        ]
    )
)
def test_extraction_is_order_invariant(perm):
    decls, report = extract_declarations(perm, default_rules())
    assert sorted(_triples(decls)) == [
        ("a", "year", 1995),
        ("b", "partisan", "democrat"),
        ("c", "gender", "female"),
        ("c", "year", 1988),
    ]
    assert report.suppressed_negation == 1
    assert report.suppressed_no_first_person == 2


_WORDS = [
    "I", "i", "I'm", "i’m", "Im", "me", "my", "Imagine", "the", "she", "really", "a", "am",
    "girl", "guy", "woman", "male", "25f", "M30", "f", "31", "years", "old", "democrat", "gop",
    "vote", "voted", "for", "as", "turned", "7", "150", "not", "never", "used", "to", "wish",
    "isn't", "if", "’", "(I’m", "here.", "x!", "?", "lady",
]
_FIRST_PERSON = ["I", "i", "I'm", "i’m", "me", "my", "myself", "(I’m"]
_FILLERS = ["the", "really", "she", "so", "not", "x!", "used", "to"]
_DECLARED = ["25f", "M30", "a girl", "am a guy", "as a woman", "a democrat", "voted gop", "lady"]
_SEPARATORS = [" ", " ", " ", "  ", "\u2003", "\x1c", "\n", ". ", "! ", "? ", "’"]
_CUSTOM_RULES = [
    DeclarationRule(
        "gender",
        [r"\bas an? (?P<gender>man|woman|guy|girl)\b", r"(?P<gender>[mf])\d"],
        [r"\b(pretend|not)\b", r"\bused (to)\b", r"(?:x)"],
        first_person_required=False,
    ),
    # matches that start on whitespace or at the end of the text
    DeclarationRule("gender", [r"\s(?P<gender>girl|guy)\b", r"(?P<gender>lady)?$"], [r"\bnot\b"]),
]


@st.composite
def _comment_stream(draw):
    """Comments built from declarations 0-5 tokens after a first-person
    word, negations, sentence delimiters, ’ and unicode whitespace, plus
    comments that cannot be read."""
    comments = []
    for i in range(draw(st.integers(1, 6))):
        words = draw(st.lists(st.sampled_from(_WORDS), max_size=8))
        if draw(st.booleans()):
            at = draw(st.integers(0, len(words)))
            gap = draw(st.lists(st.sampled_from(_FILLERS), max_size=5))
            words[at:at] = [draw(st.sampled_from(_FIRST_PERSON)), *gap,
                            draw(st.sampled_from(_DECLARED))]
        seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(words), max_size=len(words)))
        text = "".join(w + s for w, s in zip(words, seps))
        ts = draw(st.sampled_from([TS, TS, TS, 1577750400, 1.6e9, True, float("nan")]))
        comments.append({"user": f"u{i % 3}", "text": text, "created_utc": ts, "community": "c"})
    if draw(st.booleans()):
        comments.append(_comment(draw(st.sampled_from(_WORDS)) + " i am a girl"))
    return comments


@settings(max_examples=300, deadline=None)
@given(comments=_comment_stream())
def test_extraction_matches_per_pattern_reference(comments):
    for rules in (default_rules(), _CUSTOM_RULES):
        assert extract_declarations(comments, rules) == reference_extract_declarations(
            comments, rules
        )


class TestGoldenFixture:
    """End-to-end mining pipeline against a frozen hand-labeled corpus."""

    @pytest.fixture()
    def golden(self):
        elements = []
        with open(DATA_DIR / "golden_comments.jsonl", encoding="utf-8") as fh:
            for line in fh:
                elements.append(json.loads(line))
        expected = json.loads((DATA_DIR / "golden_expected.json").read_text(encoding="utf-8"))
        return elements, expected

    def test_extraction_matches_frozen_output(self, golden):
        elements, expected = golden
        decls, report = extract_declarations(elements, default_rules())
        got = [
            {
                "user": d.user_id,
                "attribute": d.attribute,
                "value": d.value,
                "created_utc": d.created_utc,
                "community": d.community,
            }
            for d in decls
        ]
        assert got == expected["declarations"]
        assert asdict(report) == expected["report"]

    def test_pipeline_matches_frozen_labels(self, golden):
        elements, expected = golden
        decls, _ = extract_declarations(elements, default_rules())
        kept = filter_bots(decls, expected["bots"])
        assert {d.user_id for d in decls} - {d.user_id for d in kept} == set(expected["bots"])

        coherent = resolve_coherence(kept)
        assert coherent.resolved == expected["resolved"]
        assert {a: sorted(s) for a, s in coherent.rejected.items()} == expected["rejected"]
        assert coherent.rejection_rate("year") == pytest.approx(1 / 14)

        for attribute in ("year", "gender", "partisan"):
            labels, median = binarize(coherent.resolved[attribute], attribute)
            assert labels == expected["labels"][attribute]
            if attribute == "year":
                assert median == expected["year_median"]
            else:
                assert median is None


class TestCoherence:
    def test_year_spread_beyond_one_rejected(self):
        decls = [
            Declaration("u", "year", 1994, TS, "c"),
            Declaration("u", "year", 1998, TS, "c"),
        ]
        out = resolve_coherence(decls)
        assert out.resolved.get("year", {}) == {}
        assert out.rejected["year"] == {"u"}

    def test_year_modal_wins(self):
        decls = [Declaration("u", "year", y, TS, "c") for y in (1990, 1991, 1990)]
        out = resolve_coherence(decls)
        assert out.resolved["year"]["u"] == 1990

    def test_year_tie_takes_smaller(self):
        decls = [Declaration("u", "year", y, TS, "c") for y in (1991, 1990)]
        out = resolve_coherence(decls)
        assert out.resolved["year"]["u"] == 1990

    def test_categorical_must_be_unanimous(self):
        decls = [
            Declaration("u", "gender", "male", TS, "c"),
            Declaration("u", "gender", "female", TS, "c"),
        ]
        out = resolve_coherence(decls)
        assert out.rejected["gender"] == {"u"}

    def test_rejection_is_per_attribute(self):
        decls = [
            Declaration("u", "gender", "male", TS, "c"),
            Declaration("u", "gender", "female", TS, "c"),
            Declaration("u", "year", 1990, TS, "c"),
        ]
        out = resolve_coherence(decls)
        assert out.resolved["year"]["u"] == 1990
        assert out.rejected["gender"] == {"u"}

    def test_rejection_rate_empty_is_zero(self):
        assert resolve_coherence([]).rejection_rate("year") == 0.0


class TestBinarize:
    def test_year_median_split(self):
        labels, median = binarize({"a": 1990, "b": 2000, "c": 1995}, "year")
        assert median == 1995.0
        assert labels == {"a": 0, "b": 1, "c": 0}

    def test_year_frozen_median_reused(self):
        labels, median = binarize({"a": 1990, "b": 2000}, "year", median=1992.0)
        assert median == 1992.0
        assert labels == {"a": 0, "b": 1}

    def test_gender_coding(self):
        labels, median = binarize({"a": "male", "b": "female"}, "gender")
        assert labels == {"a": 0, "b": 1}
        assert median is None

    def test_partisan_coding(self):
        labels, _ = binarize({"a": "democrat", "b": "republican"}, "partisan")
        assert labels == {"a": 0, "b": 1}

    def test_unknown_attribute(self):
        with pytest.raises(DataError, match="unknown attribute"):
            binarize({"a": 1}, "height")

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            binarize({}, "year")

    def test_unknown_value(self):
        with pytest.raises(DataError, match="unknown value"):
            binarize({"a": "nonbinary"}, "gender")

    @pytest.mark.parametrize("attribute, value", [("gender", "male"), ("partisan", "democrat")])
    def test_median_refused_for_other_attributes(self, attribute, value):
        with pytest.raises(DataError, match=f"applies only to attribute 'year', not '{attribute}'"):
            binarize({"a": value}, attribute, median=1990.0)


class TestBots:
    def test_filter_drops_listed_users(self):
        decls = [
            Declaration("bot", "year", 1990, TS, "c"),
            Declaration("human", "year", 1991, TS, "c"),
        ]
        assert filter_bots(decls, {"bot"}) == [decls[1]]

    def test_load_botlist(self, tmp_path):
        p = tmp_path / "bots.txt"
        p.write_text("# known bots\nbot_a\n\n  bot_b  \n", encoding="utf-8")
        assert load_botlist(p) == {"bot_a", "bot_b"}


class TestDistantLabels:
    def _corpus(self):
        X = np.array(
            [
                [3, 2, 1, 0, 4],
                [1, 0, 4, 2, 0],
                [4, 0, 1, 0, 9],
                [0, 0, 0, 0, 7],
            ]
        )
        names = ["a1", "a2", "b1", "b2", "other"]
        return corpus_from_dense(X, [-1, -1, -1, -1], names=names)

    def test_threshold_is_strict(self):
        seeds = SeedSets(attribute="gender", pole_a=("a1", "a2"), pole_b=("b1", "b2"), threshold=3)
        labels = distant_label(self._corpus(), seeds)
        # deltas 4, -5, 3, 0: only |delta| > 3 is labeled
        np.testing.assert_array_equal(labels, [0, 1, -1, -1])

    def test_missing_seed_warned_and_skipped(self):
        seeds = SeedSets(attribute="gender", pole_a=("a1", "ghost"), pole_b=("b1", "b2"), threshold=1)
        with pytest.warns(UserWarning, match="ghost"):
            labels = distant_label(self._corpus(), seeds)
        # pole_a collapses to a1 alone: deltas 2, -5, 3, 0
        np.testing.assert_array_equal(labels, [0, 1, 0, -1])

    def test_unresolvable_pole_is_error(self):
        seeds = SeedSets(attribute="gender", pole_a=("ghost",), pole_b=("b1",), threshold=1)
        with pytest.raises(DataError, match="no seed community"), pytest.warns(UserWarning):
            distant_label(self._corpus(), seeds)

    def test_seed_validation(self):
        with pytest.raises(DataError, match="non-empty"):
            SeedSets(attribute="gender", pole_a=(), pole_b=("b",))
        with pytest.raises(DataError, match="overlap"):
            SeedSets(attribute="gender", pole_a=("a", "x"), pole_b=("x",))
        with pytest.raises(DataError, match=">= 1"):
            SeedSets(attribute="gender", pole_a=("a",), pole_b=("b",), threshold=0)


class TestRuleFiles:
    def test_load_rules_roundtrip(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(
            json.dumps(
                [
                    {
                        "attribute": "year",
                        "patterns": [r"\bborn in (?P<age>\d+)\b"],
                        "negation_patterns": [r"\bnot\b"],
                        "first_person_required": False,
                    }
                ]
            ),
            encoding="utf-8",
        )
        rules = load_rules(p)
        assert len(rules) == 1
        assert rules[0].attribute == "year"
        assert rules[0].first_person_required is False
        assert rules[0].negation_patterns == [r"\bnot\b"]
        assert rules[0].negation.search("it is not so")

    def test_load_rules_rejects_bad_json(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text("{nope", encoding="utf-8")
        with pytest.raises(DataError, match="invalid JSON"):
            load_rules(p)

    def test_load_rules_rejects_non_list(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text('{"attribute": "year"}', encoding="utf-8")
        with pytest.raises(DataError, match="expected a JSON list"):
            load_rules(p)

    def test_load_rules_rejects_incomplete_rule(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text('[{"attribute": "year"}]', encoding="utf-8")
        with pytest.raises(DataError, match="rule 0 missing field 'patterns'"):
            load_rules(p)

    @pytest.mark.parametrize(
        "path",
        [
            Path(__file__).parent.parent / "src" / "demoscope" / "resources" / "rules.default.json",
        ],
        ids=["resources"],
    )
    def test_shipped_rules_match_builtin(self, path):
        shipped = load_rules(path)
        builtin = default_rules()
        assert [
            (r.attribute, r.patterns, r.negation_patterns, r.first_person_required)
            for r in shipped
        ] == [
            (r.attribute, r.patterns, r.negation_patterns, r.first_person_required)
            for r in builtin
        ]

    def test_default_rules_cover_all_attributes(self):
        assert [r.attribute for r in default_rules()] == ["year", "gender", "partisan"]


class TestSeedFiles:
    def test_load_single_object(self, tmp_path):
        p = tmp_path / "seeds.json"
        p.write_text(
            json.dumps({"attribute": "gender", "pole_a": ["a"], "pole_b": ["b"]}),
            encoding="utf-8",
        )
        out = load_seed_sets(p)
        assert set(out) == {"gender"}
        assert out["gender"].threshold == 3

    def test_load_list(self, tmp_path):
        p = tmp_path / "seeds.json"
        p.write_text(
            json.dumps(
                [
                    {"attribute": "gender", "pole_a": ["a"], "pole_b": ["b"], "threshold": 5},
                    {"attribute": "year", "pole_a": ["c"], "pole_b": ["d"]},
                ]
            ),
            encoding="utf-8",
        )
        out = load_seed_sets(p)
        assert out["gender"].threshold == 5
        assert out["year"].pole_b == ("d",)

    def test_duplicate_attribute_rejected(self, tmp_path):
        p = tmp_path / "seeds.json"
        p.write_text(
            json.dumps(
                [
                    {"attribute": "gender", "pole_a": ["a"], "pole_b": ["b"]},
                    {"attribute": "gender", "pole_a": ["c"], "pole_b": ["d"]},
                ]
            ),
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="duplicate seed set"):
            load_seed_sets(p)

    def test_missing_keys_rejected(self, tmp_path):
        p = tmp_path / "seeds.json"
        p.write_text('[{"attribute": "gender"}]', encoding="utf-8")
        with pytest.raises(DataError, match="seed set 0 missing field 'pole_a'"):
            load_seed_sets(p)


class TestWriters:
    def test_write_declarations_jsonl(self, tmp_path):
        decls = [
            Declaration("u2", "year", 1990, TS, "c"),
            Declaration("u1", "gender", "male", TS, "c"),
        ]
        p = tmp_path / "decls.jsonl"
        write_declarations(decls, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0].startswith('{"attribute"')
        assert json.loads(lines[0]) == {
            "user": "u2",
            "attribute": "year",
            "value": 1990,
            "created_utc": TS,
            "community": "c",
        }

    def test_write_declarations_bytes_are_the_json_encoders(self, tmp_path):
        """Non-ASCII names, quotes and backslashes, and int and str values,
        each written as json.JSONEncoder(sort_keys=True) writes them."""
        decls = [
            Declaration("ünï\u2028cødé", "gender", "female", TS, "r/españa"),
            Declaration('q"uo\\te', "year", 1987, 0, 'c"\\'),
            Declaration("u\x00\t\n", "party", "démocrat\U0001f600", -5, ""),
            Declaration("u", "year", -12, TS, "c"),
        ]
        p = tmp_path / "decls.jsonl"
        write_declarations(decls, p)
        encoder = json.JSONEncoder(sort_keys=True)
        expected = "".join(
            encoder.encode({"user": d.user_id, "attribute": d.attribute, "value": d.value,
                            "created_utc": d.created_utc, "community": d.community}) + "\n"
            for d in decls
        )
        assert p.read_bytes() == expected.encode("ascii")

    def test_write_labels_csv_sorted(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv({"zeta": 1, "alpha": 0}, p)
        assert p.read_text(encoding="utf-8") == "user,label\nalpha,0\nzeta,1\n"
