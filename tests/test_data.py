import hashlib
import json
import re
import tempfile
import warnings
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from demoscope import bayes
from demoscope.axis import AxisModel
from demoscope.classifiers import MajorityClassifier, axis_factory
from demoscope.data import (
    CommunityVocabulary,
    LabeledCorpus,
    _oversample_rows,
    load_corpus,
    load_vocabulary,
    split,
)
from demoscope.errors import DataError

from helpers import corpus_from_dense, dict_load_corpus


def test_vocabulary_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        CommunityVocabulary(("a", "b", "a"))


def test_vocabulary_rejects_empty():
    with pytest.raises(DataError):
        CommunityVocabulary(())
    with pytest.raises(DataError):
        CommunityVocabulary(("a", ""))


def test_vocabulary_index():
    v = CommunityVocabulary(("x", "y", "z"))
    assert v.index == {"x": 0, "y": 1, "z": 2}
    assert v.size == 3


def _raw_corpus(indices, counts, indptr=None, d=5, ids=("u",), labels=(0,)):
    """Corpus over raw CSR arrays, as given: unsorted, duplicated, unchecked."""
    if indptr is None:
        indptr = [0, len(indices)]
    X = sp.csr_matrix(
        (np.asarray(counts, dtype=np.float64), np.asarray(indices), np.asarray(indptr)),
        shape=(len(indptr) - 1, d),
    )
    vocab = CommunityVocabulary(tuple(f"c{j}" for j in range(d)))
    return LabeledCorpus(vocab, X, np.array(ids, dtype=object), np.array(labels))


def test_from_pairs_canonicalizes():
    corpus = _raw_corpus([3, 1, 3], [2, 1, 4])
    X = corpus.to_csr()
    assert X.indices.tolist() == [1, 3]
    assert X.data.tolist() == [1.0, 6.0]
    assert corpus.activities().tolist() == [7.0]


def test_from_pairs_rejects_bad_counts():
    with pytest.raises(DataError, match="'u'.*integers >= 1"):
        _raw_corpus([0], [0])
    with pytest.raises(DataError, match="integers >= 1"):
        _raw_corpus([0, 0], [-2, 3])
    with pytest.raises(DataError, match="integers >= 1"):
        _raw_corpus([0], [1.5])
    with pytest.raises(DataError, match="exceeds"):
        _raw_corpus([2, 2], [2**31 - 1, 1])
    with pytest.raises(DataError, match="'w': empty activity vector"):
        _raw_corpus([0], [1], indptr=[0, 1, 1], ids=("u", "w"), labels=(0, 1))
    with pytest.raises(DataError, match="outside vocabulary"):
        _raw_corpus([-1], [3])


def test_merge_sums_entrywise(tmp_path):
    vocab = CommunityVocabulary(tuple(f"c{j}" for j in range(5)))
    f = tmp_path / "c.jsonl"
    f.write_text(
        '{"user": "u", "counts": {"c0": 2, "c2": 1}}\n'
        '{"user": "u", "counts": {"c2": 5, "c4": 1}}\n'
    )
    corpus, report = load_corpus(f, vocab)
    assert corpus.n == 1 and report.merged_duplicate_users == 1
    assert corpus.to_csr().indices.tolist() == [0, 2, 4]
    assert corpus.to_csr().data.tolist() == [2.0, 6.0, 1.0]


@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 8), st.integers(1, 50)), min_size=1, max_size=20
    )
)
@settings(max_examples=60, deadline=None)
def test_canonicalization_idempotent(pairs):
    idx, cnt = zip(*pairs)
    X1 = _raw_corpus(idx, cnt, d=9).to_csr()
    X2 = _raw_corpus(X1.indices, X1.data, d=9).to_csr()
    assert np.array_equal(X1.indices, X2.indices)
    assert np.array_equal(X1.data, X2.data)
    assert bool(np.all(np.diff(X1.indices) > 0))
    assert X1.data.min() >= 1
    dense = np.zeros(9)
    np.add.at(dense, list(idx), cnt)
    assert np.array_equal(X1.toarray()[0], dense)


def test_corpus_validates_alignment():
    vocab = CommunityVocabulary(("a", "b"))
    X = sp.csr_matrix(np.array([[1, 0]]))
    with pytest.raises(DataError, match="misaligned"):
        LabeledCorpus(vocab, X, ["u"], np.array([0, 1]))
    with pytest.raises(DataError, match="misaligned"):
        LabeledCorpus(vocab, X, ["u", "w"], np.array([0]))
    with pytest.raises(DataError, match="labels"):
        LabeledCorpus(vocab, X, ["u"], np.array([2]))
    with pytest.raises(DataError, match="6 columns for a vocabulary of size 2"):
        LabeledCorpus(vocab, sp.csr_matrix(np.array([[0, 0, 0, 0, 0, 1]])), ["u"], np.array([0]))
    with pytest.raises(DataError, match="outside vocabulary"):
        _raw_corpus([5], [1], d=2)


def test_corpus_to_csr_and_activities():
    corpus = corpus_from_dense([[2, 0, 1], [0, 3, 0]], [0, 1])
    X = corpus.to_csr()
    assert X.shape == (2, 3)
    assert X.toarray().tolist() == [[2.0, 0.0, 1.0], [0.0, 3.0, 0.0]]
    assert corpus.activities().tolist() == [3.0, 3.0]
    assert corpus.class_counts().tolist() == [1, 1]


def test_jsonl_loader_merges_and_reports(tmp_path):
    vocab_file = tmp_path / "vocab.txt"
    vocab_file.write_text("alpha\nbeta\n")
    corpus_file = tmp_path / "c.jsonl"
    corpus_file.write_text(
        "\n".join(
            [
                json.dumps({"user": "u1", "counts": {"alpha": 2, "ghost": 7}, "label": 1}),
                json.dumps({"user": "u2", "counts": {"beta": 1}}),
                json.dumps({"user": "u1", "counts": {"alpha": 1, "beta": 1}}),
                json.dumps({"user": "u3", "counts": {"ghost": 9}}),
            ]
        )
        + "\n"
    )
    vocab = load_vocabulary(vocab_file)
    with pytest.warns(UserWarning, match="dropped 2"):
        corpus, report = load_corpus(corpus_file, vocab)
    assert corpus.n == 2
    assert corpus.user_ids.tolist() == ["u1", "u2"]
    # merged: alpha 2+1, beta 1
    assert corpus.to_csr()[0].indices.tolist() == [0, 1]
    assert corpus.to_csr()[0].data.tolist() == [3.0, 1.0]
    assert corpus.labels.tolist() == [1, -1]
    assert report.merged_duplicate_users == 1
    assert report.users_rejected_empty == 1
    assert report.unknown_community_pairs == 2


def test_jsonl_loader_errors_name_line(tmp_path):
    vocab = CommunityVocabulary(("a",))
    f = tmp_path / "bad.jsonl"
    f.write_text('{"user": "u", "counts": {"a": 1}}\nnot json\n')
    with pytest.raises(DataError, match=r"bad\.jsonl:2"):
        load_corpus(f, vocab)
    f.write_text('{"user": "u", "counts": {"a": 0}}\n')
    with pytest.raises(DataError, match=r"bad\.jsonl:1.*count"):
        load_corpus(f, vocab)
    f.write_text('{"user": "u", "counts": {"a": 1}, "label": 5}\n')
    with pytest.raises(DataError, match="label"):
        load_corpus(f, vocab)
    f.write_text('{"user": "u", "counts": {"a": 1.5}}\n')
    with pytest.raises(DataError, match="integer"):
        load_corpus(f, vocab)


def test_jsonl_conflicting_labels(tmp_path):
    vocab = CommunityVocabulary(("a",))
    f = tmp_path / "c.jsonl"
    f.write_text(
        '{"user": "u", "counts": {"a": 1}, "label": 0}\n'
        '{"user": "u", "counts": {"a": 1}, "label": 1}\n'
    )
    with pytest.raises(DataError, match="conflicting labels"):
        load_corpus(f, vocab)


def test_triplets_loader(tmp_path):
    vocab = CommunityVocabulary(("a", "b"))
    f = tmp_path / "t.csv"
    f.write_text("user,community,count\nu1,a,2\nu1,a,1\nu2,b,4\n")
    labels = tmp_path / "l.csv"
    labels.write_text("user,label\nu2,1\n")
    corpus, report = load_corpus(f, vocab, labels_path=labels)
    assert corpus.n == 2
    assert corpus.to_csr().toarray().tolist() == [[3.0, 0.0], [0.0, 4.0]]
    assert corpus.labels.tolist() == [-1, 1]

    labels.write_text("user,label\nzz,1\n")
    with pytest.raises(DataError, match="unknown user"):
        load_corpus(f, vocab, labels_path=labels)
    # the jsonl merge rule: a repeated label is fine, -1 keeps it, a second class is not
    labels.write_text("user,label\nu2,1\nu2,-1\nu2,1\n")
    assert load_corpus(f, vocab, labels_path=labels)[0].labels.tolist() == [-1, 1]
    labels.write_text("user,label\nu2,1\nu2,0\n")
    with pytest.raises(DataError, match=r"l\.csv:3: user 'u2' has conflicting labels 1 and 0"):
        load_corpus(f, vocab, labels_path=labels)

    # a file that does not open with the triplets header is read as jsonl
    f.write_text("wrong,header,here\nu1,a,2\n")
    with pytest.raises(DataError, match=r"t\.csv:1: invalid JSON"):
        load_corpus(f, vocab)


@pytest.mark.parametrize("which", ["corpus", "labels"])
def test_triplets_record_csv_cannot_parse_names_its_line(tmp_path, which):
    vocab = CommunityVocabulary(("a",))
    f, labels = tmp_path / "t.csv", tmp_path / "l.csv"
    f.write_text("user,community,count\nu,a,1\n")
    labels.write_text("user,label\nu,1\n")
    bad = f if which == "corpus" else labels
    bad.write_text(bad.read_text() + "u," + "x" * 200_000 + "\n")  # past csv's field limit
    with pytest.raises(DataError, match=re.escape(f"{bad}:3: field larger than field limit")):
        load_corpus(f, vocab, labels_path=labels)


def test_vocabulary_lines_split_only_at_line_ends(tmp_path):
    f = tmp_path / "v.txt"
    f.write_bytes("a\x0cb\r\nc\u2028d\re\n\n".encode())
    assert load_vocabulary(f).names == ("a\x0cb", "c\u2028d", "e")


@pytest.mark.parametrize(
    "content, message",
    [(b"", "vocabulary is empty"), (b"\n \n", "vocabulary is empty"),
     (b"a\nb\na\n", "duplicate vocabulary entries: ['a']")],
)
def test_vocabulary_errors_name_the_file(tmp_path, content, message):
    f = tmp_path / "v.txt"
    f.write_bytes(content)
    with pytest.raises(DataError, match=f"^{re.escape(f'{f}: {message}')}$"):
        load_vocabulary(f)


def test_first_bad_line_in_file_order_is_reported(tmp_path):
    vocab = CommunityVocabulary(("a",))
    f = tmp_path / "c.jsonl"
    f.write_text('{"user": "u", "counts": {"a": 1}}\n{"user": "w", "counts": {"a": 0}}\nnot json\n')
    with pytest.raises(DataError, match=r"c\.jsonl:2: count 0 below 1"):
        load_corpus(f, vocab)


def test_count_type_and_range_are_checked_per_value(tmp_path):
    vocab = CommunityVocabulary(("a", "b"))
    f = tmp_path / "c.jsonl"
    f.write_text('{"user": "u", "counts": {"a": 1, "b": true}}\n')
    with pytest.raises(DataError, match=r"c\.jsonl:1: count must be an integer, got True"):
        load_corpus(f, vocab)
    f.write_text(json.dumps({"user": "u", "counts": {"a": 2**64}}) + "\n")
    with pytest.raises(DataError, match=rf"c\.jsonl:1: count {2**64} exceeds 2147483647"):
        load_corpus(f, vocab)


@pytest.mark.parametrize("fmt", ["jsonl", "triplets"])
def test_merged_overflow_names_user_and_line(tmp_path, fmt):
    """The line whose count first pushes a merged count past the limit is
    named, and it is reported before a later line's error."""
    vocab = CommunityVocabulary(("a", "b"))
    if fmt == "jsonl":
        f = tmp_path / "c.jsonl"
        lines = [
            {"user": "u", "counts": {"b": 1, "a": 2**31 - 2}},
            {"user": "w", "counts": {"a": 5}},
            {"user": "u", "counts": {"a": 1}},
            {"user": "u", "counts": {"a": 1}},
            {"user": "w", "counts": {"a": 2**31 - 1}},
        ]
        f.write_text("".join(json.dumps(rec) + "\n" for rec in lines) + "not json\n")
        where = "c.jsonl:4"
    else:
        f = tmp_path / "c.csv"
        f.write_text(
            "user,community,count\nu,b,1\nu,a,2147483646\nw,a,5\nu,a,1\nu,a,1\n"
            "w,a,2147483647\nu,a,x\n"
        )
        where = "c.csv:6"
    message = f"{where}: merged count for user 'u' exceeds 2147483647"
    with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path))}/{re.escape(message)}$"):
        load_corpus(f, vocab)


def test_merge_errors_keep_file_order(tmp_path):
    """A line that both overflows a merged count and conflicts on a label
    is named for the count, as one pass adding line by line names it;
    and a label conflict in the labels CSV comes before a later bad line
    there."""
    f = tmp_path / "c.jsonl"
    lines = [{"user": "u", "counts": {"a": 2**31 - 1}, "label": 0},
             {"user": "u", "counts": {"a": 1}, "label": 1}]
    f.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    got, want = _load_both(f)
    assert got == want == f"{f}:2: merged count for user 'u' exceeds 2147483647"
    f, labels = tmp_path / "t.csv", tmp_path / "l.csv"
    f.write_text("user,community,count\nu,a,1\nw,b,1\n")
    labels.write_text("user,label\nu,0\nw,1\nu,1\nw,2\n")
    got, want = _load_both(f, "triplets", labels)
    assert got == want == f"{labels}:4: user 'u' has conflicting labels 0 and 1"


@pytest.mark.parametrize(
    "second, scans", [(2**31 - 6, False), (2**31 - 5, True)], ids=["at-limit", "past-limit"]
)
def test_bad_line_scans_merged_counts_only_past_the_limit(tmp_path, monkeypatch, second, scans):
    """Before a bad line's error, the lines above it are checked for merge
    errors; the per-entry overflow scan runs only when some user's counts
    sum past MAX_COUNT, here 5 + second."""
    from demoscope import data

    f = tmp_path / "c.jsonl"
    lines = [{"user": "u", "counts": {"a": 5}}, {"user": "u", "counts": {"a": second}}]
    f.write_text("".join(json.dumps(rec) + "\n" for rec in lines) + "not json\n")
    calls, scan = [], data._Lines._raise_overflow
    monkeypatch.setattr(
        data._Lines, "_raise_overflow", lambda self, rows: calls.append(rows) or scan(self, rows)
    )
    message = ":2: merged count for user 'u' exceeds" if scans else ":3: invalid JSON"
    with pytest.raises(DataError, match=re.escape(f"{f}{message}")):
        load_corpus(f, CommunityVocabulary(("a",)))
    assert len(calls) == scans


def test_triplets_user_with_only_unknown_communities_is_rejected_empty(tmp_path):
    vocab = CommunityVocabulary(("a",))
    f = tmp_path / "t.csv"
    f.write_text("user,community,count\nu,a,2\nghost_user,zz,3\n")
    labels = tmp_path / "l.csv"
    labels.write_text("user,label\nghost_user,1\nu,0\n")
    with pytest.warns(UserWarning, match="dropped 1"):
        corpus, report = load_corpus(f, vocab, labels_path=labels)
    assert corpus.user_ids.tolist() == ["u"] and corpus.labels.tolist() == [0]
    assert report.users_kept == 1 and report.users_rejected_empty == 1
    assert report.unknown_community_pairs == 1


_NAMES = ("a", "b", "c")
@st.composite
def _corpus_lines(draw):
    """Lines over users u/v/w and communities a/b/c plus unknown zz: small
    counts, counts of 2**30 that overflow once two merge, labels, and at
    most one bad count."""
    pairs = st.lists(
        st.tuples(st.sampled_from(_NAMES + ("zz",)), st.sampled_from([1, 2, 3, 7, 2**30])),
        max_size=4,
        unique_by=lambda p: p[0],
    )
    labels = st.sampled_from([None, None, -1, 0, 1])
    lines = draw(st.lists(st.tuples(st.sampled_from("uvw"), pairs, labels), max_size=8))
    bad = draw(st.sampled_from([None, None, None, 0, True, 1.5, 2**64]))
    filled = [i for i, (_, p, _) in enumerate(lines) if p]
    if bad is not None and filled:
        i = draw(st.sampled_from(filled))
        user, p, label = lines[i]
        j = draw(st.integers(0, len(p) - 1))
        lines[i] = (user, p[:j] + [(p[j][0], bad)] + p[j + 1 :], label)
    return lines


def _load_both(path, fmt="jsonl", labels_path=None):
    """load_corpus and the dict oracle: each a result or a DataError message."""
    out = []
    loads = (partial(load_corpus, path, CommunityVocabulary(_NAMES)),
             partial(dict_load_corpus, path, _NAMES, fmt))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for load in loads:
            try:
                out.append(load(labels_path=labels_path))
            except DataError as e:
                out.append(str(e))
    return out


def _assert_same_load(got, want):
    if isinstance(want, str):
        assert got == want
        return
    corpus, report = got
    users, rows, labels, want_report = want
    assert corpus.user_ids.tolist() == users
    assert corpus.labels.tolist() == labels
    assert asdict(report) == want_report
    dense = np.zeros((len(users), len(_NAMES)))
    for i, row in enumerate(rows):
        dense[i, list(row)] = list(row.values())
    assert np.array_equal(corpus.X.toarray(), dense)


@given(lines=_corpus_lines())
@settings(max_examples=150, deadline=None)
def test_jsonl_loader_matches_dict_oracle(lines):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "c.jsonl"
        text = ""
        for user, pairs, label in lines:
            rec = {"user": user, "counts": dict(pairs)}
            if label is not None:
                rec["label"] = label
            text += json.dumps(rec) + "\n"
        f.write_text(text)
        _assert_same_load(*_load_both(f))


@given(lines=_corpus_lines(), label_lines=st.lists(
    st.tuples(st.sampled_from("uvwx"), st.sampled_from([-1, 0, 1])), max_size=4
))
@settings(max_examples=150, deadline=None)
def test_triplets_loader_matches_dict_oracle(lines, label_lines):
    with tempfile.TemporaryDirectory() as tmp:
        f, labels = Path(tmp) / "c.csv", Path(tmp) / "l.csv"
        rows = [
            f"{user},{name},{c}\n"
            for user, pairs, _ in lines
            for name, c in pairs
            if type(c) is int
        ]
        f.write_text("user,community,count\n" + "".join(rows))
        labels.write_text("user,label\n" + "".join(f"{u},{y}\n" for u, y in label_lines))
        _assert_same_load(*_load_both(f, "triplets", labels))


def test_csv_errors_name_the_physical_line(tmp_path):
    """A quoted user id may span lines: errors name the line in the file,
    not the record's number, in both CSV readers and in the dict oracle."""
    f, labels = tmp_path / "q.csv", tmp_path / "l.csv"
    f.write_text('user,community,count\n"u\nx",a,1\nw,a,0\n')
    got, want = _load_both(f, "triplets")
    assert got == want == f"{f}:4: count 0 below 1"
    f.write_text('user,community,count\n"u\nx",a,1\nw,a,1\n')
    labels.write_text('user,label\n"u\nx",1\nw,2\n')
    got, want = _load_both(f, "triplets", labels)
    assert got == want == f"{labels}:4: label 2 outside -1..1"


def _labeled_corpus(n0, n1, n_unlabeled=0, seed=0):
    rng = np.random.default_rng(seed)
    n = n0 + n1 + n_unlabeled
    X = rng.integers(1, 5, size=(n, 4))
    labels = np.array([0] * n0 + [1] * n1 + [-1] * n_unlabeled)
    return corpus_from_dense(X, labels)


def test_split_deterministic_and_stratified():
    corpus = _labeled_corpus(40, 20, n_unlabeled=10)
    tr1, te1 = split(corpus, 0.3, 9)
    tr2, te2 = split(corpus, 0.3, 9)
    assert tr1.user_ids.tolist() == tr2.user_ids.tolist()
    assert te1.user_ids.tolist() == te2.user_ids.tolist()
    # unlabeled rows all go to train
    assert (~tr1.labeled_mask).sum() == 10
    assert (~te1.labeled_mask).sum() == 0
    # stratification: test gets floor(0.3 * n_c) per class
    assert (te1.labels == 0).sum() == 12
    assert (te1.labels == 1).sum() == 6
    assert (tr1.labels == 0).sum() == 28
    assert (tr1.labels == 1).sum() == 14
    # disjoint and complete over labeled rows
    ids = set(tr1.user_ids) | set(te1.user_ids)
    assert len(ids) == corpus.n


def test_split_proportions_property():
    corpus = _labeled_corpus(33, 17)
    for seed in range(5):
        tr, te = split(corpus, 0.4, seed)
        p_orig = 17 / 50
        for side in (tr, te):
            p = (side.labels == 1).sum() / side.n
            # within one row of the original class proportion
            assert abs(p - p_orig) <= 1.0 / side.n + 1e-12


def test_split_requires_two_per_class():
    corpus = _labeled_corpus(5, 1)
    with pytest.raises(DataError, match="class 1"):
        split(corpus, 0.3, 0)


def test_split_rejects_bad_fractions():
    corpus = _labeled_corpus(5, 5)
    for fraction in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(DataError, match="test_fraction must lie in"):
            split(corpus, fraction, 0)


def test_oversample_balances():
    corpus = _labeled_corpus(30, 10, n_unlabeled=5)
    out = corpus.subset(_oversample_rows(corpus.labels, 3))
    assert (out.labels == 0).sum() == 30
    assert (out.labels == 1).sum() == 30
    assert (out.labels == -1).sum() == 5
    # originals preserved in order at the front
    assert out.user_ids[: corpus.n].tolist() == corpus.user_ids.tolist()
    # duplicates only of the minority class
    dup_ids = set(out.user_ids[corpus.n :])
    minority_ids = set(corpus.user_ids[corpus.labels == 1])
    assert dup_ids <= minority_ids


def test_oversample_balanced_input_unchanged():
    labels = _labeled_corpus(15, 15, n_unlabeled=4).labels
    assert np.array_equal(_oversample_rows(labels, 1), np.arange(labels.size))


def test_oversample_deterministic():
    corpus = _labeled_corpus(20, 5)
    a = split(corpus, 0.2, 7, oversample=True)
    b = split(corpus, 0.2, 7, oversample=True)
    for side_a, side_b in zip(a, b):
        assert side_a.user_ids.tolist() == side_b.user_ids.tolist()
    assert np.array_equal(_oversample_rows(corpus.labels, 7), _oversample_rows(corpus.labels, 7))


def test_oversample_missing_class():
    corpus = _labeled_corpus(5, 0, n_unlabeled=3)
    with pytest.raises(DataError, match="class 1"):
        _oversample_rows(corpus.labels, 0)


def test_subset_shares_rows():
    corpus = _labeled_corpus(4, 4)
    sub = corpus.subset([0, 5])
    assert sub.n == 2
    assert sub.user_ids.tolist() == [corpus.user_ids[0], corpus.user_ids[5]]
    assert np.array_equal(sub.to_csr().toarray(), corpus.to_csr().toarray()[[0, 5]])
    assert sub.labels.tolist() == [0, 1]
    assert sub.vocabulary is corpus.vocabulary


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_slices_match_dense_oracle(seed):
    """subset, split and oversampled rows return exactly the dense rows
    X_dense[idx], repeated indices included, with ids, labels and row
    sums aligned."""
    rng = np.random.default_rng(seed)
    n0, n1, n_un = (int(v) for v in rng.integers(2, 12, size=3))
    d = int(rng.integers(1, 7))
    X_dense = rng.integers(0, 4, size=(n0 + n1 + n_un, d))
    X_dense[X_dense.sum(axis=1) == 0, 0] = 1
    y = rng.permutation(np.array([0] * n0 + [1] * n1 + [-1] * n_un))
    corpus = corpus_from_dense(X_dense, y)
    pos = {u: i for i, u in enumerate(corpus.user_ids)}

    def check(part, idx=None):
        if idx is None:
            idx = [pos[u] for u in part.user_ids]
        assert part.user_ids.tolist() == corpus.user_ids[idx].tolist()
        assert np.array_equal(part.to_csr().toarray(), X_dense[idx])
        assert np.array_equal(part.labels, y[idx])
        assert np.array_equal(part.activities(), X_dense[idx].sum(axis=1))

    idx = rng.integers(0, corpus.n, size=int(rng.integers(1, 2 * corpus.n)))
    sub = corpus.subset(idx)
    check(sub, idx)
    inner = rng.integers(0, sub.n, size=sub.n)
    check(sub.subset(inner), idx[inner])
    check(corpus.subset([]), [])
    for part in split(corpus, 0.4, seed, oversample=True):
        check(part)
    over = corpus.subset(_oversample_rows(y, seed))
    check(over)
    assert (over.labels == 0).sum() == (over.labels == 1).sum() == max(n0, n1)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_slices_are_corpora_the_constructor_accepts_unchanged(seed):
    """subset, split(oversample=True) and oversampled rows build their
    corpora without the constructor's checks; rebuilding each through the
    public constructor gives back the same matrix, ids, labels and row
    sums, and its CSR arrays are canonical when checked afresh."""
    rng = np.random.default_rng(seed)
    n0, n1, n_un = (int(v) for v in rng.integers(2, 12, size=3))
    d = int(rng.integers(1, 7))
    X_dense = rng.integers(0, 50, size=(n0 + n1 + n_un, d)) * (rng.uniform(size=(1, d)) < 0.7)
    X_dense[X_dense.sum(axis=1) == 0, 0] = 1
    y = rng.permutation(np.array([0] * n0 + [1] * n1 + [-1] * n_un))
    corpus = corpus_from_dense(X_dense, y)
    idx = rng.integers(0, corpus.n, size=int(rng.integers(1, 2 * corpus.n)))
    sub = corpus.subset(idx)
    parts = [sub, sub.subset(rng.integers(0, sub.n, size=sub.n)), corpus.subset([])]
    parts += split(corpus, 0.4, seed, oversample=True)
    parts.append(corpus.subset(_oversample_rows(y, seed)))
    for part in parts:
        X = part.X
        fresh = sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
        assert fresh.has_canonical_format
        assert X.dtype == np.float64 and part.labels.dtype == np.int64
        rebuilt = LabeledCorpus(part.vocabulary, fresh.copy(), part.user_ids, part.labels)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(rebuilt.X, name), getattr(X, name))
        assert rebuilt.X.shape == X.shape
        assert rebuilt.user_ids.tolist() == part.user_ids.tolist()
        assert np.array_equal(rebuilt.labels, part.labels)
        assert np.array_equal(rebuilt.activities(), part.activities())


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_views_equal_eager_slices(data):
    """A subset and a subset of it, with indices that repeat, are empty or
    are unsorted, equal the eager row slices of the base in every array,
    whichever of the two is read first."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, d = int(rng.integers(1, 12)), int(rng.integers(1, 7))
    X_dense = rng.integers(0, 9, size=(n, d)) * (rng.uniform(size=(1, d)) < 0.7)
    X_dense[X_dense.sum(axis=1) == 0, 0] = 1
    corpus = corpus_from_dense(X_dense, rng.integers(-1, 2, size=n))
    outer = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)
    inner = np.array(
        data.draw(st.lists(st.integers(0, max(outer.size - 1, 0)), max_size=2 * n))
        if outer.size else [],
        dtype=np.int64,
    )
    view = corpus.subset(outer)
    nested = view.subset(inner)
    order = [nested, view] if data.draw(st.booleans()) else [view, nested]
    for part in order:
        rows = outer if part is view else outer[inner]
        X = part.X
        want = corpus.X[outer] if part is view else corpus.X[outer][inner]  # sliced eagerly
        for name in ("data", "indices", "indptr"):
            got, expected = getattr(X, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert X.shape == want.shape and X.has_canonical_format
        assert part.user_ids.tolist() == corpus.user_ids[rows].tolist()
        assert np.array_equal(part.labels, corpus.labels[rows])
        assert np.array_equal(part.activities(), X_dense[rows].sum(axis=1))
        assert part.n == rows.size


def test_a_fit_builds_only_the_rows_it_reads(monkeypatch):
    """Of a split's training side, the majority and axis fits build no
    rows, and a supervised naive Bayes fit builds only the labeled ones."""
    built = []
    read = LabeledCorpus.__getattr__

    def spy(self, name):
        built.append((name, self.labels))
        return read(self, name)

    monkeypatch.setattr(LabeledCorpus, "__getattr__", spy)
    corpus = _labeled_corpus(40, 20, n_unlabeled=15)
    train, _ = split(corpus, 0.3, 4, oversample=True)
    MajorityClassifier.fit(train)
    axis_factory(AxisModel("t", ("c0000",), np.array([0.0]), ("c0000",), ("c0001",)))(train)
    assert built == []
    bayes.fit(train)
    assert [name for name, _ in built] == ["X"]
    assert np.array_equal(built[0][1], train.labels[train.labels >= 0])
    assert "X" not in vars(train) and "user_ids" not in vars(train)


def test_oversampled_split_rows_are_pinned():
    """The rows, in order, of both sides of an oversampled split at a fixed
    seed: a change to row order or to the order of RNG calls fails here."""
    rng = np.random.default_rng(5)
    y = rng.permutation(np.array([0] * 31 + [1] * 12 + [-1] * 9))
    corpus = corpus_from_dense(rng.integers(1, 5, size=(y.size, 4)), y)
    sides = split(corpus, 0.3, 11, oversample=True)
    assert [hashlib.sha256("\n".join(side.user_ids).encode()).hexdigest() for side in sides] == [
        "940a1eb22c44b262db17b6cc75790fd158ed01f14656d83619de61859bab74c4",
        "af84fcf749ee080df1bb795e94f13cd3ee64a7fd90f2f2bccd805846b0143b50",
    ]
