import functools
import math
import operator
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse

from ouv_classifier import features
from ouv_classifier.features import (EmbeddingTable, GramIdTables,
                                     TfidfVocabulary, boe_rows, fit_tfidf,
                                     load_embeddings, tfidf_rows)
from ouv_classifier.harness import Featurizer
from conftest import make_sample


def docs_to_samples(docs):
    return [make_sample(doc.split(), 1) for doc in docs]


class TestFitTfidf:
    def test_min_df_filter(self):
        vocab = fit_tfidf(docs_to_samples(["a b", "a c"]), min_df=2)
        assert set(vocab.gram_to_index) == {"a"}

    def test_idf_when_gram_in_all_docs(self):
        vocab = fit_tfidf(docs_to_samples(["a x", "a y", "a z"]), min_df=1)
        assert vocab.idf[vocab.gram_to_index["a"]] == pytest.approx(1.0)

    def test_against_scalar_recomputation(self):
        docs = ["old town walls", "old walls remain", "new town hall",
                "the town walls", "old hall"]
        samples = docs_to_samples(docs)
        vocab = fit_tfidf(samples, min_df=2)
        # independent scalar df/idf computation
        grams_per_doc = []
        for doc in docs:
            toks = doc.split()
            grams = set(toks) | {f"{a} {b}" for a, b in zip(toks, toks[1:])}
            grams_per_doc.append(grams)
        all_grams = set().union(*grams_per_doc)
        df = {g: sum(g in d for d in grams_per_doc) for g in all_grams}
        expected = sorted(g for g in all_grams if df[g] >= 2)
        assert sorted(vocab.gram_to_index) == expected
        for g in expected:
            idf = math.log((1 + 5) / (1 + df[g])) + 1
            assert vocab.idf[vocab.gram_to_index[g]] == pytest.approx(idf)

    def test_lexicographic_index_order(self):
        vocab = fit_tfidf(docs_to_samples(["b a", "b a"]), min_df=1)
        grams = sorted(vocab.gram_to_index, key=vocab.gram_to_index.get)
        assert grams == sorted(grams)

    def test_empty_vocab_fatal(self):
        with pytest.raises(ValueError):
            fit_tfidf(docs_to_samples(["a b", "c d"]), min_df=3)

    def test_min_df_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^min_df must be >= 1$"):
            fit_tfidf(docs_to_samples(["a b", "a c"]), min_df=0)

    def test_split_hygiene(self):
        train = docs_to_samples(["a b", "a c", "b c"])
        extra = docs_to_samples(["a a", "a a", "a a"])
        vocab_train = fit_tfidf(train, min_df=1)
        vocab_leaky = fit_tfidf(train + extra, min_df=1)
        idx = vocab_train.gram_to_index["a"]
        idx_leaky = vocab_leaky.gram_to_index["a"]
        assert vocab_train.idf[idx] != vocab_leaky.idf[idx_leaky]


class TestTfidfVectorize:
    def test_all_oov_gives_zero_vector(self):
        vocab = fit_tfidf(docs_to_samples(["a b", "a b"]), min_df=2)
        vec = tfidf_rows(vocab, [["z", "q"]])
        assert vec.nnz == 0

    def test_single_gram_unit_spike(self):
        vocab = fit_tfidf(docs_to_samples(["a b", "a c"]), min_df=2)
        vec = tfidf_rows(vocab, [["a", "z"]]).toarray()[0]
        assert vec[vocab.gram_to_index["a"]] == pytest.approx(1.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_golden_sparse_vector(self):
        docs = ["old town", "old hall", "town hall"]
        vocab = fit_tfidf(docs_to_samples(docs), min_df=1)
        vec = tfidf_rows(vocab, [["old", "old", "town"]]).toarray()[0]
        idf_old = math.log(4 / 3) + 1
        idf_town = math.log(4 / 3) + 1
        raw = np.zeros(vocab.size)
        raw[vocab.gram_to_index["old"]] = 2 * idf_old
        raw[vocab.gram_to_index["town"]] = 1 * idf_town
        raw[vocab.gram_to_index["old town"]] = math.log(4 / 2) + 1
        raw /= np.linalg.norm(raw)
        np.testing.assert_allclose(vec, raw, atol=1e-12)

    def test_l2_norm(self):
        vocab = fit_tfidf(docs_to_samples(["a b c", "a b d"]), min_df=1)
        vec = tfidf_rows(vocab, [["a", "b", "c", "c"]])
        assert np.linalg.norm(vec.toarray()) == pytest.approx(1.0, abs=1e-9)

    def test_matrix_stacks_rows(self):
        samples = docs_to_samples(["a b", "a c", "b c"])
        vocab = fit_tfidf(samples, min_df=1)
        matrix = tfidf_rows(vocab, [s.tokens for s in samples])
        assert matrix.shape == (3, vocab.size)
        row0 = tfidf_rows(vocab, [samples[0].tokens]).toarray()
        np.testing.assert_allclose(matrix[0].toarray(), row0)



def reference_row(vocab, tokens):
    """Per-row TF-IDF: counts x idf, then divide by np.linalg.norm."""
    grams = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    counts = Counter(vocab.gram_to_index[g] for g in grams
                     if g in vocab.gram_to_index)
    if not counts:
        return sparse.csr_matrix((1, vocab.size))
    cols = sorted(counts)
    values = np.array([counts[i] * vocab.idf[i] for i in cols])
    values /= np.linalg.norm(values)
    return sparse.csr_matrix((values, ([0] * len(cols), cols)),
                             shape=(1, vocab.size))


class TestTfidfMatrixExact:
    def test_equals_per_row_reference(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(30)]
        train = docs_to_samples([" ".join(rng.choice(words, size=12))
                                 for _ in range(40)])
        vocab = fit_tfidf(train, min_df=2)
        docs = [" ".join(rng.choice(words, size=int(n)))
                for n in rng.integers(1, 25, size=60)]
        samples = docs_to_samples(docs + ["oov1 oov2", "w1 w1 w1 oov3"])
        got = tfidf_rows(vocab, [s.tokens for s in samples])
        want = sparse.vstack([reference_row(vocab, s.tokens)
                              for s in samples], format="csr")
        assert got.shape == want.shape
        assert got.getrow(len(docs)).nnz == 0  # no in-vocabulary gram
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)

    def test_vectorize_is_the_one_row_case(self):
        samples = docs_to_samples(["a b c a", "b c d", "x y"])
        vocab = fit_tfidf(samples, min_df=1)
        for sample in samples + docs_to_samples(["q r"]):
            got = tfidf_rows(vocab, [sample.tokens])
            want = reference_row(vocab, sample.tokens)
            assert got.shape == (1, vocab.size)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)

    def test_empty_sample_list(self):
        vocab = fit_tfidf(docs_to_samples(["a b", "a c"]), min_df=1)
        matrix = tfidf_rows(vocab, [])
        assert sparse.issparse(matrix)
        assert matrix.shape == (0, vocab.size)
        assert matrix.nnz == 0


# 26 words, every unigram and every bigram but "wa wa" in the vocabulary,
# so rows of up to 60 tokens reach 50+ distinct columns: long enough that
# a summation order other than the BLAS dot changes some norms' last bits
WORDS = [f"w{chr(97 + i)}" for i in range(26)]
WIDE_VOCAB = fit_tfidf(docs_to_samples(
    [f"{a} {b}" for a in WORDS for b in WORDS if a != b or a != "wa"]
    + WORDS[:13]), min_df=1)
token_list = st.lists(st.sampled_from(WORDS + ["oov", "zz"]), max_size=60)


# Vocabularies fit_tfidf never builds but a featurizer file may hold, with
# columns out of lexicographic order: a bigram with a word that is not a
# unigram ("wa wc"), bigrams whose words are in no other gram ("wd we",
# "oov zz", "zz zz") next to one whose words are unigrams ("wb wa");
# unigrams only; bigrams only.
def vocabulary(grams):
    return TfidfVocabulary({g: i for i, g in enumerate(grams)},
                           1 + np.arange(len(grams)) / 7)


VOCABS = {
    "wide": WIDE_VOCAB,
    "odd": vocabulary(["wb wa", "wa", "wd we", "oov zz", "wb", "wa wc",
                       "zz zz", "wf"]),
    "unigrams": vocabulary(["zz", "wa", "wb"]),
    "bigrams": vocabulary(["wb wa", "wa wb", "zz oov", "wa wa"]),
}


@pytest.fixture(scope="module")
def vocab_files(tmp_path_factory):
    """Each of VOCABS written by ``Featurizer.save``."""
    root = tmp_path_factory.mktemp("vocabs")
    for name, vocab in VOCABS.items():
        Featurizer(kind="ngram", vocab=vocab).save(root / f"{name}.json")
    return {name: root / f"{name}.json" for name in VOCABS}


def reference_matrix(vocab, token_lists):
    if not token_lists:
        return sparse.csr_matrix((0, vocab.size))
    return sparse.vstack([reference_row(vocab, tokens)
                          for tokens in token_lists], format="csr")


def assert_bits_of_reference(vocab, path, token_lists):
    """A first and a second call on one vocabulary, and a call on a copy
    just loaded from its featurizer file, all give the reference's bits."""
    want = reference_matrix(vocab, token_lists)
    fresh = Featurizer.load(path).vocab
    for got in (tfidf_rows(vocab, token_lists),
                tfidf_rows(vocab, token_lists),
                tfidf_rows(fresh, token_lists)):
        assert got.shape == want.shape == (len(token_lists), vocab.size)
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).dtype == getattr(want, attr).dtype
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data.view(np.uint64),
                                      want.data.view(np.uint64))
        assert got.has_sorted_indices


class TestTfidfRowsProperty:
    @settings(max_examples=300)
    @given(st.lists(token_list, max_size=8))
    @example([])
    @example([[]])
    @example([[], []])
    @example([["oov", "zz"]])
    @example([["wa"]])
    @example([["wa", "wa", "wa"], ["oov"]])
    @example([["wb", "wc"] * 30, [], ["wz"]])
    def test_bit_identical_to_per_row_reference(self, vocab_files,
                                                token_lists):
        """The wide vocabulary: rows long enough that a different norm
        summation order shows in the bits."""
        assert_bits_of_reference(WIDE_VOCAB, vocab_files["wide"],
                                 token_lists)

    @settings(max_examples=300)
    @given(st.sampled_from(["odd", "unigrams", "bigrams"]),
           st.lists(token_list, max_size=8))
    @example("odd", [["wa", "wc", "wd", "we", "oov", "zz", "zz", "zz"]])
    @example("odd", [["wb"], ["wa"], ["wd"], ["we", "wd"], ["zz"]])
    @example("unigrams", [["zz", "wa", "wb", "wa"]])
    @example("bigrams", [["wa", "wa", "wb", "wa"], ["zz", "oov"]])
    def test_odd_vocabularies_bit_identical(self, vocab_files, name,
                                            token_lists):
        assert_bits_of_reference(VOCABS[name], vocab_files[name],
                                 token_lists)

    def test_vocabulary_reaches_long_rows(self):
        row = tfidf_rows(WIDE_VOCAB, [WORDS[:20] + WORDS[::-1][:20]])
        assert row.nnz >= 40


class TestTfidfRowsBatchedNorm:
    """The norms are summed once per distinct row length, over a block of
    that length's rows; these shapes reach what the cases above do not."""

    @settings(max_examples=60)
    @given(st.integers(1, len(WORDS)),
           st.lists(st.permutations(WORDS), min_size=40, max_size=60),
           st.lists(st.tuples(st.integers(0, 60),
                              st.sampled_from([[], ["oov"], ["zz", "oov"]])),
                    max_size=8))
    def test_many_rows_of_one_length_between_empty_rows(
            self, vocab_files, width, orders, empties):
        """Distinct words give ``width`` unigrams and ``width - 1`` bigrams,
        so every non-empty row has the same number of columns."""
        token_lists = [order[:width] for order in orders]
        for at, empty in empties:
            token_lists.insert(at, empty)
        nnz = np.diff(tfidf_rows(WIDE_VOCAB, token_lists).indptr)
        assert set(nnz.tolist()) - {0} == {2 * width - 1}
        assert_bits_of_reference(WIDE_VOCAB, vocab_files["wide"],
                                 token_lists)

    def test_rows_of_130_to_300_columns(self, vocab_files):
        """SD sentences have no length cap, and the BLAS dot may take
        another code path for longer vectors; short rows between the long
        ones shift where each long row starts in ``data``."""
        rng = np.random.default_rng(13)
        token_lists = []
        for size in range(113, 340, 3):
            token_lists.append(rng.choice(WORDS, size=size).tolist())
            token_lists.append(rng.choice(WORDS, size=size % 7).tolist())
        nnz = np.diff(tfidf_rows(WIDE_VOCAB, token_lists).indptr)[::2]
        assert 130 <= nnz.min() <= 140 and 290 <= nnz.max() <= 300
        assert_bits_of_reference(WIDE_VOCAB, vocab_files["wide"],
                                 token_lists)


def test_two_id_tables_of_one_vocabulary_compare_without_raising():
    """The tables hold arrays, so they compare by identity: ``==`` gives a
    bool instead of numpy's ambiguous truth value."""
    a = GramIdTables.build(WIDE_VOCAB.gram_to_index)
    b = GramIdTables.build(WIDE_VOCAB.gram_to_index)
    assert (a == b) is False
    assert (a == a) is True


def write_embeddings(tmp_path, entries):
    path = tmp_path / "vectors.txt"
    lines = [f"{tok} " + " ".join(str(v) for v in vec)
             for tok, vec in entries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def parse_every_line(file_path, corpus_tokens) -> EmbeddingTable:
    """``load_embeddings``' oracle: each line split at every space and
    parsed, then kept if its token is in ``corpus_tokens``."""
    kept = {}
    dimension = None
    with open(file_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip().split(" ")
            if line_no == 1 and len(parts) == 2 and all(
                    part.isdecimal() for part in parts):
                dimension = int(parts[1])
                continue
            vec = np.array(parts[1:], dtype=float)
            if dimension is None:
                dimension = len(vec)
            assert len(vec) == dimension > 0
            if parts[0] in corpus_tokens:
                kept[parts[0]] = vec
    token_to_row = {token: row for row, token in enumerate(kept)}
    unk = token_to_row.setdefault("<unk>", len(kept))
    vectors = np.empty((len(token_to_row), dimension))
    np.stack(list(kept.values()), out=vectors[:len(kept)])
    vectors[unk] = np.mean(vectors[:len(kept)], axis=0)
    return EmbeddingTable(token_to_row, vectors)


EMBEDDING_TOKENS = ["a", "b", "héritage", "<unk>", "2", "wall"]


@st.composite
def embedding_files(draw):
    """The text of a well-formed embedding file, and corpus tokens of which
    at least one has a line: with or without a ``count dim`` header, lines
    that end in a space or not, repeated tokens, ``<unk>`` lines, tokens
    outside the corpus, and values that ``float`` reads but ``np.loadtxt``
    refuses."""
    dimension = draw(st.integers(1, 4))
    value = (st.floats(width=64).map(repr) | st.integers(-9, 9).map(str)
             | st.sampled_from(["１", "1_0"]))
    lines = draw(st.lists(st.tuples(
        st.sampled_from(EMBEDDING_TOKENS),
        st.lists(value, min_size=dimension, max_size=dimension),
        st.sampled_from(["", " "])), min_size=1, max_size=12))
    # a first line of two integers is a header; keep it a vector line
    assume(not (len(lines[0][1]) == 1 and lines[0][0].isdecimal()
                and lines[0][1][0].isdecimal()))
    corpus = draw(st.sets(st.sampled_from(EMBEDDING_TOKENS + ["oov"])))
    assume(corpus & {token for token, *_ in lines})
    text = "".join(f"{token} {' '.join(values)}{end}\n"
                   for token, values, end in lines)
    if draw(st.booleans()):
        end = draw(st.sampled_from(["", " "]))
        text = f"{len(lines)} {dimension}{end}\n" + text
    return text, corpus


@pytest.fixture(scope="module")
def embedding_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("embeddings")


class TestLoadEmbeddings:
    @settings(max_examples=200)
    @given(embedding_files())
    @example(("2 3 \na 1.5 -0.0 1e-3 \n<unk> 9 9 9 \n", {"a", "<unk>"}))
    @example(("a 1\nb 2\na 3\n", {"a", "oov"}))
    @example(("a 1\nb １\nc 2\na 1_0\nb 3\nb 4\n", {"a", "b", "c"}))
    @example(("a 1.7976931348623157e308\nb 1e300\n", {"a", "b"}))
    @example(("a inf\nb nan\na 1\n", {"a", "b"}))
    @example(("a inf\nb 1\nc nan\na 2\n", {"a", "b"}))
    def test_equals_the_per_line_oracle(self, embedding_dir, file):
        """Blocks of two kept lines, so that files cross block ends, and
        repeated tokens and ``np.loadtxt``'s refusals fall in one block or
        across two. Where the oracle's table holds an inf or NaN, from a
        kept value or from a ``"<unk>"`` mean that overflows (numpy warns
        in the oracle), the loader raises a ``ValueError`` instead, with
        no warning."""
        text, corpus = file
        path = embedding_dir / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        with np.errstate(over="ignore", invalid="ignore"):
            want = parse_every_line(path, corpus)
        with mock.patch.object(features, "_PARSE_BLOCK", 2):
            if not np.isfinite(want.vectors).all():
                with pytest.raises(ValueError, match="non-finite|not finite"):
                    load_embeddings(path, corpus)
                return
            got = load_embeddings(path, corpus)
        assert got.token_to_row == want.token_to_row
        assert got.vectors.flags.c_contiguous
        np.testing.assert_array_equal(got.vectors.view(np.uint64),
                                      want.vectors.view(np.uint64))

    def test_basic_table(self, tmp_path):
        path = write_embeddings(tmp_path, [
            ("old", [1, 0, 0, 0]), ("town", [0, 1, 0, 0]),
            ("wall", [0, 0, 1, 0])])
        table = load_embeddings(path, {"old", "town", "wall"})
        assert table.dimension == 4
        assert set(table.word_to_vector) == {"old", "town", "wall", "<unk>"}

    def test_token_outside_the_corpus_is_dropped(self, tmp_path):
        path = write_embeddings(tmp_path, [("a", [1, 0]), ("b", [0, 1])])
        table = load_embeddings(path, {"a", "c"})
        assert table.token_to_row == {"a": 0, "<unk>": 1}

    def test_unk_is_mean_of_kept(self, tmp_path):
        path = write_embeddings(tmp_path, [
            ("a", [1, 0]), ("b", [0, 1]), ("skip", [9, 9])])
        table = load_embeddings(path, {"a", "b"})
        np.testing.assert_allclose(table.word_to_vector["<unk>"], [0.5, 0.5])

    def test_inconsistent_dimension_fatal(self, tmp_path):
        path = write_embeddings(tmp_path, [("a", [1, 0]), ("b", [1, 0, 0])])
        with pytest.raises(ValueError, match="line 2: 3 values, expected 2"):
            load_embeddings(path, {"a", "b"})

    @pytest.mark.parametrize("body, line, match", [
        ("a 1 0\nbroken\nc 0 1\n", 2, "0 values, expected 2"),
        ("a 1 0\nb \nc 0 1\n", 2, "0 values, expected 2"),
        ("a 1 0\n\nc 0 1\n", 2, "0 values, expected 2"),
        ("b\na 1 0\n", 1, "0 values, expected 0"),
        ("a 1 0\nrare 1 0 0\nc 0 1\n", 2, "3 values, expected 2"),
        ("a 1 0\nb  1\nc 0 1\n", 2, "non-numeric value"),
        ("a 1 0\nc 0 1\nb x y\n", 3, "non-numeric value"),
        ("a 1 0\nb x 0\nc 0\n", 2, "non-numeric value"),
        ("b x 0\nb 1 0\n", 1, "non-numeric value"),
        ("a 1 0\nb 1\x1c 0\n", 2, "non-numeric value"),
    ])
    def test_a_malformed_line_names_the_file_and_the_line(
            self, tmp_path, body, line, match):
        """A line with no values or another count fails whether or not
        its token is kept; a non-numeric value fails on a kept line, even
        if a later line repeats its token, and before a later line's count
        does. ``float`` refuses ``"1\\x1c"``, which ``np.loadtxt`` reads as
        1."""
        path = tmp_path / "vectors.txt"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: line {line}: "
                                 + match):
            load_embeddings(path, {"a", "b", "c"})

    @pytest.mark.parametrize("body,message", [
        ("a 1 0\nb 2 inf\nc 3 1\n", "token 'b' has a non-finite value"),
        ("a 1 0\nb nan 2\n", "token 'b' has a non-finite value"),
        ("<unk> -inf 0\na 1 0\n", "token '<unk>' has a non-finite value"),
        ("a 1.7976931348623157e308 0\nb 1e300 0\n",
         "the '<unk>' mean of the kept vectors is not finite"),
    ])
    def test_a_non_finite_table_names_the_file(self, tmp_path, body,
                                               message):
        """A kept vector with an inf or NaN names its token; a mean that
        overflows names the mean, with no numpy warning. (A value that a
        later line replaces, or on a dropped line, loads: see the oracle
        property's examples.)"""
        path = tmp_path / "vectors.txt"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'{path}: {message}')}$"):
            load_embeddings(path, {"a", "b", "<unk>"})

    def test_no_kept_line_names_the_file(self, tmp_path):
        path = write_embeddings(tmp_path, [("a", [1, 0])])
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: no line's token"):
            load_embeddings(path, {"b"})

    def test_fasttext_lines_that_end_in_a_space_load(self, tmp_path):
        path = tmp_path / "vectors.vec"
        path.write_text("3 2 \nold 0.5 -1 \ntown 2 0.25 \nwall 1 1 \n",
                        encoding="utf-8")
        table = load_embeddings(path, {"old", "wall"})
        assert table.token_to_row == {"old": 0, "wall": 1, "<unk>": 2}
        np.testing.assert_array_equal(table.vectors,
                                      [[0.5, -1], [1, 1], [0.75, 0]])

    def test_parsed_values_are_bit_equal_to_float(self, tmp_path):
        """Only kept lines are parsed: ``b`` and ``c`` hold values numpy
        cannot read, and their tokens are not in the corpus. (A kept inf
        or NaN is refused: ``test_a_non_finite_table_names_the_file``.)"""
        values = ["1e-320", "-0.0", "5e-324", "0.30000000000000004",
                  "1.7976931348623157e308", "-1e308", "-5e-324", "１"]
        path = tmp_path / "vectors.txt"
        path.write_text("a " + " ".join(values) + "\nb 0x10 0 0 0 0 0 0 0\n"
                        "c 1,5 0 0 0 0 0 0 0\n", encoding="utf-8")
        table = load_embeddings(path, {"a"})
        expected = np.array([float(v) for v in values])
        np.testing.assert_array_equal(
            table.word_to_vector["a"].view(np.uint64),
            expected.view(np.uint64))
        assert list(table.token_to_row) == ["a", "<unk>"]

    def test_count_dim_header_is_skipped(self, tmp_path):
        body = "a 1 0 2\nb 0 1 0.5\n2 7 7 7\nc x y z\n"
        plain = tmp_path / "plain.txt"
        plain.write_text(body, encoding="utf-8")
        headed = tmp_path / "headed.vec"
        headed.write_text("4 3\n" + body, encoding="utf-8")
        corpus = {"a", "b", "2"}
        table = load_embeddings(plain, corpus)
        headed_table = load_embeddings(headed, corpus)
        assert headed_table.dimension == table.dimension == 3
        assert list(headed_table.word_to_vector) == list(table.word_to_vector)
        for token, vec in table.word_to_vector.items():
            np.testing.assert_array_equal(headed_table.word_to_vector[token],
                                          vec)

    def test_two_line_vec_file_loads(self, tmp_path):
        path = tmp_path / "vectors.vec"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_embeddings(path, {"a", "b"})
        assert table.dimension == 3
        assert set(table.word_to_vector) == {"a", "b", "<unk>"}

    @pytest.mark.parametrize("body, line", [
        ("a 1 0\nb 0 1\n", 2),  # every vector short of the header's dim
        ("a 1 0 0\nb 0 1\n", 3),
    ])
    def test_vector_off_the_header_dim_names_its_line(self, tmp_path, body,
                                                      line):
        path = tmp_path / "vectors.vec"
        path.write_text("2 3\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             f"line {line}: 2 values, "
                                             "expected 3"):
            load_embeddings(path, {"a", "b"})

    def test_repeated_token_keeps_first_row_and_last_vector(self, tmp_path):
        """The token's two lines fall in two blocks: the second block
        starts at the repeat, or (blocks of two kept lines) at the line
        before it."""
        path = write_embeddings(tmp_path, [
            ("a", [1, 0]), ("b", [0, 1]), ("c", [5, 5]), ("a", [3, 3])])
        for parse_block in (features._PARSE_BLOCK, 2):
            with mock.patch.object(features, "_PARSE_BLOCK", parse_block):
                table = load_embeddings(path, {"a", "b", "c"})
            assert table.token_to_row == {"a": 0, "b": 1, "c": 2,
                                          "<unk>": 3}
            np.testing.assert_array_equal(
                table.vectors, [[3, 3], [0, 1], [5, 5], [8 / 3, 3]])

    def test_literal_unk_line_keeps_its_row_and_takes_the_mean(self,
                                                               tmp_path):
        path = write_embeddings(tmp_path, [
            ("a", [1, 0]), ("<unk>", [9, 9]), ("b", [0, 1])])
        table = load_embeddings(path, {"a", "<unk>", "b"})
        assert table.token_to_row == {"a": 0, "<unk>": 1, "b": 2}
        # the mean is taken over the kept lines, the "<unk>" line's included
        np.testing.assert_array_equal(table.vectors,
                                      [[1, 0], [10 / 3, 10 / 3], [0, 1]])

    def test_vectors_are_one_c_contiguous_matrix(self, tmp_path):
        path = write_embeddings(tmp_path, [("a", [1, 0, 2]), ("b", [0, 1, 4])])
        table = load_embeddings(path, {"a", "b"})
        assert table.vectors.shape == (3, 3)
        assert table.vectors.dtype == np.float64
        assert table.vectors.flags.c_contiguous
        assert table.dimension == 3
        rows = table.word_to_vector
        assert list(rows) == ["a", "b", "<unk>"]
        assert not rows["a"].flags.writeable
        np.testing.assert_array_equal(rows["<unk>"], [0.5, 0.5, 3])

    def test_holds_the_table_once(self, tmp_path, monkeypatch):
        """Blocks are parsed into the table's matrix, so the traced peak is
        the table plus about one block, not two tables."""
        monkeypatch.setattr(features, "_PARSE_BLOCK", 64)
        rng = np.random.default_rng(44)
        tokens = [f"w{i}" for i in range(24 * 64)]
        path = write_embeddings(tmp_path, zip(
            tokens, np.round(rng.normal(size=(len(tokens), 100)), 5)))
        corpus = set(tokens)
        tracemalloc.start()
        try:
            table = load_embeddings(path, corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = table.vectors.nbytes
        assert table.vectors.shape == (len(tokens) + 1, 100)
        assert peak < 1.5 * size, f"peak {peak / size:.2f}x the table"

    def test_header_only_on_the_first_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1\n2 3\n", encoding="utf-8")
        table = load_embeddings(path, {"a", "2"})
        assert table.dimension == 1
        np.testing.assert_array_equal(table.word_to_vector["2"], [3.0])


def boe_embed(tokens: list[str], table: EmbeddingTable) -> np.ndarray:
    """Mean of the token vectors; unknown tokens map to <unk>."""
    if not tokens:
        raise ValueError("cannot embed an empty token sequence")
    unk = table.word_to_vector["<unk>"]
    return np.mean([table.word_to_vector.get(t, unk) for t in tokens], axis=0)


def embedding_table(word_to_vector: dict) -> EmbeddingTable:
    return EmbeddingTable({t: i for i, t in enumerate(word_to_vector)},
                          np.array(list(word_to_vector.values()), float))


def assert_bits_of_oracle(table, token_lists):
    """``boe_rows`` gives ``boe_embed``'s bits, row by row, and NaN where
    it gives NaN: which of two NaN operands a sum returns depends on the
    operand order the compiled loop uses, which IEEE 754 leaves open."""
    got = boe_rows(table, token_lists)
    assert got.shape == (len(token_lists), table.dimension)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    for row, tokens in zip(got, token_lists):
        with np.errstate(over="ignore", invalid="ignore"):
            want = boe_embed(tokens, table)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(row), nan)
        np.testing.assert_array_equal(row[~nan].view(np.uint64),
                                      want[~nan].view(np.uint64))


class TestBoeEmbed:
    """``boe_rows`` against worked values and against the per-row
    ``boe_embed`` oracle."""

    def table(self):
        return embedding_table({"a": [2.0, 0.0], "b": [0.0, 4.0],
                                "<unk>": [1.0, 1.0]})

    def test_single_known_token(self):
        np.testing.assert_array_equal(boe_rows(self.table(), [["a"]]),
                                      [[2, 0]])

    def test_two_token_mean(self):
        np.testing.assert_array_equal(
            boe_rows(self.table(), [["a", "b"], ["b", "b", "a", "a"]]),
            [[1, 2], [1, 2]])

    def test_all_unknown(self):
        np.testing.assert_array_equal(
            boe_rows(self.table(), [["x", "y"], ["<unk>"]]), [[1, 1]] * 2)

    def test_empty_rejected(self):
        for token_lists in ([[]], [["a"], []]):
            with pytest.raises(ValueError,
                               match="^cannot embed an empty token sequence$"):
                boe_rows(self.table(), token_lists)
        with pytest.raises(ValueError):
            boe_embed([], self.table())

    def test_no_rows_give_a_zero_by_d_array(self):
        rows = boe_rows(self.table(), [])
        assert rows.shape == (0, 2) and rows.dtype == np.float64

    @given(st.permutations(["a", "b", "a", "x"]))
    def test_permutation_invariant(self, tokens):
        base = boe_rows(self.table(), [["a", "b", "a", "x"]])
        np.testing.assert_allclose(boe_rows(self.table(), [list(tokens)]),
                                   base)

    def test_signed_zeros(self):
        """``np.mean`` adds a row's vectors to +0.0, so a one-token row of
        -0.0 gives +0.0, and so does ``boe_rows``."""
        table = embedding_table({"n": [-0.0, 1.0], "p": [0.0, -0.0],
                                 "<unk>": [-0.0, -0.0]})
        token_lists = [["n"], ["n", "n", "x"], ["n", "p"], ["p", "x"]]
        assert not np.signbit(boe_rows(table, token_lists)).any()
        assert_bits_of_oracle(table, token_lists)

    @settings(max_examples=300)
    @given(st.integers(2, 5).flatmap(lambda d: st.lists(
               st.lists(st.floats(width=64), min_size=d, max_size=d),
               min_size=1, max_size=6)),
           st.booleans(),
           st.lists(st.lists(st.sampled_from(["t0", "t1", "t2", "t3",
                                              "<unk>", "oov", "zz"]),
                             min_size=1, max_size=12), max_size=8))
    @example([[-0.0, 1.0], [0.0, -0.0]], False, [["t0"], ["t0", "t0"]])
    @example([[5e-324, -1e308], [1e308, 1.0]], True,
             [["t1", "<unk>"], ["oov"], ["t0", "t1", "t0"]])
    def test_bit_identical_to_per_row_oracle(self, vectors, unk_first,
                                             token_lists):
        """Tables of up to five rows of 2-5 columns, ``"<unk>"`` first or
        last, holding any float64, on rows with repeated, unknown and
        ``"<unk>"`` tokens and one-token rows. One column is the case
        below."""
        tokens = [f"t{i}" for i in range(len(vectors) - 1)]
        tokens.insert(0 if unk_first else len(tokens), "<unk>")
        assert_bits_of_oracle(embedding_table(dict(zip(tokens, vectors))),
                              token_lists)

    def test_one_column_table_sums_in_token_order(self):
        """``np.mean`` of an ``L x 1`` matrix sums its column pairwise
        (numpy's contiguous-axis sum), so the oracle's bits can differ in
        the last place; ``boe_rows`` adds to +0.0 in token order as for any
        other width."""
        rng = np.random.default_rng(11)
        table = embedding_table({"a": [0.1], "b": [1e-9], "c": [-3.7],
                                 "<unk>": [7e5]})
        token_lists = [rng.choice(["a", "b", "c", "x"], size=n).tolist()
                       for n in range(1, 60)]
        got = boe_rows(table, token_lists)
        for row, tokens in zip(got, token_lists):
            vectors = [table.word_to_vector.get(t, table.vectors[3])
                       for t in tokens]
            total = functools.reduce(operator.add, vectors, np.zeros(1))
            assert row.view(np.uint64) == (total / len(tokens)).view(
                np.uint64)
            np.testing.assert_allclose(row, boe_embed(tokens, table),
                                       rtol=1e-12)

    def test_loaded_table_equals_oracle(self, tmp_path):
        """Rows of a table read by ``load_embeddings``, before and after a
        trip through the featurizer file."""
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(40)]
        path = write_embeddings(tmp_path, [
            (w, np.round(rng.normal(0, 1e-5, size=6), 5)) for w in words])
        table = load_embeddings(path, set(words[2:]))
        Featurizer(kind="boe", table=table).save(tmp_path / "feat.json")
        loaded = Featurizer.load(tmp_path / "feat.json").table
        token_lists = [rng.choice(words + ["oov"], size=n).tolist()
                       for n in rng.integers(1, 9, size=200)]
        assert np.signbit(table.vectors[table.vectors == 0]).any()  # -0.0
        assert_bits_of_oracle(table, token_lists)
        assert_bits_of_oracle(loaded, token_lists)

