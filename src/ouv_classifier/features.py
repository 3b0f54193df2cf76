"""Feature extraction: TF-IDF over 1-2 grams and averaged word embeddings."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

import numpy as np
from scipy import sparse

from . import input_error, read_lines
from .corpus import Sample


@dataclass(eq=False)  # compared by identity: a generated == would raise on idf
class TfidfVocabulary:
    gram_to_index: dict[str, int]
    idf: np.ndarray

    @property
    def size(self) -> int:
        return len(self.gram_to_index)

    @cached_property
    def id_tables(self) -> GramIdTables:
        """``tfidf_rows``' lookup tables, built on first use so that loading
        a featurizer stays as cheap as reading its grams."""
        return GramIdTables.build(self.gram_to_index)


@dataclass(eq=False)  # compared by identity, like ``TfidfVocabulary``
class GramIdTables:
    """A vocabulary by integer token ids. ``token_id`` numbers every word of
    any gram, ``0 .. T - 1``; the id ``T`` stands for any other token.
    Indexed by id (``T + 1`` entries): ``unigram_col`` gives the word's
    column, or -1 where the word is not a unigram of the vocabulary;
    ``opens_bigram`` and ``closes_bigram`` tell whether the word is the
    first or the second word of some bigram. ``bigram_keys`` holds
    ``id_a * (T + 1) + id_b`` for each bigram ``"a b"``, sorted, then a
    sentinel above every key; ``bigram_cols`` holds their columns."""
    token_id: dict[str, int]
    unigram_col: np.ndarray
    opens_bigram: np.ndarray
    closes_bigram: np.ndarray
    bigram_keys: np.ndarray
    bigram_cols: np.ndarray

    @classmethod
    def build(cls, gram_to_index: dict[str, int]) -> "GramIdTables":
        """Split each gram at its first space (``harness.Featurizer.load``
        rejects a gram of more than one)."""
        token_id: dict[str, int] = {}
        unigrams, bigrams = [], []
        for gram, col in gram_to_index.items():
            first, space, second = gram.partition(" ")
            first = token_id.setdefault(first, len(token_id))
            if space:
                second = token_id.setdefault(second, len(token_id))
                bigrams += first, second, col
            else:
                unigrams += first, col
        n_ids = len(token_id) + 1
        unigrams = np.array(unigrams, np.int64).reshape(-1, 2)
        bigrams = np.array(bigrams, np.int64).reshape(-1, 3)
        unigram_col = np.full(n_ids, -1, dtype=np.int64)
        unigram_col[unigrams[:, 0]] = unigrams[:, 1]
        opens, closes = np.zeros(n_ids, bool), np.zeros(n_ids, bool)
        opens[bigrams[:, 0]] = closes[bigrams[:, 1]] = True
        keys = bigrams[:, 0] * n_ids + bigrams[:, 1]
        order = np.argsort(keys)
        return cls(token_id, unigram_col, opens, closes,
                   np.append(keys[order], n_ids ** 2), bigrams[order, 2])


def _ngrams(tokens: list[str]) -> Iterator[str]:
    """The 1-2 grams of a token list: its unigrams, then its bigrams
    ``"a b"``, each in token order."""
    return chain(tokens, map(" ".join, zip(tokens, tokens[1:])))


def fit_tfidf(train_samples: list[Sample], min_df: int = 2) -> TfidfVocabulary:
    """Build the 1-2 gram vocabulary and smoothed idf from the train split.

    idf = ln((1 + N) / (1 + df)) + 1; indices follow lexicographic gram
    order for determinism.
    """
    if not train_samples:
        raise ValueError("cannot fit on an empty train split")
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    df: Counter[str] = Counter()
    for sample in train_samples:
        df.update(set(_ngrams(sample.tokens)))
    kept = sorted(g for g, count in df.items() if count >= min_df)
    if not kept:
        raise ValueError("vocabulary is empty after min_df filtering")
    n_docs = len(train_samples)
    idf = np.array([math.log((1 + n_docs) / (1 + df[g])) + 1 for g in kept])
    return TfidfVocabulary(gram_to_index={g: i for i, g in enumerate(kept)},
                           idf=idf)


def token_ids(token_id: dict[str, int], token_lists: list[list[str]],
              miss: int) -> tuple[np.ndarray, np.ndarray]:
    """Each token list's length, and the ids of all its tokens in token
    order: ``token_id[t]``, or ``miss`` for a token it does not hold. One
    dict lookup per token; both featurizers map tokens to ids through it."""
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64,
                          count=len(token_lists))
    ids = np.fromiter(map(token_id.get, chain.from_iterable(token_lists),
                          repeat(miss)),
                      dtype=np.int64, count=int(lengths.sum()))
    return lengths, ids


def tfidf_rows(vocab: TfidfVocabulary,
               token_lists: list[list[str]]) -> sparse.csr_matrix:
    """TF-IDF rows (len x V sparse), each L2-normalized unless all-zero.

    Tokens hold no whitespace, as ``str.split`` gives them. Each token
    becomes an id through ``token_ids`` (see ``GramIdTables``); unigram
    columns come by ``take``, and each pair of adjacent ids in a row whose
    words open and close some bigram is matched against the bigram keys by
    one ``np.searchsorted``. One
    ``np.unique`` over ``row * V + column`` then gives every row's sorted
    columns and counts, and the CSR is built once. The arrays of ids,
    pairs and rows are freed before that sort, which copies the keys, so
    the call's peak, while the keys are built or sorted, is about 40 bytes
    per token where the vocabulary holds most of the rows' grams.
    """
    tables, n_vocab = vocab.id_tables, vocab.size
    n_rows = len(token_lists)
    miss = len(tables.token_id)
    lengths, ids = token_ids(tables.token_id, token_lists, miss)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    # pairs that could be a bigram: adjacent in one row, and first and
    # second words of some bigram; a third of all pairs at scale 0.3, so
    # searchsorted does a third of the work
    first, second = ids[:-1], ids[1:]
    pairs = np.flatnonzero(tables.opens_bigram.take(first)
                           & tables.closes_bigram.take(second)
                           & (rows[:-1] == rows[1:]))
    pair_keys = first.take(pairs) * (miss + 1) + second.take(pairs)
    at = np.searchsorted(tables.bigram_keys, pair_keys)
    bigram = tables.bigram_keys.take(at) == pair_keys
    # each hit's key ``row * V + column``, the bigrams' then the unigrams';
    # np.unique sorts a copy of ``keys``, so what it is built from goes first
    bigram_keys = (rows.take(pairs[bigram]) * n_vocab
                   + tables.bigram_cols.take(at[bigram]))
    del pairs, pair_keys, at, bigram
    unigram_cols = tables.unigram_col.take(ids)
    unigram = unigram_cols >= 0
    keys = rows[unigram]
    keys *= n_vocab
    keys += unigram_cols[unigram]
    keys = np.concatenate((bigram_keys, keys))
    del ids, first, second, rows, unigram_cols, unigram, bigram_keys
    keys, counts = np.unique(keys, return_counts=True)
    rows, indices = np.divmod(keys, n_vocab)
    data = counts * vocab.idf.take(indices)
    del keys, counts
    nnz = np.bincount(rows, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(nnz, out=indptr[1:])
    # per row, the BLAS dot and correctly rounded sqrt of np.linalg.norm:
    # matmul of each 1 x L row by itself as L x 1 calls the same ddot as
    # ndarray.dot, so one matmul per distinct row length gives the bits
    order = np.argsort(nnz, kind="stable")
    widths, starts = np.unique(nnz.take(order), return_index=True)
    squares = np.zeros(n_rows)
    for width, group in zip(widths.tolist(), np.split(order, starts[1:])):
        block = data[indptr.take(group)[:, None] + np.arange(width)]
        squares[group] = np.matmul(block[:, None, :],
                                   block[:, :, None]).ravel()
    data /= np.repeat(np.sqrt(squares), nnz)
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(n_rows, n_vocab))


@dataclass(eq=False)  # compared by identity, like ``TfidfVocabulary``
class EmbeddingTable:
    """Word vectors as one matrix, the layout the featurizer file stores
    and ``boe_rows`` reads: row ``token_to_row[t]`` of the C-contiguous
    ``vectors`` is token ``t``'s vector. ``token_to_row`` lists the rows in
    order, ``"<unk>"`` among them; its row stands for any other token."""
    token_to_row: dict[str, int]
    vectors: np.ndarray

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def word_to_vector(self) -> dict[str, np.ndarray]:
        """``{token: its row}`` in row order, as read-only views of
        ``vectors``."""
        rows = self.vectors.view()
        rows.flags.writeable = False
        return {token: rows[row] for token, row in self.token_to_row.items()}


# kept lines per ``np.loadtxt`` call of ``load_embeddings``
_PARSE_BLOCK = 1024
# characters that ``np.loadtxt`` reads as white space around a value but
# ``float`` does not: a block holding one is parsed line by line
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def load_embeddings(file_path: str | Path,
                    corpus_tokens: AbstractSet[str]) -> EmbeddingTable:
    """Load a text-format embedding file, keeping the corpus's tokens.

    Each line, right-stripped (fastText's ``.vec`` lines end in a space), is
    a token and its values, split at single spaces. A first line of two
    integer fields is the word2vec/fastText ``count dim`` header: it is
    skipped, and every line must have ``dim`` values (else as many as the
    first line). Only a line whose token is in ``corpus_tokens`` is parsed,
    by ``_parse_block`` straight into the table, in blocks of up to
    ``_PARSE_BLOCK`` kept lines; a block also ends before a repeated
    token, so its rows are distinct.
    A line with no values or another count, or a kept line with a
    non-numeric value, is a ``ValueError`` naming the file and the first
    such line. Other tokens fall back to "<unk>", whose vector is the mean
    of all kept vectors. A repeated token keeps its first row and takes its
    last vector; a kept "<unk>" line keeps its row and takes the mean.
    A kept vector with an inf or NaN, or a mean that is not finite, is a
    ``ValueError`` naming the file and the token or the mean; so are bytes
    that are not UTF-8 (``read_lines``).
    """
    token_to_row: dict[str, int] = {}
    block: dict[int, tuple[int, str]] = {}  # row: (line number, values)
    vectors = None
    dimension = None
    for line_no, line in enumerate(read_lines(file_path), start=1):
        token, _, values = line.rstrip().partition(" ")
        if line_no == 1 and token.isdecimal() and values.isdecimal():
            dimension = int(values)
            continue
        size = values.count(" ") + 1 if values else 0
        if dimension is None:
            dimension = size
        if not size or size != dimension:
            if block:  # a bad value on an earlier kept line comes first
                _parse_block(file_path, block, vectors)
            raise ValueError(f"{file_path}: line {line_no}: "
                             f"{size} values, expected {dimension}")
        if token in corpus_tokens:
            if vectors is None:  # room for every corpus token and "<unk>"
                vectors = np.empty((len(corpus_tokens) + 1, dimension))
            row = token_to_row.setdefault(token, len(token_to_row))
            if row in block or len(block) == _PARSE_BLOCK:
                _parse_block(file_path, block, vectors)
                block = {}
            block[row] = line_no, values
    if block:
        _parse_block(file_path, block, vectors)
    if not token_to_row:
        raise ValueError(f"{file_path}: no line's token is in the corpus")
    n_kept = len(token_to_row)
    unk = token_to_row.setdefault("<unk>", n_kept)
    # no view of ``vectors`` exists yet, so it may shrink in place
    vectors.resize((len(token_to_row), dimension), refcheck=False)
    finite = np.isfinite(vectors[:n_kept]).all(axis=1)
    if not finite.all():
        bad = next(token for token, row in token_to_row.items()
                   if not finite[row])
        raise ValueError(f"{file_path}: token {bad!r} has a non-finite "
                         "value")
    with np.errstate(over="ignore", invalid="ignore"):
        vectors[unk] = np.mean(vectors[:n_kept], axis=0)
    if not np.isfinite(vectors[unk]).all():
        raise ValueError(f"{file_path}: the '<unk>' mean of the kept vectors "
                         "is not finite")
    return EmbeddingTable(token_to_row, vectors)


def _parse_block(file_path: str | Path, block: dict[int, tuple[int, str]],
                 vectors: np.ndarray) -> None:
    """Write the vectors of ``block``, ``{row: (line number, values)}``, to
    their rows of ``vectors``: one ``np.loadtxt`` call, or, where it raises
    or gives another shape, or the block holds a ``_LOADTXT_ONLY_SPACE``,
    one ``np.array(values.split(" "), dtype=float)`` per line, which names
    the file and the line of a non-numeric value. Where both accept a
    value, both parse it with CPython's ``PyOS_string_to_double``, to the
    same bits; ``loadtxt`` refuses some that ``float`` reads, as ``"１"``."""
    lines = [values for _, values in block.values()]
    if not any(char in values for values in lines
               for char in _LOADTXT_ONLY_SPACE):
        try:
            parsed = np.loadtxt(lines, dtype=float, delimiter=" ",
                                comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if parsed.shape == (len(lines), vectors.shape[1]):
                vectors[list(block)] = parsed
                return
    for row, (line_no, values) in block.items():
        with input_error(file_path,
                         f"line {line_no}: non-numeric value ({{}})"):
            vectors[row] = np.array(values.split(" "), dtype=float)


def boe_rows(table: EmbeddingTable,
             token_lists: list[list[str]]) -> np.ndarray:
    """The mean of each token list's vectors (len x d), unknown tokens
    mapped to "<unk>"; an empty token list is a ``ValueError``.

    One CSR holds a 1.0 per token, in token order, in its row's column of
    ``table.vectors``. Its product with ``vectors`` adds each row's vectors
    to +0.0 in token order, and each row is then divided by its length:
    the bits of ``np.mean`` over the row's vectors, which adds them the
    same way when ``vectors`` has more than one column.
    """
    lengths, ids = token_ids(table.token_to_row, token_lists,
                             table.token_to_row["<unk>"])
    if not lengths.all():
        raise ValueError("cannot embed an empty token sequence")
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    ones = sparse.csr_matrix((np.ones(len(ids)), ids, indptr),
                             shape=(len(lengths), len(table.token_to_row)))
    rows = ones @ table.vectors
    rows /= lengths[:, None]  # in place: one len x d array at a time
    return rows

