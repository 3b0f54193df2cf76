"""Feature extraction: TF-IDF over 1-2 grams and averaged word embeddings."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np
from scipy import sparse

from .corpus import Sample


@dataclass
class TfidfVocabulary:
    gram_to_index: dict[str, int]
    idf: np.ndarray
    min_df: int

    @property
    def size(self) -> int:
        return len(self.gram_to_index)


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
                           idf=idf, min_df=min_df)


def tfidf_rows(vocab: TfidfVocabulary,
               token_lists: list[list[str]]) -> sparse.csr_matrix:
    """TF-IDF rows (len x V sparse), each L2-normalized unless all-zero.

    The grams' column ids (``V`` for a miss) go into one flat buffer; one
    ``np.unique`` over ``row * V + column`` then gives every row's sorted
    columns and counts, and the CSR is built once.
    """
    lookup, n_vocab = vocab.gram_to_index.get, vocab.size
    n_rows = len(token_lists)
    cols, ends = array("q"), array("q")
    for tokens in token_lists:
        cols.extend(map(lookup, _ngrams(tokens), repeat(n_vocab)))
        ends.append(len(cols))
    cols = np.frombuffer(cols, dtype=np.int64)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64),
                     np.diff(np.frombuffer(ends, dtype=np.int64), prepend=0))
    hit = cols != n_vocab
    keys, counts = np.unique(rows[hit] * n_vocab + cols[hit],
                             return_counts=True)
    rows, indices = np.divmod(keys, n_vocab)
    data = counts * vocab.idf.take(indices)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    # per row, the BLAS dot and correctly rounded sqrt of np.linalg.norm
    for start, end in zip(indptr.tolist(), indptr[1:].tolist()):
        if end > start:
            values = data[start:end]
            values /= math.sqrt(values.dot(values))
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(n_rows, n_vocab))


@dataclass
class EmbeddingTable:
    word_to_vector: dict[str, np.ndarray]
    dimension: int


def load_embeddings(file_path: str | Path, frequency_threshold: int,
                    train_vocab: dict[str, int]) -> tuple[EmbeddingTable, list[str]]:
    """Load a text-format embedding file, keeping frequent corpus tokens.

    Tokens whose corpus frequency is below the threshold fall back to
    "<unk>", whose vector is the mean of all kept vectors. Returns the
    table plus a report of unreadable lines.
    """
    vectors: dict[str, np.ndarray] = {}
    errors: list[str] = []
    dimension = None
    with open(file_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                errors.append(f"line {line_no}: too few fields")
                continue
            token = parts[0]
            try:
                vec = np.array(parts[1:], dtype=float)
            except ValueError:
                errors.append(f"line {line_no}: non-numeric value")
                continue
            if dimension is None:
                dimension = len(vec)
            elif len(vec) != dimension:
                raise ValueError(
                    f"line {line_no}: dimension {len(vec)} != {dimension}")
            if train_vocab.get(token, 0) >= frequency_threshold:
                vectors[token] = vec
    if not vectors:
        raise ValueError("no embeddings survived the frequency filter")
    mean_vec = np.mean(list(vectors.values()), axis=0)
    vectors["<unk>"] = mean_vec
    return EmbeddingTable(word_to_vector=vectors, dimension=dimension), errors


def boe_embed(tokens: list[str], table: EmbeddingTable) -> np.ndarray:
    """Mean of the token vectors; unknown tokens map to <unk>."""
    if not tokens:
        raise ValueError("cannot embed an empty token sequence")
    unk = table.word_to_vector["<unk>"]
    return np.mean([table.word_to_vector.get(t, unk) for t in tokens], axis=0)


def token_frequencies(samples: list[Sample]) -> dict[str, int]:
    """Token frequency over the given samples (the full dataset for BoE)."""
    freq: Counter[str] = Counter()
    for sample in samples:
        freq.update(sample.tokens)
    return dict(freq)
