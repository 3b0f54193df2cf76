"""Seeded synthetic inputs for the benchmark.

Writes what a user of the pipeline would hand it: a UNESCO-style
syndication CSV, raw SD-style text lines to mine, and (optionally) a
300-d text embedding file. Nothing here imports the program.

Tokens are Zipfian over a fixed pseudo-word lexicon. Each criterion owns
a band of the lexicon that its sentences draw from more often ("class
tilt"); sentences also borrow words from the bands of the site's other
criteria, so co-justified criteria are confusable and the co-occurrence
prior carries signal. Sites pick criteria in realistic clusters (cultural
i-vi, natural vii-x, a few mixed), so the prior is far from uniform.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

NUM_CRITERIA = 10
ROMAN = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x")

# At scale 1 the ingest yields about the paper's split sizes
# (4,524 / 563 / 564 train/valid/test and 9,361 SD sentences).
PAPER_JUSTIFICATION_SENTENCES = 5641
PAPER_SD_SENTENCES = 9361
LEXICON_SIZE = 9000
BAND_SIZE = 160
EMBEDDING_DIM = 300

# Share of a sentence's tokens drawn from its own criterion's band and
# from the bands of the site's other criteria. Tuned so one training
# epoch reaches clearly-above-chance but unsaturated test top-1.
OWN_BAND_SHARE = 0.25
SIBLING_BAND_SHARE = 0.05

# Relative frequency of each criterion on real sites (iv most common).
CRITERION_WEIGHTS = np.array([0.16, 0.32, 0.43, 0.55, 0.12, 0.2,
                              0.1, 0.08, 0.1, 0.14])
_SYLLABLES = ("ka", "lo", "mi", "ter", "an", "so", "ru", "vel", "din", "po",
              "sha", "ne", "gor", "it", "ul", "bre", "fa", "zon", "qui", "el",
              "mar", "tos", "vi", "cen", "hu", "dra", "lum", "pe", "ost", "ga")
_ACCENTED = ("é", "è", "ü", "ñ", "ô", "á", "ç", "ø")
_PUNCT_INSERTS = (",", ",", ",", ";", ":")


def lexicon(size: int = LEXICON_SIZE) -> list[str]:
    """A fixed pseudo-word lexicon (independent of the workload seed), so
    vocabulary size barely moves between seeds."""
    rng = np.random.default_rng(20210412)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(2, 5))
        word = "".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), n))
        if rng.random() < 0.04:
            pos = int(rng.integers(0, len(word)))
            word = word[:pos] + _ACCENTED[int(rng.integers(0, len(_ACCENTED)))] + word[pos + 1:]
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Sampler:
    def __init__(self, rng: np.random.Generator, words: list[str]):
        self.rng = rng
        self.words = np.array(words, dtype=object)
        p = 1.0 / (np.arange(len(words)) + 2.7)
        self.global_cdf = np.cumsum(p / p.sum())
        # Bands sit in the mid-frequency range, interleaved across classes.
        start = 200
        self.bands = np.stack([np.arange(start + c, start + c + NUM_CRITERIA * BAND_SIZE,
                                         NUM_CRITERIA) for c in range(NUM_CRITERIA)])
        bp = 1.0 / (np.arange(BAND_SIZE) + 3.0)
        self.band_cdf = np.cumsum(bp / bp.sum())

    def criteria(self) -> list[int]:
        rng = self.rng
        kind = rng.random()
        if kind < 0.75:
            pool = np.arange(0, 6)
        elif kind < 0.96:
            pool = np.arange(6, 10)
        else:
            pool = np.arange(0, 10)
        w = CRITERION_WEIGHTS[pool] / CRITERION_WEIGHTS[pool].sum()
        n = min(len(pool), 1 + int(rng.poisson(1.3)))
        chosen = rng.choice(pool, size=n, replace=False, p=w)
        return sorted(int(c) + 1 for c in chosen)

    def sentence(self, criterion: int, siblings: list[int],
                 short: bool = False) -> str:
        """One sentence. Unless ``short``, its 8-46 words always survive the
        8-64 token filter of ``build_dataset``, so split sizes are exact; a
        short one (2-4 bare words) never does."""
        rng = self.rng
        if short:
            length = int(rng.integers(2, 5))
        else:
            length = int(np.clip(round(rng.normal(22, 8)), 8, 46))
        u = rng.random((4, length))
        idx = np.minimum(np.searchsorted(self.global_cdf, u[0]),
                         len(self.words) - 1)
        band_pos = np.minimum(np.searchsorted(self.band_cdf, u[1]), BAND_SIZE - 1)
        own = u[2] < OWN_BAND_SHARE
        idx[own] = self.bands[criterion - 1][band_pos[own]]
        if siblings:
            sib = (~own) & (u[2] < OWN_BAND_SHARE + SIBLING_BAND_SHARE)
            which = np.asarray(siblings)[(u[3][sib] * len(siblings)).astype(int)]
            idx[sib] = self.bands[which - 1, band_pos[sib]]
        toks = list(self.words[idx])
        if short:
            toks[0] = toks[0].capitalize()
        else:
            self._decorate(toks)
        return " ".join(toks) + "."

    def _decorate(self, toks: list[str]) -> None:
        """Capitals, numbers and punctuation, so preprocess does real work."""
        rng = self.rng
        toks[0] = toks[0].capitalize()
        r = rng.random(len(toks))
        for i in np.flatnonzero(r[1:] < 0.06) + 1:
            if r[i] < 0.03:
                toks[i] = toks[i].capitalize()
            elif r[i] < 0.045:
                toks[i] = str(int(rng.integers(1, 2000)))
            elif r[i] < 0.05:
                toks[i] = f"{int(rng.integers(1, 20))}th"
            elif r[i] < 0.055:
                toks[i] = f"{int(rng.integers(1, 99))}.{int(rng.integers(0, 9))}"
            else:
                toks[i] = f"({toks[i]})"
        for _ in range(int(rng.integers(0, 3))):
            i = int(rng.integers(1, len(toks)))
            toks[i] = toks[i] + _PUNCT_INSERTS[int(rng.integers(0, len(_PUNCT_INSERTS)))]


def split_sizes(scale: float) -> dict[str, int]:
    """Exact sentence counts the ingest of a ``scale`` corpus yields."""
    pool = max(30, round(PAPER_JUSTIFICATION_SENTENCES * scale))
    return {"train": pool - 2 * (pool // 10) + NUM_CRITERIA,
            "valid": pool // 10, "test": pool // 10,
            "sd": max(10, round(PAPER_SD_SENTENCES * scale))}


def generate(out_dir: str | Path, seed: int, scale: float = 1.0,
             mine_lines: int = 0, embeddings: bool = False) -> dict[str, str]:
    """Write the synthetic inputs for one workload seed into ``out_dir``.

    Returns the paths written: ``csv``, ``mine_txt`` when ``mine_lines`` is
    positive, ``embeddings`` when requested.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    words = lexicon()
    rng = np.random.default_rng(seed)
    sampler = _Sampler(rng, words)
    sizes = split_sizes(scale)
    pool_left = sizes["train"] - NUM_CRITERIA + sizes["valid"] + sizes["test"]
    sites = []
    while pool_left > 0:
        crits = sampler.criteria()
        paragraphs = []
        for c in crits:
            n_sent = min(pool_left, 1 + int(rng.poisson(1.25)))
            if n_sent == 0:
                break
            pool_left -= n_sent
            others = [o for o in crits if o != c]
            sents = [sampler.sentence(c, others) for _ in range(n_sent)]
            if rng.random() < 0.05:  # dropped by the length filter
                sents.insert(int(rng.integers(0, n_sent + 1)),
                             sampler.sentence(c, others, short=True))
            paragraphs.append(f"Criterion ({ROMAN[c - 1]}): " + " ".join(sents))
        sites.append((crits, paragraphs))
    sd_counts = rng.multinomial(sizes["sd"], np.full(len(sites), 1 / len(sites)))
    paths = {"csv": str(out / "syndication.csv")}
    with open(paths["csv"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_no", "name_en", "justification_en",
                         "short_description_en", "criteria_txt"])
        for site_id, ((crits, paragraphs), n_sd) in enumerate(
                zip(sites, sd_counts), start=1):
            sd = " ".join(sampler.sentence(crits[int(rng.integers(0, len(crits)))],
                                           crits) for _ in range(n_sd))
            writer.writerow([site_id, f"Site {site_id}", " ".join(paragraphs), sd,
                             "".join(f"({ROMAN[c - 1]})" for c in crits)])
    if mine_lines > 0:
        paths["mine_txt"] = str(out / "mine.txt")
        with open(paths["mine_txt"], "w", encoding="utf-8") as fh:
            for _ in range(mine_lines):
                crits = sampler.criteria()
                c = crits[int(rng.integers(0, len(crits)))]
                fh.write(sampler.sentence(c, crits) + "\n")
    if embeddings:
        paths["embeddings"] = str(out / "vectors.txt")
        write_embeddings(paths["embeddings"], words, sampler.bands, rng)
    return paths


def write_embeddings(path: str, words: list[str], bands: list[np.ndarray],
                     rng: np.random.Generator) -> None:
    """Text-format vectors: noise plus a class direction for band words."""
    # preprocess lowercases and folds accents, so the file holds the folded
    # forms plus the tokens preprocess itself emits.
    import unicodedata
    folded = ["".join(ch for ch in unicodedata.normalize("NFKD", w)
                      if not unicodedata.combining(ch)) for w in words]
    extra = ["<num>", ".", ",", ";", ":", "(", ")", "th"]
    vocab = list(dict.fromkeys(folded + extra))
    index = {w: i for i, w in enumerate(vocab)}
    vecs = rng.normal(0.0, 0.3, size=(len(vocab), EMBEDDING_DIM))
    directions = rng.normal(0.0, 1.0, size=(NUM_CRITERIA, EMBEDDING_DIM))
    for c, band in enumerate(bands):
        for i in band:
            vecs[index[folded[i]]] += 0.12 * directions[c]
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(vocab, np.round(vecs, 5)):
            fh.write(word + " " + " ".join(map(repr, row.tolist())) + "\n")
