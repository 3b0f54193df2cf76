"""Dataset construction from the UNESCO syndication export.

Turns the per-site justification paragraphs into sentence-level samples,
each with its sentence label (a criterion id) and its site-level parental
label, and builds the independent short-description (SD) test set. The
parental label is the site's criteria, as a sample and its dataset line
hold them; ``label_rows`` builds the label row only where one is read.
"""

from __future__ import annotations

import csv
import json
import re
import unicodedata
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import is_, itemgetter
from pathlib import Path

import numpy as np

from . import (NUM_CLASSES, NUM_CRITERIA, OTHERS_NOISE, atomic_open,
               gc_paused, input_error, read_json, read_lines)

ROMAN = {
    "i": 1, "ii": 2, "iii": 3, "iv": 4, "v": 5,
    "vi": 6, "vii": 7, "viii": 8, "ix": 9, "x": 10,
}

# Official definitions of the ten selection criteria (whc.unesco.org/en/criteria).
# These sentences are appended to the train split, one per criterion.
CRITERION_DEFINITIONS = {
    1: "To represent a masterpiece of human creative genius",
    2: "To exhibit an important interchange of human values, over a span of "
       "time or within a cultural area of the world, on developments in "
       "architecture or technology, monumental arts, town-planning or "
       "landscape design",
    3: "To bear a unique or at least exceptional testimony to a cultural "
       "tradition or to a civilization which is living or which has "
       "disappeared",
    4: "To be an outstanding example of a type of building, architectural or "
       "technological ensemble or landscape which illustrates a significant "
       "stage in human history",
    5: "To be an outstanding example of a traditional human settlement, "
       "land-use, or sea-use which is representative of a culture, or human "
       "interaction with the environment especially when it has become "
       "vulnerable under the impact of irreversible change",
    6: "To be directly or tangibly associated with events or living "
       "traditions, with ideas, or with beliefs, with artistic and literary "
       "works of outstanding universal significance",
    7: "To contain superlative natural phenomena or areas of exceptional "
       "natural beauty and aesthetic importance",
    8: "To be outstanding examples representing major stages of earth's "
       "history, including the record of life, significant on-going "
       "geological processes in the development of landforms, or significant "
       "geomorphic or physiographic features",
    9: "To be outstanding examples representing significant on-going "
       "ecological and biological processes in the evolution and development "
       "of terrestrial, fresh water, coastal and marine ecosystems and "
       "communities of plants and animals",
    10: "To contain the most important and significant natural habitats for "
        "in-situ conservation of biological diversity, including those "
        "containing threatened species of outstanding universal value from "
        "the point of view of science or conservation",
}

MIN_SENT_LEN = 8
MAX_SENT_LEN = 64


@dataclass
class SiteRecord:
    site_id: int
    name: str
    justification: dict[int, str]  # criterion -> paragraph
    short_description: str
    criteria: frozenset[int]


@dataclass
class Sample:
    """One sentence, as its dataset line holds it; ``parental`` is the line's
    ``criteria``, whose row ``label_rows`` builds."""
    tokens: list[str]
    sentence_label: int | None  # criterion 1-10; None for SD samples
    parental: list[int]  # the site's criterion ids
    site_id: int
    # set only by bench/workloads.py's reference_kept; both go when it stops
    one_hot: None = None
    split: str | None = None


def criterion_columns(ids) -> np.ndarray:
    """``ids - 1`` as int64, the label-row column of each criterion id; any
    id but a whole number 1-10 is a ``ValueError`` naming the first one."""
    ids = np.asarray(ids)
    bad = np.flatnonzero((ids < 1) | (ids > NUM_CRITERIA) | (ids % 1 != 0))
    if bad.size:
        raise ValueError(f"criterion id out of range: {ids[bad[0]]}")
    return ids.astype(np.int64) - 1


def label_rows(criteria: list[list[int]]) -> np.ndarray:
    """One float64 row of ``NUM_CLASSES`` per list of ``criteria``: 1 in
    the ``criterion_columns`` of its criteria, ``OTHERS_NOISE`` in the last
    ("Others") column and 0 elsewhere."""
    rows = np.zeros((len(criteria), NUM_CLASSES))
    rows[:, -1] = OTHERS_NOISE
    rows[np.arange(len(criteria)).repeat(list(map(len, criteria))),
         criterion_columns(list(chain.from_iterable(criteria)))] = 1.0
    return rows


def make_samples(tokens, labels, criteria, site_ids) -> list[Sample]:
    """Samples from the four columns of a dataset line, each ``parental``
    its site's ``criteria``."""
    return list(map(Sample, tokens, labels, criteria, site_ids))


# ---------------------------------------------------------------------------
# Syndication parsing

_COLUMN_ALIASES = {
    "site_id": ("id_no", "id_number", "site_id", "id", "unique_number"),
    "name": ("name_en", "name", "site_name"),
    "justification": ("justification_en", "justification"),
    "short_description": ("short_description_en", "short_description",
                          "short_desc"),
    "criteria": ("criteria_txt", "criteria", "criteria_text"),
}

_CRITERION_HEADER = re.compile(
    r"criterion\s*\(?\s*([ivx]+)\s*\)?\s*[:.]?", re.IGNORECASE)


def _resolve_columns(header: list[str]) -> dict[str | int, str]:
    """The header name of each ``_COLUMN_ALIASES`` field, and of each
    criterion's flag column (C1..C6, N7..N10) if exactly 1-10 are flagged."""
    lowered = {h.lower().strip(): h for h in header}
    resolved: dict[str | int, str] = {}
    for field_name, aliases in _COLUMN_ALIASES.items():
        for alias in aliases:
            if alias in lowered:
                resolved[field_name] = lowered[alias]
                break
    for required in ("site_id", "name", "justification", "short_description"):
        if required not in resolved:
            raise ValueError(
                f"syndication file is missing a column for {required!r}; "
                f"header was {header}")
    flags = {int(m[1]): h for h in header  # a repeated flag: the later
             if (m := re.fullmatch(r"[cn]\s*(\d{1,2})", h.lower().strip()))}
    if set(flags) == set(range(1, NUM_CRITERIA + 1)):
        resolved.update(flags)
    return resolved


def _criteria_from_text(text: str) -> frozenset[int]:
    numerals = re.findall(r"\(([ivx]+)\)", text.lower())
    return frozenset(ROMAN[n] for n in numerals if n in ROMAN)


def _split_justification(text: str) -> dict[int, str]:
    """Split a combined justification field on 'Criterion (x):' markers."""
    pieces = _CRITERION_HEADER.split(text)
    return {ROMAN[numeral.lower()]: body.strip()
            for numeral, body in zip(pieces[1::2], pieces[2::2])
            if numeral.lower() in ROMAN and body.strip()}


def parse_syndication(file_path: str | Path) -> tuple[list[SiteRecord], list[str]]:
    """Parse the syndication CSV into site records.

    Returns the records plus the row-level errors, each naming the line
    its row ends on: a row with more fields than the header, or a site id
    that is empty or not whole. Rows without justification text are kept
    (with an empty justification map) for the SD set's short
    descriptions. A file with no header row or without a required column
    is a ``ValueError`` naming it, as is text ``csv`` cannot read, such as
    a field over its default limit of 131,072 characters, which names the
    line too.
    """
    path = Path(file_path)
    records: list[SiteRecord | None] = []  # None: a row ``_parse_row`` drops
    errors: list[str] = []
    # a short row's missing fields read as ""; a long row's extras, key None
    reader = csv.DictReader(read_lines(path, newline=""), restval="")
    try:
        if reader.fieldnames is None:
            raise ValueError(f"{path} has no header row")
        with input_error(path):
            cols = _resolve_columns(list(reader.fieldnames))
        width = len(reader.fieldnames)
        for row in reader:
            try:
                if None in row:
                    raise ValueError(f"{width + len(row[None])} fields, but "
                                     f"the header has {width}")
                records.append(_parse_row(row, cols))
            except ValueError as exc:
                errors.append(f"line {reader.reader.line_num}: {exc}")
    except csv.Error as exc:
        line = reader.reader.line_num  # ``reader.line_num`` lags a line
        raise ValueError(f"{path}: line {line}: {exc}") from exc
    return [record for record in records if record is not None], errors


def _parse_row(row: dict, cols: dict) -> SiteRecord | None:
    raw_id = row[cols["site_id"]].strip()
    if not raw_id:
        raise ValueError("empty site id")
    try:
        site_id = int(raw_id)  # exact above 2**53 too
    except ValueError:  # such as 12.0 or 1e3
        number = float(raw_id)
        if not number.is_integer():  # nor are inf and nan
            raise ValueError(f"site id {raw_id!r} is not a whole number")
        site_id = int(number)
    name = row[cols["name"]].strip()
    just_text = row[cols["justification"]].strip()
    short_desc = row[cols["short_description"]].strip()

    if 1 in cols:  # the header flags every criterion
        criteria = frozenset(k for k in _CRITERIA if row[cols[k]].strip()
                             .lower() in ("1", "true", "yes", "x"))
    else:
        criteria = _criteria_from_text(row[cols["criteria"]]
                                       if "criteria" in cols else "")

    justification = _split_justification(just_text) if just_text else {}
    if justification and not criteria:
        # fall back to the criteria actually present in the justification
        criteria = frozenset(justification)
    # only keep paragraphs for criteria the site is justified under
    justification = {k: v for k, v in justification.items() if k in criteria}
    if not justification and not short_desc:
        return None
    return SiteRecord(site_id=site_id, name=name, justification=justification,
                      short_description=short_desc, criteria=criteria)


# ---------------------------------------------------------------------------
# Sentence splitting and token preprocessing

# Trailing-period tokens that do not end a sentence.
ABBREVIATIONS = {
    "st.", "mt.", "no.", "nos.", "approx.", "ca.", "c.", "cf.", "e.g.",
    "i.e.", "etc.", "vs.", "dr.", "mr.", "mrs.", "ms.", "prof.", "jr.",
    "sr.", "vol.", "fig.", "km.", "m.", "ft.", "sq.",
}

# '.', '!' or '?' before whitespace (group 1: the next character) or the end
_BOUNDARY = re.compile(r"[.!?](?=\s+(\S)|\Z)")
# the characters before a boundary that its abbreviation test reads: a
# shorter last word lies in them whole, after whitespace or at the sentence's
# start, and a longer one fills them and matches no entry, since
# ``str.lower`` never shortens a string
_WIDTH = max(map(len, ABBREVIATIONS)) + 1


def split_sentences(paragraph: str) -> list[str]:
    """Rule-based sentence splitter.

    Splits after '.', '!' or '?' when followed by whitespace and an
    uppercase letter (or end of text), unless the preceding word is a
    known abbreviation.
    """
    text = paragraph.strip()
    sentences = []
    start = 0
    for m in _BOUNDARY.finditer(text):
        if m[1] is not None and not m[1].isupper():
            continue
        end = m.end()
        lo = end - _WIDTH  # a conditional, not max(), which costs a call
        last_word = text[lo if lo > start else start:end].rsplit(None, 1)[-1]
        if last_word.lower() in ABBREVIATIONS:
            continue
        candidate = text[start:end].strip()
        if candidate:
            sentences.append(candidate)
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# Each pattern begins with the character it consumes (any lookbehind comes
# after it), so ``re`` skips to candidates instead of trying every position.
# a digit run, with at most one inner '.' or ','
_DIGIT_RUN = re.compile(r"\d+(?:[.,]\d+)?")
# punctuation to pad with spaces, but a '.' or ',' between two characters of
# the class {0} is a decimal or thousands separator and stays
_PAD = "[.,;:!?()\"'](?:(?<![{0}][.,])|(?![{0}]))"
# combining marks and non-decimal digits are all outside ASCII; the group
# keeps each such character as an item of ``split``'s result
_NON_ASCII = re.compile(r"([^\x00-\x7f])")


def _number(m: re.Match) -> str:
    """A ``_DIGIT_RUN`` match with a space on each letter-like side (not a
    space, '.' or ','; no digit touches a maximal run), as "<num>" when it
    is then a whole token: when no '.' or ',' touches it."""
    text, (start, end) = m.string, m.span()
    sides = (text[start - 1] if start else " ", text[end:end + 1] or " ")
    before, after = ("" if c.isspace() or c in ".," else " " for c in sides)
    run = m[0] if sides[0] in ".," or sides[1] in ".," else "<num>"
    return before + run + after


def _fold_accents(char: str) -> str:
    """``char`` in NFKD form without its combining characters."""
    return "".join(c for c in unicodedata.normalize("NFKD", char)
                   if not unicodedata.combining(c))


def preprocess_many(sentences: list[str]) -> list[list[str]]:
    """Lowercase, fold accents, isolate punctuation, replace numbers; one
    token list per sentence.

    Any maximal digit run (optionally with one internal '.' or ',') becomes
    the literal token "<num>". Stop-words are retained. Each step runs once
    over the sentences joined by newlines (a newline inside a sentence
    becomes a space); no step acts across a newline.

    Accents are folded in one pass that splits the text at its non-ASCII
    characters and puts each one's fold, computed once per distinct
    character, in its place; the text is scanned once, however many
    distinct characters it holds. That equals NFKD over the whole text, then
    dropping every combining character: NFKD decomposes each code point on
    its own, and its canonical reordering (UAX #15) moves only combining
    characters, which are all dropped. Padding punctuation before the digit
    runs gives the tokens of the other order: the digit pass puts no space
    beside a '.' or ',', and either pass splits a digit from other
    punctuation.
    """
    if not sentences:
        return []
    text = "\n".join(s.replace("\n", " ") for s in sentences)
    digits = r"\d"
    if not text.isascii():
        parts = _NON_ASCII.split(text)
        chars = parts[1::2]
        folds = {c: _fold_accents(c) for c in set(chars)}
        parts[1::2] = map(folds.__getitem__, chars)
        text = "".join(parts)
        # the separator rule tests str.isdigit, which holds for more than \d
        digits += re.escape("".join(sorted(
            {c for fold in folds.values() for c in fold
             if c.isdigit() and not c.isdecimal()})))
    text = text.lower()
    # functions, not ``\g<0>`` templates, which ``re`` expands per match
    text = re.sub(_PAD.format(digits), lambda m: f" {m[0]} ", text)
    text = _DIGIT_RUN.sub(_number, text)
    return [line.split() for line in text.split("\n")]


def preprocess(sentence: str) -> list[str]:
    """``preprocess_many`` for one sentence."""
    return preprocess_many([sentence])[0]


# ---------------------------------------------------------------------------
# Dataset assembly

@dataclass
class Dataset:
    train: list[Sample] = field(default_factory=list)
    valid: list[Sample] = field(default_factory=list)
    test: list[Sample] = field(default_factory=list)
    sd: list[Sample] = field(default_factory=list)

    def split(self, name: str) -> list[Sample]:
        if name not in ("train", "valid", "test", "sd"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


@gc_paused
def build_dataset(sites: list[SiteRecord], seed: int = 1337) -> Dataset:
    """Build train/valid/test splits from the justification paragraphs.

    Sentences of length 8-64 tokens are kept and partitioned 8:1:1 by a
    seeded shuffle; the ten criterion definition sentences are then
    appended to the train split. Equal tokens of the three splits are one
    string (``_share_tokens``).
    """
    found = [(site, criterion, sentence) for site in sites
             for criterion, paragraph in sorted(site.justification.items())
             for sentence in split_sentences(paragraph)]
    defined = sorted(CRITERION_DEFINITIONS)
    token_lists = preprocess_many([sentence for *_, sentence in found]
                                  + [CRITERION_DEFINITIONS[c] for c in defined])
    pool: dict[str, str] = {}
    kept = [(_share_tokens(tokens, pool), criterion, sorted(site.criteria),
             site.site_id)
            for (site, criterion, _), tokens in zip(found, token_lists)
            if MIN_SENT_LEN <= len(tokens) <= MAX_SENT_LEN]
    n = len(kept)
    kept = [kept[i] for i in np.random.default_rng(seed).permutation(n)]
    n_held = n // 10  # the size of valid and of test
    if not n_held:  # train always holds the definitions
        raise ValueError(f"split 'valid' is empty: {n} sentences were kept "
                         "and valid and test each take a tenth")
    n_train = n - 2 * n_held
    # a definition sentence is labelled as the one-criterion site 0
    kept += [(_share_tokens(tokens, pool), criterion, [criterion], 0)
             for criterion, tokens in zip(defined, token_lists[len(found):])]
    samples = make_samples(*zip(*kept))
    return Dataset(train=samples[:n_train] + samples[n:],
                   valid=samples[n_train:n - n_held],
                   test=samples[n - n_held:n])


@gc_paused
def build_sd_set(sites: list[SiteRecord]) -> list[Sample]:
    """Build the independent short-description test set.

    SD samples carry only the parental label; no sentence-length filter
    is applied beyond dropping empty sentences. Equal tokens of the set are
    one string (``_share_tokens``).
    """
    found = [(site, sentence) for site in sites
             if site.short_description and site.criteria
             for sentence in split_sentences(site.short_description)]
    token_lists = preprocess_many([sentence for _, sentence in found])
    pool: dict[str, str] = {}
    kept = [(_share_tokens(tokens, pool), None, sorted(site.criteria),
             site.site_id)
            for (site, _), tokens in zip(found, token_lists) if tokens]
    return make_samples(*zip(*kept)) if kept else []


# ---------------------------------------------------------------------------
# JSON-lines persistence

# one encoder for every line: ``json.dumps`` with an option builds one per call
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode


def sample_lines(samples: list[Sample]) -> Iterator[str]:
    """The dataset line of each of ``samples``, encoded as it is drawn; its
    ``criteria`` are the sample's ``parental``."""
    return (_ENCODE({"tokens": sample.tokens,
                     "sentence_label": sample.sentence_label,
                     "criteria": sample.parental, "site_id": sample.site_id})
            for sample in samples)


def write_samples(samples: list[Sample], path: str | Path) -> None:
    """Write ``sample_lines(samples)`` to ``path``."""
    with atomic_open(path) as fh:
        for line in sample_lines(samples):
            fh.write(line + "\n")


def read_samples(path: str | Path, split: str) -> list[Sample]:
    """Read a file written by ``write_samples``, each sample's ``parental``
    its line's ``criteria``; ``split`` sets only the label rule
    below. Equal tokens of the file are read as one string. Any other file
    is a ``ValueError`` naming it: a line that is not JSON or lacks a
    sample key; tokens that are not a non-empty list of strings, or a token
    that is empty or holds whitespace (tokens are as ``str.split`` gives a
    sentence's, and the features count on it); a ``sentence_label`` that is
    not an integer 1-10, or null in ``sd``; ``criteria`` that are not a
    list of integers 1-10; or a ``site_id`` that is not an integer. Each
    value check runs once over the file's column of that key and names the
    first bad line. A ``split`` key, which lines of the previous form held,
    is ignored. A file whose first line holds ``parental``, as a line of the
    earlier form did, says to rebuild the dataset with ``ouvclf ingest``."""
    records, shared, line_nos, pool = [], [], [], {}
    for line_no, line in enumerate(read_lines(path), start=1):
        if line.strip():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc.msg}") from exc
            shared.append(_share_line(records[-1], pool))
            line_nos.append(line_no)
    if records and isinstance(records[0], dict) and "parental" in records[0]:
        raise ValueError(f"{path}: not a dataset file of this version (line "
                         f"{line_nos[0]} holds 'parental'); rebuild it with "
                         "`ouvclf ingest`")
    with input_error(path, "not a dataset file ({})"):
        criteria, labels, site_ids, tokens = (
            list(map(itemgetter(key), records)) for key in _SAMPLE_KEYS)
        del records  # the line dicts: their values are in the columns
        _refuse(line_nos, "tokens", tokens, shared, "a list of strings")
        if not min(map(len, tokens), default=1):
            _refuse(line_nos, "tokens", tokens, list(map(len, tokens)),
                    "a non-empty list of strings")
        if "" in pool:
            i = next(i for i, t in enumerate(tokens) if "" in t)
            raise ValueError(f"line {line_nos[i]}: token '' is empty")
        text = "".join(chain.from_iterable(tokens))
        if text and text.split() != [text]:
            i, spaced = next((i, token) for i, t in enumerate(tokens)
                             for token in t if token.split() != [token])
            raise ValueError(f"line {line_nos[i]}: token {spaced!r} holds "
                             "whitespace")
        nullable = split == "sd"  # only an SD sentence has no label
        ok = _typed(labels, type(None)) & nullable
        is_int = _typed(labels, int)
        ok[is_int] = np.fromiter(map(_CRITERIA.__contains__,
                                     compress(labels, is_int)), bool)
        _refuse(line_nos, "sentence_label", labels, ok,
                f"an integer 1-{NUM_CRITERIA}" + " or null" * nullable)
        if not (set(map(type, criteria)) <= {list}
                and _criteria_ok(list(chain.from_iterable(criteria)))):
            _refuse(line_nos, "criteria", criteria,
                    list(map(_criteria_ok, criteria)),
                    f"a list of integers 1-{NUM_CRITERIA}")
        _refuse(line_nos, "site_id", site_ids, _typed(site_ids, int),
                "an integer")
    return make_samples(tokens, labels, criteria, site_ids)


def _share_tokens(tokens: list[str], pool: dict[str, str]) -> list[str]:
    """``tokens`` as ``pool``'s equal strings, adding those it lacks: with
    one pool per built or read split, its equal tokens are one string, and
    a list's own copies are freed once it is shared."""
    return list(map(pool.setdefault, tokens, tokens))


def _share_line(record, pool: dict[str, str]) -> bool:
    """Whether the ``tokens`` of the decoded line ``record`` are a list of
    strings; if so, they are shared through ``pool`` (``_share_tokens``) as
    the line is read. Anything else is left as decoded, so the column check
    names the line with its own values: a pool that also took numbers would
    give ``[1, True]`` back as ``[1, 1]``."""
    tokens = record.get("tokens") if type(record) is dict else None
    if type(tokens) is not list:
        return False
    try:
        "".join(tokens)
    except TypeError:
        return False
    record["tokens"] = _share_tokens(tokens, pool)
    return True


# the keys of a dataset line, in the order ``read_samples`` reads them
_SAMPLE_KEYS = ("criteria", "sentence_label", "site_id", "tokens")
_CRITERIA = frozenset(range(1, NUM_CRITERIA + 1))


def _criteria_ok(criteria) -> bool:
    """Whether the JSON value ``criteria`` is a list of integers 1-10."""
    return (type(criteria) is list and set(map(type, criteria)) <= {int}
            and set(criteria) <= _CRITERIA)


def _typed(values: list, kind: type) -> np.ndarray:
    """Whether each of ``values`` is of type ``kind`` exactly (a bool is no
    int), as one bool array."""
    return np.fromiter(map(is_, map(type, values), repeat(kind)),
                       bool, len(values))


def _refuse(line_nos: list[int], key: str, values: list, ok,
            rule: str) -> None:
    """Raise a ``ValueError`` naming the first line whose entry of ``ok``,
    one bool per line, is false, and its ``key`` value, which is not
    ``rule``."""
    ok = np.asarray(ok, dtype=bool)
    if not ok.all():
        i = int(ok.argmin())
        raise ValueError(f"line {line_nos[i]}: {key} {values[i]!r} is not "
                         f"{rule}")


@gc_paused
def write_dataset(dataset: Dataset, out_dir: str | Path) -> None:
    for name in ("train", "valid", "test", "sd"):
        write_samples(dataset.split(name), Path(out_dir, f"{name}.jsonl"))


@gc_paused
def read_dataset(in_dir: str | Path) -> Dataset:
    """The splits written by ``write_dataset`` (a missing split file is an
    empty split), each read by ``read_samples`` as the split its file
    names. A directory that does not exist is a ``FileNotFoundError``
    naming it. An empty string, as a config without ``dataset_dir`` or
    ``--dataset ""`` gives, is a ``ValueError``, not the current
    directory."""
    if in_dir == "":
        raise ValueError(
            "no dataset directory given (empty 'dataset_dir' or --dataset)")
    src = Path(in_dir)
    if not src.is_dir():
        raise FileNotFoundError(f"{src}: no such dataset directory")
    dataset = Dataset()
    for name in ("train", "valid", "test", "sd"):
        path = src / f"{name}.jsonl"
        if path.exists():
            dataset.split(name).extend(read_samples(path, name))
    return dataset


def write_sites(sites: list[SiteRecord], path: str | Path) -> None:
    """Persist the site-level criteria sets (input to the prior)."""
    payload = [{"site_id": s.site_id, "name": s.name,
                "criteria": sorted(s.criteria)} for s in sites]
    with atomic_open(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=1)


def read_sites(path: str | Path) -> list[SiteRecord]:
    """Read a file written by ``write_sites``; an entry without
    ``site_id`` or ``criteria`` is a ``ValueError`` naming the file and
    the key, one that is not an object a ``ValueError`` naming the file,
    and one whose ``criteria`` is not a list of integers 1-10 a
    ``ValueError`` naming the file and the ``site_id``."""
    payload = read_json(path)
    with input_error(path, "not a sites file ({})"):
        entries = [(p["site_id"], p.get("name", ""), p["criteria"])
                   for p in payload]
        for site_id, _, criteria in entries:
            if not _criteria_ok(criteria):
                raise ValueError(f"site {site_id!r}: criteria {criteria!r} "
                                 f"is not a list of integers 1-{NUM_CRITERIA}")
    return [SiteRecord(site_id=site_id, name=name, justification={},
                       short_description="", criteria=frozenset(criteria))
            for site_id, name, criteria in entries]
