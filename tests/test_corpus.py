import json
import re
import tempfile
import unicodedata
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ouv_classifier import NUM_CLASSES, NUM_CRITERIA, OTHERS_NOISE
from ouv_classifier.corpus import (ABBREVIATIONS, CRITERION_DEFINITIONS,
                                   MAX_SENT_LEN, MIN_SENT_LEN, ROMAN,
                                   Dataset, Sample,
                                   SiteRecord, _CRITERION_HEADER,
                                   _split_justification, build_dataset,
                                   build_sd_set, criterion_columns, label_rows,
                                   make_samples, parse_syndication,
                                   preprocess, preprocess_many, read_dataset,
                                   read_samples, read_sites, sample_lines,
                                   split_sentences, write_dataset,
                                   write_samples, write_sites)

SYNDICATION_HEADER = "id_no,name_en,criteria_txt,justification_en,short_description_en\n"


def write_csv(tmp_path, rows):
    path = tmp_path / "syndication.csv"
    path.write_text(SYNDICATION_HEADER + "".join(rows), encoding="utf-8")
    return path


class TestCriterionColumns:
    def test_criterion_k_is_column_k_minus_one(self):
        ids = list(range(1, NUM_CRITERIA + 1))
        got = criterion_columns(ids)
        assert got.dtype == np.int64
        assert got.tolist() == list(range(NUM_CRITERIA))

    @pytest.mark.parametrize("ids, bad", [([3, 11, 0], "11"),
                                          ([3.0, 2.5, 0.0], "2.5"),
                                          ([1.0, np.nan], "nan")])
    def test_the_first_id_outside_one_to_ten_is_named(self, ids, bad):
        """A float id that is not whole is not truncated to a criterion."""
        with pytest.raises(ValueError, match=f"out of range: {bad}$"):
            criterion_columns(np.array(ids))

    @pytest.mark.parametrize("bad", [0, NUM_CLASSES])
    def test_label_rows_refuses_a_criterion_outside_one_to_ten(self, bad):
        """Criterion 0 is not the Others column (index -1), and 11 is no
        criterion."""
        with pytest.raises(ValueError, match=f"out of range: {bad}$"):
            label_rows([[2], [bad, 3]])

    def test_label_rows_of_no_sets(self):
        assert label_rows([]).shape == (0, NUM_CLASSES)


def loop_split_sentences(paragraph):
    """The splitter as a loop over every terminator, testing what follows
    each one by hand: the rule that ``split_sentences``' one lookahead
    pattern replaced, kept as the reference it must equal."""
    text = paragraph.strip()
    if not text:
        return []
    sentences = []
    start = 0
    for m in re.finditer(r"[.!?]", text):
        end = m.end()
        if end < len(text):
            rest = text[end:]
            if not (rest[0].isspace() and rest.lstrip()[0].isupper()):
                continue
        last_word = text[:end].rsplit(None, 1)[-1].lower()
        if last_word in ABBREVIATIONS:
            continue
        candidate = text[start:end].strip()
        if candidate:
            sentences.append(candidate)
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# paragraphs of terminators, abbreviations, spaces that str.split and
# str.strip treat as whitespace (an ASCII separator, NEL, NBSP, an em
# space, and runs of two), a titlecase digraph that is not isupper, a
# capital whose lowercase is two characters (İ), the Kelvin sign, whose
# lowercase is ASCII k, and short runs of any text
PARAGRAPHS = st.lists(st.sampled_from([
    ".", "!", "?", "St.", "e.g.", "No.", "\x1c", "\x85", "\xa0", "\u2003",
    " \n", "ǅ", "İ", "\u212a", " ", "\n", "a", "B"])
    | st.text(max_size=3)).map("".join)


class TestSplitSentences:
    @settings(deadline=None, max_examples=500)
    @given(PARAGRAPHS)
    def test_equals_the_loop_over_every_terminator(self, paragraph):
        assert split_sentences(paragraph) == loop_split_sentences(paragraph)

    def test_a_long_abbreviation_chain_equals_the_loop(self):
        """Each rejected candidate reads only the characters its last word
        can be in, not the whole sentence, so a chain of abbreviations
        splits in linear time; the loop's copies make it quadratic."""
        for chain in ("St. Mary ", "St. ", "Mr. e.g. Approx. "):
            paragraph = chain * 3000 + "End. Next one."
            assert split_sentences(paragraph) == \
                loop_split_sentences(paragraph)

    def test_one_split_per_terminator(self):
        assert split_sentences("A. B? C!") == ["A.", "B?", "C!"]

    def test_abbreviation_does_not_split(self):
        got = split_sentences("It cost approx. 5 units. Done.")
        assert got == ["It cost approx. 5 units.", "Done."]

    def test_empty_input(self):
        assert split_sentences("   ") == []

    def test_no_terminator_yields_one_sentence(self):
        assert split_sentences("no terminator here") == ["no terminator here"]

    def test_lowercase_continuation_does_not_split(self):
        got = split_sentences("Built in 1850 a.d. by masons. The end.")
        assert got == ["Built in 1850 a.d. by masons.", "The end."]

    # golden outputs of the rule set on a small fixture corpus
    GOLDEN = [
        ("One. Two. Three.", ["One.", "Two.", "Three."]),
        ("The site of St. Mary is old. It stands.",
         ["The site of St. Mary is old.", "It stands."]),
        ("Is it real? Yes! Certainly.",
         ["Is it real?", "Yes!", "Certainly."]),
        ("Trailing space after end. ", ["Trailing space after end."]),
        ("No. 5 was inscribed. Later came no. 6.",
         ["No. 5 was inscribed.", "Later came no. 6."]),
    ]

    @pytest.mark.parametrize("text,expected", GOLDEN)
    def test_golden(self, text, expected):
        assert split_sentences(text) == expected

    def test_non_whitespace_content_preserved(self):
        text = "First part. Second part! Third?"
        joined = "".join(split_sentences(text)).replace(" ", "")
        assert joined == text.replace(" ", "")


# The per-sentence rule that ``preprocess_many`` replaced, kept as the
# reference it must equal.
_PUNCT = ".,;:!?()\"'"
_NUM_TOKEN = re.compile(r"\d+([.,]\d+)?")
_DIGIT_LETTER = re.compile(r"(?<=\d)(?=[^\d\s.,])|(?<=[^\d\s.,])(?=\d)")


def _pad_punctuation(text):
    # '.' or ',' flanked by digits is a decimal/thousands separator and stays
    out = []
    for i, ch in enumerate(text):
        if ch in _PUNCT:
            prev_digit = i > 0 and text[i - 1].isdigit()
            next_digit = i + 1 < len(text) and text[i + 1].isdigit()
            if ch in ".," and prev_digit and next_digit:
                out.append(ch)  # decimal / thousands separator
            else:
                out.append(f" {ch} ")
        else:
            out.append(ch)
    return "".join(out)


def strip_accents(text):
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def per_line_preprocess(sentence):
    text = strip_accents(sentence).lower()
    text = _DIGIT_LETTER.sub(" ", text)  # "16th" -> "16 th"
    text = _pad_punctuation(text)
    tokens = []
    for tok in text.split():
        if _NUM_TOKEN.fullmatch(tok):
            tokens.append("<num>")
        else:
            tokens.append(tok)
    return tokens


# line breaks, spaces, marks, case and digit forms that each step treats
# apart: NBSP, a combining acute, final sigma, a ligature, a superscript,
# circled and dingbat digits (str.isdigit, not \d), Kharoshthi and
# Arabic-Indic digits
TRICKY = st.text(alphabet="\n\r\x85 \xa0\u0301Σσﬁ²①❶𐩀٣aZé9.,;(')x")
# a second alphabet: spacing marks whose fold is a space (a diaeresis, an
# acute), the combining ypogegrammeni, a capital whose lowercase takes a
# combining dot (İ), a titlecase digraph, a parenthesized digit, an ASCII
# separator that str.split treats as whitespace, the ideographic space, a
# letter whose fold is not ASCII (ά); some lines open with a lone combining
# mark, and some hold Σ before punctuation
TRICKY_2 = st.text(alphabet="¨´\u0345İǅ⑴\x1c\u3000\u0301Σσά.,;'a1 \n")
TRICKY_2_LINES = st.one_of(
    TRICKY_2, TRICKY_2.map(lambda s: "\u0301" + s),
    st.tuples(TRICKY_2, st.sampled_from(".,;'()"), TRICKY_2).map(
        lambda t: f"{t[0]}Σ{t[1]}{t[2]}"))


class TestPreprocessMany:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.text()))
    def test_equals_per_line_rule_on_any_text(self, lines):
        assert preprocess_many(lines) == [per_line_preprocess(s)
                                          for s in lines]

    @settings(deadline=None, max_examples=500)
    @given(st.lists(TRICKY))
    def test_equals_per_line_rule_on_tricky_characters(self, lines):
        assert preprocess_many(lines) == [per_line_preprocess(s)
                                          for s in lines]

    @settings(deadline=None, max_examples=500)
    @given(st.lists(TRICKY_2_LINES))
    def test_equals_per_line_rule_on_a_second_alphabet(self, lines):
        assert preprocess_many(lines) == [per_line_preprocess(s)
                                          for s in lines]

    def test_empty_inputs(self):
        assert preprocess_many([]) == []
        assert preprocess_many([""]) == [[]]

    def test_preprocess_is_one_line(self):
        lines = ["Ärea 3.5 km²\nof 1,200 ha.", "ΟΔΟΣ ❶.5", "x9y 16th"]
        assert preprocess_many(lines) == [preprocess(s) for s in lines]


class TestPreprocess:
    def test_paper_sample(self):
        got = preprocess("The Counter Reformation of the late 16 th century")
        assert got == ["the", "counter", "reformation", "of", "the", "late",
                       "<num>", "th", "century"]

    def test_accent_fold_and_number(self):
        assert preprocess("Château 3") == ["chateau", "<num>"]

    GOLDEN = [
        ("Ürümqi's old town", ["urumqi", "'", "s", "old", "town"]),
        ("built in 1850, restored 1901",
         ["built", "in", "<num>", ",", "restored", "<num>"]),
        ("an area of 3.5 km", ["an", "area", "of", "<num>", "km"]),
        ("the 16th century", ["the", "<num>", "th", "century"]),
        ("São Tomé and Príncipe", ["sao", "tome", "and", "principe"]),
        ("A UNESCO site (inscribed 1980).",
         ["a", "unesco", "site", "(", "inscribed", "<num>", ")", "."]),
        ("covers 1,200 hectares", ["covers", "<num>", "hectares"]),
        ("façade; naïve décor", ["facade", ";", "naive", "decor"]),
        ("a1b2c", ["a", "<num>", "b", "<num>", "c"]),
        ("(1980)", ["(", "<num>", ")"]),
        ("x9y", ["x", "<num>", "y"]),
        ("3.5km", ["<num>", "km"]),
        # ① folds to 1, so the ',' is a separator between two digits
        ("①,2", ["<num>"]),
        # the edges of the digit rule: a run holds at most one separator,
        # and a token with more is left as it is
        ("1.2.3", ["1.2.3"]),
        ("12,345.67", ["12,345.67"]),
        ("x1.5y", ["x", "<num>", "y"]),
        ("a1b2", ["a", "<num>", "b", "<num>"]),
        # Arabic-Indic digits are decimal digits (\d)
        ("٣.٥", ["<num>"]),
        # a Kharoshthi digit is str.isdigit but not \d: it keeps the '.'
        # a separator, but is no digit of the run
        ("𐩀.5x", ["𐩀.5", "x"]),
        ("5.", ["<num>", "."]),
    ]

    @pytest.mark.parametrize("text,expected", GOLDEN)
    def test_golden(self, text, expected):
        assert preprocess(text) == expected

    def test_idempotent(self):
        sentences = [
            "The Château was built in 1850, around 3.5 km of walls.",
            "São Paulo's 16th century façade (restored).",
        ]
        for s in sentences:
            once = preprocess(s)
            assert preprocess(" ".join(once)) == once

    def test_no_uppercase_or_stray_digits(self):
        tokens = preprocess("ABC 123 Déjà 4.5 X9Y")
        for tok in tokens:
            assert tok == tok.lower()
            if tok != "<num>":
                assert not any(ch.isdigit() for ch in tok)


class TestParseSyndication:
    def test_criteria_from_text(self, tmp_path):
        path = write_csv(tmp_path, [
            '394,"Venice and its Lagoon","(i)(ii)(iii)(iv)(v)(vi)",'
            '"Criterion (i): Art. Criterion (ii): Influence.","A lagoon city."\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == []
        assert len(sites) == 1
        assert sites[0].criteria == frozenset({1, 2, 3, 4, 5, 6})
        assert set(sites[0].justification) == {1, 2}

    def test_row_without_justification_usable_for_sd(self, tmp_path):
        path = write_csv(tmp_path, [
            '10,"Some Site","(vii)","","A short description only."\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == []
        assert sites[0].justification == {}
        assert sites[0].short_description
        assert build_sd_set(sites)  # usable only by the SD builder

    def test_three_handcrafted_rows(self, tmp_path):
        path = write_csv(tmp_path, [
            '1,"Alpha","(ii)(iv)","Criterion (ii): Interchange of values '
            'over time. Criterion (iv): Outstanding typology example.","Alpha desc."\n',
            '2,"Beta","(vii)","Criterion (vii): Natural beauty of the peaks.","Beta desc."\n',
            '3,"Gamma","(ix)(x)","Criterion (ix): Ecology. Criterion (x): Habitats.",""\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == []
        expected = [frozenset({2, 4}), frozenset({7}), frozenset({9, 10})]
        assert [s.criteria for s in sites] == expected
        assert [s.site_id for s in sites] == [1, 2, 3]

    def test_malformed_row_collected(self, tmp_path):
        path = write_csv(tmp_path, [
            ',"No id","(i)","Criterion (i): text.","desc"\n',
            '2,"Ok","(i)","Criterion (i): fine text here.","desc"\n',
        ])
        sites, errors = parse_syndication(path)
        assert len(sites) == 1
        assert len(errors) == 1
        assert "line 2" in errors[0]

    def test_missing_column_is_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id_no,name_en\n1,x\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            parse_syndication(path)
        assert str(excinfo.value).startswith(
            f"{path}: syndication file is missing a column for "
            "'justification'")

    def test_file_without_header_is_fatal(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="has no header row"):
            parse_syndication(path)

    def test_flag_columns_override_criteria_text(self, tmp_path):
        flags = [f"C{k}" for k in range(1, 7)] + [f"N{k}" for k in
                                                  range(7, 11)]
        path = tmp_path / "flags.csv"
        path.write_text(
            SYNDICATION_HEADER.rstrip("\n") + "," + ",".join(flags) + "\n"
            + '5,"Flagged","(i)","Criterion (i): Art. Criterion (ii): '
            'Values. Criterion (vii): Beauty.","desc",0,1,,,,,X,,,\n',
            encoding="utf-8")
        sites, errors = parse_syndication(path)
        assert errors == []
        assert sites[0].criteria == frozenset({2, 7})
        assert sites[0].justification == {2: "Values.", 7: "Beauty."}

    def test_incomplete_flag_columns_are_ignored(self, tmp_path):
        path = tmp_path / "flags.csv"
        path.write_text(
            SYNDICATION_HEADER.rstrip("\n") + ",C1,C2\n"
            + '5,"Part","(iv)","Criterion (iv): Type.","desc",1,1\n',
            encoding="utf-8")
        sites, errors = parse_syndication(path)
        assert errors == []
        assert sites[0].criteria == frozenset({4})

    def test_a_repeated_flag_number_reads_the_later_column(self, tmp_path):
        flags = [f"C{k}" for k in range(1, 7)] + [f"N{k}" for k in
                                                  range(7, 11)]
        path = tmp_path / "flags.csv"
        path.write_text(
            SYNDICATION_HEADER.rstrip("\n") + "," + ",".join(flags) + ",c 2\n"
            + '5,"Flagged","","Criterion (ii): Values. Criterion (iii): '
            'Testimony.","desc",,1,,,,,,,,,\n'
            + '6,"Other","","Criterion (ii): Values. Criterion (iii): '
            'Testimony.","desc",,1,,,,,,,,,yes\n', encoding="utf-8")
        sites, errors = parse_syndication(path)
        assert errors == []
        # site 5 flags nothing in the later column, so its criteria come
        # from its justification
        assert [s.criteria for s in sites] == [frozenset({2, 3}),
                                               frozenset({2})]

    def test_a_row_with_extra_fields_is_a_row_error(self, tmp_path):
        path = write_csv(tmp_path, [
            '1,"One","(i)","Criterion (i): Art.","desc","extra",""\n',
            '2,"Two","(ii)","Criterion (ii): Values.","desc"\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == ["line 2: 7 fields, but the header has 5"]
        assert [s.site_id for s in sites] == [2]

    def test_a_short_row_reads_its_missing_fields_as_empty(self, tmp_path):
        path = write_csv(tmp_path, [
            '1,"Short","(iv)","Criterion (iv): Type."\n',
            '2,"Id only"\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == []
        assert len(sites) == 1
        assert sites[0].short_description == ""
        assert sites[0].justification == {4: "Type."}

    @pytest.mark.parametrize("raw_id", ["inf", "-inf", "1e400", "nan", "1.7"])
    def test_a_site_id_that_is_not_whole_is_a_row_error(self, tmp_path,
                                                        raw_id):
        path = write_csv(tmp_path, [
            f'{raw_id},"Bad","(i)","Criterion (i): Art.","desc"\n',
            '12.0,"Twelve","(ii)","Criterion (ii): Values.","desc"\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == [f"line 2: site id {raw_id!r} is not a whole number"]
        assert [s.site_id for s in sites] == [12]
        assert type(sites[0].site_id) is int

    def test_a_row_error_names_the_physical_line(self, tmp_path):
        """A quoted field over two lines, and a blank line, which
        ``DictReader`` skips, do not shift the line a later error names."""
        path = write_csv(tmp_path, [
            '1,"One","(i)","Criterion (i): Art.\nMore art.","desc"\n',
            "\n",
            ',"No id","(ii)","Criterion (ii): Values.","desc"\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == ["line 5: empty site id"]
        assert [s.site_id for s in sites] == [1]

    def test_a_whole_site_id_above_2_53_stays_exact(self, tmp_path):
        path = write_csv(tmp_path, [
            '12345678901234567891,"Big","(i)","Criterion (i): Art.","d"\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == []
        assert [s.site_id for s in sites] == [12345678901234567891]

    def test_unknown_numeral_is_skipped(self, tmp_path):
        path = write_csv(tmp_path, [
            '7,"Eleven","(i)","Criterion (i): Art here. Criterion (xi): '
            'No such criterion.","desc"\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == []
        assert sites[0].justification == {1: "Art here."}

    def test_criteria_taken_from_justification(self, tmp_path):
        path = write_csv(tmp_path, [
            '8,"Untagged","","Criterion (iii): Testimony. Criterion (v): '
            'Settlement.",""\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == []
        assert sites[0].criteria == frozenset({3, 5})
        assert set(sites[0].justification) == {3, 5}

    def test_row_without_justification_or_description_is_dropped(
            self, tmp_path):
        path = write_csv(tmp_path, [
            '9,"Bare","(ii)","",""\n',
            '10,"Kept","(ii)","","A description."\n',
        ])
        sites, errors = parse_syndication(path)
        assert errors == []
        assert [s.site_id for s in sites] == [10]


def indexed_split_justification(text):
    """The reference splitter: each marker's body runs to the next marker,
    walked by index over the matches."""
    parts = {}
    matches = list(_CRITERION_HEADER.finditer(text))
    for i, m in enumerate(matches):
        numeral = m.group(1).lower()
        if numeral not in ROMAN:
            continue
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        body = text[m.end():end].strip()
        if body:
            parts[ROMAN[numeral]] = body
    return parts


# a marker, valid or not: any case, any run of numerals (iiii, vx), with
# or without brackets, spaces and a closing ':' or '.'
MARKERS = st.builds(
    "".join, st.tuples(
        st.sampled_from(["criterion", "Criterion", "CRITERION"]),
        st.sampled_from(["", " ", "  "]), st.sampled_from(["", "(", "( "]),
        st.text(alphabet="ivxIVX", min_size=1, max_size=4),
        st.sampled_from(["", " ", ")", " ) "]),
        st.sampled_from(["", ":", ".", " :"])))
BODIES = st.sampled_from(["", " ", "\n", "Art.", " Values here. ", "(ii)",
                          "criteria", "Criterion"]) | st.text(max_size=4)


class TestSplitJustification:
    @settings(max_examples=300)
    @given(st.lists(MARKERS | BODIES, max_size=8).map("".join))
    def test_equals_the_indexed_reference_in_order(self, text):
        """An unknown numeral or an empty body is skipped, and a repeated
        criterion takes its last body at its first position."""
        assert list(_split_justification(text).items()) == list(
            indexed_split_justification(text).items())

    def test_a_repeated_criterion_keeps_its_first_position(self):
        text = ("Criterion (ii): Old. criterion (iiii): Lost. CRITERION ( vii"
                " ) : Kept. Criterion (ii). New. Criterion (vii):")
        assert list(_split_justification(text).items()) == [
            (2, "New."), (7, "Kept.")]


def long_paragraph(n_sentences, word="alpha"):
    sentence = " ".join([word] * 12).capitalize() + "."
    return " ".join([sentence] * n_sentences)


def make_justified_sites(n_sites=10, sentences_each=10):
    sites = []
    for i in range(1, n_sites + 1):
        k = (i % 10) + 1 if (i % 10) + 1 <= 10 else 1
        sites.append(SiteRecord(
            site_id=i, name=f"s{i}",
            justification={k: long_paragraph(sentences_each, f"word{i}")},
            short_description="", criteria=frozenset({k})))
    return sites


class TestBuildDataset:
    def test_exact_ratio_on_round_numbers(self):
        sites = make_justified_sites(10, 10)
        dataset = build_dataset(sites, seed=0)
        # 100 sentences split 80/10/10, then 10 definition sentences in train
        assert len(dataset.valid) == 10
        assert len(dataset.test) == 10
        assert len(dataset.train) == 80 + 10

    def test_determinism(self):
        sites = make_justified_sites(10, 10)
        a = build_dataset(sites, seed=42)
        b = build_dataset(sites, seed=42)
        for split in ("train", "valid", "test"):
            assert [s.tokens for s in a.split(split)] == \
                [s.tokens for s in b.split(split)]

    def test_seed_changes_assignment(self):
        sites = make_justified_sites(10, 10)
        a = build_dataset(sites, seed=1)
        b = build_dataset(sites, seed=2)
        assert [s.site_id for s in a.valid] != [s.site_id for s in b.valid]

    def test_split_proportions_within_one(self):
        sites = make_justified_sites(7, 9)  # 63 sentences
        dataset = build_dataset(sites, seed=3)
        n = 63
        assert abs(len(dataset.valid) - n // 10) <= 1
        assert abs(len(dataset.test) - n // 10) <= 1

    def test_sample_invariants(self):
        sites = make_justified_sites(10, 5)
        dataset = build_dataset(sites, seed=0)
        for split in ("train", "valid", "test"):
            for s in dataset.split(split):
                assert 8 <= len(s.tokens) <= 64
                assert s.one_hot is None
                assert s.parental[s.sentence_label - 1] == 1
                assert s.parental[NUM_CLASSES - 1] == 0.2
                assert not any(t != t.lower() for t in s.tokens)

    def test_definitions_appended_to_train(self):
        sites = make_justified_sites(10, 5)
        dataset = build_dataset(sites, seed=0)
        definition_samples = [s for s in dataset.train if s.site_id == 0]
        assert len(definition_samples) == 10
        assert sorted(s.sentence_label for s in definition_samples) == \
            list(range(1, 11))
        for sample in definition_samples:
            want = np.zeros(11)
            want[sample.sentence_label - 1], want[10] = 1.0, 0.2
            np.testing.assert_array_equal(sample.parental, want)

    def test_length_filter(self):
        site = SiteRecord(site_id=99, name="x",
                          justification={1: "Too short. " + long_paragraph(3)},
                          short_description="", criteria=frozenset({1}))
        dataset = build_dataset(make_justified_sites(10, 5) + [site], seed=0)
        non_def = [s for s in dataset.train + dataset.valid + dataset.test
                   if s.site_id == 99]
        assert len(non_def) == 3  # "Too short." dropped


def build_dataset_by_rank(sites, seed):
    """A reference ``build_dataset``: each kept sentence is built as a train
    sample, then moved to the split its rank in the seeded permutation
    gives."""
    found = [(site, criterion, sentence) for site in sites
             for criterion, paragraph in sorted(site.justification.items())
             for sentence in split_sentences(paragraph)]
    defined = sorted(CRITERION_DEFINITIONS)
    token_lists = preprocess_many([sentence for *_, sentence in found]
                                  + [CRITERION_DEFINITIONS[c] for c in defined])
    kept = [(tokens, criterion, sorted(site.criteria), site.site_id)
            for (site, criterion, _), tokens in zip(found, token_lists)
            if MIN_SENT_LEN <= len(tokens) <= MAX_SENT_LEN]
    n = len(kept)
    kept += [(tokens, criterion, [criterion], 0)
             for criterion, tokens in zip(defined, token_lists[len(found):])]
    samples = make_samples(*zip(*kept))
    pool, definitions = samples[:n], samples[n:]
    order = np.random.default_rng(seed).permutation(n)
    n_valid = n_test = n // 10
    dataset = Dataset()
    for rank, idx in enumerate(order):
        sample = pool[idx]
        if rank < n - n_valid - n_test:
            dataset.train.append(sample)
        elif rank < n - n_test:
            dataset.valid.append(sample)
        else:
            dataset.test.append(sample)
    dataset.train.extend(definitions)
    for name in ("train", "valid", "test"):
        if not dataset.split(name):
            raise ValueError(f"split {name!r} is empty")
    return dataset


def letters(m):
    """``m`` written in the letters a-j, one per decimal digit."""
    return "".join(chr(ord("a") + int(d)) for d in str(m))


@st.composite
def justified_sites(draw):
    """Sites holding 0-40 sentences that ``build_dataset`` keeps, each of
    its own words, and some too short to keep."""
    n = draw(st.integers(0, 40))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    sites, first = [], 0
    for site_id, last in enumerate([*cuts, n], start=1):
        criteria = draw(st.sets(st.integers(1, 10), min_size=1, max_size=3))
        sentences = [" ".join([f"w{letters(j)}"] * 9).capitalize() + "."
                     for j in range(first, last)]
        if draw(st.booleans()):
            sentences.insert(draw(st.integers(0, len(sentences))), "Too short.")
        first = last
        sites.append(SiteRecord(
            site_id=site_id, name="", short_description="",
            justification={min(criteria): " ".join(sentences)},
            criteria=frozenset(criteria)))
    return sites


@settings(deadline=None)
@given(justified_sites(), st.integers(0, 2**32 - 1))
def test_build_dataset_splits_as_the_rank_loop_does(sites, seed):
    """Each split holds the samples the reference's rank loop puts there,
    in its order, with equal tokens, labels, parental bytes and site ids,
    and no one-hot row; where the reference refuses an empty split, so does
    ``build_dataset``."""
    try:
        want = build_dataset_by_rank(sites, seed)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}: "):
            build_dataset(sites, seed)
        return
    got = build_dataset(sites, seed)
    for name in ("train", "valid", "test"):
        assert [(s.tokens, s.sentence_label, s.one_hot,
                 s.parental.tobytes(), s.site_id)
                for s in got.split(name)] == \
            [(s.tokens, s.sentence_label, None,
              s.parental.tobytes(), s.site_id)
             for s in want.split(name)]
    assert got.sd == []


def sample_fields(sample):
    """What a dataset file keeps of ``sample``."""
    return (sample.tokens, sample.sentence_label, sample.parental.tobytes(),
            sample.site_id)


@settings(deadline=None)
@given(justified_sites(), st.integers(0, 2**32 - 1))
def test_a_written_dataset_reads_back_split_by_split(sites, seed):
    """``read_dataset`` gives each split's samples as ``write_dataset`` was
    given them, in the split of its file, which no line holds, and writing
    them again, with their equal tokens shared, gives each file's bytes; the
    SD split is built from the sites' paragraphs."""
    try:
        dataset = build_dataset(sites, seed)
    except ValueError:  # an empty split, as the test above checks
        return
    dataset.sd = build_sd_set([replace(site, short_description=paragraph)
                               for site in sites
                               for paragraph in site.justification.values()])
    with tempfile.TemporaryDirectory() as root:
        write_dataset(dataset, root)
        got = read_dataset(root)
        write_dataset(got, Path(root, "again"))
        for name in ("train", "valid", "test", "sd"):
            assert Path(root, "again", f"{name}.jsonl").read_bytes() == \
                Path(root, f"{name}.jsonl").read_bytes()
    for name in ("train", "valid", "test", "sd"):
        assert list(map(sample_fields, got.split(name))) == \
            list(map(sample_fields, dataset.split(name)))


class TestBuildSdSet:
    def test_parental_only_labels(self):
        site = SiteRecord(site_id=9, name="x", justification={},
                          short_description="First sentence here. Second one. Third.",
                          criteria=frozenset({2, 4}))
        samples = build_sd_set([site])
        assert len(samples) == 3
        for s in samples:
            assert s.sentence_label is None
            assert s.one_hot is None
            assert s.parental[1] == 1 and s.parental[3] == 1
            assert s.parental[NUM_CLASSES - 1] == 0.2

    def test_empty_description_contributes_nothing(self):
        site = SiteRecord(site_id=9, name="x", justification={},
                          short_description="", criteria=frozenset({2}))
        assert build_sd_set([site]) == []

    def test_no_length_filter(self):
        site = SiteRecord(site_id=9, name="x", justification={},
                          short_description="Tiny.",
                          criteria=frozenset({1}))
        assert len(build_sd_set([site])) == 1


class TestJsonl:
    def test_round_trip(self, tmp_path):
        """Each read sample's parental row has the float64 bytes of the
        built sample's, though the file holds only its criteria, and
        neither carries a one-hot row."""
        sites = make_justified_sites(5, 5)
        dataset = build_dataset(sites, seed=0)
        dataset.sd = build_sd_set([SiteRecord(
            site_id=1, name="", justification={},
            short_description="One sentence here. And one more.",
            criteria=frozenset({3, 7}))])
        for split in ("train", "valid", "sd"):
            samples = dataset.split(split)
            path = tmp_path / f"{split}.jsonl"
            write_samples(samples, path)
            loaded = read_samples(path, split)
            assert len(loaded) == len(samples)
            for a, b in zip(samples, loaded):
                assert a.tokens == b.tokens
                assert a.sentence_label == b.sentence_label
                assert a.site_id == b.site_id
                assert b.parental.dtype == np.float64
                assert b.parental.tobytes() == a.parental.tobytes()
                assert a.one_hot is b.one_hot is None

    def test_a_split_holds_one_string_per_distinct_token(self, tmp_path):
        """Equal tokens of a file are read as one string object, so a split
        holds each distinct token once, not once per occurrence."""
        dataset = build_dataset(make_justified_sites(5, 5), seed=0)
        dataset.sd = build_sd_set([SiteRecord(
            site_id=1, name="", justification={},
            short_description="One château here. And one more château.",
            criteria=frozenset({3, 7}))])
        write_dataset(dataset, tmp_path)
        got = read_dataset(tmp_path)
        for name in ("train", "valid", "test", "sd"):
            tokens = [token for sample in got.split(name)
                      for token in sample.tokens]
            assert len(tokens) > len(set(tokens)) > 1
            assert len(set(map(id, tokens))) == len(set(tokens))

    def test_deterministic_serialization(self, tmp_path):
        sites = make_justified_sites(3, 5)
        sample = build_dataset(sites, seed=0).train[0]
        assert next(sample_lines([sample])) == next(sample_lines([sample]))
        write_samples([sample], tmp_path / "train.jsonl")
        rebuilt, = read_samples(tmp_path / "train.jsonl", "train")
        assert next(sample_lines([rebuilt])) == next(sample_lines([sample]))

    def test_line_bytes(self):
        """Key order, separators, the site's sorted criteria in place of the
        label rows, non-ASCII tokens as they are, and no split, which is
        the file's."""
        parental = label_rows([[5, 2]])[0]
        train = Sample(tokens=["château", "<num>"], sentence_label=2,
                       parental=parental, site_id=7)
        assert next(sample_lines([train])) == (
            '{"tokens": ["château", "<num>"], "sentence_label": 2, '
            '"criteria": [2, 5], "site_id": 7}')
        sd = Sample(tokens=["sd"], sentence_label=None, parental=parental,
                    site_id=7)
        assert next(sample_lines([sd])) == (
            '{"tokens": ["sd"], "sentence_label": null, "criteria": [2, 5], '
            '"site_id": 7}')

    def test_file_without_tokens_reads(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        write_samples([], path)
        assert read_samples(path, "train") == []
        sample = build_dataset(make_justified_sites(3, 5), seed=0).train[0]
        sample.tokens = []
        write_samples([sample], path)
        assert read_samples(path, "train")[0].tokens == []

    @pytest.mark.parametrize("row, read_back", [
        ([0.0] * NUM_CLASSES, [0.0] * 10 + [OTHERS_NOISE]),
        ([0.5] * 10 + [OTHERS_NOISE], [1.0] * 10 + [OTHERS_NOISE]),
    ])
    def test_a_parental_of_no_criteria_set_is_refused(self, tmp_path, row,
                                                      read_back):
        """A row that would read back as another (all zeros, as a mined
        sentence has, reads back with 0.2 in Others; 0.5 as 1.0) names the
        file and the sample's index, and the file is left as it was."""
        good = label_rows([[3]])[0]
        samples = [Sample(tokens=["a"], sentence_label=None,
                          parental=parental, site_id=1)
                   for parental in (good, good, np.array(row))]
        path = tmp_path / "sd.jsonl"
        write_samples(samples[:2], path)
        before = path.read_bytes()
        with pytest.raises(ValueError) as info:
            write_samples(samples, path)
        assert str(info.value) == (
            f"{path}: sample 2: parental {row} is not the label row of any "
            f"criteria set; it would read back as {read_back}")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sd.jsonl"]

    def test_parentals_of_the_wrong_length_are_refused(self, tmp_path):
        """Two rows of 22, each a valid row twice over, are not four
        samples' rows: the file is not written."""
        row = label_rows([[3]])[0]
        samples = [Sample(tokens=["a"], sentence_label=None,
                          parental=np.concatenate([row, row]), site_id=1)
                   for _ in range(2)]
        path = tmp_path / "sd.jsonl"
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: cannot reshape array of size 44 "
                r"into shape \(2,\s?11\)$")):
            write_samples(samples, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("line, detail", [
        ('{"tokens": ["a"]}', "missing key 'criteria'"),
        ("[1, 2]", "list indices must be integers"),
    ])
    def test_line_that_is_no_sample_is_named(self, tmp_path, line, detail):
        path = tmp_path / "train.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_samples(path, "train")
        assert str(excinfo.value).startswith(
            f"{path}: not a dataset file ({detail}")

    @pytest.mark.parametrize("payload, detail", [
        ([{"site_id": 1}], "missing key 'criteria'"),
        ([{"criteria": [1]}], "missing key 'site_id'"),
        ([3], "'int' object is not subscriptable"),
        ({"site_id": 1}, "string indices must be integers"),
        ([{"site_id": 4, "criteria": [0, 3]}],
         "site 4: criteria [0, 3] is not a list of integers 1-10"),
        ([{"site_id": 1, "criteria": [1]}, {"site_id": "x", "criteria": [11]}],
         "site 'x': criteria [11] is not a list of integers 1-10"),
        ([{"site_id": 4, "criteria": "ab"}],
         "site 4: criteria 'ab' is not a list of integers 1-10"),
        ([{"site_id": 4, "criteria": [True]}],
         "site 4: criteria [True] is not a list of integers 1-10"),
        ([{"site_id": 4, "criteria": [2.0]}],
         "site 4: criteria [2.0] is not a list of integers 1-10"),
    ])
    def test_sites_entry_that_is_no_site_is_named(self, tmp_path, payload,
                                                  detail):
        path = tmp_path / "sites.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_sites(path)
        assert str(excinfo.value).startswith(
            f"{path}: not a sites file ({detail}")

    @pytest.mark.parametrize("token", ["new york", "a\tb", "\u00a0x", " "])
    def test_token_with_whitespace_is_rejected(self, tmp_path, token):
        """A unigram "new york" would read as the bigram (new, york) in the
        n-gram features, so a dataset file may not hold it. The token is
        the file's first, so the check also sees whitespace at the edge."""
        dataset = build_dataset(make_justified_sites(5, 5), seed=0)
        dataset.train[0].tokens[0] = token
        write_dataset(dataset, tmp_path)
        with pytest.raises(ValueError) as excinfo:
            read_dataset(tmp_path)
        assert str(tmp_path / "train.jsonl") in str(excinfo.value)
        assert f"token {token!r} holds whitespace" in str(excinfo.value)


    @pytest.mark.parametrize("split, edit, detail", [
        ("train", {"tokens": "abc"}, "tokens 'abc' is not a list of strings"),
        ("train", {"tokens": [1, 2]},
         "tokens [1, 2] is not a list of strings"),
        ("train", {"sentence_label": 0},
         "sentence_label 0 is not an integer 1-10"),
        ("valid", {"sentence_label": "x"},
         "sentence_label 'x' is not an integer 1-10"),
        ("test", {"sentence_label": True},
         "sentence_label True is not an integer 1-10"),
        ("train", {"criteria": "x"},
         "criteria 'x' is not a list of integers 1-10"),
        ("valid", {"criteria": [0]},
         "criteria [0] is not a list of integers 1-10"),
        ("sd", {"criteria": [11]},
         "criteria [11] is not a list of integers 1-10"),
        ("train", {"criteria": [True]},
         "criteria [True] is not a list of integers 1-10"),
        ("sd", {"criteria": [2.0]},
         "criteria [2.0] is not a list of integers 1-10"),
        ("test", {"criteria": None},
         "criteria None is not a list of integers 1-10"),
        ("train", {"criteria": {"a": 1}},
         "criteria {'a': 1} is not a list of integers 1-10"),
        ("sd", {"sentence_label": 0},
         "sentence_label 0 is not an integer 1-10 or null"),
        ("train", {"site_id": "x"}, "site_id 'x' is not an integer"),
        ("valid", {"site_id": [1]}, "site_id [1] is not an integer"),
        ("test", {"site_id": True}, "site_id True is not an integer"),
        ("sd", {"site_id": 1.5}, "site_id 1.5 is not an integer"),
        ("train", {"site_id": None}, "site_id None is not an integer"),
        ("train", {"tokens": [1, True]},
         "tokens [1, True] is not a list of strings"),
    ])
    def test_a_bad_value_names_the_file_and_line(self, tmp_path, split, edit,
                                                 detail):
        """Each value check names the first line that fails it; here the
        second line of the split's file, edited. Only ``sd`` lines may hold
        a null label, and a ``site_id`` is a JSON integer, which a bool is
        not."""
        dataset = build_dataset(make_justified_sites(5, 5), seed=0)
        dataset.sd.extend(build_sd_set([SiteRecord(
            site_id=1, name="", justification={},
            short_description="One sentence. And another one.",
            criteria=frozenset({3}))]))
        write_dataset(dataset, tmp_path)
        path = tmp_path / f"{split}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), **edit}) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_dataset(tmp_path)
        assert str(excinfo.value) == (
            f"{path}: not a dataset file (line 2: {detail})")

    def test_a_line_of_the_previous_form_reads_as_its_file(self, tmp_path):
        """A directory whose every line also holds its ``split``, as lines
        once did, reads as it was built, though one train line says
        ``test``: each sample is in its file's split."""
        dataset = build_dataset(make_justified_sites(5, 5), seed=0)
        dataset.sd.extend(build_sd_set([SiteRecord(
            site_id=1, name="", justification={},
            short_description="One sentence. And another one.",
            criteria=frozenset({3}))]))
        write_dataset(dataset, tmp_path)
        for name in ("train", "valid", "test", "sd"):
            path = tmp_path / f"{name}.jsonl"
            records = [{**json.loads(line), "split": name}
                       for line in path.read_text("utf-8").splitlines()]
            if name == "train":
                records[1]["split"] = "test"
            path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                                    for r in records), encoding="utf-8")
        got = read_dataset(tmp_path)
        for name in ("train", "valid", "test", "sd"):
            assert list(map(sample_fields, got.split(name))) == \
                list(map(sample_fields, dataset.split(name)))

    def test_a_number_too_large_for_a_float_is_named(self, tmp_path):
        dataset = build_dataset(make_justified_sites(5, 5), seed=0)
        write_dataset(dataset, tmp_path)
        path = tmp_path / "train.jsonl"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"criteria": [', '"criteria": [1'
                                     + "0" * 400 + ", ", 1), encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_dataset(tmp_path)
        assert str(excinfo.value).startswith(
            f"{path}: not a dataset file (line 1: criteria [1{'0' * 400}, ")
        assert str(excinfo.value).endswith(
            "] is not a list of integers 1-10)")

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_an_unlabelled_line_outside_sd_is_refused(self, tmp_path, split):
        dataset = build_dataset(make_justified_sites(5, 5), seed=0)
        sample = dataset.split(split)[0]
        sample.sentence_label = None
        write_dataset(dataset, tmp_path)
        with pytest.raises(ValueError) as excinfo:
            read_dataset(tmp_path)
        assert str(excinfo.value) == (
            f"{tmp_path / f'{split}.jsonl'}: not a dataset file (line 1: "
            "sentence_label None is not an integer 1-10)")

    def test_checked_values_load_as_written(self, tmp_path):
        """Criteria in any order, repeated, without the sentence's label
        or none at all are criteria like any others."""
        dataset = build_dataset(make_justified_sites(5, 5), seed=0)
        write_dataset(dataset, tmp_path)
        path = tmp_path / "train.jsonl"
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        records = [{**record, "sentence_label": 4, "criteria": criteria}
                   for criteria in ([9, 2, 9], [])]
        path.write_text("".join(json.dumps(r) + "\n" for r in records),
                        encoding="utf-8")
        samples = read_dataset(tmp_path).train
        for sample, criteria in zip(samples, ([2, 9], [])):
            want = np.zeros(NUM_CLASSES)
            want[-1] = OTHERS_NOISE
            for k in criteria:
                want[k - 1] = 1.0
            assert sample.parental.tobytes() == want.tobytes()
            assert (sample.sentence_label, sample.one_hot) == (4, None)


class TestAtomicWrites:
    def test_failed_write_dataset_keeps_old_files(self, tmp_path):
        dataset = build_dataset(make_justified_sites(5, 5), seed=0)
        write_dataset(dataset, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # fails after the first train sample is in the temp file
        dataset.train[1].tokens = [object()]
        with pytest.raises(TypeError):
            write_dataset(dataset, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_write_sites_keeps_old_file(self, tmp_path):
        sites = make_justified_sites(3, 2)
        path = tmp_path / "sites.json"
        write_sites(sites, path)
        before = path.read_bytes()
        # fails after the first two sites are in the temp file
        sites.append(SiteRecord(site_id=9, name=object(), justification={},
                                short_description="", criteria=frozenset({1})))
        with pytest.raises(TypeError):
            write_sites(sites, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sites.json"]


def test_definitions_cover_all_criteria():
    assert set(CRITERION_DEFINITIONS) == set(range(1, 11))
    for text in CRITERION_DEFINITIONS.values():
        assert len(preprocess(text)) >= 8


def test_an_unknown_split_is_refused():
    with pytest.raises(ValueError, match="^unknown split 'bogus'$"):
        Dataset().split("bogus")
