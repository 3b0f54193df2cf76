import json
import re
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ouv_classifier import NUM_CLASSES, OTHERS_NOISE
from ouv_classifier.corpus import (CRITERION_DEFINITIONS, Sample,
                                   SiteRecord, build_dataset, build_sd_set,
                                   label_rows, parse_syndication,
                                   preprocess, preprocess_many, read_dataset,
                                   read_samples, read_sites, sample_lines,
                                   split_sentences, write_dataset,
                                   write_samples, write_sites)
from conftest import make_one_hot

SYNDICATION_HEADER = "id_no,name_en,criteria_txt,justification_en,short_description_en\n"


def write_csv(tmp_path, rows):
    path = tmp_path / "syndication.csv"
    path.write_text(SYNDICATION_HEADER + "".join(rows), encoding="utf-8")
    return path


class TestSplitSentences:
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
                assert s.one_hot.sum() == 1
                assert s.one_hot[s.sentence_label - 1] == 1
                assert s.one_hot[NUM_CLASSES - 1] == 0
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
            assert s.split == "sd"

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
        """Each read sample's label rows have the float64 bytes of the
        built sample's, though the file holds only its criteria."""
        sites = make_justified_sites(5, 5)
        dataset = build_dataset(sites, seed=0)
        samples = dataset.train + dataset.valid + build_sd_set([SiteRecord(
            site_id=1, name="", justification={},
            short_description="One sentence here. And one more.",
            criteria=frozenset({3, 7}))])
        path = tmp_path / "samples.jsonl"
        write_samples(samples, path)
        loaded = read_samples(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.tokens == b.tokens
            assert a.sentence_label == b.sentence_label
            assert (a.site_id, a.split) == (b.site_id, b.split)
            assert b.parental.dtype == np.float64
            assert b.parental.tobytes() == a.parental.tobytes()
            if a.one_hot is None:
                assert b.one_hot is None
            else:
                assert b.one_hot.dtype == np.float64
                assert b.one_hot.tobytes() == a.one_hot.tobytes()

    def test_deterministic_serialization(self, tmp_path):
        sites = make_justified_sites(3, 5)
        sample = build_dataset(sites, seed=0).train[0]
        assert next(sample_lines([sample])) == next(sample_lines([sample]))
        write_samples([sample], tmp_path / "train.jsonl")
        rebuilt, = read_samples(tmp_path / "train.jsonl")
        assert next(sample_lines([rebuilt])) == next(sample_lines([sample]))

    def test_line_bytes(self):
        """Key order, separators, the site's sorted criteria in place of the
        label rows, and non-ASCII tokens as they are."""
        parental = label_rows([[5, 2]], OTHERS_NOISE)[0]
        train = Sample(tokens=["château", "<num>"], sentence_label=2,
                       one_hot=make_one_hot(2), parental=parental,
                       site_id=7, split="train")
        assert next(sample_lines([train])) == (
            '{"tokens": ["château", "<num>"], "sentence_label": 2, '
            '"criteria": [2, 5], "site_id": 7, "split": "train"}')
        sd = Sample(tokens=["sd"], sentence_label=None, one_hot=None,
                    parental=parental, site_id=7, split="sd")
        assert next(sample_lines([sd])) == (
            '{"tokens": ["sd"], "sentence_label": null, "criteria": [2, 5], '
            '"site_id": 7, "split": "sd"}')

    def test_file_without_tokens_reads(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        write_samples([], path)
        assert read_samples(path) == []
        sample = build_dataset(make_justified_sites(3, 5), seed=0).train[0]
        sample.tokens = []
        write_samples([sample], path)
        assert read_samples(path)[0].tokens == []

    @pytest.mark.parametrize("row, read_back", [
        ([0.0] * NUM_CLASSES, [0.0] * 10 + [OTHERS_NOISE]),
        ([0.5] * 10 + [OTHERS_NOISE], [1.0] * 10 + [OTHERS_NOISE]),
    ])
    def test_a_parental_of_no_criteria_set_is_refused(self, tmp_path, row,
                                                      read_back):
        """A row that would read back as another (all zeros, as a mined
        sentence has, reads back with 0.2 in Others; 0.5 as 1.0) names the
        file and the sample's index, and the file is left as it was."""
        good = label_rows([[3]], OTHERS_NOISE)[0]
        samples = [Sample(tokens=["a"], sentence_label=None, one_hot=None,
                          parental=parental, site_id=1, split="sd")
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
        row = label_rows([[3]], OTHERS_NOISE)[0]
        samples = [Sample(tokens=["a"], sentence_label=None, one_hot=None,
                          parental=np.concatenate([row, row]), site_id=1,
                          split="sd") for _ in range(2)]
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
            read_samples(path)
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
         "sentence_label 0 is not an integer 1-10 or null"),
        ("valid", {"sentence_label": "x"},
         "sentence_label 'x' is not an integer 1-10 or null"),
        ("test", {"sentence_label": True},
         "sentence_label True is not an integer 1-10 or null"),
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
    ])
    def test_a_bad_value_names_the_file_and_line(self, tmp_path, split, edit,
                                                 detail):
        """Each value check names the first line that fails it; here the
        second line of the split's file, edited."""
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
        assert str(excinfo.value).startswith(
            f"{path}: not a dataset file (line 2: ")
        assert detail in str(excinfo.value)

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
        sample.sentence_label = sample.one_hot = None
        write_dataset(dataset, tmp_path)
        with pytest.raises(ValueError) as excinfo:
            read_dataset(tmp_path)
        assert str(excinfo.value) == (
            f"{tmp_path / f'{split}.jsonl'}: not a dataset file (a {split} "
            "sample has a null sentence_label)")

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
            assert sample.one_hot.tobytes() == make_one_hot(4).tobytes()


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
