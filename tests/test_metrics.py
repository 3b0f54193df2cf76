import numpy as np
import pytest
from hypothesis import given, strategies as st

from ouv_classifier import NUM_CLASSES, NUM_CRITERIA, OTHERS_NOISE
from ouv_classifier.metrics import (confusion_matrix, evaluate_matches,
                                    evaluate_split, topk_accuracy)
from ouv_classifier.model import rank_classes


def full_ranking(first):
    rest = [c for c in range(1, NUM_CLASSES + 1) if c != first]
    return [first] + rest


def parental(*criteria):
    vec = np.zeros(NUM_CLASSES)
    for k in criteria:
        vec[k - 1] = 1.0
    vec[NUM_CLASSES - 1] = 0.2
    return vec


def parent_set(vec):
    """The criteria 1-10 a parental vector marks with 1; Others never."""
    return {i + 1 for i in range(NUM_CRITERIA) if vec[i] == 1}


def hits(rankings, targets, k):
    """Set oracle, one row at a time: the share of rows whose first ``k``
    ids meet the row's target set (``{truth}`` for top-k accuracy, the
    parental criteria for match rates)."""
    total = 0
    for ranking, target in zip(rankings, targets):
        if target & set(ranking[:k]):
            total += 1
    return total / len(rankings)


class TestEvaluateSplit:
    def test_all_correct(self):
        truths = [1, 2, 3, 4]
        preds = [full_ranking(t) for t in truths]
        report = evaluate_split(preds, truths, k=3)
        assert report.top1_accuracy == 1.0
        assert report.topk_accuracy == 1.0
        # only 4 of 10 classes have truths; absent classes score F1 = 0
        assert report.macro_f1 == pytest.approx(0.4)

    def test_swapped_rank1_but_topk_hit(self):
        preds = [[2, 1, 3], [1, 2, 3]]
        truths = [1, 2]
        report = evaluate_split(preds, truths, k=3)
        assert report.top1_accuracy == 0.0
        assert report.topk_accuracy == 1.0

    def test_hand_computed_fixture(self):
        # 10 samples over classes 1-3 with known confusion
        truths = [1, 1, 1, 2, 2, 2, 2, 3, 3, 3]
        rank1 = [1, 1, 2, 2, 2, 2, 1, 3, 3, 1]
        preds = [full_ranking(p) for p in rank1]
        report = evaluate_split(preds, truths, k=3)
        # class 1: TP=2 FP=2 FN=1 -> P=0.5 R=2/3 F1=4/7
        assert report.per_class[1]["precision"] == pytest.approx(0.5)
        assert report.per_class[1]["recall"] == pytest.approx(2 / 3)
        assert report.per_class[1]["f1"] == pytest.approx(4 / 7)
        # class 2: TP=3 FP=1 FN=1 -> P=0.75 R=0.75 F1=0.75
        assert report.per_class[2]["f1"] == pytest.approx(0.75)
        # class 3: TP=2 FP=0 FN=1 -> P=1 R=2/3 F1=0.8
        assert report.per_class[3]["precision"] == pytest.approx(1.0)
        assert report.per_class[3]["f1"] == pytest.approx(0.8)
        assert report.top1_accuracy == pytest.approx(0.7)
        expected_macro = (4 / 7 + 0.75 + 0.8) / 10
        assert report.macro_f1 == pytest.approx(expected_macro)

    def test_single_tp_fp_example(self):
        # class with TP=1, FP=1, FN=0 -> precision 0.5, recall 1.0, F1 2/3
        truths = [1, 2]
        preds = [full_ranking(1), full_ranking(1)]
        report = evaluate_split(preds, truths, k=3)
        assert report.per_class[1]["precision"] == pytest.approx(0.5)
        assert report.per_class[1]["recall"] == pytest.approx(1.0)
        assert report.per_class[1]["f1"] == pytest.approx(2 / 3)

    def test_confusion_row_sums(self):
        truths = [1, 1, 2, 3, 3, 3]
        preds = [full_ranking(p) for p in [1, 2, 2, 1, 3, 3]]
        report = evaluate_split(preds, truths, k=3)
        row_sums = report.confusion.sum(axis=1)
        assert row_sums[0] == 2 and row_sums[1] == 1 and row_sums[2] == 3
        assert report.confusion.sum() == 6
        trace_acc = np.trace(report.confusion) / 6
        assert report.top1_accuracy == pytest.approx(trace_acc)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_split([[1]], [1, 2], k=3)

    def test_empty_input_is_a_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_split([], [], k=3)

    def test_topk_non_decreasing_and_one_at_eleven(self):
        rng = np.random.default_rng(0)
        truths = [int(rng.integers(1, 11)) for _ in range(30)]
        preds = [list(rng.permutation(np.arange(1, 12)).astype(int))
                 for _ in range(30)]
        accs = [evaluate_split(preds, truths, k=k).topk_accuracy
                for k in range(1, 12)]
        assert accs == sorted(accs)
        assert accs[-1] == 1.0

    @given(st.permutations(list(range(1, 11))))
    def test_macro_f1_invariant_under_relabeling(self, perm_list):
        mapping = {old: new for old, new in
                   zip(range(1, 11), perm_list)}
        mapping[11] = 11
        rng = np.random.default_rng(5)
        truths = [int(rng.integers(1, 11)) for _ in range(25)]
        preds = [list(rng.permutation(np.arange(1, 12)).astype(int))
                 for _ in range(25)]
        base = evaluate_split(preds, truths, k=3)
        remapped_preds = [[mapping[c] for c in p] for p in preds]
        remapped_truths = [mapping[t] for t in truths]
        remapped = evaluate_split(remapped_preds, remapped_truths, k=3)
        assert remapped.macro_f1 == pytest.approx(base.macro_f1)
        assert remapped.top1_accuracy == pytest.approx(base.top1_accuracy)


class TestConfusionMatrix:
    def test_perfect_diagonal(self):
        truths = [1, 2, 3]
        preds = [full_ranking(t) for t in truths]
        counts = confusion_matrix(preds, truths)
        assert np.trace(counts) == 3
        assert counts.sum() == 3

    def test_single_offdiagonal(self):
        counts = confusion_matrix([full_ranking(6)], [3])
        assert counts[2, 5] == 1
        assert counts.sum() == 1

    def test_twelve_sample_hand_count(self):
        truths = [1, 1, 1, 2, 2, 4, 4, 4, 4, 7, 7, 10]
        rank1 = [1, 4, 1, 2, 2, 4, 4, 1, 11, 7, 8, 10]
        counts = confusion_matrix([full_ranking(p) for p in rank1], truths)
        assert counts[0, 0] == 2 and counts[0, 3] == 1
        assert counts[1, 1] == 2
        assert counts[3, 3] == 2 and counts[3, 0] == 1 and counts[3, 10] == 1
        assert counts[6, 6] == 1 and counts[6, 7] == 1
        assert counts[9, 9] == 1
        assert counts.sum() == 12

    def test_others_truth_row_is_zero(self):
        truths = [1, 2]
        counts = confusion_matrix([full_ranking(11), full_ranking(2)], truths)
        assert counts[NUM_CLASSES - 1].sum() == 0
        assert counts[0, 10] == 1  # prediction can land in Others

    def test_truth_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix([full_ranking(1)], [11])


class TestEvaluateMatches:
    def test_topk_match(self):
        report = evaluate_matches([[1, 4, 7]], [parental(2, 4)], k=3)
        assert report.topk_match == 1.0
        assert report.top1_match == 0.0

    def test_top1_no_match(self):
        report = evaluate_matches([[1, 2, 4]], [parental(2, 4)], k=3)
        assert report.top1_match == 0.0
        assert report.topk_match == 1.0

    def test_others_never_counts(self):
        vec = parental(2)
        report = evaluate_matches([[11, 5, 6]], [vec], k=3)
        assert report.topk_match == 0.0

    def test_six_sample_fixture_against_set_oracle(self):
        rankings = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 1, 2],
                    [3, 4, 5], [6, 7, 8]]
        parentals = [parental(3), parental(4, 9), parental(1, 2),
                     parental(10), parental(6), parental(7, 8)]
        report = evaluate_matches(rankings, parentals, k=3)
        # independent set-intersection computation
        parent_sets = [parent_set(vec) for vec in parentals]
        assert report.top1_match == pytest.approx(
            hits(rankings, parent_sets, 1))
        assert report.topk_match == pytest.approx(
            hits(rankings, parent_sets, 3))
        assert report.top1_match <= report.topk_match

    def test_order_invariance_of_parental_set(self):
        a = evaluate_matches([[1, 2, 3]], [parental(2, 4)], k=3)
        b = evaluate_matches([[1, 2, 3]], [parental(4, 2)], k=3)
        assert a.to_dict() == b.to_dict()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_matches([[1]], [parental(1), parental(2)], k=3)

    def test_empty_input_is_a_value_error(self):
        with pytest.raises(ValueError, match="no predictions"):
            evaluate_matches([], [], k=3)


@st.composite
def ranked_split(draw):
    """Rankings of one width (a prefix of a permutation of the 11 ids),
    truths 1-10, parentals whose Others entry is the 0.2 noise or a 1 that
    must not count, and ``k``."""
    n = draw(st.integers(1, 20))
    width = draw(st.integers(1, NUM_CLASSES))
    rankings = [draw(st.permutations(range(1, NUM_CLASSES + 1)))[:width]
                for _ in range(n)]
    truths = draw(st.lists(st.integers(1, NUM_CRITERIA), min_size=n,
                           max_size=n))
    parentals = [np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                        min_size=NUM_CRITERIA,
                                        max_size=NUM_CRITERIA))
                          + [draw(st.sampled_from([OTHERS_NOISE, 1.0]))])
                 for _ in range(n)]
    return rankings, truths, parentals, draw(st.integers(1, NUM_CLASSES))


@given(ranked_split())
def test_metrics_equal_the_set_oracle_for_lists_and_arrays(split):
    rankings, truths, parentals, k = split
    truth_sets = [{t} for t in truths]
    parent_sets = [parent_set(vec) for vec in parentals]
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for ranking, truth in zip(rankings, truths):
        counts[truth - 1, ranking[0] - 1] += 1
    for ids, ts, ps in ((rankings, truths, parentals),
                        (np.array(rankings), np.array(truths),
                         np.stack(parentals))):
        assert topk_accuracy(ids, ts, k) == hits(rankings, truth_sets, k)
        confusion = confusion_matrix(ids, ts)
        assert confusion.dtype == np.int64
        np.testing.assert_array_equal(confusion, counts)
        report = evaluate_matches(ids, ps, k=k)
        assert report.top1_match == hits(rankings, parent_sets, 1)
        assert report.topk_match == hits(rankings, parent_sets, k)


class TestArrayInputs:
    def test_rates_are_python_floats(self):
        rng = np.random.default_rng(3)
        ids = rank_classes(rng.random((40, NUM_CLASSES)))
        truths = rng.integers(1, NUM_CRITERIA + 1, size=40)
        report = evaluate_split(ids, truths, k=3)
        rates = [report.top1_accuracy, report.topk_accuracy, report.macro_f1]
        rates += [v for scores in report.per_class.values()
                  for v in scores.values()]
        parentals = np.stack([parental(int(t), 1 + int(t) % NUM_CRITERIA)
                              for t in truths])
        matches = evaluate_matches(ids, parentals, k=3)
        rates += [matches.top1_match, matches.topk_match]
        assert all(type(rate) is float for rate in rates)

    @pytest.mark.parametrize("k", [0, -1, NUM_CLASSES + 1])
    def test_k_outside_one_to_eleven_is_a_value_error(self, k):
        ids, truths = [full_ranking(1)], [1]
        for call in (lambda: topk_accuracy(ids, truths, k),
                     lambda: evaluate_split(ids, truths, k=k),
                     lambda: evaluate_matches(ids, [parental(1)], k=k)):
            with pytest.raises(ValueError, match=f"k must be in 1..11, "
                                                 f"got {k}"):
                call()

    def test_two_reports_of_one_input_compare_without_raising(self):
        """``confusion`` is an array, so reports compare by identity: ``==``
        gives a bool instead of numpy's ambiguous truth value."""
        ids, truths = np.array([full_ranking(2), full_ranking(1)]), [2, 3]
        a, b = evaluate_split(ids, truths), evaluate_split(ids, truths)
        assert (a == b) is False
        assert (a == a) is True
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("rank1", [0, NUM_CLASSES + 1])
    def test_rank1_id_out_of_range_is_a_value_error(self, rank1):
        with pytest.raises(ValueError):
            confusion_matrix([[rank1, 1]], [3])

    def test_first_bad_truth_is_named(self):
        with pytest.raises(ValueError, match="out of range: 0$"):
            confusion_matrix(np.array([full_ranking(1)] * 3), [2, 0, 11])

    @pytest.mark.parametrize("truth", [0, NUM_CLASSES])
    def test_topk_accuracy_refuses_a_truth_outside_one_to_ten(self, truth):
        """Others (11) is never a truth: it would count every Others
        prediction as a hit."""
        with pytest.raises(ValueError, match=f"out of range: {truth}$"):
            topk_accuracy([[1, 2, 3]], [truth], 3)
