import numpy as np
import pytest
from hypothesis import given, strategies as st

from ouv_classifier import NUM_CLASSES, NUM_CRITERIA
from ouv_classifier.metrics import (confusion_matrix, evaluate_matches,
                                    evaluate_split)


def full_ranking(first):
    rest = [c for c in range(1, NUM_CLASSES + 1) if c != first]
    return [first] + rest


def parental(*criteria):
    vec = np.zeros(NUM_CLASSES)
    for k in criteria:
        vec[k - 1] = 1.0
    vec[NUM_CLASSES - 1] = 0.2
    return vec


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
        def hits(k):
            total = 0
            for ranking, vec in zip(rankings, parentals):
                pset = {i + 1 for i in range(NUM_CRITERIA) if vec[i] == 1}
                if pset & set(ranking[:k]):
                    total += 1
            return total / len(rankings)
        assert report.top1_match == pytest.approx(hits(1))
        assert report.topk_match == pytest.approx(hits(3))
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
