"""Evaluation metrics: top-1/top-k accuracy, macro F1, per-class scores,
confusion matrices, and the multi-label match rates for the SD set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import NUM_CLASSES, NUM_CRITERIA


@dataclass
class EvalReport:
    top1_accuracy: float
    topk_accuracy: float
    macro_f1: float
    per_class: dict[int, dict[str, float]]
    confusion: np.ndarray  # 11x11, rows = truth, columns = prediction
    k: int

    def to_dict(self) -> dict:
        return {
            "top1_accuracy": self.top1_accuracy,
            "topk_accuracy": self.topk_accuracy,
            "macro_f1": self.macro_f1,
            "per_class": {str(c): v for c, v in self.per_class.items()},
            "confusion": self.confusion.tolist(),
            "k": self.k,
        }


@dataclass
class MatchReport:
    top1_match: float
    topk_match: float
    k: int

    def to_dict(self) -> dict:
        return {"top1_match": self.top1_match,
                "topk_match": self.topk_match, "k": self.k}


def _check_lengths(predictions, truths) -> None:
    if len(predictions) != len(truths):
        raise ValueError(
            f"{len(predictions)} predictions vs {len(truths)} truths")


def topk_accuracy(rankings: list[list[int]], truths: list[int],
                  k: int) -> float:
    """Share of samples whose truth is among the first ``k`` entries of its
    ranking."""
    _check_lengths(rankings, truths)
    if len(truths) == 0:
        raise ValueError("cannot evaluate an empty split")
    return sum(t in r[:k] for r, t in zip(rankings, truths)) / len(truths)


def confusion_matrix(predictions: list[list[int]],
                     truths: list[int]) -> np.ndarray:
    """11x11 counts from rank-1 predictions; [t-1][p-1] is truth t -> pred p."""
    _check_lengths(predictions, truths)
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for ranking, truth in zip(predictions, truths):
        if not 1 <= truth <= NUM_CRITERIA:
            raise ValueError(f"truth label out of range: {truth}")
        counts[truth - 1, ranking[0] - 1] += 1
    return counts


def _precision_recall_f1(confusion: np.ndarray,
                         cls: int) -> dict[str, float]:
    # zero denominators yield 0 by convention
    i = cls - 1
    tp = confusion[i, i]
    predicted = confusion[:, i].sum()
    actual = confusion[i, :].sum()
    precision = tp / predicted if predicted > 0 else 0.0
    recall = tp / actual if actual > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return {"precision": float(precision), "recall": float(recall),
            "f1": float(f1)}


def evaluate_split(predictions: list[list[int]], truths: list[int],
                   k: int = 3) -> EvalReport:
    """Multi-class evaluation of ranked predictions against sentence labels.

    Macro F1 averages over the ten criterion classes only; "Others" keeps
    its confusion column but never appears as a truth.
    """
    top1 = topk_accuracy(predictions, truths, 1)
    topk = topk_accuracy(predictions, truths, k)
    confusion = confusion_matrix(predictions, truths)
    per_class = {cls: _precision_recall_f1(confusion, cls)
                 for cls in range(1, NUM_CRITERIA + 1)}
    macro_f1 = sum(v["f1"] for v in per_class.values()) / NUM_CRITERIA
    return EvalReport(top1_accuracy=top1, topk_accuracy=topk,
                      macro_f1=float(macro_f1), per_class=per_class,
                      confusion=confusion, k=k)


def evaluate_matches(predictions: list[list[int]],
                     parentals: list[np.ndarray], k: int = 3) -> MatchReport:
    """Multi-label match rates: a sample scores when any parental criterion
    (entries 1-10 equal to 1; Others never counts) is in the top ranks."""
    _check_lengths(predictions, parentals)
    n = len(predictions)
    if n == 0:
        raise ValueError("cannot compute match rates over no predictions")
    top1_hits = 0
    topk_hits = 0
    for ranking, parental in zip(predictions, parentals):
        parent_set = {i + 1 for i in range(NUM_CRITERIA)
                      if parental[i] == 1.0}
        if ranking[0] in parent_set:
            top1_hits += 1
        if parent_set & set(ranking[:k]):
            topk_hits += 1
    return MatchReport(top1_match=top1_hits / n, topk_match=topk_hits / n,
                       k=k)
