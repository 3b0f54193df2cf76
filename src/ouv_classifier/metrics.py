"""Evaluation metrics over rankings, ``rank_classes``' ``rows x m`` arrays of
1-based class ids (lists are accepted): top-1/top-k accuracy, macro F1,
per-class scores, confusion matrices and the SD set's match rates."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import NUM_CLASSES, NUM_CRITERIA
from .corpus import criterion_columns


@dataclass(eq=False)  # compared by identity: == would raise on confusion
class EvalReport:
    top1_accuracy: float
    topk_accuracy: float
    macro_f1: float
    per_class: dict[int, dict[str, float]]
    confusion: np.ndarray  # 11x11, rows = truth, columns = prediction
    k: int

    def to_dict(self) -> dict:
        return dict(asdict(self), confusion=self.confusion.tolist(),
                    per_class={str(c): v for c, v in self.per_class.items()})


@dataclass
class MatchReport:
    top1_match: float
    topk_match: float
    k: int

    def to_dict(self) -> dict:
        return asdict(self)


def _check_rows(predictions, truths) -> None:
    if len(predictions) != len(truths):
        raise ValueError(
            f"{len(predictions)} predictions vs {len(truths)} truths")
    if len(truths) == 0:
        raise ValueError("cannot score an empty split (no predictions)")


def check_k(k: int) -> None:
    if not 1 <= k <= NUM_CLASSES:
        raise ValueError(f"k must be in 1..{NUM_CLASSES}, got {k}")


def topk_accuracy(rankings, truths, k: int) -> float:
    """Share of samples whose truth is among the first ``k`` entries of its
    ranking: a Python ``int`` count over n, as every rate here is. A truth
    outside 1-10 is ``criterion_columns``' ``ValueError``."""
    check_k(k)
    _check_rows(rankings, truths)
    columns = criterion_columns(truths)[:, None]
    hits = np.asarray(rankings)[:, :k] - 1 == columns
    return int(np.count_nonzero(hits.any(axis=1))) / len(truths)


def confusion_matrix(predictions, truths) -> np.ndarray:
    """11x11 counts from rank-1 predictions; [t-1][p-1] is truth t -> pred p."""
    _check_rows(predictions, truths)
    # (t-1)*11 + (p-1); a rank-1 id outside 1..11 raises ValueError
    cells = np.ravel_multi_index(
        (criterion_columns(truths), np.asarray(predictions)[:, 0] - 1),
        (NUM_CLASSES,) * 2)
    return np.bincount(cells, minlength=NUM_CLASSES ** 2).reshape(
        NUM_CLASSES, NUM_CLASSES)


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


def evaluate_split(predictions, truths, k: int = 3) -> EvalReport:
    """Multi-class evaluation of ranked predictions against sentence labels.

    Macro F1 averages over the ten criterion classes only; "Others" keeps
    its confusion column but never appears as a truth.
    """
    confusion = confusion_matrix(predictions, truths)
    per_class = {cls: _precision_recall_f1(confusion, cls)
                 for cls in range(1, NUM_CRITERIA + 1)}
    macro_f1 = sum(v["f1"] for v in per_class.values()) / NUM_CRITERIA
    return EvalReport(top1_accuracy=topk_accuracy(predictions, truths, 1),
                      topk_accuracy=topk_accuracy(predictions, truths, k),
                      macro_f1=float(macro_f1), per_class=per_class,
                      confusion=confusion, k=k)


def evaluate_matches(predictions, parentals, k: int = 3) -> MatchReport:
    """Multi-label match rates: a sample scores when any parental criterion
    (entries 1-10 equal to 1; Others never counts) is in the top ranks."""
    check_k(k)
    _check_rows(predictions, parentals)
    n = len(predictions)
    parent = np.asarray(parentals) == 1.0
    parent[:, NUM_CRITERIA:] = False
    hits = np.take_along_axis(parent, np.asarray(predictions)[:, :k] - 1,
                              axis=1)
    return MatchReport(top1_match=int(np.count_nonzero(hits[:, 0])) / n,
                       topk_match=int(np.count_nonzero(hits.any(axis=1))) / n,
                       k=k)
