"""Label algebra: co-occurrence prior, modified softmax, soft labels.

Criteria are indexed 1-10 externally; vectors are length 11 with the
"Others" class last. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import NUM_CLASSES, NUM_CRITERIA
from .corpus import SiteRecord, criterion_columns, label_rows

VARIANTS = ("none", "vanilla", "uniform", "prior")
ALPHA_GRID = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
# the largest alpha whose vanilla row, the largest any variant builds (one
# entry alpha + 1, ten alpha), sums e^z - 1 to a finite float: the float
# below ln(max / (e + 10)), which rounds up past it
MAX_ALPHA = math.nextafter(
    math.log(np.finfo(float).max / (math.e + NUM_CLASSES - 1)), 0)


@dataclass(frozen=True)
class SmoothingConfig:
    variant: str = "none"
    alpha: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown smoothing variant {self.variant!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.alpha > MAX_ALPHA:
            raise ValueError(f"alpha must be at most {MAX_ALPHA!r} (above it "
                             f"a row's sum overflows), got {self.alpha!r}")


def cooccurrence(sites: list[SiteRecord]) -> np.ndarray:
    """The 10 x 10 int64 counts of criterion co-justification over sites.

    Off-diagonal [k,l] counts sites justified under both k and l; the
    diagonal counts sites justified under that criterion alone; both from
    the criteria columns of the sites' ``label_rows``.
    """
    rows = label_rows([site.criteria for site in sites])[:, :NUM_CRITERIA]
    sizes = rows.sum(axis=1)
    if not sizes.all():  # ``argmin``: the first site with no criteria
        raise ValueError(f"site {sites[sizes.argmin()].site_id} has no "
                         "criteria")
    multi = rows[sizes > 1].astype(np.int64)
    counts = multi.T @ multi
    np.fill_diagonal(counts, rows[sizes == 1].sum(axis=0))
    return counts


def prior_weights(counts: np.ndarray) -> np.ndarray:
    """Column-normalize the co-occurrence counts into the 10 x 11 float64
    weights mu; row k-1 holds the weight vector of criterion k.

    mu[k][l] = counts[l, k] / sum_i counts[i, k] for the ten criteria;
    the Others entry is fixed to 1 so the Others noise passes through
    the prior variant unchanged.
    """
    counts = counts.astype(float)
    col_sums = counts.sum(axis=0)
    never = np.flatnonzero(col_sums <= 0)
    if never.size:
        raise ValueError(
            f"criterion {never[0] + 1} never occurs; cannot normalize prior")
    mu = np.ones((NUM_CRITERIA, NUM_CLASSES))
    mu[:, :NUM_CRITERIA] = (counts / col_sums).T
    return mu


def soft_softmax(z: np.ndarray) -> np.ndarray:
    """Normalize each row of a non-negative 2-D array to a distribution,
    keeping zeros.

    f(z)_t = (e^{z_t} - 1) / (sum_l e^{z_l} - d). The denominator is
    computed as the row sum of numerators so each row sums to 1 exactly up
    to rounding; a row whose sum is not a finite float (an entry above
    about 709, or NaN) is a ``ValueError``, as is an all-zero row.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError(f"expected a 2-d batch of rows, got {z.ndim}-d input")
    if np.any(z < 0):
        raise ValueError("entries must be non-negative")
    with np.errstate(over="ignore"):  # refused just below
        numerators = np.expm1(z)
        denoms = numerators.sum(axis=1, keepdims=True)
    if not np.isfinite(denoms).all():
        raise ValueError("a row's sum of e^z - 1 is not a finite float")
    if np.any(denoms <= 0):
        raise ValueError("all-zero row: denominator is zero")
    return numerators / denoms


def soft_targets(labels: np.ndarray, parentals: np.ndarray,
                 mu: np.ndarray | None,
                 config: SmoothingConfig) -> np.ndarray:
    """Combine each row's sentence label, a criterion id 1-10 (any other is
    a ``ValueError``), and its parental labels into a soft label; the
    label's one-hot row (0 for Others) is built here, in one indexing step.

    The prior variant weighs each row's parental labels by the prior of its
    sentence criterion, ``mu[label - 1]``.
    """
    rows = criterion_columns(labels)
    one_hots = np.eye(NUM_CLASSES)[rows]
    if config.variant == "none" or config.alpha == 0:
        return one_hots
    alpha = config.alpha
    parentals = np.asarray(parentals, dtype=float)
    if config.variant == "vanilla":
        combined = one_hots + alpha
    elif config.variant == "uniform":
        combined = one_hots + alpha * parentals
    else:  # prior
        if mu is None:
            raise ValueError("prior smoothing requires prior weights")
        combined = one_hots + alpha * (mu[rows] * parentals)
    return soft_softmax(combined)

