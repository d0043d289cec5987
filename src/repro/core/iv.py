"""Information Value filtering (paper Algorithm 3, Table I).

IV of a feature over β equal-frequency bins::

    IV = Σ_i (n_p^i/n_p − n_n^i/n_n) · ln( (n_p^i/n_p) / (n_n^i/n_n) )

Note: the paper's Eq. (6) as printed omits the logarithm (it multiplies the
difference by the raw ratio). That form is not the industry-standard
Information Value that Table I's thumb-rule bands describe, is unbounded
and sign-asymmetric, so we implement the canonical WOE-weighted form above
(documented substitution, DESIGN.md §2). Empty-class bins are Laplace
smoothed with 0.5 so WOE stays finite.

The statistic is one count kernel, one merge and one finish, shared by
both engines: :func:`repro.core.scan.bin_counts` counts a block's
positive and total rows per bin on given edges, the counts add across
blocks, and :func:`repro.core.scan.iv_of_counts` takes the IV over bins 0
through the highest non-empty one, keeping an empty bin below it (smoothed
by 0.5 like every bin). The engines differ only in their edges: the local
engine takes exact ones from each sorted column (:func:`sorted_edges`,
quantiles of its finite values read straight from it by
:func:`repro.gbdt.binning.sorted_quantiles`, equal to ``numpy.quantile``),
the distributed Spark engine takes them from ``approxQuantile`` (which
skips nulls and NaN), so the two agree up to the quantile approximation.
NaN and ±inf take no part in the edges: -inf falls in the first bin, +inf
and NaN in the last.
"""
from __future__ import annotations

import numpy as np

from ..gbdt.binning import finite_slice, sorted_quantiles

__all__ = ["IV_BANDS", "iv_from_counts", "equal_freq_bin", "sorted_edges"]

#: Table I of the paper: predictive-power rule of thumb.
IV_BANDS: tuple[tuple[float, float, str], ...] = (
    (0.0, 0.02, "useless"),
    (0.02, 0.1, "weak"),
    (0.1, 0.3, "medium"),
    (0.3, 0.5, "strong"),
    (0.5, float("inf"), "extremely strong"),
)

DEFAULT_ALPHA = 0.1  # paper §IV-C1: keep medium-or-better predictors
DEFAULT_BETA = 10  # bins


def iv_band(iv: float) -> str:
    """Predictive-power band of an IV value per Table I."""
    for lo, hi, name in IV_BANDS:
        if lo <= iv < hi:
            return name
    return IV_BANDS[-1][2]


def iv_from_counts(pos: np.ndarray, neg: np.ndarray) -> float:
    """IV from per-bin positive/negative counts (0.5 Laplace smoothing)."""
    pos = np.asarray(pos, dtype=np.float64) + 0.5
    neg = np.asarray(neg, dtype=np.float64) + 0.5
    p = pos / pos.sum()
    q = neg / neg.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def equal_freq_bin(x: np.ndarray, beta: int = DEFAULT_BETA) -> np.ndarray:
    """Equal-frequency bin codes in [0, beta) via rank quantiles.

    Ties collapse bins (a constant column lands entirely in one bin, so its
    IV is 0 — correctly flagged useless).
    """
    x = np.asarray(x, dtype=np.float64)
    return np.searchsorted(sorted_edges(np.sort(x), beta), x, side="left")


def sorted_edges(xs: np.ndarray, beta: int) -> np.ndarray:
    """Distinct equal-frequency edges of a sorted column's finite values."""
    finite = finite_slice(xs)
    if finite.size == 0:
        return np.empty(0, dtype=np.float64)
    return np.unique(sorted_quantiles(finite, np.linspace(0, 1, beta + 1)[1:-1]))
