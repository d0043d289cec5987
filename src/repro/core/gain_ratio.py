"""Information-gain-ratio sorting of feature combinations (Algorithm 2).

A combination's split features and split values partition all records into
∏(|V_i|+1) cells; its score is the information gain of that partition over
the label, normalised by the partition's intrinsic value (split info) —
C4.5's gain ratio, which is what "information gain ratio" denotes.

The statistic is one count kernel and one finish step, shared by both
engines: :func:`cell_counts` bins a block of rows into every
combination's cells at once (numpy digitise + bincount) and returns one
flat ``[pos | neg]`` int64 array, which adds up exactly across blocks;
:func:`gain_ratios_from_cell_counts` finishes the entropy arithmetic. The
local engine counts its whole frame as one block; the Spark engine counts
each partition and sums the partials on the driver
(:func:`repro.gbdt.spark_backend.reduce_partitions`), one Spark job
regardless of the number of combinations.
"""
from __future__ import annotations

import numpy as np

from .combos import FeatureCombo

__all__ = [
    "cell_counts",
    "gain_ratio_from_counts",
    "gain_ratios_from_cell_counts",
    "n_cells",
    "top_combos",
]


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of a count vector."""
    counts = counts[counts > 0].astype(np.float64)
    if counts.size == 0:
        return 0.0
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def gain_ratio_from_counts(cell_pos: np.ndarray, cell_neg: np.ndarray) -> float:
    """Gain ratio from per-cell positive/negative counts."""
    cell_pos = np.asarray(cell_pos, dtype=np.float64)
    cell_neg = np.asarray(cell_neg, dtype=np.float64)
    n_cell = cell_pos + cell_neg
    n = n_cell.sum()
    if n == 0:
        return 0.0
    h_root = _entropy(np.array([cell_pos.sum(), cell_neg.sum()]))
    # each non-empty cell's label entropy, as _entropy computes it, and
    # h_cond summed left to right over those cells
    nz = n_cell > 0
    share = np.stack([cell_pos[nz], cell_neg[nz]]) / n_cell[nz]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(share > 0, share * np.log(share), 0.0)
    terms = n_cell[nz] / n * -(plogp[0] + plogp[1])
    h_cond = np.cumsum(np.concatenate(([0.0], terms)))[-1]  # 0.0 + t0 + t1 + ...
    split_info = _entropy(n_cell)
    gain = h_root - h_cond
    return float(gain / split_info) if split_info > 1e-12 else 0.0


def _cell_ids(mat: np.ndarray, combo: FeatureCombo) -> np.ndarray:
    """Mixed-radix cell index of each row for a combination's partition."""
    ids = np.zeros(len(mat), dtype=np.int64)
    for f, vs in zip(combo.features, combo.split_values):
        codes = np.searchsorted(np.asarray(vs), mat[:, f], side="left")
        ids = ids * (len(vs) + 1) + codes
    return ids


def n_cells(combos: list[FeatureCombo]) -> int:
    """Cells of all ``combos`` together: half the length of their counts."""
    return sum(c.n_cells() for c in combos)


def cell_counts(X: np.ndarray, y: np.ndarray, combos: list[FeatureCombo]) -> np.ndarray:
    """Per-cell label counts of every combination over the rows of ``X``.

    The count kernel of Algorithm 2: a flat int64 array, the positive
    counts of every combination's cells in order, then the negative ones
    in the same order. Counts of row blocks add up to the counts of their
    union.
    """
    yb = np.asarray(y).astype(bool)
    total = n_cells(combos)
    out = np.empty(2 * total, dtype=np.int64)
    at = 0
    for combo in combos:
        ids = _cell_ids(X, combo)
        k = combo.n_cells()
        out[at : at + k] = np.bincount(ids[yb], minlength=k)
        out[total + at : total + at + k] = np.bincount(ids[~yb], minlength=k)
        at += k
    return out


def gain_ratios_from_cell_counts(counts: np.ndarray, combos: list[FeatureCombo]) -> list[float]:
    """Gain ratio per combination from :func:`cell_counts`' array."""
    pos, neg = np.split(counts, 2)
    out, at = [], 0
    for combo in combos:
        k = combo.n_cells()
        out.append(gain_ratio_from_counts(pos[at : at + k], neg[at : at + k]))
        at += k
    return out


def top_combos(
    combos: list[FeatureCombo], ratios: list[float], gamma: int
) -> list[FeatureCombo]:
    """The γ highest-gain-ratio combinations (Algorithm 2, l.7).

    Deterministic: ties break on the combination's feature tuple.
    """
    order = sorted(
        range(len(combos)), key=lambda i: (-ratios[i], combos[i].features)
    )
    return [combos[i] for i in order[:gamma]]
