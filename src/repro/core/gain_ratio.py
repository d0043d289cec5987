"""Information-gain-ratio sorting of feature combinations (Algorithm 2).

A combination's split features and split values partition all records into
∏(|V_i|+1) cells; its score is the information gain of that partition over
the label, normalised by the partition's intrinsic value (split info) —
C4.5's gain ratio, which is what "information gain ratio" denotes.

Local path: vectorised numpy digitise + bincount per combination.
Distributed path: one ``mapInPandas`` pass computes per-partition
(cell, label) contingency partials for *all* combinations at once; the
driver sums the collected partials and finishes the entropy arithmetic, so
the cost is one Spark job regardless of the number of combinations.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from .combos import FeatureCombo

__all__ = ["gain_ratio_from_counts", "gain_ratios", "gain_ratios_spark", "top_combos"]


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
    h_cond = 0.0
    for p, q in zip(cell_pos, cell_neg):
        if p + q > 0:
            h_cond += (p + q) / n * _entropy(np.array([p, q]))
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


def _counts_for_combo(
    mat: np.ndarray, y: np.ndarray, combo: FeatureCombo
) -> tuple[np.ndarray, np.ndarray]:
    ids = _cell_ids(mat, combo)
    n_cells = combo.n_cells()
    pos = np.bincount(ids[y], minlength=n_cells)
    neg = np.bincount(ids[~y], minlength=n_cells)
    return pos, neg


def gain_ratios(
    X: pd.DataFrame | np.ndarray, y: np.ndarray, combos: list[FeatureCombo]
) -> list[float]:
    """Gain ratio per combination (numpy engine).

    ``combo.features`` index columns of ``X`` positionally.
    """
    mat = X.to_numpy(dtype=np.float64) if isinstance(X, pd.DataFrame) else np.asarray(X, dtype=np.float64)
    yb = np.asarray(y).astype(bool)
    return [gain_ratio_from_counts(*_counts_for_combo(mat, yb, c)) for c in combos]


def gain_ratios_spark(
    df: DataFrame,
    feature_cols: list[str],
    label_col: str,
    combos: list[FeatureCombo],
) -> list[float]:
    """Gain ratio per combination in one distributed scan.

    Each partition emits a flattened (combo, cell, pos, neg) partial
    contingency; the driver collects and sums the partials (no shuffle).
    Cells are tiny (bounded by ``max_cells`` at mining time) so the
    collected partials are O(#partitions · Σ cells).
    """
    cols = list(feature_cols) + [label_col]
    n_cells = [c.n_cells() for c in combos]

    def partial(iterator):
        for pdf in iterator:
            mat = pdf[feature_cols].to_numpy(dtype=np.float64)
            yb = pdf[label_col].to_numpy().astype(bool)
            rows = []
            for ci, combo in enumerate(combos):
                pos, neg = _counts_for_combo(mat, yb, combo)
                nz = np.nonzero(pos + neg)[0]
                for cell in nz:
                    rows.append((ci, int(cell), int(pos[cell]), int(neg[cell])))
            yield pd.DataFrame(rows, columns=["combo", "cell", "pos", "neg"])

    partials = (
        df.select(*cols)
        .mapInPandas(partial, schema="combo long, cell long, pos long, neg long")
        .toPandas()
    )
    out = []
    for ci in range(len(combos)):
        sub = partials[partials["combo"] == ci]
        cell = sub["cell"].to_numpy(dtype=np.int64)
        pos = np.zeros(n_cells[ci], dtype=np.int64)
        neg = np.zeros(n_cells[ci], dtype=np.int64)
        np.add.at(pos, cell, sub["pos"].to_numpy(dtype=np.int64))
        np.add.at(neg, cell, sub["neg"].to_numpy(dtype=np.int64))
        out.append(gain_ratio_from_counts(pos, neg))
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
