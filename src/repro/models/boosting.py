"""AdaBoost (evaluation suite "AB"): SAMME with depth-1 stumps.

Mirrors ``sklearn.ensemble.AdaBoostClassifier`` defaults (50 estimators,
stump base learner). Each stump is a weighted gini tree grown by
:func:`repro.models.trees.gini_tree` (the booster's ``grow_tree`` with
g = −w·y, h = w, λ = 0) on the boosting weights rescaled to mean 1; any
split whose children both hold a row of positive weight is eligible. The
decision function is the α-weighted vote sum; only its ordering matters
for the AUC tables.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gbdt.tree import Tree
from .trees import binned, gini_tree

__all__ = ["AdaBoostNP"]


@dataclass
class AdaBoostNP:
    n_estimators: int = 50
    max_depth: int = 1
    n_bins: int = 64

    _stumps: list[Tree] = field(default_factory=list, repr=False)
    _alphas: list[float] = field(default_factory=list, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AdaBoostNP":
        mapper, codes = binned(X, self.n_bins)
        y = np.asarray(y, dtype=np.int64)
        n = len(y)
        w = np.full(n, 1.0 / n)
        self._stumps, self._alphas = [], []
        for _t in range(self.n_estimators):
            u = w / w.mean()
            stump = gini_tree(codes, y, u, mapper, max_depth=self.max_depth, min_weight=u[u > 0].min() / 2)
            pred = (stump.predict_binned(codes) >= 0.5).astype(np.int64)
            err = float(w[pred != y].sum() / w.sum())
            if err >= 0.5:
                break
            err = max(err, 1e-10)
            alpha = float(np.log((1 - err) / err))  # SAMME, K=2
            self._stumps.append(stump)
            self._alphas.append(alpha)
            w = w * np.exp(alpha * (pred != y))
            w /= w.sum()
            if err < 1e-9:
                break
        if not self._stumps:  # first stump already perfect/degenerate
            self._stumps, self._alphas = [stump], [1.0]
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        score = np.zeros(len(X))
        for stump, alpha in zip(self._stumps, self._alphas):
            score += alpha * (2.0 * (stump.predict(X) >= 0.5) - 1.0)
        return score

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        s = self.decision_function(X)
        tot = sum(self._alphas) or 1.0
        p = (s / tot + 1.0) / 2.0
        return np.column_stack([1 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(np.int64)
