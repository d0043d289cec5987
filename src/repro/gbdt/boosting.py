"""XGBoost-substrate gradient-boosted trees (binary logistic objective).

``GBDTClassifier`` is the tree model SAFE trains in both the combination-
mining stage and the importance-ranking stage (paper §IV-A), and also the
"XGB" evaluation classifier of Tables III and VIII. It is a from-scratch
histogram GBDT: quantile binning, second-order gradients, level-wise
growth, λ-regularised leaf weights, and per-feature average-gain
importance — the exact algorithmic surface SAFE relies on.

One boosting loop, :meth:`GBDTClassifier.fit_source`, serves both engines:
it grows each tree with :func:`repro.gbdt.tree.grow_tree` from a histogram
source. :meth:`GBDTClassifier.fit_binned` is the numpy source;
:func:`repro.gbdt.spark_backend.fit_spark` is the distributed one, and
returns the same class.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binning import BinMapper, bin_matrix
from .tree import Tree, assign_slots, build_histograms, grow_tree, histogram_weights

__all__ = ["GBDTClassifier", "sigmoid", "logistic_grad_hess"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_grad_hess(margin: np.ndarray, y: np.ndarray):
    """First/second-order gradients of log-loss w.r.t. the margin."""
    p = sigmoid(margin)
    return p - y, np.maximum(p * (1.0 - p), 1e-12)


@dataclass
class GBDTClassifier:
    """Histogram gradient-boosted trees for binary classification.

    Defaults mirror a small XGBoost configuration suitable both for SAFE's
    mining stage (shallow trees → short paths → small combination space,
    per Eq. 13 the generated-feature budget is controlled by K·D) and as an
    evaluation classifier.
    """

    n_estimators: int = 20
    max_depth: int = 3
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1e-3
    n_bins: int = 64
    base_score: float = 0.5
    subsample: float = 1.0
    random_state: int = 0

    trees_: list[Tree] = field(default_factory=list, repr=False)
    mapper_: BinMapper | None = field(default=None, repr=False)
    n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBDTClassifier":
        mapper, codes = bin_matrix(X, self.n_bins)
        return self.fit_binned(codes, mapper, y)

    def fit_binned(self, codes: np.ndarray, mapper: BinMapper, y: np.ndarray) -> "GBDTClassifier":
        """Fit on bin codes already computed with ``mapper``.

        ``codes`` is a column-major integer matrix such as :func:`bin_matrix`
        returns, so a caller that keeps codes per column (the local engine)
        fits several models without binning a column twice. It is widened
        to ``intp`` once (no copy if it is already): ``np.add.at`` indexes
        with ``intp`` and would otherwise convert a column on every call.

        Each tree's gradients and hessians are packed once into one complex
        weight vector (:func:`histogram_weights`); rows left out by
        ``subsample`` weigh 0 in both parts.

        This is the local histogram source of :meth:`fit_source`. It keeps
        each row's node in the tree being grown: every histogram pass moves
        the rows one level down (:func:`assign_slots`), and when the next
        tree asks for its histograms one last step puts them in the
        finished tree's leaves, whose values the margins take. So no row is
        routed from the root, and the last tree is never predicted on the
        training rows.
        """
        codes = np.asarray(codes, dtype=np.intp, order="F")
        y = np.asarray(y, dtype=np.float64)
        margin = np.full(len(y), self.base_margin(), dtype=np.float64)
        node = np.zeros(len(y), dtype=np.intp)
        rng = np.random.default_rng(self.random_state)

        def histograms(trees):
            if trees:
                trees[-1].advance(node, codes)
                margin[:] += trees[-1].leaf_values()[node]
                node[:] = 0
            weights = histogram_weights(*logistic_grad_hess(margin, y))
            if self.subsample < 1.0:
                weights[rng.random(len(y)) >= self.subsample] = 0.0

            def hist_fn(tree, frontier):
                slots = assign_slots(tree, frontier, codes, node)
                return build_histograms(
                    codes, weights, slots, max(frontier) + 1, mapper.max_bins
                )

            return hist_fn

        return self.fit_source(mapper, histograms)

    def fit_source(self, mapper: BinMapper, histograms) -> "GBDTClassifier":
        """Grow ``n_estimators`` trees on the bins of ``mapper``.

        ``histograms(trees)`` returns the :func:`grow_tree` histogram
        callback of the next tree, given the trees grown so far. It is the
        only step of a fit that reads rows, so it is all a backend supplies:
        :meth:`fit_binned` sums local arrays, and
        :func:`repro.gbdt.spark_backend.fit_spark` sums partition partials.
        """
        self.n_features_ = mapper.n_features
        self.mapper_ = mapper
        self.trees_ = []
        for _k in range(self.n_estimators):
            tree = grow_tree(
                histograms(self.trees_),
                mapper,
                max_depth=self.max_depth,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
                min_child_weight=self.min_child_weight,
                learning_rate=self.learning_rate,
            )
            self.trees_.append(tree)
        return self

    def base_margin(self) -> float:
        """The margin every row starts from: the log-odds of ``base_score``."""
        p = float(np.clip(self.base_score, 1e-6, 1 - 1e-6))
        return float(np.log(p / (1 - p)))

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        margin = np.full(len(X), self.base_margin(), dtype=np.float64)
        for t in self.trees_:
            margin += t.predict(X)
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(np.int64)

    # ---- the introspection surface SAFE consumes -------------------------
    def paths(self) -> list[list[tuple[int, float]]]:
        """Root→leaf-parent paths (feature, split value) over all trees."""
        out: list[list[tuple[int, float]]] = []
        for t in self.trees_:
            out.extend(t.paths())
        return out

    def split_features(self) -> set[int]:
        s: set[int] = set()
        for t in self.trees_:
            s |= t.split_features()
        return s

    def feature_importances(self) -> np.ndarray:
        """Average split gain per feature ("gain" importance in XGBoost)."""
        sums = np.zeros(self.n_features_)
        counts = np.zeros(self.n_features_)
        for t in self.trees_:
            for f, gains in t.gain_by_feature().items():
                sums[f] += sum(gains)
                counts[f] += len(gains)
        with np.errstate(invalid="ignore", divide="ignore"):
            imp = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        return imp
