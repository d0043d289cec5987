"""Decision-tree classifiers of the evaluation suite: DT, RF, ET.

Every tree is grown by :func:`repro.gbdt.tree.grow_tree`, the booster's
histogram grower, on quantile-binned features. With row weights w,
gradients g = −w·y, hessians h = w and λ = 0, a split's second-order gain
is W/4 times its weighted gini decrease (W the node's weight), and a leaf's
value −G/H is the node's weighted positive rate: a gini CART tree is that
grower's tree. The three classifiers differ only in the row weights and in
the splits a node may take (``grow_tree``'s ``split_mask``):

* ``DecisionTreeNP`` ("DT"): one tree, unit weights, every split;
* ``RandomForestNP`` ("RF"): bootstrap draw counts as weights, √M features
  drawn per node;
* ``ExtraTreesNP`` ("ET"): unit weights, √M features per node, each with one
  split bin drawn uniformly in [lo, hi), lo and hi the node's lowest and
  highest occupied bins.

As in scikit-learn, a split is eligible only if both children weigh at
least ``min_samples_leaf``. The defaults mirror scikit-learn's at a size
that keeps the 648-cell Table III sweep tractable (50 trees vs 100).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gbdt.binning import BinMapper, bin_matrix
from ..gbdt.tree import Tree, assign_slots, build_histograms, grow_tree, histogram_weights

__all__ = ["DecisionTreeNP", "RandomForestNP", "ExtraTreesNP", "binned", "gini_tree"]


def binned(X: np.ndarray, n_bins: int) -> tuple[BinMapper, np.ndarray]:
    """Bin edges of ``X`` and its codes as a column-major ``intp`` matrix."""
    mapper, codes = bin_matrix(np.asarray(X, dtype=np.float64), n_bins)
    return mapper, np.asarray(codes, dtype=np.intp, order="F")


def gini_tree(codes, y, w, mapper: BinMapper, *, max_depth: int, min_weight: float, split_mask=None) -> Tree:
    """One weighted gini tree: :func:`grow_tree` with g = −w·y, h = w, λ = 0.

    A split is eligible only if both children weigh at least ``min_weight``,
    which must be positive: at λ = 0 an empty child's gain is 0/0. It must
    also cut the gini impurity of the whole sample by more than 1e-12
    (``gamma`` = 1e-12·W/4): under fractional weights a pure node's gain is
    not 0 but rounding residue, about 1e-16·W.
    """
    weights = histogram_weights(-w * y, w)
    node = np.zeros(len(y), dtype=np.intp)

    def hist_fn(tree, frontier):
        slots = assign_slots(tree, frontier, codes, node)
        return build_histograms(codes, weights, slots, max(frontier) + 1, mapper.max_bins)

    return grow_tree(
        hist_fn, mapper, max_depth=max_depth, reg_lambda=0.0, gamma=2.5e-13 * w.sum(),
        min_child_weight=min_weight, learning_rate=1.0, split_mask=split_mask,
    )


@dataclass
class DecisionTreeNP:
    """CART classifier (gini): one unbootstrapped tree over every feature."""

    max_depth: int = 12
    min_samples_leaf: int = 2
    n_bins: int = 64

    _trees: list[Tree] = field(default_factory=list, repr=False)

    # What each tree kind is, not options: trees per fit, bootstrap rows,
    # draw √M features per node, one random split bin per drawn feature.
    n_estimators = 1
    bootstrap = draw_features = random_threshold = False

    def fit(self, X: np.ndarray, y: np.ndarray):
        mapper, codes = binned(X, self.n_bins)
        y = np.asarray(y, dtype=np.float64)
        n, m = codes.shape
        rng = np.random.default_rng(self.random_state) if self.draw_features else None
        k = max(1, int(np.sqrt(m)))

        def draw(hess: np.ndarray) -> np.ndarray:
            mask = np.zeros((m, hess.shape[1] - 1), dtype=bool)
            feats = rng.choice(m, size=k, replace=False)
            if not self.random_threshold:
                mask[feats] = True
                return mask
            occupied = hess[feats] > 0
            lo = occupied.argmax(axis=1)
            hi = occupied.shape[1] - 1 - occupied[:, ::-1].argmax(axis=1)
            for f, a, b in zip(feats, lo, hi):
                if b > a:
                    mask[f, rng.integers(a, b)] = True
            return mask

        self._trees = []
        for _t in range(self.n_estimators):
            w = np.bincount(rng.integers(0, n, n), minlength=n) if self.bootstrap else np.ones(n)
            self._trees.append(gini_tree(
                codes, y, w.astype(np.float64), mapper, max_depth=self.max_depth,
                min_weight=self.min_samples_leaf, split_mask=draw if self.draw_features else None,
            ))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        p = np.mean([t.predict(X) for t in self._trees], axis=0)
        return np.column_stack([1 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)


@dataclass
class _Forest(DecisionTreeNP):
    """Shared ensemble options of RF / ET."""

    n_estimators: int = 50
    random_state: int = 0
    draw_features = True


class RandomForestNP(_Forest):
    """Random forest: bootstrap rows, √M features per split."""

    bootstrap = True


class ExtraTreesNP(_Forest):
    """Extremely randomized trees: full sample, random split thresholds."""

    random_threshold = True
