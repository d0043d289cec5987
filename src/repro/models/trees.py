"""Decision-tree classifiers of the evaluation suite: DT, RF, ET.

A shared histogram CART builder (weighted gini, quantile-binned features)
backs ``DecisionTreeNP`` (the paper's "DT"), ``RandomForestNP`` ("RF":
bootstrap + √M feature subsampling) and ``ExtraTreesNP`` ("ET": random
thresholds, no bootstrap) — mirroring scikit-learn's defaults at a size
that keeps the 648-cell Table III sweep tractable (50 trees vs 100).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gbdt.binning import BinMapper, bin_matrix

__all__ = ["DecisionTreeNP", "RandomForestNP", "ExtraTreesNP"]


class _ClassTree:
    """One gini tree over pre-binned codes; arrays-of-nodes layout."""

    __slots__ = ("feature", "threshold", "bin_thr", "left", "right", "value")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.bin_thr: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.bin_thr.append(-1)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def fit(
        self,
        codes: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        mapper: BinMapper,
        *,
        max_depth: int,
        min_samples_leaf: int,
        max_features: int | None,
        rng: np.random.Generator,
        random_threshold: bool,
    ) -> "_ClassTree":
        m = codes.shape[1]

        def gini_gain(pos_hist, tot_hist, pos_tot, w_tot):
            """Impurity decrease for every split bin; returns array len bins-1."""
            cl_pos = np.cumsum(pos_hist)[:-1]
            cl_tot = np.cumsum(tot_hist)[:-1]
            cr_pos = pos_tot - cl_pos
            cr_tot = w_tot - cl_tot
            with np.errstate(divide="ignore", invalid="ignore"):
                gini_l = 1.0 - (cl_pos / cl_tot) ** 2 - (1 - cl_pos / cl_tot) ** 2
                gini_r = 1.0 - (cr_pos / cr_tot) ** 2 - (1 - cr_pos / cr_tot) ** 2
                parent = 1.0 - (pos_tot / w_tot) ** 2 - (1 - pos_tot / w_tot) ** 2
                gain = parent - (cl_tot / w_tot) * gini_l - (cr_tot / w_tot) * gini_r
            gain = np.where((cl_tot > 0) & (cr_tot > 0), gain, -np.inf)
            return np.nan_to_num(gain, nan=-np.inf)

        def build(idx: np.ndarray, depth: int) -> int:
            nid = self._new_node()
            w_node = w[idx]
            w_tot = w_node.sum()
            pos_tot = w_node[y[idx] == 1].sum()
            self.value[nid] = float(pos_tot / w_tot) if w_tot > 0 else 0.5
            if (
                depth >= max_depth
                or len(idx) < 2 * min_samples_leaf
                or pos_tot <= 0
                or pos_tot >= w_tot
            ):
                return nid
            feats = (
                rng.choice(m, size=min(max_features, m), replace=False)
                if max_features
                else np.arange(m)
            )
            best = (-np.inf, -1, -1)
            for f in feats:
                n_edges = len(mapper.edges[f])
                if n_edges == 0:
                    continue
                c = codes[idx, f]
                tot = np.bincount(c, weights=w_node, minlength=n_edges + 1)
                pos = np.bincount(
                    c, weights=w_node * (y[idx] == 1), minlength=n_edges + 1
                )
                if random_threshold:
                    lo, hi = int(c.min()), int(c.max())
                    if hi <= lo:
                        continue
                    b = int(rng.integers(lo, hi))  # split in [lo, hi)
                    g = gini_gain(pos, tot, pos_tot, w_tot)
                    if b < len(g) and g[b] > best[0]:
                        best = (float(g[b]), int(f), b)
                else:
                    g = gini_gain(pos, tot, pos_tot, w_tot)
                    b = int(np.argmax(g))
                    if g[b] > best[0]:
                        best = (float(g[b]), int(f), b)
            gain, f, b = best
            if gain <= 1e-12 or f < 0:
                return nid
            go_left = codes[idx, f] <= b
            if (
                go_left.sum() < min_samples_leaf
                or (~go_left).sum() < min_samples_leaf
            ):
                return nid
            self.feature[nid] = f
            self.bin_thr[nid] = b
            self.threshold[nid] = float(mapper.edges[f][b])
            self.left[nid] = build(idx[go_left], depth + 1)
            self.right[nid] = build(idx[~go_left], depth + 1)
            return nid

        build(np.arange(len(codes)), 0)
        return self

    def predict_proba1(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        idx = np.zeros(len(X), dtype=np.int64)
        active = np.arange(len(X))
        feature = np.asarray(self.feature)
        while active.size:
            nxt = []
            for nid in np.unique(idx[active]):
                rows = active[idx[active] == nid]
                if feature[nid] < 0:
                    out[rows] = self.value[nid]
                    continue
                go_left = X[rows, feature[nid]] <= self.threshold[nid]
                idx[rows[go_left]] = self.left[nid]
                idx[rows[~go_left]] = self.right[nid]
                nxt.append(rows)
            active = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
        return out


@dataclass
class DecisionTreeNP:
    """CART classifier (gini), histogram splits."""

    max_depth: int = 12
    min_samples_leaf: int = 2
    n_bins: int = 64
    random_state: int = 0

    _tree: _ClassTree | None = field(default=None, repr=False)
    _mapper: BinMapper | None = field(default=None, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeNP":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._mapper, codes = bin_matrix(X, self.n_bins)
        self._tree = _ClassTree().fit(
            codes,
            y,
            np.ones(len(y)),
            self._mapper,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=None,
            rng=np.random.default_rng(self.random_state),
            random_threshold=False,
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = self._tree.predict_proba1(np.asarray(X, dtype=np.float64))
        return np.column_stack([1 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)


@dataclass
class _Forest:
    """Shared ensemble scaffolding for RF / ET."""

    n_estimators: int = 50
    max_depth: int = 12
    min_samples_leaf: int = 2
    n_bins: int = 64
    random_state: int = 0
    bootstrap: bool = True
    random_threshold: bool = False

    _trees: list[_ClassTree] = field(default_factory=list, repr=False)
    _mapper: BinMapper | None = field(default=None, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._mapper, codes = bin_matrix(X, self.n_bins)
        rng = np.random.default_rng(self.random_state)
        n, m = X.shape
        max_features = max(1, int(np.sqrt(m)))
        self._trees = []
        for _t in range(self.n_estimators):
            w = (
                np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
                if self.bootstrap
                else np.ones(n)
            )
            tree = _ClassTree().fit(
                codes,
                y,
                w,
                self._mapper,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=rng,
                random_threshold=self.random_threshold,
            )
            self._trees.append(tree)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        p = np.mean([t.predict_proba1(X) for t in self._trees], axis=0)
        return np.column_stack([1 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)


class RandomForestNP(_Forest):
    """Random forest: bootstrap rows, √M features per split."""

    def __init__(self, **kw):
        super().__init__(**{"bootstrap": True, "random_threshold": False, **kw})


class ExtraTreesNP(_Forest):
    """Extremely randomized trees: full sample, random split thresholds."""

    def __init__(self, **kw):
        super().__init__(**{"bootstrap": False, "random_threshold": True, **kw})
