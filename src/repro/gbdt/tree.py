"""Single regression tree of the XGBoost-style booster.

Trees are grown level-wise to ``max_depth`` from per-(node, feature, bin)
gradient/hessian histograms. The split gain is XGBoost's second-order
formula::

    gain = 1/2 * [ G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam) ] - gamma

Split finding runs on the *driver* over already-aggregated histograms; the
histograms themselves come from a backend callback, so the same growth code
serves the numpy backend (histograms from local arrays) and the Spark
backend (histograms reduced from per-partition ``mapInPandas`` partials).
Below the root the callback is asked only for the child of each split with
the smaller hessian sum; the driver derives its sibling as parent minus
child, so a level scans the lighter half of each split's rows.

Rows are routed by :meth:`Tree._route`, which moves every row down one level
per step with fancy-indexed per-node arrays; prediction, binned prediction
and frontier-slot assignment all use it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binning import BinMapper

__all__ = ["Tree", "TreeNode", "grow_tree", "build_histograms", "assign_slots"]


@dataclass
class TreeNode:
    """One node; leaves have ``feature == -1`` and carry ``value``."""

    feature: int = -1
    threshold: float = 0.0  # go left iff x[feature] <= threshold
    bin_threshold: int = -1  # go left iff bincode <= bin_threshold
    gain: float = 0.0
    value: float = 0.0
    left: int = -1  # child indices into Tree.nodes
    right: int = -1


@dataclass
class Tree:
    """A fitted regression tree (array-of-nodes representation)."""

    nodes: list[TreeNode] = field(default_factory=list)

    def _route(self, X: np.ndarray, *, binned: bool) -> np.ndarray:
        """Index of the leaf each row of ``X`` reaches.

        Every row moves down one level per step by fancy-indexing per-node
        arrays (feature, threshold, left, right). Leaves route to themselves,
        so all rows take the same number of steps, the depth of the tree.
        ``binned`` compares bin codes with ``bin_threshold`` instead of
        values with ``threshold``.
        """
        k = len(self.nodes)
        feature = np.zeros(k, dtype=np.intp)
        thr = np.zeros(k, dtype=np.int64 if binned else np.float64)
        left = np.arange(k)
        right = np.arange(k)
        depth, level = 0, [0]
        while level:
            nxt = []
            for i in level:
                nd = self.nodes[i]
                if nd.feature < 0:
                    continue
                feature[i] = nd.feature
                thr[i] = nd.bin_threshold if binned else nd.threshold
                left[i], right[i] = nd.left, nd.right
                nxt += [nd.left, nd.right]
            depth += bool(nxt)
            level = nxt
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.arange(len(X))
        for _ in range(depth):
            go_left = X[rows, feature[node]] <= thr[node]
            node = np.where(go_left, left[node], right[node])
        return node

    def _values(self) -> np.ndarray:
        return np.array([nd.value for nd in self.nodes], dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for a float matrix (n, m)."""
        X = np.asarray(X, dtype=np.float64)
        return self._values()[self._route(X, binned=False)]

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Leaf values for an int bin-code matrix (training-time fast path)."""
        return self._values()[self._route(codes, binned=True)]

    def paths(self) -> list[list[tuple[int, float]]]:
        """All root→leaf-parent paths as [(feature, threshold), ...].

        Mirrors the paper's §IV-B1: for each parent-of-a-leaf node ``l_j``
        the path ``p_j`` is the sequence of split (feature, value) pairs
        from the root down to and including ``l_j``. A feature repeated on
        a path is kept each time (it may split at several values — the
        gain-ratio stage collects all of them into ``V_i``).
        """
        if not self.nodes or self.nodes[0].feature < 0:
            return []
        out: list[list[tuple[int, float]]] = []

        def rec(nid: int, acc: list[tuple[int, float]]) -> None:
            node = self.nodes[nid]
            acc = acc + [(node.feature, node.threshold)]
            child_is_leaf = [
                self.nodes[c].feature < 0 for c in (node.left, node.right)
            ]
            if any(child_is_leaf):
                out.append(acc)
            for c in (node.left, node.right):
                if self.nodes[c].feature >= 0:
                    rec(c, acc)

        rec(0, [])
        return out

    def split_features(self) -> set[int]:
        return {n.feature for n in self.nodes if n.feature >= 0}

    def gain_by_feature(self) -> dict[int, list[float]]:
        acc: dict[int, list[float]] = {}
        for n in self.nodes:
            if n.feature >= 0:
                acc.setdefault(n.feature, []).append(n.gain)
        return acc


def assign_slots(
    tree: Tree, frontier: dict[int, int], codes: np.ndarray
) -> np.ndarray:
    """Map each row to its frontier slot (or -1 if it sits in a finished leaf).

    ``frontier`` maps slot → node index; its nodes are leaves of the partial
    tree. Rows are routed down the partial tree on *bin codes*; a row whose
    leaf is not in ``frontier`` gets -1. Used by both histogram backends so
    workers need only the broadcast partial tree.
    """
    slot_of_node = np.full(len(tree.nodes), -1, dtype=np.int64)
    for slot, nid in frontier.items():
        slot_of_node[nid] = slot
    return slot_of_node[tree._route(codes, binned=True)]


def build_histograms(
    codes: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    slot_of_row: np.ndarray,
    n_slots: int,
    max_bins: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(slot, feature, bin) gradient/hessian sums.

    Returns ``(gh, hh)`` each of shape (n_slots, n_features, max_bins).
    This is the only data-size-dependent step of tree growth; the Spark
    backend computes it per partition and sums the partials. Each feature
    column is read at the active rows only, which is a strided copy unless
    ``codes`` is column-major (as :meth:`BinMapper.transform` returns it).
    """
    _n, m = codes.shape
    gh = np.empty((n_slots, m, max_bins), dtype=np.float64)
    hh = np.empty((n_slots, m, max_bins), dtype=np.float64)
    rows = np.flatnonzero(slot_of_row >= 0)
    base = slot_of_row[rows] * max_bins
    grad_a = grad[rows]
    hess_a = hess[rows]
    size = n_slots * max_bins
    for f in range(m):
        flat = base + codes[:, f].take(rows)
        gh[:, f, :] = np.bincount(flat, weights=grad_a, minlength=size).reshape(
            n_slots, max_bins
        )
        hh[:, f, :] = np.bincount(flat, weights=hess_a, minlength=size).reshape(
            n_slots, max_bins
        )
    return gh, hh


def _best_split(
    gh_node: np.ndarray,
    hh_node: np.ndarray,
    mapper: BinMapper,
    reg_lambda: float,
    gamma: float,
    min_child_weight: float,
):
    """Best (gain, feature, bin, GL, HL) for one node's (m, bins) histograms."""
    G = gh_node[0, :].sum()
    H = hh_node[0, :].sum()
    parent = G * G / (H + reg_lambda) if (H + reg_lambda) > 0 else 0.0
    gl = np.cumsum(gh_node, axis=1)[:, :-1]
    hl = np.cumsum(hh_node, axis=1)[:, :-1]
    gr, hr = G - gl, H - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (
            0.5
            * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent)
            - gamma
        )
    # a split at bin b is only legal if feature f actually has edge b
    legal = np.zeros_like(gain, dtype=bool)
    for f in range(gain.shape[0]):
        legal[f, : len(mapper.edges[f])] = True
    gain = np.where(
        legal & (hl >= min_child_weight) & (hr >= min_child_weight), gain, -np.inf
    )
    if gain.size == 0 or not np.isfinite(gain).any() or np.all(gain == -np.inf):
        return (-np.inf, -1, -1, 0.0, 0.0, G, H)
    f, b = np.unravel_index(np.argmax(gain), gain.shape)
    return (
        float(gain[f, b]),
        int(f),
        int(b),
        float(gl[f, b]),
        float(hl[f, b]),
        G,
        H,
    )


# Hessians are non-negative, so a derived bin whose hessian sum is at most
# this fraction of the root's sum in that bin holds no rows of the node: it
# is the rounding residue of the subtraction and is set to exactly 0.
_RESIDUE = 1e-12


def grow_tree(
    histogram_fn,
    mapper: BinMapper,
    *,
    max_depth: int = 3,
    reg_lambda: float = 1.0,
    gamma: float = 0.0,
    min_child_weight: float = 1e-3,
    learning_rate: float = 0.3,
) -> Tree:
    """Grow one tree level-wise.

    ``histogram_fn(tree, frontier) -> (gh, hh)`` returns per-slot histograms
    of shape (max(frontier)+1, m, max_bins); ``frontier`` maps slot → node
    index in ``tree.nodes``. The first call scans the root. Each later call
    gets only the child with the smaller hessian sum H of each split made
    at the level above; the other child's histograms are the parent's minus
    the scanned child's (histogram subtraction, as in LightGBM). So each
    level costs one histogram pass over the lighter child of every split.
    Child leaf values come from the split's own sums (−G/(H+λ)·lr).
    """

    def leaf_value(G: float, H: float) -> float:
        return -G / (H + reg_lambda) * learning_rate if (H + reg_lambda) > 0 else 0.0

    tree = Tree([TreeNode()])
    frontier = {0: 0}
    derived: dict[int, tuple[int, int]] = {}  # node -> (parent, scanned sibling)
    parents: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for depth in range(max_depth):
        gh, hh = histogram_fn(tree, frontier)
        if depth == 0:
            residue = _RESIDUE * hh[0]
        hists = {nid: (gh[slot], hh[slot]) for slot, nid in frontier.items()}
        for nid, (parent, sibling) in derived.items():
            g = parents[parent][0] - hists[sibling][0]
            h = parents[parent][1] - hists[sibling][1]
            empty = h <= residue
            g[empty] = h[empty] = 0.0
            hists[nid] = g, h
        frontier, derived, parents = {}, {}, hists
        for nid, (g, h) in sorted(hists.items()):
            gain, f, b, GL, HL, G, H = _best_split(
                g, h, mapper, reg_lambda, gamma, min_child_weight
            )
            node = tree.nodes[nid]
            if gain <= 0 or f < 0:
                node.value = leaf_value(G, H)
                continue
            node.feature = f
            node.bin_threshold = b
            node.threshold = float(mapper.edges[f][b])
            node.gain = gain
            node.left = len(tree.nodes)
            tree.nodes.append(TreeNode(value=leaf_value(GL, HL)))
            node.right = len(tree.nodes)
            tree.nodes.append(TreeNode(value=leaf_value(G - GL, H - HL)))
            small, big = (
                (node.left, node.right) if HL <= H - HL else (node.right, node.left)
            )
            frontier[len(frontier)] = small
            derived[big] = (nid, small)
        if not frontier:
            break
    return tree
