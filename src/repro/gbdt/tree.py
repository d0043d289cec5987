"""Single regression tree of the XGBoost-style booster.

Trees are grown level-wise to ``max_depth`` from per-(node, feature, bin)
gradient/hessian histograms. A histogram is one ``complex128`` array whose
real part holds the gradient sums and whose imaginary part the hessian
sums: each bin is one (G, H) pair, as in XGBoost and LightGBM, so one pass
fills both, one subtraction derives a sibling and one cumulative sum scans
a node's splits. The split gain is XGBoost's second-order formula::

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
and frontier-slot assignment all use it. A grower that keeps each row's
node between levels (the numpy source) moves it one level per call with
:meth:`Tree.advance` instead of routing it from the root again.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binning import BinMapper

__all__ = ["Tree", "TreeNode", "grow_tree", "build_histograms", "histogram_weights", "assign_slots"]


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

    def _arrays(self, *, binned: bool):
        """Per-node (feature, threshold, left, right) arrays, and the depth.

        Leaves route to themselves. ``binned`` takes ``bin_threshold``
        instead of ``threshold``.
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
        return (feature, thr, left, right), depth

    def _route(self, X: np.ndarray, *, binned: bool) -> np.ndarray:
        """Index of the leaf each row of ``X`` reaches.

        Every row moves down one level per step by fancy-indexing the
        per-node arrays. Leaves route to themselves, so all rows take the
        same number of steps, the depth of the tree. ``binned`` compares bin
        codes with ``bin_threshold`` instead of values with ``threshold``.
        """
        arrays, depth = self._arrays(binned=binned)
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(depth):
            node = _step(X, node, *arrays)
        return node

    def advance(self, node: np.ndarray, codes: np.ndarray) -> None:
        """Move each row one level down on bin codes, in place.

        ``node[i]`` is the node row ``i`` sits in; rows in leaves stay. The
        comparisons are :meth:`predict_binned`'s, so advancing rows from the
        root once per level of the tree lands them in its leaves.
        """
        arrays, depth = self._arrays(binned=True)
        if depth:
            node[:] = _step(codes, node, *arrays)

    def leaf_values(self) -> np.ndarray:
        """``value`` of every node, by node index."""
        return np.array([nd.value for nd in self.nodes], dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for a float matrix (n, m)."""
        X = np.asarray(X, dtype=np.float64)
        return self.leaf_values()[self._route(X, binned=False)]

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Leaf values for an int bin-code matrix."""
        return self.leaf_values()[self._route(codes, binned=True)]

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


def _step(X, node, feature, thr, left, right) -> np.ndarray:
    """Each row's node one level below ``node`` (see :meth:`Tree._arrays`)."""
    go_left = X[np.arange(len(node)), feature[node]] <= thr[node]
    return np.where(go_left, left[node], right[node])


def assign_slots(
    tree: Tree,
    frontier: dict[int, int],
    codes: np.ndarray,
    node: np.ndarray | None = None,
) -> np.ndarray:
    """Map each row to its frontier slot (or -1 if it sits in a finished leaf).

    ``frontier`` maps slot → node index; its nodes are leaves of the partial
    tree. Rows are routed down the partial tree on *bin codes*; a row whose
    leaf is not in ``frontier`` gets -1. Used by both histogram backends so
    workers need only the broadcast partial tree. A caller that keeps each
    row's node from the previous level (the root for the first call) passes
    it as ``node``: it is advanced one level in place instead of routing
    every row from the root. Executors hold no state between passes and
    route from the root.
    """
    slot_of_node = np.full(len(tree.nodes), -1, dtype=np.int64)
    for slot, nid in frontier.items():
        slot_of_node[nid] = slot
    if node is None:
        return slot_of_node[tree._route(codes, binned=True)]
    tree.advance(node, codes)
    return slot_of_node[node]


def histogram_weights(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Each row's (gradient, hessian) as one complex weight, for
    :func:`build_histograms`. The parts are assigned: ``grad + 1j*hess``
    would turn an infinite hessian's gradient into NaN (``1j*inf`` is
    ``nan+infj``)."""
    weights = np.empty(np.shape(grad), dtype=np.complex128)
    weights.real, weights.imag = grad, hess
    return weights


def build_histograms(
    codes: np.ndarray,
    weights: np.ndarray,
    slot_of_row: np.ndarray,
    n_slots: int,
    max_bins: int,
) -> np.ndarray:
    """Per-(slot, feature, bin) sums of the complex ``weights``
    (:func:`histogram_weights`), shape (n_slots, n_features, max_bins): the
    gradient sums in the real part, the hessian sums in the imaginary part.
    ``np.add.at`` adds each feature's rows into their bins in row order, so
    one pass gives both parts, each bit for bit the sum of that part alone.

    This is the only data-size-dependent step of tree growth; the Spark
    backend computes it per partition and sums the partials. When every row
    is in the one slot (a tree's root), each code column is its own bin
    index and is read as it is. Otherwise each feature's codes are gathered
    at the active rows into one reused buffer, a strided copy unless
    ``codes`` is column-major (as :meth:`BinMapper.transform` returns it),
    and offset by the row's slot when there are several slots. Codes
    narrower than 32 bits are widened first, so the offsets fit.
    """
    codes = np.asarray(codes, dtype=np.promote_types(codes.dtype, np.int32))
    n, m = codes.shape
    out = np.zeros((n_slots, m, max_bins), dtype=np.complex128)
    flat = out.reshape(-1)  # slot s, feature f, bin b at (s*m + f)*max_bins + b
    rows = np.flatnonzero(slot_of_row >= 0)
    if n_slots == 1 and len(rows) == n:
        for f in range(m):
            np.add.at(flat[f * max_bins :], codes[:, f], weights)
        return out
    weights = weights[rows]
    idx = np.empty(len(rows), dtype=codes.dtype)
    offset = (slot_of_row[rows] * (m * max_bins)).astype(codes.dtype) if n_slots > 1 else None
    for f in range(m):
        np.take(codes[:, f], rows, out=idx)
        if offset is not None:
            idx += offset
        np.add.at(flat[f * max_bins :], idx, weights)
    return out


def _best_split(
    hist: np.ndarray,
    mapper: BinMapper,
    reg_lambda: float,
    gamma: float,
    min_child_weight: float,
    split_mask=None,
):
    """Best (gain, feature, bin, GL, HL, G, H) for one node's complex (m, bins)
    histogram (see :func:`build_histograms`), over the splits that the mapper
    and ``split_mask`` (see :func:`grow_tree`) allow."""
    G = hist[0].real.sum()
    H = hist[0].imag.sum()
    parent = G * G / (H + reg_lambda) if (H + reg_lambda) > 0 else 0.0
    legal = mapper.legal_splits
    feats = None
    if split_mask is not None:  # gains only of the features the mask allows
        legal = legal & split_mask(hist.imag)
        feats = np.flatnonzero(legal.any(axis=1))
        hist, legal = hist[feats], legal[feats]
    left = np.cumsum(hist, axis=1)[:, :-1]
    gl = np.ascontiguousarray(left.real)
    hl = np.ascontiguousarray(left.imag)
    gr, hr = G - gl, H - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        # 0.5 * (gl²/(hl+λ) + gr²/(hr+λ) - parent) - γ in place, in this
        # order, so every gain keeps its bits
        gain = gl * gl
        gain /= hl + reg_lambda
        gr *= gr
        gr /= hr + reg_lambda
        gain += gr
        gain -= parent
        gain *= 0.5
        gain -= gamma
    gain[~(legal & (hl >= min_child_weight) & (hr >= min_child_weight))] = -np.inf
    if not np.isfinite(gain).any():
        return (-np.inf, -1, -1, 0.0, 0.0, G, H)
    f, b = np.unravel_index(np.argmax(gain), gain.shape)
    return (
        float(gain[f, b]),
        int(f if feats is None else feats[f]),
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
    split_mask=None,
) -> Tree:
    """Grow one tree level-wise.

    ``histogram_fn(tree, frontier) -> hist`` returns the complex per-slot
    histograms of :func:`build_histograms`, of shape (max(frontier)+1, m,
    max_bins); ``frontier`` maps slot → node index in ``tree.nodes``. The
    first call scans the root. Each later call gets only the child with the
    smaller hessian sum H of each split made at the level above; the other
    child's histogram is the parent's minus the scanned child's (histogram
    subtraction, as in LightGBM), one complex subtraction for both sums. So
    each level costs one histogram pass over the lighter child of every
    split. Child leaf values come from the split's own sums (−G/(H+λ)·lr).

    ``split_mask(hess_node) -> mask``, if given, restricts each node's
    splits: it gets the node's (m, bins) hessian histogram (``hist.imag``)
    and returns an (m, bins − 1) boolean mask that is ANDed with
    ``mapper.legal_splits``. The evaluation classifiers' random forests and
    extra-trees draw their per-node features and thresholds this way; the
    booster passes none.
    """

    def leaf_value(G: float, H: float) -> float:
        return -G / (H + reg_lambda) * learning_rate if (H + reg_lambda) > 0 else 0.0

    tree = Tree([TreeNode()])
    frontier = {0: 0}
    derived: dict[int, tuple[int, int]] = {}  # node -> (parent, scanned sibling)
    parents: dict[int, np.ndarray] = {}
    for depth in range(max_depth):
        hist = histogram_fn(tree, frontier)
        if depth == 0:
            residue = _RESIDUE * hist[0].imag
        hists = {nid: hist[slot] for slot, nid in frontier.items()}
        for nid, (parent, sibling) in derived.items():
            h = parents[parent] - hists[sibling]
            h[h.imag <= residue] = 0.0
            hists[nid] = h
        frontier, derived, parents = {}, {}, hists
        for nid, h in sorted(hists.items()):
            gain, f, b, GL, HL, G, H = _best_split(
                h, mapper, reg_lambda, gamma, min_child_weight, split_mask
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
