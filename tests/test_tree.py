"""Unit tests for single-tree growth, traversal, and path extraction."""
import numpy as np
import pytest

from repro.gbdt.binning import fit_bin_mapper
from repro.gbdt.tree import (
    Tree,
    TreeNode,
    assign_slots,
    build_histograms,
    grow_tree,
)


def _local_hist_fn(codes, grad, hess, mapper):
    def fn(tree, frontier):
        slots = assign_slots(tree, frontier, codes)
        return build_histograms(
            codes, grad, hess, slots, max(frontier) + 1, mapper.max_bins
        )

    return fn


def _grow(X, grad, hess, **kw):
    mapper = fit_bin_mapper(X, kw.pop("n_bins", 32))
    codes = mapper.transform(X)
    return (
        grow_tree(_local_hist_fn(codes, grad, hess, mapper), mapper, **kw),
        mapper,
        codes,
    )


def test_single_split_on_informative_feature():
    """A step function in feature 1 must be split on feature 1."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 3))
    grad = np.where(X[:, 1] > 0.0, -1.0, 1.0)
    hess = np.ones(500)
    tree, _m, _c = _grow(X, grad, hess, max_depth=1)
    assert tree.nodes[0].feature == 1
    assert abs(tree.nodes[0].threshold) < 0.3


def test_leaf_values_reduce_loss_direction():
    """Leaves must move the margin against the gradient sign."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(400, 2))
    grad = np.where(X[:, 0] > 0, -1.0, 1.0)
    hess = np.ones(400)
    tree, _m, _c = _grow(X, grad, hess, max_depth=1, learning_rate=1.0)
    pred = tree.predict(X)
    assert np.all(pred[X[:, 0] > 0.2] > 0)
    assert np.all(pred[X[:, 0] < -0.2] < 0)


def test_predict_binned_matches_predict():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(600, 4))
    grad = np.where(X[:, 0] * X[:, 1] > 0, -1.0, 1.0)
    hess = np.ones(600)
    tree, mapper, codes = _grow(X, grad, hess, max_depth=3)
    np.testing.assert_allclose(tree.predict(X), tree.predict_binned(codes))


def test_max_depth_respected():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(800, 5))
    grad = rng.normal(size=800)
    hess = np.ones(800)
    for depth in (1, 2, 3):
        tree, _m, _c = _grow(X, grad, hess, max_depth=depth)
        # a depth-d complete tree has at most 2^(d+1)-1 nodes
        assert len(tree.nodes) <= 2 ** (depth + 1) - 1
        for p in tree.paths():
            assert len(p) <= depth


def test_no_split_on_pure_gradient():
    """Zero gradient everywhere → no gain → single leaf."""
    X = np.random.default_rng(4).normal(size=(100, 2))
    tree, _m, _c = _grow(X, np.zeros(100), np.ones(100), max_depth=3)
    assert len(tree.nodes) == 1
    assert tree.nodes[0].feature == -1


def test_paths_on_known_tree():
    """Hand-built tree: root f0, left child f1 (both leaf-parents)."""
    t = Tree(
        nodes=[
            TreeNode(feature=0, threshold=0.5, left=1, right=2),
            TreeNode(feature=1, threshold=1.5, left=3, right=4),
            TreeNode(value=0.1),
            TreeNode(value=0.2),
            TreeNode(value=0.3),
        ]
    )
    paths = t.paths()
    assert [(0, 0.5)] in paths  # root is parent of leaf node 2
    assert [(0, 0.5), (1, 1.5)] in paths
    assert len(paths) == 2


def test_paths_empty_for_stump_leaf():
    t = Tree(nodes=[TreeNode(value=0.4)])
    assert t.paths() == []


def test_split_features_and_gains():
    t = Tree(
        nodes=[
            TreeNode(feature=2, threshold=0.0, gain=5.0, left=1, right=2),
            TreeNode(value=0.1),
            TreeNode(value=0.2),
        ]
    )
    assert t.split_features() == {2}
    assert t.gain_by_feature() == {2: [5.0]}


def test_assign_slots_routes_rows():
    X = np.array([[-1.0], [1.0], [-2.0], [3.0]])
    mapper = fit_bin_mapper(X, 8)
    codes = mapper.transform(X)
    tree = Tree(
        nodes=[TreeNode(feature=0, left=1, right=2), TreeNode(), TreeNode()]
    )
    # fix node 0 with a bin threshold at value 0
    tree.nodes[0].bin_threshold = int(np.searchsorted(mapper.edges[0], 0.0))
    frontier = {0: 1, 1: 2}
    slots = assign_slots(tree, frontier, codes)
    neg = X[:, 0] < 0
    assert np.all(slots[neg] == 0)
    assert np.all(slots[~neg] == 1)


def test_assign_slots_root_frontier():
    codes = np.zeros((5, 1), dtype=np.int32)
    tree = Tree([TreeNode()])
    slots = assign_slots(tree, {0: 0}, codes)
    assert np.all(slots == 0)


def test_histograms_sum_to_totals():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 8, size=(300, 3)).astype(np.int32)
    grad = rng.normal(size=300)
    hess = rng.random(300)
    slots = rng.integers(0, 2, 300)
    gh, hh = build_histograms(codes, grad, hess, slots, 2, 8)
    for s in (0, 1):
        mask = slots == s
        for f in range(3):
            assert gh[s, f].sum() == pytest.approx(grad[mask].sum())
            assert hh[s, f].sum() == pytest.approx(hess[mask].sum())


def test_histograms_ignore_inactive_rows():
    codes = np.zeros((10, 1), dtype=np.int32)
    grad = np.ones(10)
    hess = np.ones(10)
    slots = np.array([0] * 5 + [-1] * 5)
    gh, _hh = build_histograms(codes, grad, hess, slots, 1, 1)
    assert gh[0, 0, 0] == 5.0


def test_min_child_weight_blocks_tiny_splits():
    """One outlier row cannot be split off when min_child_weight is large."""
    X = np.concatenate([np.zeros(99), [10.0]])[:, None]
    grad = np.concatenate([np.ones(99), [-50.0]])
    hess = np.ones(100)
    mapper = fit_bin_mapper(X, 8)
    codes = mapper.transform(X)
    tree = grow_tree(
        _local_hist_fn(codes, grad, hess, mapper),
        mapper,
        max_depth=2,
        min_child_weight=5.0,
    )
    assert len(tree.nodes) == 1  # refused the 99/1 split


def test_gamma_penalty_blocks_weak_splits():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 2))
    grad = rng.normal(scale=0.01, size=200)  # nearly pure noise
    hess = np.ones(200)
    tree, _m, _c = _grow(X, grad, hess, max_depth=3, gamma=10.0)
    assert len(tree.nodes) == 1


def test_grow_tree_scans_smaller_child_and_derives_sibling(monkeypatch):
    """Below the root only the smaller-H child of each split is scanned; the
    sibling's histograms (parent minus child) match a direct scan."""
    from repro.gbdt import tree as tree_mod

    rng = np.random.default_rng(8)
    X = rng.normal(size=(3000, 4))
    grad = np.where(X[:, 0] + X[:, 1] * X[:, 2] > 0, -1.0, 1.0) + rng.normal(
        scale=0.3, size=3000
    )
    hess = rng.uniform(0.05, 1.0, size=3000)
    mapper = fit_bin_mapper(X, 16)
    codes = mapper.transform(X)
    frontiers, seen = [], []
    direct = _local_hist_fn(codes, grad, hess, mapper)

    def hist_fn(tree, frontier):
        frontiers.append(dict(frontier))
        return direct(tree, frontier)

    real_best_split = tree_mod._best_split

    def best_split(gh_node, hh_node, *args):
        seen.append((gh_node.copy(), hh_node.copy()))
        return real_best_split(gh_node, hh_node, *args)

    monkeypatch.setattr(tree_mod, "_best_split", best_split)
    depth = 4
    tree = grow_tree(hist_fn, mapper, max_depth=depth, min_child_weight=5.0)

    def rows_of(nid):
        return _reference_walk(tree, codes, binned=True, stop=nid) == nid

    levels = [[0]]
    for _ in range(depth - 1):
        levels.append([c for p in levels[-1] if tree.nodes[p].feature >= 0
                       for c in (tree.nodes[p].left, tree.nodes[p].right)])
    assert len(frontiers) == sum(1 for lv in levels if lv)
    for d in range(1, len(frontiers)):
        expect = []
        for p in levels[d - 1]:
            node = tree.nodes[p]
            if node.feature < 0:
                continue
            hl = hess[rows_of(node.left)].sum()
            hr = hess[rows_of(node.right)].sum()
            expect.append(node.left if hl <= hr else node.right)
        assert sorted(frontiers[d].values()) == sorted(expect)
        assert sorted(frontiers[d]) == list(range(len(expect)))

    # _best_split sees the nodes of depth < max_depth in node order
    evaluated = [nid for lv in levels for nid in lv]
    assert len(seen) == len(evaluated)
    n_empty = 0
    for nid, (g, h) in zip(evaluated, seen):
        mask = rows_of(nid)
        eg, eh = build_histograms(
            codes, grad, hess, np.where(mask, 0, -1), 1, mapper.max_bins
        )
        np.testing.assert_allclose(g, eg[0], rtol=0, atol=1e-9)
        np.testing.assert_allclose(h, eh[0], rtol=0, atol=1e-9)
        counts = np.stack([
            np.bincount(codes[mask, f], minlength=mapper.max_bins)
            for f in range(X.shape[1])
        ])
        empty = counts == 0
        n_empty += empty.sum()
        assert np.all(g[empty] == 0.0) and np.all(h[empty] == 0.0)
    assert n_empty > 0
    assert any(len(lv) > 0 for lv in levels[2:])  # siblings of derived parents


def _reference_walk(tree, X, *, binned, stop=None):
    """Per-row loop: the node each row ends at (a leaf, or ``stop``)."""
    out = np.empty(len(X), dtype=np.int64)
    for i, x in enumerate(X):
        nid = 0
        while tree.nodes[nid].feature >= 0 and nid != stop:
            node = tree.nodes[nid]
            thr = node.bin_threshold if binned else node.threshold
            nid = node.left if x[node.feature] <= thr else node.right
        out[i] = nid
    return out


def _mixed_depth_tree():
    """Leaves at depths 1, 2 and 3."""
    return Tree(
        nodes=[
            TreeNode(feature=0, threshold=0.0, bin_threshold=3, left=1, right=2),
            TreeNode(value=-1.0),
            TreeNode(feature=1, threshold=0.5, bin_threshold=5, left=3, right=4),
            TreeNode(value=0.25),
            TreeNode(feature=2, threshold=-0.5, bin_threshold=2, left=5, right=6),
            TreeNode(value=0.5),
            TreeNode(value=2.0),
        ]
    )


@pytest.mark.parametrize(
    "tree",
    [
        _mixed_depth_tree(),
        Tree(
            nodes=[
                TreeNode(feature=1, threshold=0.1, bin_threshold=4, left=1, right=2),
                TreeNode(value=-0.3),
                TreeNode(value=0.7),
            ]
        ),
        Tree(nodes=[TreeNode(value=0.4)]),
    ],
    ids=["mixed-depth", "stump", "root-only"],
)
def test_routing_matches_reference_walk(tree):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(400, 3))
    X[::37, 1] = np.nan  # NaN goes right, as in the reference walk
    codes = np.asfortranarray(rng.integers(0, 8, size=(400, 3)).astype(np.int32))
    values = np.array([n.value for n in tree.nodes])
    np.testing.assert_array_equal(
        tree.predict(X), values[_reference_walk(tree, X, binned=False)]
    )
    leaf = _reference_walk(tree, codes, binned=True)
    np.testing.assert_array_equal(tree.predict_binned(codes), values[leaf])
    leaves = [i for i, n in enumerate(tree.nodes) if n.feature < 0]
    frontier = dict(enumerate(leaves[::2]))  # leave some leaves finished
    slot_of = {nid: slot for slot, nid in frontier.items()}
    np.testing.assert_array_equal(
        assign_slots(tree, frontier, codes),
        [slot_of.get(nid, -1) for nid in leaf],
    )


def test_bin_mapper_transform_is_column_major_searchsorted():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(500, 4))
    X[:, 3] = np.round(X[:, 3])  # few distinct values
    mapper = fit_bin_mapper(X, 16)
    codes = mapper.transform(X)
    assert codes.dtype == np.int32
    assert codes.flags["F_CONTIGUOUS"]
    for f in range(4):
        np.testing.assert_array_equal(
            codes[:, f], np.searchsorted(mapper.edges[f], X[:, f], side="left")
        )


# (feature:bin_threshold) per node, "." for a leaf, of the fit in
# test_boosted_splits_unchanged, recorded before histogram subtraction
# and array routing replaced the direct per-level scans.
GOLDEN_SPLITS = [
    "1:22 0:31 0:28 2:43 2:43 2:42 2:43 . . . . . . . .",
    "4:56 5:29 5:44 0:0 4:1 5:39 3:40 . . . . . . . .",
    "5:8 5:4 1:22 4:21 4:28 0:31 0:28 . . . . . . . .",
    "2:55 4:15 4:21 2:34 4:16 2:57 2:57 . . . . . . . .",
    "0:0 1:46 5:8 3:3 2:27 2:38 4:59 . . . . . . . .",
    "0:11 1:29 1:22 2:43 2:42 2:44 2:50 . . . . . . . .",
    "4:40 4:15 4:54 5:53 4:16 3:36 5:46 . . . . . . . .",
    "5:29 3:62 5:37 4:62 4:0 4:25 5:39 . . . . . . . .",
    "3:4 4:33 4:46 5:34 2:43 3:51 3:18 . . . . . . . .",
    "0:11 1:29 1:22 2:43 2:42 0:31 0:31 . . . . . . . .",
    "5:29 0:58 4:54 5:27 5:7 2:5 5:43 . . . . . . . .",
    "3:0 1:8 0:0 4:49 4:17 1:46 4:40 . . . . . . . .",
    "2:59 5:51 0:60 0:58 3:48 0:49 . . . . . . .",
    "0:47 1:30 1:30 2:43 0:31 2:43 2:43 . . . . . . . .",
    "0:11 1:34 1:37 2:43 2:42 0:30 0:31 . . . . . . . .",
    "2:42 4:1 4:1 5:27 2:32 1:3 0:13 . . . . . . . .",
    "0:39 1:30 1:31 2:43 2:42 2:43 2:43 . . . . . . . .",
    "3:15 3:9 4:15 0:16 4:3 1:3 4:16 . . . . . . . .",
    "5:1 1:24 5:8 4:23 0:46 4:49 5:11 . . . . . . . .",
    "5:51 0:12 0:48 1:29 0:55 0:34 1:44 . . . . . . . .",
]


def test_boosted_splits_unchanged():
    from repro.gbdt.boosting import GBDTClassifier

    rng = np.random.default_rng(7)
    X = rng.normal(size=(2000, 6))
    y = ((X[:, 0] * X[:, 1] > 0) ^ (X[:, 2] > 0.5)).astype(float)
    flip = rng.random(2000) < 0.1
    y[flip] = 1 - y[flip]
    model = GBDTClassifier(n_estimators=20, max_depth=3).fit(X, y)
    got = [
        " ".join("." if n.feature < 0 else f"{n.feature}:{n.bin_threshold}"
                 for n in t.nodes)
        for t in model.trees_
    ]
    assert got == GOLDEN_SPLITS
