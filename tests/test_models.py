"""Unit tests for the 9-classifier sklearn substrate."""
import numpy as np
import pytest

from repro.models import CLASSIFIERS, make_classifier
from repro.models.evaluation import auc_score

SEEDED = {"ET", "MLP", "RF", "XGB"}
UNSEEDED_TREES = {"AB", "DT"}  # they draw nothing, so take no seed


@pytest.fixture(scope="module")
def linear_data():
    """Linearly separable-ish problem every model must handle."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1500, 6))
    logit = 2.0 * X[:, 0] - 1.5 * X[:, 1] + 0.5 * X[:, 2]
    y = (rng.random(1500) < 1 / (1 + np.exp(-logit))).astype(int)
    return X[:1000], y[:1000], X[1000:], y[1000:]


@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_learns_linear_signal(name, linear_data):
    Xtr, ytr, Xte, yte = linear_data
    m = make_classifier(name).fit(Xtr, ytr)
    auc = auc_score(yte, m.predict_proba(Xte)[:, 1])
    assert auc > 0.78, f"{name} AUC {auc:.3f}"


@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_proba_shape_and_range(name, linear_data):
    Xtr, ytr, Xte, _ = linear_data
    m = make_classifier(name).fit(Xtr, ytr)
    p = m.predict_proba(Xte)
    assert p.shape == (len(Xte), 2)
    assert np.all(p >= -1e-9) and np.all(p <= 1 + 1e-9)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_predict_binary(name, linear_data):
    Xtr, ytr, Xte, _ = linear_data
    m = make_classifier(name).fit(Xtr, ytr)
    pred = m.predict(Xte)
    assert set(np.unique(pred)) <= {0, 1}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_deterministic_given_seed(name, linear_data):
    Xtr, ytr, Xte, _ = linear_data
    p1 = make_classifier(name, random_state=5).fit(Xtr, ytr).predict_proba(Xte)
    p2 = make_classifier(name, random_state=5).fit(Xtr, ytr).predict_proba(Xte)
    np.testing.assert_allclose(p1, p2)


@pytest.mark.parametrize("name", sorted(UNSEEDED_TREES))
def test_deterministic_without_seed(name, linear_data):
    Xtr, ytr, Xte, _ = linear_data
    p1 = make_classifier(name).fit(Xtr, ytr).predict_proba(Xte)
    p2 = make_classifier(name).fit(Xtr, ytr).predict_proba(Xte)
    assert np.array_equal(p1, p2)


@pytest.mark.parametrize(
    "name, option",
    [("AB", "random_state"), ("DT", "random_state"), ("RF", "bootstrap"), ("ET", "random_threshold")],
)
def test_fixed_tree_kinds_take_no_such_option(name, option):
    """What makes a tree kind (RF bootstraps, ET draws thresholds) and
    seeds that nothing draws from are not constructor options."""
    with pytest.raises(TypeError):
        make_classifier(name, **{option: True})


def test_unknown_classifier_raises():
    with pytest.raises(KeyError):
        make_classifier("GPT")


@pytest.mark.parametrize("name", ["RF", "ET", "XGB", "MLP", "kNN"])
def test_nonlinear_models_beat_linear_on_interaction(name):
    """Tree/NN/kNN models should beat LR on a pure product label."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(2500, 4))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    Xtr, ytr, Xte, yte = X[:1800], y[:1800], X[1800:], y[1800:]
    lr = auc_score(
        yte, make_classifier("LR").fit(Xtr, ytr).predict_proba(Xte)[:, 1]
    )
    other = auc_score(
        yte, make_classifier(name).fit(Xtr, ytr).predict_proba(Xte)[:, 1]
    )
    assert other > lr + 0.1


def test_knn_matches_manual_small_case():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    m = make_classifier("kNN", n_neighbors=1).fit(X, y)
    np.testing.assert_allclose(m.predict_proba(np.array([[0.4], [10.6]]))[:, 1], [0, 1])


def test_decision_tree_pure_leaf_probabilities():
    X = np.array([[0.0], [0.1], [5.0], [5.1]])
    y = np.array([0, 0, 1, 1])
    m = make_classifier("DT", max_depth=2).fit(X, y)
    p = m.predict_proba(X)[:, 1]
    np.testing.assert_allclose(p, y.astype(float))


def test_adaboost_weights_concentrate_on_hard_examples():
    """AB must fit a 1-D two-threshold problem a single stump cannot."""
    rng = np.random.default_rng(2)
    x = rng.uniform(-3, 3, 2000)
    y = ((x > -1) & (x < 1)).astype(int)
    m = make_classifier("AB").fit(x[:, None], y)
    pred = m.predict(x[:, None])
    assert (pred == y).mean() > 0.9


def test_logistic_regression_coefficient_direction(linear_data):
    Xtr, ytr, _X, _y = linear_data
    m = make_classifier("LR").fit(Xtr, ytr)
    assert m.w_[0] > 0 and m.w_[1] < 0


def test_svm_margin_sign(linear_data):
    Xtr, ytr, Xte, yte = linear_data
    m = make_classifier("SVM").fit(Xtr, ytr)
    s = m.decision_function(Xte)
    assert auc_score(yte, s) > 0.8


def test_constant_feature_columns_tolerated():
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.normal(size=300), np.ones(300)])
    y = (X[:, 0] > 0).astype(int)
    for name in sorted(CLASSIFIERS):
        m = make_classifier(name).fit(X, y)
        p = m.predict_proba(X)
        assert np.isfinite(p).all(), name


# ---- the gini classifiers are grow_tree trees --------------------------------


def gini(p, t):
    """Gini impurity of a node of weight ``t`` holding positive weight ``p``."""
    return 1.0 - (p / t) ** 2 - (1 - p / t) ** 2


def ref_gini_proba(codes, y, w, mapper, X_test, max_depth, min_samples_leaf):
    """A recursive weighted-gini CART reference: per-node bincounts, the
    first split of largest gini decrease over every feature, a leaf below a
    decrease of 1e-12 or a child of fewer than ``min_samples_leaf`` rows.
    Returns the weighted positive rate of each test row's leaf."""
    out = np.empty(len(X_test))

    def build(idx, rows, depth):
        w_node = w[idx]
        W, P = w_node.sum(), w_node[y[idx] == 1].sum()
        out[rows] = P / W
        if depth >= max_depth or len(idx) < 2 * min_samples_leaf or P <= 0 or P >= W:
            return
        best = (-np.inf, -1, -1)
        for f in range(codes.shape[1]):
            bins = len(mapper.edges[f]) + 1
            if bins == 1:
                continue
            cl = np.cumsum(np.bincount(codes[idx, f], weights=w_node, minlength=bins))[:-1]
            pl = np.cumsum(np.bincount(codes[idx, f], weights=w_node * (y[idx] == 1), minlength=bins))[:-1]
            cr, pr = W - cl, P - pl
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = gini(P, W) - cl / W * gini(pl, cl) - cr / W * gini(pr, cr)
            gain = np.nan_to_num(np.where((cl > 0) & (cr > 0), gain, -np.inf), nan=-np.inf)
            b = int(np.argmax(gain))
            if gain[b] > best[0]:
                best = (gain[b], f, b)
        gain, f, b = best
        left = codes[idx, f] <= b
        if gain <= 1e-12 or min(left.sum(), (~left).sum()) < min_samples_leaf:
            return
        go = X_test[rows, f] <= mapper.edges[f][b]
        build(idx[left], rows[go], depth + 1)
        build(idx[~left], rows[~go], depth + 1)

    build(np.arange(len(y)), np.arange(len(X_test)), 0)
    return out


@pytest.mark.parametrize("name", ["banknote", "phoneme", "wind", "eeg-eye"])
def test_shallow_decision_tree_equals_gini_reference(name):
    from repro.experiments.datasets import BENCHMARK_DATASETS, LABEL_COL, make_dataset
    from repro.models.trees import binned

    spec = next(s for s in BENCHMARK_DATASETS if s.name == name)
    tr, _va, te = make_dataset(spec)
    X = tr.drop(columns=LABEL_COL).to_numpy(np.float64)
    y = tr[LABEL_COL].to_numpy().astype(np.int64)
    X_test = te.drop(columns=LABEL_COL).to_numpy(np.float64)
    mapper, codes = binned(X, 64)
    want = ref_gini_proba(codes, y, np.ones(len(y)), mapper, X_test, 3, 1)
    got = make_classifier("DT", min_samples_leaf=1, max_depth=3).fit(X, y).predict_proba(X_test)
    assert np.array_equal(got[:, 1], want)


def test_gini_decrease_is_second_order_gain():
    """With g = −w·y, h = w, λ = 0 on one node's histograms: the gini
    decrease of every split is (4/W)·gain, the best split is the same, and
    the leaf value −G/H is the node's weighted positive rate."""
    from repro.gbdt.binning import BinMapper
    from repro.gbdt.tree import _best_split, histogram_weights

    rng = np.random.default_rng(7)
    for _ in range(300):
        n, m, bins = int(rng.integers(2, 80)), int(rng.integers(1, 6)), int(rng.integers(2, 12))
        codes = rng.integers(0, bins, size=(n, m))
        w = rng.exponential(size=n)
        y = rng.random(n) < rng.random()
        hh = np.array([np.bincount(c, weights=w, minlength=bins) for c in codes.T])
        pos = np.array([np.bincount(c, weights=w * y, minlength=bins) for c in codes.T])
        W, P = hh[0].sum(), pos[0].sum()
        mapper = BinMapper(tuple(np.arange(bins - 1, dtype=np.float64) for _f in range(m)))
        gain, f, b, _gl, _hl, G, H = _best_split(histogram_weights(-pos, hh), mapper, 0.0, 0.0, 1e-9)
        assert -G / H == P / W
        cl, pl = np.cumsum(hh, axis=1)[:, :-1], np.cumsum(pos, axis=1)[:, :-1]
        cr, pr = W - cl, P - pl
        with np.errstate(divide="ignore", invalid="ignore"):
            dec = gini(P, W) - cl / W * gini(pl, cl) - cr / W * gini(pr, cr)
        dec = np.where((cl >= 1e-9) & (cr >= 1e-9), dec, -np.inf)
        if f < 0:
            assert not np.isfinite(dec).any()
            continue
        assert dec[f, b] == pytest.approx(4 / W * gain, rel=1e-9, abs=1e-12)
        if dec.max() > 1e-9:  # a real split, not a pure node's rounding residue
            assert (f, b) == np.unravel_index(np.argmax(dec), dec.shape)


def _node_rows(tree, codes):
    """Training rows reaching each node (children follow their parent)."""
    rows = {0: np.arange(len(codes))}
    for nid, nd in enumerate(tree.nodes):
        if nd.feature >= 0:
            left = codes[rows[nid], nd.feature] <= nd.bin_threshold
            rows[nd.left], rows[nd.right] = rows[nid][left], rows[nid][~left]
    return rows


# The row weights (and the child weight floor) each classifier grows with:
# DT and ET unit weights, RF bootstrap draw counts, AB fractional weights
# of mean 1.
GINI_WEIGHTS = {
    "unit": lambda rng, n: np.ones(n),
    "bootstrap": lambda rng, n: np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64),
    "adaboost": lambda rng, n: (lambda w: w / w.mean())(rng.exponential(size=n) ** 3),
}


def _min_weight(kind, w):
    return w[w > 0].min() / 2 if kind == "adaboost" else 1.0


@pytest.mark.parametrize("kind", sorted(GINI_WEIGHTS))
def test_single_label_node_stays_a_leaf(kind):
    from repro.models.trees import binned, gini_tree

    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(20, 300))
        mapper, codes = binned(rng.normal(size=(n, 3)), 64)
        label = trial % 2
        w = GINI_WEIGHTS[kind](rng, n)
        tree = gini_tree(codes, np.full(n, label), w, mapper, max_depth=4, min_weight=_min_weight(kind, w))
        assert len(tree.nodes) == 1 and tree.nodes[0].value == label


@pytest.mark.parametrize("kind", sorted(GINI_WEIGHTS))
def test_every_split_has_two_weighted_children_and_mixed_labels(kind):
    """No pure node splits, and no split has an empty child: at λ = 0 its
    gain would be 0/0, and ``np.argmax`` returns the first NaN."""
    from repro.models.trees import binned, gini_tree

    rng = np.random.default_rng(12)
    for _trial in range(10):
        n = 400
        X = rng.normal(size=(n, 4))
        X[:, 3] = rng.integers(0, 3, n)  # few distinct values: many empty bins
        y = ((X[:, 0] > 0) & (rng.random(n) < 0.7)).astype(np.int64)  # x0 <= 0 is pure
        mapper, codes = binned(X, 64)
        w = GINI_WEIGHTS[kind](rng, n)
        min_weight = _min_weight(kind, w)
        tree = gini_tree(codes, y, w, mapper, max_depth=8, min_weight=min_weight)
        rows = _node_rows(tree, codes)
        for nid, nd in enumerate(tree.nodes):
            W, P = w[rows[nid]].sum(), (w * y)[rows[nid]].sum()
            if nd.feature < 0:
                assert nd.value == pytest.approx(P / W)
                continue
            assert 0 < P < W and np.isfinite(nd.gain) and nd.gain > 0
            for child in (nd.left, nd.right):
                assert w[rows[child]].sum() >= min_weight > 0
