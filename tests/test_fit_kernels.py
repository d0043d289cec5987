"""The local fit's shortcuts give exactly what the passes they replace gave.

* :func:`sorted_quantiles` reads ``np.quantile``'s values from a sorted
  column without re-partitioning it;
* :func:`build_histograms` sums gradients and hessians as one complex
  array, equal part by part to one weighted ``np.bincount`` each, and
  counts a tree's root (every row in one slot) without gathering the rows;
* a grower that keeps each row's node advances it one level per histogram
  pass instead of routing it from the root;
* :func:`_best_split` scans the complex histogram in one cumulative sum
  and takes its legal-split mask from the mapper instead of building it
  per node.

Each is compared with a copy of the code it replaced, or with the general
path, for exact equality.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbdt import tree as tree_mod
from repro.gbdt.binning import BinMapper, bin_matrix, sorted_quantiles
from repro.gbdt.boosting import logistic_grad_hess
from repro.gbdt.tree import assign_slots, build_histograms, grow_tree, histogram_weights

GRIDS = {beta: np.linspace(0, 1, beta + 1)[1:-1] for beta in (10, 64)}

# values that make interpolation hard: ties, neighbouring floats, the
# ends of the range, subnormals and signed zeros
SPECIAL = [
    0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0,
    1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 0.3,
]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def _assert_quantiles_equal(col):
    col = np.sort(np.asarray(col, dtype=np.float64))
    for probs in GRIDS.values():
        with np.errstate(all="ignore"):  # interpolating across ±1.8e308 overflows
            want = np.quantile(col, probs)
            got = sorted_quantiles(col, probs)
        assert np.array_equal(got, want, equal_nan=True), (col, got, want)


@settings(max_examples=400, deadline=None)
@given(st.lists(values, min_size=1, max_size=300))
def test_sorted_quantiles_equal_np_quantile(col):
    _assert_quantiles_equal(col)


@settings(max_examples=300, deadline=None)
@given(st.lists(values, min_size=1, max_size=3))
def test_sorted_quantiles_of_tiny_columns(col):
    _assert_quantiles_equal(col)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 1000])
def test_sorted_quantiles_of_ties(n):
    rng = np.random.default_rng(n)
    _assert_quantiles_equal(rng.integers(0, 3, n).astype(np.float64))
    _assert_quantiles_equal(np.full(n, 7.5))


# -- histograms ------------------------------------------------------------------
def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns: tells -0.0 from 0.0 and matches NaNs."""
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def ref_build_histograms(codes, grad, hess, slot_of_row, n_slots, max_bins):
    """The two-array kernel: one weighted ``np.bincount`` per feature for the
    gradients and one for the hessians, on the active rows."""
    _n, m = codes.shape
    gh = np.empty((n_slots, m, max_bins))
    hh = np.empty((n_slots, m, max_bins))
    rows = np.flatnonzero(slot_of_row >= 0)
    base = slot_of_row[rows] * max_bins
    size = n_slots * max_bins
    for f in range(m):
        flat = base + codes[:, f].take(rows)
        gh[:, f, :] = np.bincount(flat, weights=grad[rows], minlength=size).reshape(n_slots, max_bins)
        hh[:, f, :] = np.bincount(flat, weights=hess[rows], minlength=size).reshape(n_slots, max_bins)
    return gh, hh


def _assert_histograms_equal(codes, grad, hess, slots, n_slots, bins):
    hist = build_histograms(codes, histogram_weights(grad, hess), slots, n_slots, bins)
    gh, hh = ref_build_histograms(codes, grad, hess, slots, n_slots, bins)
    assert hist.dtype == np.complex128 and hist.shape == (n_slots, codes.shape[1], bins)
    assert same_bits(hist.real, gh) and same_bits(hist.imag, hh)


@pytest.mark.parametrize("dtype", [np.int32, np.intp, np.uint8])
def test_root_histograms_equal_the_gathering_pass(dtype):
    rng = np.random.default_rng(3)
    n, m, bins = 3000, 7, 64
    codes = np.asfortranarray(rng.integers(0, bins, (n, m)).astype(dtype))
    grad, hess = rng.normal(size=n) * 1e3, rng.random(n)
    _assert_histograms_equal(codes, grad, hess, np.zeros(n, dtype=np.int64), 1, bins)
    # below the root the general path runs, also on every row
    slots = rng.integers(-1, 3, n)
    for s in (slots, np.maximum(slots, 0)):
        _assert_histograms_equal(codes, grad, hess, s, 3, bins)


@pytest.mark.parametrize("dtype", [np.intp, np.int32, np.uint8])
@pytest.mark.parametrize("n_slots", [1, 2, 3, 4])
def test_complex_histograms_equal_two_bincounts(dtype, n_slots):
    """Real and imaginary parts equal the two-array kernel's, bit for bit:
    inactive rows, an empty slot, signed zeros and a non-finite hessian."""
    rng = np.random.default_rng(17 + n_slots)
    n, m, bins = 2000, 5, 64
    codes = np.asfortranarray(rng.integers(0, bins, (n, m)).astype(dtype))
    codes[:, 4] = rng.integers(0, 3, n)  # a feature with few occupied bins
    grad = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
    hess = rng.random(n)
    grad[::97], hess[::89] = -0.0, 0.0
    slots = rng.integers(-1, n_slots, n)
    if n_slots > 1:
        slots[slots == n_slots - 1] = -1  # the last slot holds no row
    _assert_histograms_equal(codes, grad, hess, slots, n_slots, bins)
    _assert_histograms_equal(codes, grad, hess, np.full(n, -1), n_slots, bins)  # every row inactive
    if n_slots == 1:
        _assert_histograms_equal(codes, grad, hess, np.zeros(n, dtype=np.int64), 1, bins)
    hess[5], hess[6] = np.inf, np.nan
    _assert_histograms_equal(codes, grad, hess, np.maximum(slots, 0), n_slots, bins)


def test_histogram_weights_keep_a_finite_gradient_next_to_an_infinite_hessian():
    """``grad + 1j*hess`` turns an infinite hessian's gradient into NaN (1j·inf
    is nan+infj); ``histogram_weights`` keeps both parts as given."""
    grad, hess = np.array([0.5, -1.0, 2.0, -0.0]), np.array([np.inf, np.nan, 1.0, 0.0])
    with np.errstate(invalid="ignore"):
        naive = grad + 1j * hess
    assert np.isnan(naive[0].real)
    weights = histogram_weights(grad, hess)
    assert weights.dtype == np.complex128
    assert same_bits(weights.real, grad) and same_bits(weights.imag, hess)
    codes = np.asfortranarray(np.array([[0], [1], [1], [0]]))
    hist = build_histograms(codes, weights, np.zeros(4, dtype=np.int64), 1, 2)
    gh, hh = ref_build_histograms(codes, grad, hess, np.zeros(4, dtype=np.int64), 1, 2)
    assert same_bits(hist.real, gh) and same_bits(hist.imag, hh)
    assert hist[0, 0, 0].real == 0.5 and hist[0, 0, 0].imag == np.inf


def test_numpy_has_the_ufunc_at_fast_path():
    major, minor = (int(p) for p in np.__version__.split(".")[:2])
    assert (major, minor) >= (1, 25), (
        f"numpy {np.__version__}: build_histograms sums with np.add.at, whose fast "
        "path came in numpy 1.25; below it the kernel was never measured and may be "
        "slower than the two np.bincount passes it replaced"
    )


# -- incremental routing -----------------------------------------------------------
def test_advancing_rows_gives_the_from_root_slots_and_leaves():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(4000, 6))
    X[:, 5] = np.round(X[:, 5])
    y = ((X[:, 0] * X[:, 1] > 0) ^ (X[:, 2] > 0.5)).astype(float)
    mapper, codes = bin_matrix(X, 32)
    weights = histogram_weights(*logistic_grad_hess(np.zeros(len(y)), y))
    node = np.zeros(len(y), dtype=np.intp)
    levels = []

    def hist_fn(tree, frontier):
        from_root = assign_slots(tree, frontier, codes)
        advanced = assign_slots(tree, frontier, codes, node)
        assert np.array_equal(advanced, from_root)
        levels.append(len(frontier))
        return build_histograms(codes, weights, advanced, max(frontier) + 1, mapper.max_bins)

    tree = grow_tree(hist_fn, mapper, max_depth=4)
    assert len(levels) == 4 and tree.nodes[0].feature >= 0
    tree.advance(node, codes)
    assert np.array_equal(node, tree._route(codes, binned=True))
    assert np.array_equal(tree.leaf_values()[node], tree.predict_binned(codes))


# -- split search --------------------------------------------------------------------
def ref_best_split(gh_node, hh_node, mapper, reg_lambda, gamma, min_child_weight):
    """``_best_split`` on separate gradient and hessian histograms, as it was
    when it built the legal mask per node."""
    G = gh_node[0, :].sum()
    H = hh_node[0, :].sum()
    parent = G * G / (H + reg_lambda) if (H + reg_lambda) > 0 else 0.0
    gl = np.cumsum(gh_node, axis=1)[:, :-1]
    hl = np.cumsum(hh_node, axis=1)[:, :-1]
    gr, hr = G - gl, H - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent) - gamma
    legal = np.zeros_like(gain, dtype=bool)
    for f in range(gain.shape[0]):
        legal[f, : len(mapper.edges[f])] = True
    gain = np.where(legal & (hl >= min_child_weight) & (hr >= min_child_weight), gain, -np.inf)
    if gain.size == 0 or not np.isfinite(gain).any() or np.all(gain == -np.inf):
        return (-np.inf, -1, -1, 0.0, 0.0, G, H)
    f, b = np.unravel_index(np.argmax(gain), gain.shape)
    return (float(gain[f, b]), int(f), int(b), float(gl[f, b]), float(hl[f, b]), G, H)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", range(40))
def test_best_split_unchanged(case):
    rng = np.random.default_rng(case)
    m, bins = int(rng.integers(1, 6)), int(rng.integers(2, 10))
    mapper = BinMapper(edges=tuple(np.arange(rng.integers(0, bins), dtype=np.float64) for _ in range(m)))
    bins = mapper.max_bins
    gh = rng.normal(size=(m, bins))
    hh = rng.random((m, bins)) * (case % 3)  # some nodes have no hessian at all
    if case % 4 == 1:
        gh[rng.integers(0, m), rng.integers(0, bins)] = np.nan
    if case % 4 == 2:
        gh[:] = np.inf
    args = (mapper, 1.0, float(case % 2), 1e-3 * (case % 5))
    if case % 4 == 3:  # a 0/0 gain next to finite ones: both pick the NaN
        gh[0, 0] = hh[0, 0] = 0.0
        args = (mapper, 0.0, 0.0, 0.0)
    got, want = tree_mod._best_split(histogram_weights(gh, hh), *args), ref_best_split(gh, hh, *args)
    assert same_bits(np.array(got, dtype=float), np.array(want, dtype=float))


def test_best_split_can_return_a_nan_gain():
    mapper = BinMapper(edges=(np.array([0.5, 1.5]), np.array([0.5])))
    gh = np.array([[0.0, 1.0, -2.0], [1.0, -1.0, 0.0]])
    hh = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    got = tree_mod._best_split(histogram_weights(gh, hh), mapper, 0.0, 0.0, 0.0)
    assert np.isnan(got[0]) and got[1:3] == (0, 0)
    assert same_bits(np.array(got), np.array(ref_best_split(gh, hh, mapper, 0.0, 0.0, 0.0)))
