"""Sort-based binning is bit-identical to per-row binning.

``bin_matrix`` (GBDT edges and codes from one argsort per column) and
the local IV (edges read from the sorted column, bins counted by
comparing values with edges) replaced code that binary-searched every row
into its bin. The reference functions below are copies of that code;
every edge, code, count and IV must equal theirs exactly on ordinary and
adversarial columns.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.engine import LocalEngine
from repro.core.iv import iv_from_counts, sorted_edges
from repro.core.scan import bin_counts, iv_of_counts
from repro.gbdt.binning import bin_column, bin_matrix

# quantiles interpolated between infinities are NaN, and midpoints of the
# largest floats overflow to inf, each with a warning
pytestmark = [
    pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"),
]


# -- reference copies of the per-row code --------------------------------------
def ref_feature_edges(col, n_bins):
    col = col[np.isfinite(col)]
    if col.size == 0:
        return np.empty(0, dtype=np.float64)
    uniq = np.unique(col)
    if len(uniq) <= 1:
        return np.empty(0, dtype=np.float64)
    if len(uniq) <= n_bins:
        return ((uniq[:-1] + uniq[1:]) / 2.0).astype(np.float64)
    qs = np.quantile(col, np.linspace(0, 1, n_bins + 1)[1:-1])
    qs = np.unique(qs)
    idx = np.searchsorted(uniq, qs, side="right")
    idx = np.clip(idx, 1, len(uniq) - 1)
    edges = (uniq[idx - 1] + uniq[idx]) / 2.0
    return np.unique(edges).astype(np.float64)


def ref_bin_matrix(X, n_bins):
    X = np.asarray(X, dtype=np.float64)
    edges = [ref_feature_edges(X[:, f], n_bins) for f in range(X.shape[1])]
    codes = np.empty(X.shape, dtype=np.int32, order="F")
    for f, e in enumerate(edges):
        codes[:, f] = np.searchsorted(e, X[:, f], side="left")
    return edges, codes


def ref_iv_counts(x, y, beta):
    # edges from the finite values only; NaN and +inf land in the last bin
    finite = x[np.isfinite(x)]
    edges = np.quantile(finite, np.linspace(0, 1, beta + 1)[1:-1]) if finite.size else np.empty(0)
    codes = np.searchsorted(np.unique(edges), x, side="left")
    n_bins = int(codes.max()) + 1 if len(codes) else 1
    return np.bincount(codes[y], minlength=n_bins), np.bincount(codes[~y], minlength=n_bins)


# -- inputs ----------------------------------------------------------------------
def _columns(n: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=n)
    some_nan = normal.copy()
    some_nan[rng.random(n) < 0.1] = np.nan
    infs = normal.copy()
    infs[rng.integers(0, n, 5)] = np.inf
    infs[rng.integers(0, n, 5)] = -np.inf
    tiny_step = np.where(rng.random(n) < 0.5, 1.0, np.nextafter(1.0, 2.0))
    # sorted grid values (quantiles and midpoints fall on data values)
    grid = rng.integers(0, 17, n) / 8.0
    # IV edges are order statistics of the column: repeat them in the data
    on_edges = normal.copy()
    on_edges[: min(n, 20)] = np.resize(np.quantile(normal, [0.1, 0.5, 0.9]).repeat(6), min(n, 20))
    signed_zero = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
    huge = rng.choice([1.7e308, 1e308, -1.7e308, 0.0], size=n)
    return {
        "normal": normal,
        "heavy_ties": rng.integers(0, 5, n).astype(np.float64),
        "few_distinct": rng.choice([1.0, 2.0, 5.0], size=n),
        "constant": np.full(n, 3.5),
        "grid": grid,
        "on_edges": on_edges,
        "some_nan": some_nan,
        "all_nan": np.full(n, np.nan),
        "inf": infs,
        "only_inf": rng.choice([np.inf, -np.inf], size=n),
        "tiny_step": tiny_step,
        "signed_zero": signed_zero,
        "huge": huge,
        "skewed": np.exp(rng.normal(0, 3, n)).round(1),
    }


SIZES = [(1, 0), (2, 1), (7, 2), (500, 3), (3000, 4)]
N_BINS = [2, 4, 16, 64, 255]


# -- GBDT binning -------------------------------------------------------------------
@pytest.mark.parametrize("n, seed", SIZES)
def test_bin_matrix_equals_per_row_binning(n, seed):
    cols = _columns(n, seed)
    X = np.column_stack(list(cols.values()))
    for n_bins in N_BINS:
        want_edges, want_codes = ref_bin_matrix(X, n_bins)
        mapper, codes = bin_matrix(X, n_bins)
        assert codes.dtype == np.int32 and codes.flags.f_contiguous
        assert np.array_equal(codes, want_codes), n_bins
        for name, got, want in zip(cols, mapper.edges, want_edges):
            assert got.dtype == want.dtype and np.array_equal(got, want), (name, n_bins)
        # the per-row path the Spark backend keeps, on the same edges
        assert np.array_equal(mapper.transform(X), want_codes)


def test_bin_column_on_edge_values():
    """Adjacent floats: the midpoint edge equals a data value, which the
    per-row ``searchsorted(..., 'left')`` puts in the lower bin."""
    lo, hi = 1.0, np.nextafter(1.0, 2.0)
    x = np.array([hi, lo, hi, lo, lo])
    edges, codes = bin_column(x, 8)
    assert edges[0] in (lo, hi)
    assert np.array_equal(codes, np.searchsorted(edges, x, side="left"))


def test_bin_matrix_on_c_and_f_order_and_empty():
    X = np.random.default_rng(9).normal(size=(300, 4))
    _, c_codes = bin_matrix(np.ascontiguousarray(X), 16)
    _, f_codes = bin_matrix(np.asfortranarray(X), 16)
    assert np.array_equal(c_codes, f_codes)
    mapper, codes = bin_matrix(np.empty((0, 2)), 16)
    assert codes.shape == (0, 2) and mapper.max_bins == 1


# -- IV --------------------------------------------------------------------------------
def _labels(n: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    one_pos = np.zeros(n, dtype=bool)
    one_pos[rng.integers(0, n)] = True
    return {
        "mixed": rng.random(n) < 0.3,
        "one_positive": one_pos,
        "all_negative": np.zeros(n, dtype=bool),
        "all_positive": np.ones(n, dtype=bool),
    }


def _iv_counts(x, y, beta):
    """(pos, total) of the local IV's kernel on the column's own edges."""
    pos, total = bin_counts(x[:, None], y, [sorted_edges(np.sort(x), beta)])
    return pos[0], total[0]


@pytest.mark.parametrize("n, seed", SIZES)
def test_iv_counts_and_values_equal_per_row_binning(n, seed):
    cols = _columns(n, seed)
    for label, y in _labels(n, seed).items():
        pdf = pd.DataFrame({**cols, "label": y.astype(int)})
        for beta in (2, 10, 50):
            want_iv = {}
            for name, x in cols.items():
                pos, neg = ref_iv_counts(x, y, beta)
                got_pos, got_total = _iv_counts(x, y, beta)
                k = len(pos)  # bins past the largest value's are empty
                assert not got_total[k:].any(), (name, label, beta)
                assert np.array_equal(got_pos[:k], pos), (name, label, beta)
                assert np.array_equal(got_total[:k] - got_pos[:k], neg), (name, label, beta)
                want_iv[name] = iv_from_counts(pos, neg)
            got_iv = LocalEngine(pdf, "label").iv(list(cols), beta=beta)
            assert got_iv == want_iv, (label, beta)  # exact, NaN-free by smoothing


def test_iv_keeps_empty_inner_bins():
    """Bins 0..code(max) are all counted, also those no row falls in: here
    three interpolated edges (0.2, 0.5, 0.8) lie between the two values."""
    x = np.array([1.0, 0.0, 0.0, 1.0])
    y = np.array([1, 0, 1, 0], dtype=bool)
    pos, neg = ref_iv_counts(x, y, 10)
    got_pos, got_total = _iv_counts(x, y, 10)
    assert list(got_total) == [2, 0, 0, 0, 2, 0]  # the last edge is 1.0
    assert np.array_equal(got_pos[:5], pos) and np.array_equal(got_total[:5] - got_pos[:5], neg)
    assert iv_of_counts(got_pos[None], got_total[None])[0] == iv_from_counts(pos, neg)


def test_nan_lands_in_the_last_bin():
    """The edges come from the finite values, so a NaN row counts in the
    last bin and the finite rows keep their own bins."""
    x = np.array([np.nan, 1.0, 2.0, 3.0, 4.0])
    pos, total = _iv_counts(x, np.array([True, False, True, False, False]), 4)
    assert list(total) == [1, 1, 1, 2] and list(pos) == [0, 1, 0, 1]
