"""Unit tests for the quantile binning substrate."""
import numpy as np
import pytest

from repro.gbdt.binning import BinMapper, bin_matrix


def test_edges_strictly_increasing():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 4))
    mapper = bin_matrix(X, n_bins=16)[0]
    for e in mapper.edges:
        assert np.all(np.diff(e) > 0)


def test_n_features_and_max_bins():
    X = np.random.default_rng(1).normal(size=(200, 3))
    mapper = bin_matrix(X, n_bins=8)[0]
    assert mapper.n_features == 3
    assert 1 <= mapper.max_bins <= 9


def test_transform_shape_and_dtype():
    X = np.random.default_rng(2).normal(size=(100, 5))
    mapper = bin_matrix(X, 32)[0]
    codes = mapper.transform(X)
    assert codes.shape == X.shape
    assert codes.dtype == np.int32


def test_codes_within_range():
    X = np.random.default_rng(3).normal(size=(300, 2))
    mapper = bin_matrix(X, 10)[0]
    codes = mapper.transform(X)
    for f in range(2):
        assert codes[:, f].min() >= 0
        assert codes[:, f].max() <= len(mapper.edges[f])


def test_codes_monotone_in_value():
    """Larger values never get smaller bin codes."""
    x = np.sort(np.random.default_rng(4).normal(size=400))
    mapper = bin_matrix(x[:, None], 16)[0]
    codes = mapper.transform(x[:, None])[:, 0]
    assert np.all(np.diff(codes) >= 0)


def test_constant_column_single_bin():
    X = np.ones((50, 1))
    mapper = bin_matrix(X, 8)[0]
    assert len(mapper.edges[0]) == 0
    assert np.all(mapper.transform(X) == 0)


def test_few_distinct_values_get_midpoint_edges():
    x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    mapper = bin_matrix(x[:, None], 16)[0]
    assert np.allclose(mapper.edges[0], [0.5, 1.5])
    codes = mapper.transform(x[:, None])[:, 0]
    assert list(codes) == [0, 0, 1, 1, 2, 2]


def test_thresholds_separate_distinct_values():
    """Every pair of distinct values with an edge between maps to different bins."""
    rng = np.random.default_rng(5)
    x = rng.choice([1.0, 2.0, 5.0, 9.0], size=200)
    mapper = bin_matrix(x[:, None], 16)[0]
    codes = mapper.transform(x[:, None])[:, 0]
    by_val = {v: set(codes[x == v]) for v in [1.0, 2.0, 5.0, 9.0]}
    # each value maps to exactly one bin
    assert all(len(s) == 1 for s in by_val.values())
    # and all four values are in distinct bins (16 bins >= 4 values)
    assert len({s.pop() for s in by_val.values()}) == 4


def test_equal_frequency_balance():
    """Quantile bins are roughly balanced on continuous data."""
    x = np.random.default_rng(6).normal(size=10_000)
    mapper = bin_matrix(x[:, None], 10)[0]
    codes = mapper.transform(x[:, None])[:, 0]
    counts = np.bincount(codes)
    assert counts.min() > 0.5 * counts.mean()
    assert counts.max() < 1.5 * counts.mean()


def test_quantile_bin_count_bounded():
    x = np.random.default_rng(7).normal(size=5000)
    for n_bins in (2, 4, 64, 255):
        mapper = bin_matrix(x[:, None], n_bins)[0]
        assert len(mapper.edges[0]) <= n_bins
        assert mapper.n_bins(0) <= n_bins + 1


def test_mapper_is_frozen():
    mapper = bin_matrix(np.zeros((10, 1)), 4)[0]
    with pytest.raises(Exception):
        mapper.edges = ()


def test_nan_ignored_for_edges():
    x = np.array([np.nan, 1.0, 2.0, 3.0, 4.0, np.nan])
    mapper = bin_matrix(x[:, None], 4)[0]
    assert len(mapper.edges[0]) >= 1
    assert np.all(np.isfinite(mapper.edges[0]))
