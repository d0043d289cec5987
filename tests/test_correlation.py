"""Unit tests for Pearson redundancy removal (Algorithm 4, Table II)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.correlation import (
    DEFAULT_THETA,
    PEARSON_BANDS,
    correlation_band,
    remove_redundant,
)
from repro.core.engine import LocalEngine, SparkEngine
from repro.oracle import assert_equivalent


def _local_corr(X: np.ndarray) -> np.ndarray:
    """``LocalEngine.corr`` over every column of the matrix ``X``."""
    pdf = pd.DataFrame(X, columns=[f"c{j}" for j in range(X.shape[1])])
    pdf["label"] = np.arange(len(pdf)) % 2
    return LocalEngine(pdf, "label").corr([f"c{j}" for j in range(X.shape[1])])


def _corrcoef(pdf: pd.DataFrame, cols: list[str]) -> np.ndarray:
    """``np.corrcoef`` of ``cols``, a constant column's row and column 0
    off the diagonal."""
    mat = pdf[cols].to_numpy()
    varies = mat.std(axis=0) > 0
    out = np.eye(len(cols))
    out[np.ix_(varies, varies)] = np.corrcoef(mat[:, varies], rowvar=False)
    return out


def _parent_pearson(mat: np.ndarray) -> np.ndarray:
    """The local Pearson matrix as it was computed before the local engine
    ran the ColumnStats kernel: np.corrcoef of the columns with a positive
    standard deviation, 0 elsewhere off the diagonal."""
    sd = mat.std(axis=0)
    ok = sd > 0
    out = np.zeros((mat.shape[1], mat.shape[1]))
    if ok.sum() >= 1:
        sub = np.atleast_2d(np.corrcoef(mat[:, ok], rowvar=False))
        idx = np.where(ok)[0]
        out[np.ix_(idx, idx)] = sub
    np.fill_diagonal(out, 1.0)
    return np.nan_to_num(out, nan=0.0)


def test_table2_bands():
    """Table II of the paper, verbatim."""
    assert correlation_band(0.1) == "very weak or none"
    assert correlation_band(0.3) == "weak"
    assert correlation_band(0.5) == "moderate"
    assert correlation_band(0.7) == "strong"
    assert correlation_band(0.9) == "extremely strong"
    assert correlation_band(-0.9) == "extremely strong"
    assert DEFAULT_THETA == 0.8
    assert len(PEARSON_BANDS) == 5


def test_local_corr_known_values():
    x = np.arange(100.0)
    mat = _local_corr(np.column_stack([x, 2 * x + 3, -x]))
    np.testing.assert_allclose(mat[0, 1], 1.0)
    np.testing.assert_allclose(mat[0, 2], -1.0)
    np.testing.assert_allclose(np.diag(mat), 1.0)


def test_local_corr_symmetric():
    X = np.random.default_rng(0).normal(size=(200, 5))
    mat = _local_corr(X)
    np.testing.assert_allclose(mat, mat.T)


def test_zero_variance_column_correlates_zero():
    X = np.column_stack([np.arange(50.0), np.ones(50)])
    mat = _local_corr(X)
    assert mat[0, 1] == 0.0
    assert mat[1, 1] == 1.0


def test_local_corr_zeroes_non_finite_and_constant_columns():
    """A column holding NaN, one holding ±inf and a constant column get
    zero rows and columns and a unit diagonal, and every entry equals the
    earlier np.corrcoef formula's bit for bit."""
    rng = np.random.default_rng(7)
    n = 3000
    X = rng.normal(size=(n, 6))
    X[:, 1] = 0.6 * X[:, 0] + 0.4 * X[:, 1] + 1e6  # correlated, far from 0
    X[rng.integers(n, size=30), 2] = np.nan
    X[rng.integers(n, size=5), 3] = np.inf
    X[rng.integers(n, size=5), 3] = -np.inf
    X[:, 4] = 2.5  # constant
    got = _local_corr(X)
    with np.errstate(invalid="ignore"):
        want = _parent_pearson(X)
    assert np.array_equal(got, want)
    for j in (2, 3, 4):
        assert not np.delete(got[j], j).any() and not np.delete(got[:, j], j).any()
    assert np.array_equal(np.diag(got), np.ones(6))
    assert got[0, 1] == pytest.approx(np.corrcoef(X[:, 0], X[:, 1])[0, 1], abs=1e-12)


def test_local_corr_zeroes_constant_column_with_inexact_mean():
    """The mean of 3,000 copies of 0.1 is not 0.1, so the standard
    deviation is a rounding residue above 0, and the earlier formula
    correlated two such columns about 1 (one of them would be dropped as
    redundant). Min = max marks them constant: both correlate 0."""
    x = np.random.default_rng(8).normal(size=3000)
    X = np.column_stack([x, np.full(3000, 0.1), np.full(3000, 1e6 + 0.1), -x])
    assert X[:, 1].std() > 0 and X[:, 2].std() > 0
    assert _parent_pearson(X)[1, 2] > DEFAULT_THETA
    got = _local_corr(X)
    assert np.array_equal(got[1:3, :], np.eye(4)[1:3, :])
    assert got[0, 3] == -1.0


def test_remove_redundant_keeps_higher_iv():
    cols = ["a", "b"]
    iv = {"a": 0.5, "b": 0.9}
    corr = np.array([[1.0, 0.95], [0.95, 1.0]])
    assert remove_redundant(cols, iv, corr, 0.8) == ["b"]


def test_remove_redundant_keeps_uncorrelated():
    cols = ["a", "b", "c"]
    iv = {"a": 0.5, "b": 0.4, "c": 0.3}
    corr = np.eye(3)
    assert remove_redundant(cols, iv, corr, 0.8) == ["a", "b", "c"]


def test_remove_redundant_transitive_chain():
    """a~b and b~c but a!~c: greedy keeps a (top IV) and c."""
    cols = ["a", "b", "c"]
    iv = {"a": 0.9, "b": 0.8, "c": 0.7}
    corr = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.9], [0.1, 0.9, 1.0]])
    assert remove_redundant(cols, iv, corr, 0.8) == ["a", "c"]


def test_remove_redundant_negative_correlation_counts():
    cols = ["a", "b"]
    iv = {"a": 0.9, "b": 0.5}
    corr = np.array([[1.0, -0.95], [-0.95, 1.0]])
    assert remove_redundant(cols, iv, corr, 0.8) == ["a"]


def test_remove_redundant_threshold_boundary():
    cols = ["a", "b"]
    iv = {"a": 0.9, "b": 0.5}
    corr = np.array([[1.0, 0.8], [0.8, 1.0]])
    # |r| == θ is NOT greater than θ → both kept (paper: "> 0.8")
    assert remove_redundant(cols, iv, corr, 0.8) == ["a", "b"]


def test_remove_redundant_deterministic_tiebreak():
    cols = ["b", "a"]
    iv = {"a": 0.5, "b": 0.5}
    corr = np.eye(2)
    assert remove_redundant(cols, iv, corr, 0.8) == ["a", "b"]


def test_spark_matrix_matches_local(spark):
    rng = np.random.default_rng(1)
    pdf = pd.DataFrame(
        {
            "x": rng.normal(size=1000),
            "y": rng.normal(size=1000),
        }
    )
    pdf["z"] = 0.9 * pdf["x"] + 0.1 * rng.normal(size=1000)
    pdf["label"] = (pdf["x"] > 0).astype(int)
    cols = ["x", "y", "z"]
    local = np.corrcoef(pdf[cols].to_numpy(), rowvar=False)
    sdf = spark.createDataFrame(pdf)
    eng = SparkEngine(sdf, "label")
    eng.iv(cols)
    np.testing.assert_allclose(eng.corr(cols), local, atol=1e-8)
    # a subset in another order is sliced from the same scan
    np.testing.assert_allclose(
        eng.corr(["z", "x"]), np.corrcoef(pdf[["z", "x"]].to_numpy(), rowvar=False), atol=1e-8
    )
    eng.close()


def test_spark_corr_on_columns_iv_did_not_scan(spark):
    rng = np.random.default_rng(3)
    pdf = pd.DataFrame({"a": rng.normal(size=800), "b": rng.normal(size=800)})
    pdf["c"] = pdf["a"] - 0.5 * pdf["b"]
    pdf["k"] = 2.5  # constant
    pdf["label"] = rng.integers(0, 2, 800)
    sdf = spark.createDataFrame(pdf)
    cols = ["c", "a", "k"]
    want = _corrcoef(pdf, cols)
    eng = SparkEngine(sdf, "label")
    eng.iv(["a", "b"])
    np.testing.assert_allclose(eng.corr(cols), want, atol=1e-8)
    # without a preceding iv call
    fresh = SparkEngine(sdf, "label")
    np.testing.assert_allclose(fresh.corr(cols), want, atol=1e-8)
    eng.close()
    fresh.close()


def test_spark_corr_matches_duckdb(spark):
    rng = np.random.default_rng(2)
    pdf = pd.DataFrame({"x": rng.normal(size=500)})
    pdf["y"] = 0.7 * pdf["x"] + 0.3 * rng.normal(size=500)
    sdf = spark.createDataFrame(pdf)
    from pyspark.sql import functions as F

    got = sdf.select(F.corr("x", "y").alias("r"))
    assert_equivalent(got, "SELECT corr(x, y) AS r FROM t", t=pdf)
