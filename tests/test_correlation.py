"""Unit tests for Pearson redundancy removal (Algorithm 4, Table II)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.correlation import (
    DEFAULT_THETA,
    PEARSON_BANDS,
    correlation_band,
    pearson_matrix,
    remove_redundant,
)
from repro.core.engine import SparkEngine
from repro.oracle import assert_equivalent


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


def test_pearson_matrix_known_values():
    x = np.arange(100.0)
    mat = pearson_matrix(np.column_stack([x, 2 * x + 3, -x]))
    np.testing.assert_allclose(mat[0, 1], 1.0)
    np.testing.assert_allclose(mat[0, 2], -1.0)
    np.testing.assert_allclose(np.diag(mat), 1.0)


def test_pearson_matrix_symmetric():
    X = np.random.default_rng(0).normal(size=(200, 5))
    mat = pearson_matrix(X)
    np.testing.assert_allclose(mat, mat.T)


def test_zero_variance_column_correlates_zero():
    X = np.column_stack([np.arange(50.0), np.ones(50)])
    mat = pearson_matrix(X)
    assert mat[0, 1] == 0.0
    assert mat[1, 1] == 1.0


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
    local = pearson_matrix(pdf[cols])
    sdf = spark.createDataFrame(pdf)
    eng = SparkEngine(sdf, "label")
    eng.iv(cols)
    np.testing.assert_allclose(eng.corr(cols), local, atol=1e-8)
    # a subset in another order is sliced from the same scan
    np.testing.assert_allclose(
        eng.corr(["z", "x"]), pearson_matrix(pdf[["z", "x"]]), atol=1e-8
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
    want = pearson_matrix(pdf[cols])
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
