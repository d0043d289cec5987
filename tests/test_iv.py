"""Unit tests for Information Value (Algorithm 3, Table I)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.iv import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    IV_BANDS,
    equal_freq_bin,
    iv_band,
    iv_from_counts,
)
from repro.core.engine import LocalEngine, SparkEngine
from repro.core.pipeline import SafePipeline
from repro.oracle import assert_equivalent


def _local_iv(pdf: pd.DataFrame, y, cols: list[str]) -> dict[str, float]:
    """``LocalEngine.iv`` of ``cols`` of ``pdf`` against the labels ``y``."""
    return LocalEngine(pdf[cols].assign(label=np.asarray(y)), "label").iv(cols)


def test_table1_bands():
    """Table I of the paper, verbatim."""
    assert iv_band(0.01) == "useless"
    assert iv_band(0.05) == "weak"
    assert iv_band(0.2) == "medium"
    assert iv_band(0.4) == "strong"
    assert iv_band(0.9) == "extremely strong"
    assert DEFAULT_ALPHA == 0.1  # paper keeps medium-or-better
    assert DEFAULT_BETA == 10
    assert len(IV_BANDS) == 5


def test_iv_from_counts_hand_example():
    # two bins: (30 pos, 10 neg), (10 pos, 30 neg); smoothing 0.5
    p = np.array([30.5, 10.5]) / 41.0
    q = np.array([10.5, 30.5]) / 41.0
    want = ((p - q) * np.log(p / q)).sum()
    assert iv_from_counts([30, 10], [10, 30]) == pytest.approx(want)


def test_iv_symmetric_in_class_swap():
    assert iv_from_counts([30, 10], [10, 30]) == pytest.approx(
        iv_from_counts([10, 30], [30, 10])
    )


def test_iv_zero_when_identical_distributions():
    assert iv_from_counts([20, 20], [20, 20]) == pytest.approx(0.0)


def test_iv_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pos = rng.integers(0, 100, 10)
        neg = rng.integers(0, 100, 10)
        assert iv_from_counts(pos, neg) >= 0


def test_equal_freq_bin_balanced():
    x = np.random.default_rng(1).normal(size=5000)
    codes = equal_freq_bin(x, 10)
    counts = np.bincount(codes)
    assert len(counts) == 10
    assert counts.min() > 300


def test_equal_freq_bin_constant_column():
    codes = equal_freq_bin(np.ones(100), 10)
    assert set(codes) == {0}


def test_informative_feature_scores_higher():
    rng = np.random.default_rng(2)
    n = 4000
    y = rng.integers(0, 2, n)
    strong = y + rng.normal(0, 0.5, n)
    weak = y + rng.normal(0, 5.0, n)
    noise = rng.normal(size=n)
    pdf = pd.DataFrame({"f0": strong, "f1": weak, "f2": noise})
    ivs = _local_iv(pdf, y, ["f0", "f1", "f2"])
    assert ivs["f0"] > ivs["f1"] > ivs["f2"]
    assert ivs["f0"] > 0.5
    assert ivs["f2"] < 0.05


def test_local_iv_follows_the_asked_columns():
    rng = np.random.default_rng(3)
    pdf = pd.DataFrame({"a": rng.normal(size=500), "b": rng.normal(size=500)})
    pdf["label"] = (pdf["a"] > 0).astype(int)
    ivs = LocalEngine(pdf, "label").iv(["b", "a"])
    assert list(ivs) == ["b", "a"]
    assert ivs["a"] > 1.0  # perfectly separating feature


def test_nan_rows_keep_a_column_informative():
    """5% NaN in x0 of a label set by x0·x1 > 0: the IV edges come from the
    finite values, so x0 keeps most of its IV (NaN edges put every row in
    one bin, IV 0) and the plan still holds the x0/x1 combinations."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 6))
    pdf = pd.DataFrame(X, columns=[f"x{i}" for i in range(6)])
    pdf["label"] = (X[:, 0] * X[:, 1] > 0).astype(int)
    clean = _local_iv(pdf, pdf["label"], ["x0"])["x0"]
    pdf.loc[rng.random(2000) < 0.05, "x0"] = np.nan
    with_nan = _local_iv(pdf, pdf["label"], ["x0"])["x0"]
    assert 0.5 * clean < with_nan < clean
    plan = SafePipeline().fit(pdf, "label", engine="local")
    pair = [c for c in plan.generated_outputs() if {"x0", "x1"} <= set(c.split("__")[0].split("_"))]
    assert len(pair) >= 5, plan.output_columns


def test_spark_iv_matches_local(spark):
    rng = np.random.default_rng(4)
    n = 3000
    y = rng.integers(0, 2, n)
    pdf = pd.DataFrame(
        {
            "s": y + rng.normal(0, 0.8, n),
            "w": y + rng.normal(0, 4.0, n),
            "z": rng.normal(size=n),
            "label": y,
        }
    )
    local = LocalEngine(pdf, "label").iv(["s", "w", "z"])
    sdf = spark.createDataFrame(pdf)
    eng = SparkEngine(sdf, "label")
    dist = eng.iv(["s", "w", "z"])
    eng.close()
    for c in ("s", "w", "z"):
        assert dist[c] == pytest.approx(local[c], abs=0.05), c
    # ordering of predictive power is preserved exactly
    assert dist["s"] > dist["w"] > dist["z"]


def test_spark_bin_counts_match_duckdb(spark, spark_scan):
    """The fused scan's per-bin counts on explicit edges vs DuckDB SQL with
    the same edges: the kernel's ``searchsorted(edges, x, 'left')`` is the
    ``x <= edge`` CASE chain, including values equal to an edge."""
    rng = np.random.default_rng(5)
    pdf = pd.DataFrame({"x": rng.normal(size=2000), "label": rng.integers(0, 2, 2000)})
    edges = list(np.quantile(pdf["x"], [0.25, 0.5, 0.75]))
    on_edges = pd.DataFrame({"x": edges * 2, "label": [0, 1, 1, 1, 0, 0]})
    pdf = pd.concat([pdf, on_edges], ignore_index=True)
    sdf = spark.createDataFrame(pdf)
    stats = spark_scan(sdf, ["x"], [np.asarray(edges)])
    nz = stats.count[0] > 0
    got = spark.createDataFrame(
        pd.DataFrame(
            {"bin": np.flatnonzero(nz), "pos": stats.pos[0][nz], "cnt": stats.count[0][nz]}
        )
    )
    sql = f"""
        SELECT CASE
                 WHEN x <= {edges[0]!r} THEN 0
                 WHEN x <= {edges[1]!r} THEN 1
                 WHEN x <= {edges[2]!r} THEN 2
                 ELSE 3 END AS bin,
               SUM(label) AS pos, COUNT(*) AS cnt
        FROM t GROUP BY 1
    """
    assert_equivalent(got, sql, t=pdf)
