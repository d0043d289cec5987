"""Unit tests for the operator registry — numpy vs Spark agreement is
checked against the DuckDB oracle so both execution paths are validated
against a third, independent SQL engine."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.operators import (
    BINARY_OPERATORS,
    DEFAULT_BINARY_OPS,
    UNARY_OPERATORS,
    Operator,
    pair_specs,
    register_operator,
)
from repro.oracle import assert_equivalent


def test_default_ops_present():
    assert set(DEFAULT_BINARY_OPS) == {"add", "sub", "mul", "div"}
    for name in DEFAULT_BINARY_OPS:
        assert name in BINARY_OPERATORS


def test_commutativity_flags():
    assert BINARY_OPERATORS["add"].commutative
    assert BINARY_OPERATORS["mul"].commutative
    assert not BINARY_OPERATORS["sub"].commutative
    assert not BINARY_OPERATORS["div"].commutative


def test_pair_specs_six_variants():
    specs = pair_specs("a", "b")
    assert len(specs) == 6  # add, mul once; sub, div both orders
    names = {(op, inputs) for op, inputs in specs}
    assert ("add", ("a", "b")) in names
    assert ("sub", ("a", "b")) in names and ("sub", ("b", "a")) in names
    assert ("div", ("a", "b")) in names and ("div", ("b", "a")) in names


def test_pair_specs_canonical_order():
    """Unordered pair {b, a} must produce the same specs as {a, b}."""
    assert pair_specs("b", "a") == pair_specs("a", "b")


def test_numpy_div_guard():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, 0.0, 1e-15])
    out = BINARY_OPERATORS["div"].np_fn(a, b)
    np.testing.assert_allclose(out, [0.5, 0.0, 0.0])


def test_numpy_arithmetic():
    a = np.array([1.0, -2.0])
    b = np.array([3.0, 4.0])
    assert np.allclose(BINARY_OPERATORS["add"].np_fn(a, b), [4, 2])
    assert np.allclose(BINARY_OPERATORS["sub"].np_fn(a, b), [-2, -6])
    assert np.allclose(BINARY_OPERATORS["mul"].np_fn(a, b), [3, -8])


def test_unary_ops_finite_on_negatives():
    a = np.array([-4.0, 0.0, 9.0])
    for name, op in UNARY_OPERATORS.items():
        assert np.isfinite(op.np_fn(a)).all(), name


def test_register_rejects_bad_arity():
    with pytest.raises(ValueError):
        register_operator(Operator("ternary", 3, True, None, None))


def test_register_new_operator_roundtrip():
    op = Operator(
        "absdiff_test", 2, True,
        lambda a, b: np.abs(np.asarray(a) - np.asarray(b)),
        lambda a, b: F.abs(a - b),
    )
    register_operator(op)
    try:
        assert "absdiff_test" in BINARY_OPERATORS
        # commutative → fires once per pair
        specs = pair_specs("x", "y", ("absdiff_test",))
        assert specs == [("absdiff_test", ("x", "y"))]
    finally:
        del BINARY_OPERATORS["absdiff_test"]


@pytest.fixture(scope="module")
def pair_pdf():
    rng = np.random.default_rng(0)
    return pd.DataFrame(
        {
            "a": rng.normal(size=300),
            "b": np.where(rng.random(300) < 0.1, 0.0, rng.normal(size=300)),
        }
    )


@pytest.mark.parametrize("op_name", ["add", "sub", "mul"])
def test_spark_matches_duckdb_oracle(spark, pair_pdf, op_name):
    """Spark Column expr vs DuckDB SQL for each arithmetic operator."""
    op = BINARY_OPERATORS[op_name]
    sdf = spark.createDataFrame(pair_pdf)
    got = sdf.select(op.spark_fn(F.col("a"), F.col("b")).alias("v"))
    sym = {"add": "+", "sub": "-", "mul": "*"}[op_name]
    assert_equivalent(got, f"SELECT a {sym} b AS v FROM t", t=pair_pdf)


def test_spark_div_guard_matches_duckdb_oracle(spark, pair_pdf):
    op = BINARY_OPERATORS["div"]
    sdf = spark.createDataFrame(pair_pdf)
    got = sdf.select(op.spark_fn(F.col("a"), F.col("b")).alias("v"))
    assert_equivalent(
        got,
        "SELECT CASE WHEN abs(b) > 1e-12 THEN a / b ELSE 0.0 END AS v FROM t",
        t=pair_pdf,
    )


def test_spark_div_matches_numpy_on_degenerate_divisors(spark):
    """NaN, null, zero, tiny and infinite divisors give the same value
    through ``spark_fn`` as through ``np_fn`` (null arrives as NaN)."""
    op = BINARY_OPERATORS["div"]
    divisors = [float("nan"), None, 0.0, 1e-15, float("inf"), float("-inf"), 2.0]
    numerators = [1.0, -3.0]
    # a literal NaN: Arrow's createDataFrame would turn a pandas NaN into null
    exprs = [
        op.spark_fn(F.lit(a), F.lit(b).cast("double")).alias(f"v{i}_{j}")
        for i, a in enumerate(numerators)
        for j, b in enumerate(divisors)
    ]
    got = spark.range(1).select(*exprs).toPandas().to_numpy(dtype=np.float64)[0]
    b = np.array([np.nan if d is None else d for d in divisors])
    want = np.concatenate([op.np_fn(np.full(len(b), a), b) for a in numerators])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("op_name", ["add", "sub", "mul", "div"])
def test_spark_null_input_gives_nan_where_numpy_does(spark, op_name):
    """A null input reads as NaN: ``spark_fn`` gives NaN, never null, in
    the rows where ``np_fn`` gives NaN, counted on the Spark side."""
    op = BINARY_OPERATORS[op_name]
    rows = [(None, 2.0), (1.0, None), (None, None), (float("nan"), 2.0), (3.0, 2.0)]
    sdf = spark.createDataFrame([(i, *r) for i, r in enumerate(rows)], "i int, a double, b double")
    v = op.spark_fn(F.col("a"), F.col("b"))
    counts = sdf.agg(
        F.sum(F.isnan(v).cast("int")).alias("nan"), F.sum(v.isNull().cast("int")).alias("null")
    ).first()
    is_nan = [r.v for r in sdf.orderBy("i").select(F.isnan(v).alias("v")).collect()]
    a, b = (np.array([np.nan if r[k] is None else r[k] for r in rows]) for k in (0, 1))
    want = np.isnan(op.np_fn(a, b))
    assert counts["null"] == 0
    assert counts["nan"] == want.sum() > 0
    assert is_nan == list(want)


@pytest.mark.parametrize("op_name", ["add", "sub", "mul", "div"])
def test_spark_matches_numpy(spark, pair_pdf, op_name):
    op = BINARY_OPERATORS[op_name]
    sdf = spark.createDataFrame(pair_pdf)
    got = (
        sdf.select(op.spark_fn(F.col("a"), F.col("b")).alias("v"))
        .toPandas()["v"]
        .to_numpy()
    )
    want = op.np_fn(pair_pdf["a"].to_numpy(), pair_pdf["b"].to_numpy())
    np.testing.assert_allclose(np.sort(got), np.sort(want), rtol=1e-12)
