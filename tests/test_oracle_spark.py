"""Oracle-backed checks of Spark aggregation idioms used by the pipeline,
run over the SAFE dataset generators (``repro.experiments.datasets``) so
the shuffle path of the session (broadcast joins disabled) is exercised on
the frames SAFE itself fits."""
import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.core.plan import FeaturePlan, FeatureSpec
from repro.experiments.datasets import BENCHMARK_DATASETS, make_dataset
from repro.oracle import assert_equivalent

SPECS = {s.name: s for s in BENCHMARK_DATASETS}


def _magic():
    """``magic``'s train and valid frames, each with a join key."""
    train, valid, _test = make_dataset(SPECS["magic"])
    train = train.assign(k=np.arange(len(train)) % 97)
    valid = valid.assign(k=np.arange(len(valid)) % 97)
    return train, valid


def test_groupby_aggregation_matches_duckdb(spark):
    train, _valid = _magic()
    got = (
        spark.createDataFrame(train)
        .groupBy("label")
        .agg(
            F.count("*").alias("cnt"),
            F.round(F.sum("f0"), 4).alias("s0"),
        )
    )
    assert_equivalent(
        got,
        "SELECT label, COUNT(*) AS cnt, ROUND(SUM(f0), 4) AS s0 FROM t GROUP BY label",
        t=train,
    )


def test_join_aggregation_matches_duckdb(spark):
    train, valid = _magic()
    left = spark.createDataFrame(train).select("k", F.col("label").alias("l_label"))
    right = spark.createDataFrame(valid).select("k", F.col("label").alias("r_label"))
    got = (
        left.join(right, "k")
        .groupBy("l_label", "r_label")
        .agg(F.count("*").alias("cnt"))
    )
    assert_equivalent(
        got,
        "SELECT a.label AS l_label, b.label AS r_label, COUNT(*) AS cnt "
        "FROM a JOIN b ON a.k = b.k GROUP BY 1, 2",
        a=train,
        b=valid,
    )


def test_generated_feature_aggregate_matches_duckdb(spark):
    """Ψ applied on Spark, aggregated, vs DuckDB computing the same
    generated feature in SQL — end-to-end check of the serving path."""
    train, _valid = _magic()
    plan = FeaturePlan([FeatureSpec("mul", ("f0", "f1"))], ["f0_f1__mul"])
    got = plan.apply_spark(spark.createDataFrame(train)).agg(
        F.round(F.sum("f0_f1__mul"), 2).alias("total")
    )
    assert_equivalent(
        got,
        "SELECT ROUND(SUM(f0 * f1), 2) AS total FROM t",
        t=train,
    )


def test_pipeline_on_tpch_derived_label():
    """SAFE runs end-to-end on a frame whose label comes from a business
    rule (price × discount interaction) over TPC-H lineitem-like columns."""
    from repro.core.pipeline import SafePipeline

    rng = np.random.default_rng(0)
    n = 12_000
    feats = pd.DataFrame(
        {
            "l_quantity": rng.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (rng.random(n) * 90000 + 900).round(2),
            "l_discount": (rng.random(n) * 0.1).round(2),
            "l_tax": (rng.random(n) * 0.08).round(2),
        }
    )
    revenue = feats["l_extendedprice"] * feats["l_discount"]
    feats["label"] = (revenue + rng.normal(0, revenue.std() * 0.3, n) > revenue.median()).astype(int)
    plan = SafePipeline(gamma=4, top_k=8).fit(feats, "label")
    gen = " ".join(plan.generated_outputs())
    assert "l_extendedprice" in gen and "l_discount" in gen
