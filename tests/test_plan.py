"""Unit tests for FeaturePlan (the learned Ψ)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.plan import FeaturePlan, FeatureSpec, spec_name


@pytest.fixture()
def pdf():
    rng = np.random.default_rng(0)
    df = pd.DataFrame(rng.normal(size=(200, 3)), columns=["f0", "f1", "f2"])
    df["label"] = (rng.random(200) < 0.4).astype(int)
    return df


def _plan():
    s1 = FeatureSpec("mul", ("f0", "f1"))
    s2 = FeatureSpec("add", ("f0", "f2"))
    s3 = FeatureSpec("div", (s1.name, "f2"))  # chained: uses s1's output
    return FeaturePlan([s1, s2, s3], ["f0", s1.name, s3.name], "label")


def test_spec_name_deterministic():
    assert spec_name("mul", ("a", "b")) == "a_b__mul"
    assert FeatureSpec("div", ("b", "a")).name == "b_a__div"


def test_identity_plan(pdf):
    plan = FeaturePlan.identity(list(pdf.columns), "label")
    out = plan.apply_pandas(pdf)
    assert list(out.columns) == ["f0", "f1", "f2", "label"]
    pd.testing.assert_frame_equal(out, pdf)


def test_apply_pandas_values(pdf):
    plan = _plan()
    out = plan.apply_pandas(pdf)
    np.testing.assert_allclose(out["f0_f1__mul"], pdf["f0"] * pdf["f1"])
    want = (pdf["f0"] * pdf["f1"]) / pdf["f2"]
    np.testing.assert_allclose(out["f0_f1__mul_f2__div"], want, rtol=1e-12)


def test_output_column_partition(pdf):
    plan = _plan()
    assert plan.original_outputs() == ["f0"]
    assert set(plan.generated_outputs()) == {
        "f0_f1__mul",
        "f0_f1__mul_f2__div",
    }


def test_needed_specs_closure():
    plan = _plan()
    needed = plan.needed_specs()
    names = [s.name for s in needed]
    # s2 (f0+f2) is not an output and nothing depends on it
    assert "f0_f2__add" not in names
    # chained dependency retained, in dependency order
    assert names.index("f0_f1__mul") < names.index("f0_f1__mul_f2__div")


def test_pruned_removes_dead_specs(pdf):
    plan = _plan()
    pruned = plan.pruned()
    assert len(pruned.specs) == 2
    pd.testing.assert_frame_equal(pruned.apply_pandas(pdf), plan.apply_pandas(pdf))


def test_json_roundtrip(pdf):
    plan = _plan()
    back = FeaturePlan.from_json(plan.to_json())
    assert back.specs == plan.specs
    assert back.output_columns == plan.output_columns
    assert back.label_col == plan.label_col
    pd.testing.assert_frame_equal(back.apply_pandas(pdf), plan.apply_pandas(pdf))


def test_apply_pandas_keeps_label_and_row_order(pdf):
    out = _plan().apply_pandas(pdf)
    np.testing.assert_array_equal(out["label"], pdf["label"])
    assert list(out.index) == list(pdf.index)


def test_apply_pandas_without_label_column(pdf):
    plan = _plan()
    out = plan.apply_pandas(pdf.drop(columns=["label"]))
    assert "label" not in out.columns
    assert list(out.columns) == plan.output_columns


def test_apply_spark_matches_pandas(spark, pdf):
    plan = _plan()
    got = plan.apply_spark(spark.createDataFrame(pdf)).toPandas()
    want = plan.apply_pandas(pdf).reset_index(drop=True)
    got = got.sort_values(list(got.columns)).reset_index(drop=True)
    want = want.sort_values(list(want.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-12)


def test_apply_spark_column_set(spark, pdf):
    plan = _plan()
    sdf = plan.apply_spark(spark.createDataFrame(pdf))
    assert sdf.columns == plan.output_columns + ["label"]


def test_apply_spark_gives_nan_not_null(spark, pdf):
    """Arrow turns a pandas NaN into a Spark null; Ψ on Spark still gives
    NaN wherever ``apply_pandas`` does, and no null (counted on Spark)."""
    from pyspark.sql import functions as F

    pdf = pdf.copy()
    pdf.loc[[0, 3], "f0"] = np.nan
    pdf.loc[[3, 5], "f2"] = np.nan
    plan = _plan()
    sdf = plan.apply_spark(spark.createDataFrame(pdf))
    assert sdf.filter(F.col("f0").isNull()).count() == 2  # the input holds nulls
    generated = plan.generated_outputs()
    counts = sdf.agg(
        *(F.sum(F.isnan(c).cast("int")).alias(f"nan_{c}") for c in generated),
        *(F.sum(F.col(c).isNull().cast("int")).alias(f"null_{c}") for c in generated),
    ).first()
    want = plan.apply_pandas(pdf)
    for c in generated:
        assert counts[f"null_{c}"] == 0, c
        assert counts[f"nan_{c}"] == want[c].isna().sum() > 0, c
