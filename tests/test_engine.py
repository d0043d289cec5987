"""Unit tests for the LocalEngine / SparkEngine parity layer."""
import numpy as np
import pandas as pd
import pytest

from repro.core.combos import FeatureCombo
from repro.core.engine import LocalEngine, SparkEngine
from repro.core.pipeline import SafePipeline
from repro.core.plan import FeatureSpec
from repro.gbdt.spark_backend import quantile_probs


@pytest.fixture(scope="module")
def pdf():
    rng = np.random.default_rng(0)
    n = 2000
    y = rng.integers(0, 2, n)
    return pd.DataFrame(
        {
            "a": y + rng.normal(0, 0.8, n),
            "b": rng.normal(size=n),
            "c": y + rng.normal(0, 2.0, n),
            "label": y,
        }
    )


def test_local_feature_columns(pdf):
    eng = LocalEngine(pdf, "label")
    assert eng.feature_columns == ["a", "b", "c"]


def test_local_add_generated_and_chain(pdf):
    eng = LocalEngine(pdf, "label")
    s1 = FeatureSpec("mul", ("a", "b"))
    s2 = FeatureSpec("add", (s1.name, "c"))  # depends on s1 within same batch
    eng.add_generated([s1, s2])
    np.testing.assert_allclose(eng.pdf[s1.name], pdf["a"] * pdf["b"])
    np.testing.assert_allclose(eng.pdf[s2.name], pdf["a"] * pdf["b"] + pdf["c"])


def test_local_add_generated_idempotent(pdf):
    eng = LocalEngine(pdf, "label")
    s1 = FeatureSpec("mul", ("a", "b"))
    eng.add_generated([s1])
    eng.add_generated([s1])  # second call is a no-op
    assert list(eng.pdf.columns).count(s1.name) == 1


def test_local_gbdt_trains_on_subset(pdf):
    eng = LocalEngine(pdf, "label")
    model = eng.fit_gbdt(["a", "b"], n_estimators=5, max_depth=2)
    assert model.n_features_ == 2
    assert 0 in model.split_features()  # "a" is the informative one


def test_local_iv_and_corr_consistency(pdf):
    eng = LocalEngine(pdf, "label")
    iv = eng.iv(["a", "b", "c"])
    assert iv["a"] > iv["c"] > iv["b"]
    corr = eng.corr(["a", "c"])
    assert corr.shape == (2, 2)
    assert corr[0, 1] == pytest.approx(np.corrcoef(pdf["a"], pdf["c"])[0, 1])


def test_local_gain_ratios_positional_indexing(pdf):
    eng = LocalEngine(pdf, "label")
    combo = FeatureCombo((0,), ((0.5,),))  # index 0 of the cols list below
    (r_a,) = eng.gain_ratios(["a", "b"], [combo])
    (r_b,) = eng.gain_ratios(["b", "a"], [combo])
    assert r_a > r_b  # same combo, different positional meaning


def test_spark_engine_parity(spark, pdf):
    sdf = spark.createDataFrame(pdf)
    local = LocalEngine(pdf, "label")
    dist = SparkEngine(sdf, "label")
    try:
        assert dist.feature_columns == local.feature_columns
        iv_l = local.iv(["a", "b", "c"])
        iv_d = dist.iv(["a", "b", "c"])
        for c in ("a", "b", "c"):
            assert iv_d[c] == pytest.approx(iv_l[c], abs=0.05)
        np.testing.assert_allclose(
            dist.corr(["a", "b", "c"]), local.corr(["a", "b", "c"]), atol=1e-8
        )
        combo = FeatureCombo((0, 2), ((0.5,), (0.5,)))
        np.testing.assert_allclose(
            dist.gain_ratios(["a", "b", "c"], [combo]),
            local.gain_ratios(["a", "b", "c"], [combo]),
            rtol=1e-9,
        )
    finally:
        dist.close()


def test_spark_add_generated(spark, pdf):
    sdf = spark.createDataFrame(pdf)
    eng = SparkEngine(sdf, "label")
    try:
        s1 = FeatureSpec("mul", ("a", "b"))
        s2 = FeatureSpec("add", (s1.name, "c"))
        eng.add_generated([s1, s2])
        out = eng.df.select(s1.name, s2.name, "a", "b", "c").toPandas()
        np.testing.assert_allclose(out[s1.name], out["a"] * out["b"], rtol=1e-12)
        np.testing.assert_allclose(
            out[s2.name], out["a"] * out["b"] + out["c"], rtol=1e-12
        )
    finally:
        eng.close()


@pytest.fixture
def count_approx_quantile(spark, monkeypatch):
    """Records the columns of every ``approxQuantile`` call."""
    calls: list[list[str]] = []
    cls = type(spark.range(1))
    orig = cls.approxQuantile

    def recording(self, col, probabilities, relativeError):
        calls.append(list(col))
        return orig(self, col, probabilities, relativeError)

    monkeypatch.setattr(cls, "approxQuantile", recording)
    return calls


def test_spark_quantiles_equal_approx_quantile(spark, pdf, count_approx_quantile):
    """Cached edges are exactly the values of a direct call, whether they
    were fetched fresh or served from a fetch on a larger grid."""
    sdf = spark.createDataFrame(pdf)
    cols = ["a", "b", "c"]
    iv_probs, gbdt_probs = quantile_probs(10), quantile_probs(64)
    direct_iv = sdf.stat.approxQuantile(cols, iv_probs, 0.001)
    direct_gbdt = sdf.stat.approxQuantile(cols, gbdt_probs, 0.001)
    count_approx_quantile.clear()

    eng = SparkEngine(sdf, "label")
    assert eng.quantiles(cols, gbdt_probs) == direct_gbdt  # fresh
    assert eng.quantiles(cols, iv_probs) == direct_iv  # fresh, on the union grid
    assert len(count_approx_quantile) == 2
    assert eng.quantiles(cols, gbdt_probs) == direct_gbdt  # cached
    assert eng.quantiles(["b"], iv_probs) == [direct_iv[1]]  # cached
    assert len(count_approx_quantile) == 2


def test_spark_ranking_gbdt_fetches_no_quantiles(spark, count_approx_quantile, monkeypatch):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(2000, 3))
    logit = 2.5 * X[:, 0] * X[:, 1] + 0.8 * X[:, 2]
    planted = pd.DataFrame(X, columns=["x0", "x1", "x2"])
    planted["label"] = (rng.random(2000) < 1 / (1 + np.exp(-logit))).astype(int)
    per_fit: list[int] = []
    fit_gbdt = SparkEngine.fit_gbdt

    def counting_fit_gbdt(self, cols, **params):
        before = len(count_approx_quantile)
        model = fit_gbdt(self, cols, **params)
        per_fit.append(len(count_approx_quantile) - before)
        return model

    monkeypatch.setattr(SparkEngine, "fit_gbdt", counting_fit_gbdt)
    gbdt = {"n_estimators": 2, "max_depth": 2}
    SafePipeline(mining_gbdt=gbdt, ranking_gbdt=gbdt).fit(
        spark.createDataFrame(planted), "label", engine="spark"
    )
    assert per_fit == [1, 0]  # mining GBDT fetches, ranking GBDT reuses
    assert len(count_approx_quantile) == 2  # mining GBDT + IV
