"""Unit tests for the LocalEngine / SparkEngine parity layer."""
import numpy as np
import pandas as pd
import pytest

from repro.core.combos import FeatureCombo
from repro.core import engine
from repro.core.engine import LocalEngine, SparkEngine
from repro.gbdt import GBDTClassifier, binning
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


@pytest.mark.parametrize("cls", [LocalEngine, SparkEngine])
def test_engine_defines_its_primitives_in_its_own_body(cls):
    """The traced benchmark wraps ``cls.__dict__[name]`` of each primitive,
    so an inherited one would go untraced or fail to patch."""
    for name in ("fit_gbdt", "gain_ratios", "iv", "corr", "add_generated"):
        assert name in cls.__dict__, name


def test_local_feature_columns(pdf):
    eng = LocalEngine(pdf, "label")
    assert eng.feature_columns == ["a", "b", "c"]


def test_local_add_generated_and_chain(pdf):
    eng = LocalEngine(pdf, "label")
    s1 = FeatureSpec("mul", ("a", "b"))
    s2 = FeatureSpec("add", (s1.name, "c"))  # depends on s1 within same batch
    eng.add_generated([s1, s2])
    assert list(eng.columns) == ["a", "b", "c", s1.name, s2.name]
    assert np.array_equal(eng.columns[s1.name], pdf["a"] * pdf["b"])
    assert np.array_equal(eng.columns[s2.name], pdf["a"] * pdf["b"] + pdf["c"])


def test_local_add_generated_idempotent(pdf):
    eng = LocalEngine(pdf, "label")
    s1 = FeatureSpec("mul", ("a", "b"))
    eng.add_generated([s1])
    eng.add_generated([s1])  # second call is a no-op
    assert list(eng.columns) == ["a", "b", "c", s1.name]


def test_local_gbdt_trains_on_subset(pdf):
    eng = LocalEngine(pdf, "label")
    model = eng.fit_gbdt(["a", "b"], n_estimators=5, max_depth=2)
    assert model.n_features_ == 2
    assert 0 in model.split_features()  # "a" is the informative one


def test_local_cached_bins_fit_the_same_model(pdf):
    """A fit on codes cached by an earlier fit equals a fit on the matrix."""
    eng = LocalEngine(pdf, "label")
    params = {"n_estimators": 4, "max_depth": 3}
    eng.fit_gbdt(["a", "b"], **params)
    got = eng.fit_gbdt(["c", "a"], **params)  # "a" comes from the cache
    want = GBDTClassifier(**params).fit(pdf[["c", "a"]].to_numpy(), pdf["label"].to_numpy())
    X = pdf[["c", "a"]].to_numpy()
    assert np.array_equal(got.predict_proba(X), want.predict_proba(X))
    assert np.array_equal(got.feature_importances(), want.feature_importances())
    assert all(np.array_equal(g, w) for g, w in zip(got.mapper_.edges, want.mapper_.edges))


def test_local_fit_bins_each_column_once(monkeypatch):
    """In one SAFE fit no (column, n_bins) is binned twice: the ranking
    GBDT bins only the generated columns and reuses the base columns'
    codes from the mining GBDT."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(2000, 4))
    logit = 2.5 * X[:, 0] * X[:, 1] + 0.8 * X[:, 2]
    planted = pd.DataFrame(X, columns=["x0", "x1", "x2", "x3"])
    planted["label"] = (rng.random(2000) < 1 / (1 + np.exp(-logit))).astype(int)
    binned: list[int] = []
    bin_column = binning.bin_column

    def counting_bin_column(x, n_bins):
        binned.append(n_bins)
        return bin_column(x, n_bins)

    per_fit: list[tuple[list[str], int]] = []
    fit_gbdt = LocalEngine.fit_gbdt

    def recording_fit_gbdt(self, cols, **params):
        before = len(binned)
        model = fit_gbdt(self, cols, **params)
        per_fit.append((list(cols), len(binned) - before))
        return model

    monkeypatch.setattr(binning, "bin_column", counting_bin_column)
    monkeypatch.setattr(LocalEngine, "fit_gbdt", recording_fit_gbdt)
    gbdt = {"n_estimators": 4, "max_depth": 3}
    SafePipeline(mining_gbdt=gbdt, ranking_gbdt=gbdt).fit(planted, "label", engine="local")

    (mine_cols, mine_binned), (rank_cols, rank_binned) = per_fit
    assert mine_binned == len(mine_cols) == 4
    generated = [c for c in rank_cols if c not in mine_cols]
    assert generated and len(generated) < len(rank_cols)  # both kinds ranked
    assert rank_binned == len(generated)
    assert all("__" in c for c in generated)  # generated names
    assert set(binned) == {GBDTClassifier.n_bins}


def test_local_close_drops_cached_bins(pdf):
    eng = LocalEngine(pdf, "label")
    eng.fit_gbdt(["a", "b"], n_estimators=2, max_depth=2)
    assert len(eng._bins) == 2
    eng.close()
    assert not eng._bins


def test_local_iv_and_corr_consistency(pdf):
    eng = LocalEngine(pdf, "label")
    iv = eng.iv(["a", "b", "c"])
    assert iv["a"] > iv["c"] > iv["b"]
    corr = eng.corr(["a", "c"])
    assert corr.shape == (2, 2)
    assert corr[0, 1] == pytest.approx(np.corrcoef(pdf["a"], pdf["c"])[0, 1])


def test_local_corr_matches_golden():
    """SHA-256 of the Pearson matrix over a seeded Data1 frame with
    generated columns, recorded when the engine held a pandas frame and
    passed ``frame[cols].to_numpy()`` to ``np.corrcoef``. Assembling the
    matrix from the column store must not move a bit: a last-bit change
    can flip a pair near theta = 0.8."""
    import hashlib
    from dataclasses import replace

    from repro.core.operators import pair_specs
    from repro.experiments.datasets import BUSINESS_DATASETS, make_dataset

    spec = {s.name: s for s in BUSINESS_DATASETS}["Data1"]
    train, _valid, _test = make_dataset(replace(spec, n_train=3000, n_valid=0, n_test=200))
    eng = LocalEngine(train, "label")
    base = eng.feature_columns
    eng.add_generated([
        FeatureSpec(op, inputs)
        for a, b in [(base[0], base[1]), (base[2], base[3]), (base[1], base[5])]
        for op, inputs in pair_specs(a, b, ("add", "sub", "mul", "div"))
    ])
    cols = eng.feature_columns
    assert len(cols) == 58
    digest = lambda m: hashlib.sha256(m.tobytes()).hexdigest()  # noqa: E731
    assert digest(eng.corr(cols)) == "283cec9bd93168f64b92f94ce2f47ee3ee05aec429ae2ab93739b6111018697b"
    assert digest(eng.corr(cols[::-1][:30])) == "c5491ed666d6e2a840f1193520022d5bdca76bec36f53fc116980a972b0f1b52"


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
    eng = SparkEngine(spark.createDataFrame(pdf), "label")
    try:
        s1 = FeatureSpec("mul", ("a", "b"))
        s2 = FeatureSpec("add", (s1.name, "c"))
        eng.add_generated([s1, s2])
        out = eng.df.select(s1.name, s2.name, "a", "b", "c").toPandas()
        np.testing.assert_allclose(out[s1.name], out["a"] * out["b"], rtol=1e-12)
        np.testing.assert_allclose(
            out[s2.name], out["a"] * out["b"] + out["c"], rtol=1e-12
        )
        # the statistics see the generated columns as Spark computes them
        got = eng.corr([s1.name, s2.name, "a"])
        want = np.corrcoef(out[[s1.name, s2.name, "a"]].to_numpy().T)
        np.testing.assert_allclose(got, want, atol=1e-8)
    finally:
        eng.close()


def test_spark_choosing_a_path_runs_no_job(spark, pdf, monkeypatch):
    """``SafePipeline._make_engine`` gives a Spark frame within
    ``COLLECT_BUDGET_BYTES`` to ``LocalEngine`` and a larger one to
    ``SparkEngine``, from the optimizer's size estimate of the frame, read
    without a Spark job."""
    sdf = spark.createDataFrame(pdf)
    small = SafePipeline._make_engine(sdf, "label", sdf, "auto")
    assert isinstance(small, LocalEngine)
    want = pd.concat([pdf, pdf], ignore_index=True)
    assert list(small.columns) == ["a", "b", "c"]
    assert all(np.array_equal(small.columns[c], want[c]) for c in small.columns)
    assert np.array_equal(small.y, want["label"])
    sc = spark.sparkContext
    group = "safe-choose-path"
    sc.setJobGroup(group, group)
    try:
        monkeypatch.setattr(engine, "COLLECT_BUDGET_BYTES", 0)
        large = SafePipeline._make_engine(sdf, "label", None, "spark")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    large.close()
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
    assert isinstance(large, SparkEngine)
    # a source without statistics reports no size, so it is never collected
    monkeypatch.setattr(engine, "COLLECT_BUDGET_BYTES", 1 << 62)
    rdd = sc.parallelize([(1.0, 0)] * 10)
    unsized = SafePipeline._make_engine(
        spark.createDataFrame(rdd, "a double, label long"), "label", None, "auto"
    )
    unsized.close()
    assert isinstance(unsized, SparkEngine)


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
    iv_probs, gbdt_probs, thirds = quantile_probs(10), quantile_probs(64), quantile_probs(3)
    direct_iv = sdf.stat.approxQuantile(cols, iv_probs, 0.001)
    direct_gbdt = sdf.stat.approxQuantile(cols, gbdt_probs, 0.001)
    direct_thirds = sdf.stat.approxQuantile(cols, thirds, 0.001)
    count_approx_quantile.clear()

    eng = SparkEngine(sdf, "label")
    assert eng.quantiles(cols, gbdt_probs) == direct_gbdt  # fresh
    assert eng.quantiles(cols, iv_probs) == direct_iv  # the IV grid came with it
    assert len(count_approx_quantile) == 1
    assert eng.quantiles(cols, thirds) == direct_thirds  # fresh, on the union grid
    assert len(count_approx_quantile) == 2
    assert eng.quantiles(cols, gbdt_probs) == direct_gbdt  # cached
    assert eng.quantiles(["b"], iv_probs) == [direct_iv[1]]  # cached
    assert eng.quantiles(["c"], thirds) == [direct_thirds[2]]  # cached
    assert len(count_approx_quantile) == 2


def test_spark_ranking_gbdt_fetches_no_quantiles(spark, count_approx_quantile, monkeypatch):
    """The mining GBDT's fetch also holds the IV grid of the base columns,
    so the IV fetch names only generated columns and the ranking GBDT
    fetches nothing."""
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
    monkeypatch.setattr(engine, "COLLECT_BUDGET_BYTES", 0)
    gbdt = {"n_estimators": 2, "max_depth": 2}
    SafePipeline(mining_gbdt=gbdt, ranking_gbdt=gbdt).fit(
        spark.createDataFrame(planted), "label", engine="spark"
    )
    assert per_fit == [1, 0]  # mining GBDT fetches, ranking GBDT reuses
    mining, iv = count_approx_quantile  # mining GBDT + IV
    assert mining == ["x0", "x1", "x2"]
    assert iv and all("__" in c for c in iv), iv  # generated names only
