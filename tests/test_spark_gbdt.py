"""Integration tests: distributed GBDT histogram source vs the numpy engine."""
import numpy as np
import pandas as pd
import pytest

from repro.core.engine import LocalEngine, SparkEngine
from repro.gbdt import GBDTClassifier
from repro.gbdt.spark_backend import (
    QUANTILE_REL_ERROR,
    fit_spark,
    mapper_from_quantiles,
    quantile_probs,
)
from repro.models.evaluation import auc_score


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    n = 6000
    X = rng.normal(size=(n, 5))
    logit = 2.0 * X[:, 0] * X[:, 1] + X[:, 2]
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    cols = [f"f{i}" for i in range(5)]
    pdf = pd.DataFrame(X, columns=cols)
    pdf["label"] = y
    return pdf, cols


def _mapper(sdf, cols, n_bins=64):
    return mapper_from_quantiles(
        sdf.stat.approxQuantile(cols, quantile_probs(n_bins), QUANTILE_REL_ERROR)
    )


@pytest.fixture(scope="module")
def spark_model(spark, data):
    pdf, cols = data
    train = spark.createDataFrame(pdf.iloc[:4000])
    model = GBDTClassifier(n_estimators=8, max_depth=3)
    return fit_spark(model, train, cols, "label", _mapper(train, cols))


def test_spark_backend_auc_close_to_local(spark_model, data):
    pdf, cols = data
    test = pdf.iloc[4000:]
    local = GBDTClassifier(n_estimators=8, max_depth=3).fit(
        pdf.iloc[:4000][cols].to_numpy(), pdf.iloc[:4000]["label"].to_numpy()
    )
    auc_spark = auc_score(
        test["label"].to_numpy(), spark_model.predict_proba(test[cols].to_numpy())[:, 1]
    )
    auc_local = auc_score(
        test["label"].to_numpy(), local.predict_proba(test[cols].to_numpy())[:, 1]
    )
    assert auc_spark > 0.70
    assert abs(auc_spark - auc_local) < 0.03


def test_spark_backend_trees_and_paths(spark_model):
    assert len(spark_model.trees_) == 8
    paths = spark_model.paths()
    assert paths
    for p in paths:
        assert 1 <= len(p) <= 3
        for f, v in p:
            assert 0 <= f < 5


def test_spark_backend_importances(spark_model):
    imp = spark_model.feature_importances()
    assert imp.shape == (5,)
    # informative features dominate the noise ones
    assert imp[[0, 1, 2]].sum() > imp[[3, 4]].sum()


def test_spark_backend_split_features(spark_model):
    feats = spark_model.split_features()
    assert {0, 1, 2} & feats


def test_fit_releases_its_broadcasts(spark, data, monkeypatch):
    """Every broadcast a fit creates (bin mapper, forest per tree, partial
    tree per level) is unpersisted before ``fit`` returns."""
    from pyspark import Broadcast

    pdf, cols = data
    train = spark.createDataFrame(pdf.iloc[:1000])
    mapper = _mapper(train, cols)
    sc = spark.sparkContext
    made, released = [], []
    broadcast, unpersist = sc.broadcast, Broadcast.unpersist

    def record_broadcast(value):
        made.append(broadcast(value))
        return made[-1]

    def record_unpersist(self, blocking=False):
        released.append(self)
        unpersist(self, blocking)

    monkeypatch.setattr(sc, "broadcast", record_broadcast)
    monkeypatch.setattr(Broadcast, "unpersist", record_unpersist)
    fit_spark(GBDTClassifier(n_estimators=2, max_depth=2), train, cols, "label", mapper)
    # 1 mapper + 2 forests + 2 trees × 2 levels
    assert len(made) == 7
    assert sorted(map(id, released)) == sorted(map(id, made))


def _nodes(model):
    return [
        [(n.feature, n.bin_threshold, n.threshold, n.gain, n.value) for n in t.nodes]
        for t in model.trees_
    ]


@pytest.mark.parametrize("partitions", [1, 4])
def test_trees_match_local_fit_on_the_same_bins(spark, data, partitions):
    """Given the mapper, the distributed source sums the same histograms as
    ``fit_binned`` on the same rows: node for node equal on one partition
    (one block, the same additions), and within rounding on several, where
    the partials are added in another order."""
    pdf, cols = data
    sdf = spark.createDataFrame(pdf)
    sdf = sdf.coalesce(1) if partitions == 1 else sdf.repartition(partitions)
    mapper = _mapper(sdf, cols)
    params = dict(n_estimators=5, max_depth=3)
    dist = fit_spark(GBDTClassifier(**params), sdf, cols, "label", mapper)
    codes = mapper.transform(pdf[cols].to_numpy())
    local = GBDTClassifier(**params).fit_binned(codes, mapper, pdf["label"].to_numpy())
    got, want = _nodes(dist), _nodes(local)
    if partitions == 1:
        assert got == want
        return
    assert [[n[:3] for n in t] for t in got] == [[n[:3] for n in t] for t in want]
    np.testing.assert_allclose(
        [n[3:] for t in got for n in t], [n[3:] for t in want for n in t], rtol=0, atol=1e-9
    )


def test_subsample_is_rejected(spark, data):
    pdf, cols = data
    train = spark.createDataFrame(pdf.iloc[:500])
    with pytest.raises(ValueError, match="subsample"):
        fit_spark(GBDTClassifier(subsample=0.5), train, cols, "label", _mapper(train, cols))


def test_engines_share_default_hyper_parameters(spark):
    """``fit_gbdt`` with no parameters grows the same number of trees on
    either engine. Constant features allow no split, so each tree is one
    root pass."""
    pdf = pd.DataFrame({"a": np.ones(40), "b": np.zeros(40), "label": [0, 1] * 20})
    local = LocalEngine(pdf, "label").fit_gbdt(["a", "b"])
    eng = SparkEngine(spark.createDataFrame(pdf), "label")
    try:
        dist = eng.fit_gbdt(["a", "b"])
    finally:
        eng.close()
    assert type(dist) is type(local)
    assert len(dist.trees_) == len(local.trees_) == GBDTClassifier().n_estimators
