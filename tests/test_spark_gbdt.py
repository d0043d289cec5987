"""Integration tests: distributed GBDT backend vs the numpy engine."""
import numpy as np
import pandas as pd
import pytest

from repro.gbdt import GBDTClassifier
from repro.gbdt.spark_backend import SparkGBDTClassifier
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


@pytest.fixture(scope="module")
def spark_model(spark, data):
    pdf, cols = data
    train = spark.createDataFrame(pdf.iloc[:4000])
    m = SparkGBDTClassifier(n_estimators=8, max_depth=3)
    m.fit(train, cols, "label")
    return m


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


def test_distributed_scoring_matches_driver(spark, spark_model, data):
    pdf, cols = data
    test = pdf.iloc[4000:4500]
    sdf = spark.createDataFrame(test)
    scored = spark_model.predict_proba_spark(sdf, cols).toPandas()
    # distributed scoring must agree with driver-side scoring row-for-row
    merged = scored.sort_values(cols[0]).reset_index(drop=True)
    driver = test.copy()
    driver["probability"] = spark_model.predict_proba(test[cols].to_numpy())[:, 1]
    driver = driver.sort_values(cols[0]).reset_index(drop=True)
    np.testing.assert_allclose(
        merged["probability"].to_numpy(), driver["probability"].to_numpy(), atol=1e-12
    )


def test_fit_releases_its_broadcasts(spark, data, monkeypatch):
    """Every broadcast a fit creates (bin mapper, forest per tree, partial
    tree per level) is unpersisted before ``fit`` returns."""
    from pyspark import Broadcast

    pdf, cols = data
    train = spark.createDataFrame(pdf.iloc[:1000])
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
    SparkGBDTClassifier(n_estimators=2, max_depth=2).fit(train, cols, "label")
    # 1 mapper + 2 forests + 2 trees × 2 levels
    assert len(made) == 7
    assert sorted(map(id, released)) == sorted(map(id, made))


def test_scoring_makes_no_broadcast(spark, spark_model, data, monkeypatch):
    """``predict_proba_spark`` returns a lazy frame, so it leaves nothing
    to release: the forest travels in the scoring function's closure."""
    pdf, cols = data
    sc = spark.sparkContext
    made = []
    broadcast = sc.broadcast

    def record_broadcast(value):
        made.append(broadcast(value))
        return made[-1]

    monkeypatch.setattr(sc, "broadcast", record_broadcast)
    scored = spark_model.predict_proba_spark(spark.createDataFrame(pdf.iloc[4000:4100]), cols)
    assert len(scored.toPandas()) == 100
    assert made == []
