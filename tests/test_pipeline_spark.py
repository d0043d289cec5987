"""Integration tests: SAFE pipeline on Spark inputs, fitted on the driver
(within the collect budget) and on the distributed Spark engine."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import RandomGenPipeline
from repro.core import engine
from repro.core.pipeline import SafePipeline
from repro.models import make_classifier
from repro.models.evaluation import auc_score


@pytest.fixture(scope="module")
def planted():
    rng = np.random.default_rng(21)
    n = 5000
    X = rng.normal(size=(n, 6))
    logit = 2.5 * X[:, 0] * X[:, 1] + 0.8 * X[:, 2] + 0.3 * (X[:, 0] + X[:, 1])
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    pdf = pd.DataFrame(X, columns=[f"f{i}" for i in range(6)])
    pdf["label"] = y
    return pdf


@pytest.fixture(scope="module")
def spark_plan(spark, planted):
    sdf = spark.createDataFrame(planted.iloc[:3500])
    pipe = SafePipeline(
        mining_gbdt={"n_estimators": 6, "max_depth": 3},
        ranking_gbdt={"n_estimators": 6, "max_depth": 3},
    )
    return pipe.fit(sdf, "label", engine="spark")


def test_spark_engine_produces_plan(spark_plan, planted):
    assert 0 < len(spark_plan.output_columns) <= 12
    assert spark_plan.generated_outputs()


def test_spark_engine_finds_planted_pair(spark_plan):
    gen = " ".join(spark_plan.generated_outputs())
    assert "f0" in gen and "f1" in gen


def test_spark_plan_improves_lr(spark_plan, planted):
    train, test = planted.iloc[:3500], planted.iloc[3500:]

    def lr_auc(tr, te):
        m = make_classifier("LR").fit(
            tr.drop(columns="label").to_numpy(), tr["label"].to_numpy()
        )
        return auc_score(
            te["label"].to_numpy(),
            m.predict_proba(te.drop(columns="label").to_numpy())[:, 1],
        )

    ftr, fte = spark_plan.apply_pandas(train), spark_plan.apply_pandas(test)
    assert lr_auc(ftr, fte) > lr_auc(train, test) + 0.03


def test_spark_engine_agrees_with_local_on_outputs(spark, planted):
    """A Spark frame within the collect budget is fitted by the local
    engine on its rows, so the plan equals ``engine='local'``'s, byte for
    byte."""
    train = planted.iloc[:3500]
    params = dict(
        mining_gbdt={"n_estimators": 6, "max_depth": 3},
        ranking_gbdt={"n_estimators": 6, "max_depth": 3},
    )
    local = SafePipeline(**params).fit(train, "label", engine="local")
    routed = SafePipeline(**params).fit(spark.createDataFrame(train), "label", engine="spark")
    assert routed.to_json() == local.to_json()


def test_distributed_engine_agrees_with_local_on_outputs(spark, planted, monkeypatch):
    """Same data, same hyperparameters → heavily overlapping selections.

    Bit-identical plans are not guaranteed (approxQuantile vs exact
    quantile binning), but the two engines must agree on the bulk of the
    selected features.
    """
    train = planted.iloc[:3500]
    params = dict(
        mining_gbdt={"n_estimators": 6, "max_depth": 3},
        ranking_gbdt={"n_estimators": 6, "max_depth": 3},
    )
    local = SafePipeline(**params).fit(train, "label", engine="local")
    monkeypatch.setattr(engine, "COLLECT_BUDGET_BYTES", 0)
    dist = SafePipeline(**params).fit(
        spark.createDataFrame(train), "label", engine="spark"
    )
    a, b = set(local.output_columns), set(dist.output_columns)
    overlap = len(a & b) / max(len(a | b), 1)
    assert overlap > 0.5, (sorted(a), sorted(b))


def test_rand_imp_on_spark_engine(spark, planted, spark_engine_paths):
    sdf = spark.createDataFrame(planted.iloc[:3500])
    for path in spark_engine_paths:
        for mode in ("rand", "imp"):
            plan = RandomGenPipeline(
                mode=mode,
                gamma=6,
                mining_gbdt={"n_estimators": 4, "max_depth": 3},
                ranking_gbdt={"n_estimators": 4, "max_depth": 3},
            ).fit(sdf, "label", engine="spark")
            assert plan.output_columns, (path, mode)


ONE_TREE = {"n_estimators": 1, "max_depth": 2}


def _persistent_rdds(spark) -> set[int]:
    return {int(k) for k in spark.sparkContext._jsc.getPersistentRDDs().keys()}


def _fit_jobs(spark, sdf, group: str) -> int:
    """Spark jobs of one one-tree, depth-2 SAFE fit of ``sdf``."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        SafePipeline(mining_gbdt=ONE_TREE, ranking_gbdt=ONE_TREE).fit(
            sdf, "label", engine="spark"
        )
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


def test_fit_job_budget(spark, planted, monkeypatch):
    """A one-tree, depth-2 distributed fit on an uncached input runs at
    most 11 Spark jobs: 1 to fill the engine's cached view of the input,
    2 + 2 for the mining GBDT's ``approxQuantile`` and its two histogram
    passes, 1 gain-ratio scan, 2 + 1 for the generated columns'
    ``approxQuantile`` and the fused IV+Pearson scan, and 2 ranking-GBDT
    histogram passes. One more ``count()`` or shuffle fails the test."""
    monkeypatch.setattr(engine, "COLLECT_BUDGET_BYTES", 0)
    jobs = _fit_jobs(spark, spark.createDataFrame(planted.iloc[:3500]), "safe-job-budget")
    assert 0 < jobs <= 11, jobs


def test_distributed_fit_takes_every_gbdt_parameter(spark, planted, monkeypatch):
    """The mining GBDT's ``random_state`` (which ``runner.fit_method`` always
    passes) is a parameter of the one GBDT class on either engine."""
    monkeypatch.setattr(engine, "COLLECT_BUDGET_BYTES", 0)
    plan = SafePipeline(
        mining_gbdt={**ONE_TREE, "random_state": 3}, ranking_gbdt=ONE_TREE
    ).fit(spark.createDataFrame(planted.iloc[:3500]), "label", engine="spark")
    assert plan.output_columns


def test_collected_fit_job_budget(spark, planted):
    """Under the default budget the same fit runs 1 Spark job, the Arrow
    collect of the input: the local engine fits the rows on the driver."""
    jobs = _fit_jobs(spark, spark.createDataFrame(planted.iloc[:3500]), "safe-job-budget-collected")
    assert jobs == 1, jobs


def test_fit_keeps_a_cached_input_cached(spark, planted, spark_engine_paths):
    sdf = spark.createDataFrame(planted.iloc[:3500]).cache()
    try:
        sdf.count()
        level, cached = sdf.storageLevel, _persistent_rdds(spark)
        for path in spark_engine_paths:
            SafePipeline(mining_gbdt=ONE_TREE, ranking_gbdt=ONE_TREE).fit(
                sdf, "label", engine="spark"
            )
            assert sdf.storageLevel == level, path
            assert _persistent_rdds(spark) == cached, path
    finally:
        sdf.unpersist()


def test_fit_leaves_nothing_cached(spark, planted, spark_engine_paths):
    """On the distributed path this covers the GBDT's lazily cached binned
    frame and the engine's cached view; on the driver, that the collect
    caches nothing."""
    sdf = spark.createDataFrame(planted.iloc[:3500])
    before = _persistent_rdds(spark)
    for path in spark_engine_paths:
        SafePipeline(mining_gbdt=ONE_TREE, ranking_gbdt=ONE_TREE).fit(
            sdf, "label", engine="spark"
        )
        assert not sdf.is_cached, path
        assert _persistent_rdds(spark) == before, path
