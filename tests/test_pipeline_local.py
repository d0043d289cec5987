"""Integration tests: SAFE pipeline, local engine."""
import hashlib
import itertools
import time

import numpy as np
import pandas as pd
import pytest

from repro.core.engine import LocalEngine
from repro.core.operators import pair_specs
from repro.core.pipeline import SafePipeline
from repro.core.plan import FeatureSpec
from repro.models import make_classifier
from repro.models.evaluation import auc_score


@pytest.fixture(scope="module")
def planted():
    """Label driven by f0·f1 and f2/f3 plus weak marginals."""
    rng = np.random.default_rng(11)
    n = 4000
    X = rng.normal(size=(n, 8))
    logit = (
        2.5 * X[:, 0] * X[:, 1]
        + 1.5 * X[:, 2] / (np.abs(X[:, 3]) + 0.5)
        + 0.4 * (X[:, 0] + X[:, 1] + X[:, 2])
    )
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    pdf = pd.DataFrame(X, columns=[f"f{i}" for i in range(8)])
    pdf["label"] = y
    return pdf.iloc[:3000].reset_index(drop=True), pdf.iloc[3000:].reset_index(drop=True)


@pytest.fixture(scope="module")
def fitted(planted):
    train, _test = planted
    pipe = SafePipeline()
    plan = pipe.fit(train, "label")
    return pipe, plan


def test_plan_size_capped_at_2m(fitted):
    _pipe, plan = fitted
    assert 0 < len(plan.output_columns) <= 16  # 2·M with M=8


def test_generates_the_planted_interaction(fitted):
    _pipe, plan = fitted
    gen = set(plan.generated_outputs())
    assert any("f0_f1__mul" == g or "f0" in g and "f1" in g for g in gen)


def test_report_populated(fitted):
    pipe, _plan = fitted
    assert pipe.report_ is not None
    assert len(pipe.report_.iterations) == 1
    it = pipe.report_.iterations[0]
    assert it["n_combos"] > 0
    assert it["n_generated"] > 0
    assert it["n_selected"] == it["n_selected"]


def test_improves_linear_model(planted, fitted):
    train, test = planted
    _pipe, plan = fitted
    ftr, fte = plan.apply_pandas(train), plan.apply_pandas(test)

    def lr_auc(tr, te):
        m = make_classifier("LR").fit(
            tr.drop(columns="label").to_numpy(), tr["label"].to_numpy()
        )
        return auc_score(
            te["label"].to_numpy(), m.predict_proba(te.drop(columns="label").to_numpy())[:, 1]
        )

    assert lr_auc(ftr, fte) > lr_auc(train, test) + 0.05


def test_plan_applies_to_unseen_frame(planted, fitted):
    _train, test = planted
    _pipe, plan = fitted
    out = plan.apply_pandas(test)
    assert list(out.columns) == plan.output_columns + ["label"]
    assert np.isfinite(out.drop(columns="label").to_numpy()).all()


def test_multiple_iterations_run(planted):
    train, _test = planted
    pipe = SafePipeline(n_iterations=2, gamma=6, top_k=12)
    plan = pipe.fit(train, "label")
    assert 1 <= len(pipe.report_.iterations) <= 2
    assert plan.output_columns


def test_second_iteration_can_compose_features(planted):
    """Iteration 2 may build on iteration-1 outputs (chained specs)."""
    train, _test = planted
    pipe = SafePipeline(n_iterations=2, gamma=8, top_k=10)
    plan = pipe.fit(train, "label")
    # plan must still apply cleanly even with chained dependencies
    out = plan.apply_pandas(train)
    assert np.isfinite(out.drop(columns="label").to_numpy()).all()


def test_time_budget_stops_early(planted):
    train, _test = planted
    pipe = SafePipeline(n_iterations=50, time_budget_s=0.0)
    plan = pipe.fit(train, "label")
    assert len(pipe.report_.iterations) == 0
    # with zero budget the plan is the identity over the original features
    assert plan.output_columns == [c for c in train.columns if c != "label"]


def test_wall_clock_steps_neither_end_a_budgeted_fit_nor_show_in_its_time(planted, monkeypatch):
    """The budget and ``fit_seconds`` read a monotonic clock: a wall clock
    that steps an hour forward at every read changes neither."""
    train, _test = planted
    want = SafePipeline(n_iterations=2, gamma=8, top_k=10)
    want.fit(train, "label")
    wall = itertools.count(time.time(), 3600.0)
    monkeypatch.setattr(time, "time", lambda: next(wall))
    pipe = SafePipeline(n_iterations=2, gamma=8, top_k=10, time_budget_s=60)
    pipe.fit(train, "label")
    assert len(pipe.report_.iterations) == len(want.report_.iterations) == 2
    assert 0 <= pipe.report_.fit_seconds < 60


def test_report_keeps_what_selection_computed(planted, fitted):
    """Each iteration keeps the IV of every candidate, the importance of
    every nonredundant feature and the gain ratio of every generated one."""
    train, _test = planted
    pipe, plan = fitted
    (it,) = pipe.report_.iterations
    base = [c for c in train.columns if c != "label"]
    specs = {
        s.name: s
        for a, b in itertools.combinations(base, 2)
        for s in (FeatureSpec(op, inputs) for op, inputs in pair_specs(a, b))
    }
    eng = LocalEngine(train, "label")
    eng.add_generated([specs[c] for c in it["iv"] if c not in base])
    assert it["iv"] == eng.iv(list(it["iv"]))
    assert len(it["iv"]) == len(base) + it["n_generated"]
    assert len(it["importance"]) == it["n_nonredundant"]
    assert set(it["importance"]) <= set(it["iv"])
    assert all(v >= 0 for v in it["importance"].values())
    assert set(it["gain_ratio"]) == set(it["iv"]) - set(base)
    assert set(plan.generated_outputs()) <= set(it["gain_ratio"])
    assert all(np.isfinite(v) for v in it["gain_ratio"].values())


def test_spark_input_with_local_engine(spark, planted):
    train, _test = planted
    sdf = spark.createDataFrame(train)
    plan = SafePipeline().fit(sdf, "label", engine="local")
    assert plan.output_columns


def test_valid_frame_concatenated(planted):
    train, test = planted
    plan = SafePipeline().fit(train.iloc[:2000], "label", valid=train.iloc[2000:])
    assert plan.output_columns


def test_deterministic_given_seed(planted):
    train, _test = planted
    p1 = SafePipeline().fit(train, "label")
    p2 = SafePipeline().fit(train, "label")
    assert p1.output_columns == p2.output_columns
    assert p1.specs == p2.specs


def test_plan_json_matches_golden(planted, fitted):
    """SHA-256 of the plan JSON of seeded fits, recorded when every GBDT
    and IV statistic still binned each row by binary search. Sorting each
    column once, and reusing GBDT bins across stages and iterations, must
    leave every byte of the plan as it was."""
    train, _test = planted
    _pipe, plan = fitted
    two_iterations = SafePipeline(n_iterations=2, gamma=8, top_k=10).fit(train, "label")
    digest = lambda p: hashlib.sha256(p.to_json().encode()).hexdigest()  # noqa: E731
    assert digest(plan) == "312695dd5a8f6584f23433c6817ecc6dfa34b33c144eb677547c00ca81297cfb"
    assert digest(two_iterations) == "124cc460602f950102f703d0a6aea382792c5d234d9ce4bccb18f6d759b1c24d"
