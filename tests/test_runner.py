"""Integration tests for the Table III/VIII sweep harness."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments.datasets import BENCHMARK_DATASETS, LABEL_COL, make_dataset
from repro.experiments.runner import METHODS, evaluate_plan, fit_method, run_dataset

SPEC = BENCHMARK_DATASETS[1]  # banknote: tiny and easy


@pytest.fixture(scope="module")
def banknote():
    return make_dataset(SPEC)


@pytest.mark.parametrize("method", METHODS)
def test_fit_method_returns_plan(method, banknote):
    tr, va, _te = banknote
    res = fit_method(method, tr, LABEL_COL, va, seed=0)
    assert res.plan.output_columns
    assert res.fit_seconds >= 0


def test_fit_seconds_ignore_wall_clock_steps(banknote, monkeypatch):
    """A wall clock that steps an hour forward at every read does not show
    in a method's fit time."""
    import itertools
    import time

    tr, va, _te = banknote
    wall = itertools.count(time.time(), 3600.0)
    monkeypatch.setattr(time, "time", lambda: next(wall))
    res = fit_method("SAFE", tr, LABEL_COL, va, seed=0)
    assert 0 <= res.fit_seconds < 3600


def test_orig_is_identity(banknote):
    tr, _va, _te = banknote
    res = fit_method("ORIG", tr, LABEL_COL)
    assert res.plan.specs == []
    assert res.plan.output_columns == [c for c in tr.columns if c != LABEL_COL]


def test_unknown_method_raises(banknote):
    tr, _va, _te = banknote
    with pytest.raises(KeyError):
        fit_method("LFE", tr, LABEL_COL)


def test_evaluate_plan_returns_aucs(banknote):
    tr, _va, te = banknote
    res = fit_method("SAFE", tr, LABEL_COL)
    aucs = evaluate_plan(res.plan, tr, te, ("LR", "XGB"))
    assert set(aucs) == {"LR", "XGB"}
    for v in aucs.values():
        assert 0.5 < v <= 1.0


def test_run_dataset_long_format(banknote):
    df = run_dataset(SPEC, methods=("ORIG", "SAFE"), classifiers=("LR",), n_repeats=2)
    assert set(df.columns) == {
        "dataset", "method", "clf", "repeat", "auc", "fit_seconds", "n_features",
    }
    assert len(df) == 2 * 2 * 1  # methods × repeats × classifiers
    assert set(df["method"]) == {"ORIG", "SAFE"}
    assert (df["dataset"] == "banknote").all()


def test_magic_sweep_beats_chance_for_every_cell():
    """One method × classifier sweep of the mid-sized benchmark set, the
    Table III job's loop, with a distance, a linear and a tree classifier."""
    magic = [s for s in BENCHMARK_DATASETS if s.name == "magic"][0]
    df = run_dataset(magic, methods=("ORIG", "SAFE", "TFC"), classifiers=("LR", "kNN", "XGB"))
    assert len(df) == 9
    assert (df["auc"] > 0.55).all()


def test_repeats_vary_seeded_methods():
    # banknote (dim 4) is degenerate for RAND — γ=8 covers all 6 pairs —
    # so use magic (dim 10: 45 pairs, γ=20) where the draw actually varies
    magic = [s for s in BENCHMARK_DATASETS if s.name == "magic"][0]
    df = run_dataset(magic, methods=("RAND",), classifiers=("LR",), n_repeats=2)
    aucs = df["auc"].to_numpy()
    assert len(aucs) == 2
    # different seeds draw different random pairs → results differ
    assert not np.allclose(aucs[0], aucs[1])


def test_method_feature_budget(banknote):
    tr, va, _te = banknote
    for method in METHODS:
        res = fit_method(method, tr, LABEL_COL, va)
        assert len(res.plan.output_columns) <= 2 * SPEC.dim, method
