"""Unit tests for the synthetic dataset registry (Tables IV / VII)."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments.datasets import (
    BENCHMARK_DATASETS,
    BUSINESS_DATASETS,
    LABEL_COL,
    dataset_info_rows,
    make_dataset,
)

SMALL = [s for s in BENCHMARK_DATASETS if s.n_total < 4000]


def test_twelve_benchmark_datasets():
    assert len(BENCHMARK_DATASETS) == 12
    assert [s.name for s in BENCHMARK_DATASETS] == [
        "valley", "banknote", "gina", "spambase", "phoneme", "wind",
        "ailerons", "eeg-eye", "magic", "nomao", "bank", "vehicle",
    ]


def test_three_business_datasets():
    assert [s.name for s in BUSINESS_DATASETS] == ["Data1", "Data2", "Data3"]
    for s in BUSINESS_DATASETS:
        assert s.pos_rate <= 0.05  # fraud-style imbalance


def test_small_datasets_have_no_valid_split():
    """Paper: datasets under 10k total samples get no validation set
    (Table IV: valley…wind have '-' valid; ailerons onward have one)."""
    for s in BENCHMARK_DATASETS:
        paper_total = sum(s.paper_shape[:3])
        if paper_total < 10_000:
            assert s.n_valid == 0, s.name
        else:
            assert s.n_valid > 0, s.name


@pytest.mark.parametrize("spec", BENCHMARK_DATASETS, ids=lambda s: s.name)
def test_shapes_match_spec(spec):
    tr, va, te = make_dataset(spec)
    assert len(tr) == spec.n_train
    assert len(te) == spec.n_test
    if spec.n_valid:
        assert len(va) == spec.n_valid
    else:
        assert va is None
    assert tr.shape[1] == spec.dim + 1
    assert LABEL_COL in tr.columns


@pytest.mark.parametrize("spec", SMALL[:4], ids=lambda s: s.name)
def test_deterministic(spec):
    tr1, _v, _t = make_dataset(spec)
    tr2, _v, _t = make_dataset(spec)
    pd.testing.assert_frame_equal(tr1, tr2)


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: s.name)
def test_positive_rate_near_target(spec):
    tr, _va, _te = make_dataset(spec)
    rate = tr[LABEL_COL].mean()
    assert abs(rate - spec.pos_rate) < 0.08, (spec.name, rate)


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: s.name)
def test_both_classes_in_every_split(spec):
    tr, va, te = make_dataset(spec)
    for frame in (tr, va, te):
        if frame is not None:
            assert frame[LABEL_COL].nunique() == 2


def test_features_finite():
    tr, _va, _te = make_dataset(BENCHMARK_DATASETS[0])
    assert np.isfinite(tr.drop(columns=LABEL_COL).to_numpy()).all()


def test_mixed_feature_scales():
    """Generators must produce heterogeneous scales (ratio features only
    matter when scales differ)."""
    tr, _va, _te = make_dataset(BENCHMARK_DATASETS[2])  # gina, 50 dims
    stds = tr.drop(columns=LABEL_COL).std()
    assert stds.max() / stds.min() > 2


def test_info_rows_layout():
    rows = dataset_info_rows(BENCHMARK_DATASETS)
    assert len(rows) == 12
    assert list(rows.columns)[:5] == ["Dataset", "#Train", "#Valid", "#Test", "#Dim"]
    # paper's shapes carried for the EXPERIMENTS.md diff
    assert rows.loc[rows["Dataset"] == "vehicle", "paper #Train"].item() == 60_000


def test_business_dataset_generation_sane():
    spec = BUSINESS_DATASETS[0]
    # generate a scaled-down clone to keep the test fast
    from dataclasses import replace

    small = replace(spec, n_train=5000, n_valid=1000, n_test=1000)
    tr, va, te = make_dataset(small)
    assert len(tr) == 5000 and len(va) == 1000 and len(te) == 1000
    assert 0.005 < tr[LABEL_COL].mean() < 0.08


def test_business_dataset_fraud_rate():
    """Data1 at 20,000 training rows keeps a fraud-style class imbalance."""
    from dataclasses import replace

    spec = replace(BUSINESS_DATASETS[0], n_train=20_000, n_valid=4_000, n_test=4_000)
    tr, _va, _te = make_dataset(spec)
    assert 0.01 < tr[LABEL_COL].mean() < 0.06
