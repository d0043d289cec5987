"""The statistics' kernels stay engine-free: only engine modules import
Spark. And the names a span tracer wraps stay where a fit calls them."""
import ast
import functools
import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pandas as pd

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: block kernels and the GBDT core, shared by the local and the Spark engine
KERNELS = {
    "core/scan.py",
    "core/gain_ratio.py",
    "core/iv.py",
    "core/correlation.py",
    "gbdt/boosting.py",
    "gbdt/tree.py",
    "gbdt/binning.py",
}


def _imports_pyspark(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n == "pyspark" or n.startswith("pyspark.") for n in names):
            return True
    return False


def test_no_kernel_module_imports_pyspark():
    spark_modules = {
        p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py") if _imports_pyspark(p)
    }
    assert KERNELS <= {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")}
    assert "gbdt/spark_backend.py" in spark_modules  # the scan sees Spark imports
    assert not spark_modules & KERNELS, sorted(spark_modules & KERNELS)


#: one method per data-touching pipeline stage; a tracer replaces each in
#: the engine class's own ``__dict__``, so neither class may inherit one
STAGE_METHODS = ("fit_gbdt", "gain_ratios", "iv", "corr", "add_generated")

#: module globals a local fit calls by name, so wrapping the name in that
#: module sees every call of the layer
PATCH_POINTS = (
    ("repro.gbdt.boosting", "grow_tree"),
    ("repro.gbdt.boosting", "assign_slots"),
    ("repro.gbdt.boosting", "build_histograms"),
    ("repro.core.pipeline", "select_features"),
    ("repro.core.pipeline", "mine_combos"),
    ("repro.core.pipeline", "top_combos"),
    ("repro.core.selection", "remove_redundant"),
)


def test_engine_classes_define_every_stage_method_in_their_own_body():
    from repro.core.engine import LocalEngine, SparkEngine

    for cls in (LocalEngine, SparkEngine):
        missing = [m for m in STAGE_METHODS if m not in cls.__dict__]
        assert not missing, (cls.__name__, missing)


def test_a_local_fit_calls_every_patch_point(monkeypatch):
    """Each wrapped layer sees calls during a small local fit, but for
    ``Tree.predict_binned``: the local margin update adds
    ``Tree.leaf_values()[node]`` after ``Tree.advance`` and calls it no
    more, so a tracer that wraps it for the margin time reads 0."""
    from repro.core.engine import LocalEngine
    from repro.core.pipeline import SafePipeline
    from repro.gbdt.tree import Tree

    calls: Counter = Counter()

    def count(owner, attr: str, key: str) -> None:
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for module, name in PATCH_POINTS:
        count(importlib.import_module(module), name, f"{module}.{name}")
    for name in STAGE_METHODS:
        count(LocalEngine, name, f"LocalEngine.{name}")
    count(Tree, "predict_binned", "Tree.predict_binned")

    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 5))
    pdf = pd.DataFrame(X, columns=[f"x{i}" for i in range(5)])
    pdf["label"] = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] > 0).astype(int)
    gbdt = {"n_estimators": 5, "max_depth": 3}
    SafePipeline(mining_gbdt=gbdt, ranking_gbdt=gbdt).fit(pdf, "label", engine="local")

    expected = [f"{m}.{n}" for m, n in PATCH_POINTS] + [f"LocalEngine.{n}" for n in STAGE_METHODS]
    assert not [k for k in expected if calls[k] == 0], calls
    assert calls["Tree.predict_binned"] == 0  # the known uncalled one
