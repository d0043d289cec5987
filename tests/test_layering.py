"""The statistics' kernels stay engine-free: only engine modules import Spark."""
import ast
from pathlib import Path

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
