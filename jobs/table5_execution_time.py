"""Table V — execution time (seconds) of each AFE method per dataset.

    python jobs/table5_execution_time.py [--datasets a,b]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import configure_logging, emit  # noqa: E402

from repro.experiments.datasets import BENCHMARK_DATASETS  # noqa: E402
from repro.experiments.timing import timing_table  # noqa: E402


def main(spark=None, datasets=None):
    specs = tuple(
        s for s in BENCHMARK_DATASETS if datasets is None or s.name in datasets
    )
    table = timing_table(specs)
    ratios = (table[["FCT", "TFC"]].div(table["SAFE"], axis=0)).mean().round(1)
    emit(
        "table5",
        "Table V — execution time (seconds)",
        table,
        f"Mean slowdown vs SAFE: FCT ×{ratios['FCT']}, TFC ×{ratios['TFC']} "
        "(paper: SAFE ≈ 0.13× FCT, 0.08× TFC).",
    )
    return table


if __name__ == "__main__":
    configure_logging()
    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", type=str, default=None)
    args = ap.parse_args()
    main(datasets=set(args.datasets.split(",")) if args.datasets else None)
