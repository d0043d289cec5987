"""Table VI — feature stability (Jensen–Shannon divergence, lower=better).

    python jobs/table6_stability.py [--T 20] [--datasets a,b]

TFC is omitted exactly as in the paper ("the execution time of TFC is too
long, so it is difficult to calculate so many times"). `vehicle` is also
skipped by default to bound runtime (configurable).
"""
import argparse
import logging
import sys
import time
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import configure_logging, emit  # noqa: E402

from repro.experiments.datasets import BENCHMARK_DATASETS, make_dataset  # noqa: E402
from repro.experiments.stability import feature_stability  # noqa: E402

METHODS = ("FCT", "RAND", "IMP", "SAFE")
DEFAULT_DATASETS = tuple(s.name for s in BENCHMARK_DATASETS if s.name != "vehicle")

log = logging.getLogger("jobs.table6")


def main(spark=None, T=20, datasets=DEFAULT_DATASETS):
    rows = []
    for spec in BENCHMARK_DATASETS:
        if spec.name not in datasets:
            continue
        t0 = time.time()
        train, valid, _test = make_dataset(spec)
        row = {"Dataset": spec.name}
        for m in METHODS:
            row[m] = round(feature_stability(m, train, valid=valid, T=T), 4)
        rows.append(row)
        log.info("%s: %.1fs", spec.name, time.time() - t0)
    table = pd.DataFrame(rows)
    emit(
        "table6",
        "Table VI — feature stability (JSD, lower is better)",
        table,
        f"T={T} repeats on 80% bootstraps (paper: T=100). "
        "TFC omitted as in the paper (too slow to repeat).",
    )
    return table


if __name__ == "__main__":
    configure_logging()
    ap = argparse.ArgumentParser()
    ap.add_argument("--T", type=int, default=20)
    ap.add_argument("--datasets", type=str, default=None)
    args = ap.parse_args()
    main(
        T=args.T,
        datasets=set(args.datasets.split(",")) if args.datasets else DEFAULT_DATASETS,
    )
