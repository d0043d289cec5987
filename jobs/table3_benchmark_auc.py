"""Table III — classification AUC on the 12 benchmark datasets.

Sweeps ORIG/FCT/TFC/RAND/IMP/SAFE × the 9 classifiers over every
benchmark dataset, averaging ``--repeats`` runs (paper: 100/10; default
here 1 for runtime). Values are 100·AUC, as in the paper.

    python jobs/table3_benchmark_auc.py [--repeats N] [--datasets a,b] [--clfs LR,XGB]
"""
import argparse
import logging
import sys
import time
from pathlib import Path

import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _common  # noqa: E402
from _common import configure_logging, emit  # noqa: E402

from repro.experiments.datasets import BENCHMARK_DATASETS  # noqa: E402
from repro.experiments.runner import METHODS, run_dataset  # noqa: E402

ALL_CLFS = ("AB", "DT", "ET", "kNN", "LR", "MLP", "RF", "SVM", "XGB")

log = logging.getLogger("jobs.table3")


def main(spark=None, repeats=1, datasets=None, clfs=ALL_CLFS):
    specs = [
        s for s in BENCHMARK_DATASETS if datasets is None or s.name in datasets
    ]
    frames = []
    for spec in specs:
        t0 = time.time()
        frames.append(
            run_dataset(spec, METHODS, tuple(clfs), n_repeats=repeats)
        )
        log.info("%s: %.1fs", spec.name, time.time() - t0)
    long = pd.concat(frames, ignore_index=True)
    table = (
        long.groupby(["dataset", "clf", "method"])["auc"].mean().mul(100).round(2)
    ).unstack("method")
    table = table.reindex(columns=list(METHODS)).reset_index()
    table = table.rename(columns={"dataset": "Dataset", "clf": "CLF"})
    emit(
        "table3",
        "Table III — classification performance (100·AUC)",
        table,
        f"repeats={repeats}; methods follow the paper's protocol "
        "(1 iteration, ops {+,-,×,÷}, output cap 2·M).",
    )
    # the paper's headline averages
    means = long.groupby("method")["auc"].mean().mul(100).round(2)
    gain = (means - means["ORIG"]).round(2)
    summary = pd.DataFrame({"mean 100·AUC": means, "vs ORIG": gain}).reset_index()
    emit("table3_summary", "Table III summary — mean AUC by method", summary)
    long.to_csv(_common.RESULTS_DIR / "table3_long.csv", index=False)
    return table


if __name__ == "__main__":
    configure_logging()
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--datasets", type=str, default=None)
    ap.add_argument("--clfs", type=str, default=",".join(ALL_CLFS))
    args = ap.parse_args()
    main(
        repeats=args.repeats,
        datasets=set(args.datasets.split(",")) if args.datasets else None,
        clfs=tuple(args.clfs.split(",")),
    )
