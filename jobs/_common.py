"""Shared plumbing for the table jobs: results dir, markdown rendering,
progress logging, and an optional SparkSession (only the business-scale
jobs need one)."""
from __future__ import annotations

import logging
import os
from pathlib import Path

import pandas as pd

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

log = logging.getLogger("jobs")


def configure_logging() -> None:
    """Progress lines go to stderr as ``[jobs.<table>] ...``; tables go to stdout."""
    logging.basicConfig(level=logging.INFO, format="[%(name)s] %(message)s")


#: driver JVM heap of the Spark jobs when ``SPARK_DRIVER_MEM`` is unset
DRIVER_MEM = "2g"


def get_spark():
    """A SparkSession configured like conftest's fixture (for jobs that
    exercise the distributed engine); ``SPARK_DRIVER_MEM`` sets the driver
    heap, as it does for the tests."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master local[*] --driver-memory {os.environ.get('SPARK_DRIVER_MEM', DRIVER_MEM)} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def to_markdown(frame: pd.DataFrame) -> str:
    """Minimal GitHub-markdown table renderer (tabulate is not installed)."""
    cols = [str(c) for c in frame.columns]
    rows = [[("" if pd.isna(v) else str(v)) for v in r] for r in frame.itertuples(index=False)]
    widths = [max(len(c), *(len(r[i]) for r in rows)) if rows else len(c) for i, c in enumerate(cols)]
    head = "| " + " | ".join(c.ljust(w) for c, w in zip(cols, widths)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    body = ["| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) + " |" for r in rows]
    return "\n".join([head, sep, *body])


def emit(name: str, title: str, frame: pd.DataFrame, notes: str = "") -> None:
    """Print a table and persist it under results/<name>.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = f"# {title}\n\n{to_markdown(frame)}\n"
    if notes:
        text += f"\n{notes}\n"
    (RESULTS_DIR / f"{name}.md").write_text(text)
    log.info("=== %s ===", title)
    print(frame.to_string(index=False))
    log.info("written to results/%s.md", name)
