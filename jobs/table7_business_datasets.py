"""Table VII — business dataset information (ours vs the paper's shapes)."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import configure_logging, emit  # noqa: E402

from repro.experiments.datasets import BUSINESS_DATASETS, dataset_info_rows  # noqa: E402


def main(spark=None):
    rows = dataset_info_rows(BUSINESS_DATASETS)
    emit(
        "table7",
        "Table VII — business data sets (scaled synthetic fraud stand-ins)",
        rows,
        "Ant Financial fraud data is proprietary; synthetic imbalanced "
        "(~3% positive) stand-ins at ~1/25–1/60 scale, run through the "
        "distributed Spark engine (DESIGN.md §2).",
    )
    return rows


if __name__ == "__main__":
    configure_logging()
    main()
