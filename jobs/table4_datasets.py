"""Table IV — benchmark dataset information (ours vs the paper's shapes)."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import configure_logging, emit  # noqa: E402

from repro.experiments.datasets import BENCHMARK_DATASETS, dataset_info_rows  # noqa: E402


def main(spark=None):
    rows = dataset_info_rows(BENCHMARK_DATASETS)
    emit(
        "table4",
        "Table IV — benchmark data sets (scaled synthetic stand-ins)",
        rows,
        "Sizes scaled per DESIGN.md §5 (no network → no OpenML); "
        "`paper *` columns show the original shapes.",
    )
    return rows


if __name__ == "__main__":
    configure_logging()
    main()
