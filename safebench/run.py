"""SAFE benchmark: one command, two workloads, correctness checks included.

Run from the repository root::

    python3 safebench/run.py --workload local-tall --seed 201 --seconds 30 --trace 0

Workloads are ``local-tall`` and ``spark-small`` (see ``workloads.py``
for what each exercises and why). ``--trace 0`` measures
the end-to-end metrics with no instrumentation; ``--trace 1`` runs the
traced variant, which wraps the layers of ``repro.core``/``repro.gbdt``
from outside, reports per-layer metrics and writes its spans to
``.safebench/trace/``. Every metric is printed as ``name value unit``, and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {"fit_s": {"value": ..., "unit": "s"}, ...}}

``failed`` counts fits that raised or failed a check, plus failed
run-level checks; ``correct`` is true when it is 0.
The program is built from the ``src/`` tree next to this directory; the
command exits with status 2 if that tree is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import cpus

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("local-tall", "spark-small")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the registry seed of the workload's dataset)")
    ap.add_argument("--seconds", type=float, default=10.0, help="how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="row-count scale of the inputs (the smoke test uses a tiny one)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "core" / "pipeline.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    # one core at a time for the process and everything it starts (Spark's
    # JVM and Python workers): each workload is a single caller, and
    # spark-small's fit measured the same on one core as on four (9.8 s
    # against 9.6 s); the core changes every tenth of a second (cpus.py)
    hopper = cpus.CoreHopper().start()
    sys.path.insert(0, str(src))
    # Spark's Python workers import repro too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    seed = workloads.registry_spec(cls.dataset).seed if args.seed is None else args.seed
    workload = cls(ROOT, seed, args.scale)
    try:
        setup_s = workload.setup()
        if args.trace:
            out = workload.measure_traced(args.seconds, ROOT / ".safebench" / "trace")
        else:
            out = workload.measure(args.seconds, setup_s)
    finally:
        workload.close()
        hopper.stop()

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    for name, unit in units.items():
        print(f"{name:34s} {out.metrics[name]:>16.6f} {unit}")
    for problem in out.problems:
        print(f"failed check: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(out.metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
