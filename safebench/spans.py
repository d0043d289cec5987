"""In-memory span recorder for the traced benchmark run.

The traced run times each SAFE layer from outside the program: it replaces
the public functions of ``repro.core`` and ``repro.gbdt`` *at the names
their callers import* (``repro.core.pipeline.select_features``, engine
methods, ``repro.gbdt.boosting.build_histograms``, ...) with wrappers that
record a span (name, start, end, parent, run id), and restores the
originals afterwards. On Spark, every stage span also tags the jobs it
triggers with a job group ``safe:<run>:<stage>`` so jobs can be counted
per stage from the status tracker.

Only driver-side names are wrapped. The functions that ``spark_backend``
ships to executors (``assign_slots``/``build_histograms`` inside its
``mapInPandas`` closure) are left alone: cloudpickle would otherwise try to
ship the wrapper, and executors run in separate processes where a driver
span cannot be recorded anyway.
"""
from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: stages that run Spark jobs; jobs outside them are counted as ``other``
JOB_STAGES = ("mine_gbdt", "rank_gbdt", "gain_ratio", "generate", "iv", "corr")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls; ``restore()`` undoes every patch."""

    def __init__(self, run_id: str, spark_context=None):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._groups: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sc = spark_context

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), math.nan, parent, self.run_id)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        group = self._job_group_for(name)
        if group:
            self._set_group(group)
            self._groups.append(group)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if group:
                self._groups.pop()
                self._set_group(self._groups[-1] if self._groups else None)

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    # -- Spark job groups ----------------------------------------------
    def job_group(self, stage: str) -> str:
        return f"safe:{self.run_id}:{stage}"

    def _job_group_for(self, name: str) -> str | None:
        if self._sc is None:
            return None
        if name == "fit":
            return self.job_group("other")
        if name.startswith("stage."):
            return self.job_group(name.removeprefix("stage."))
        return None

    def _set_group(self, group: str | None) -> None:
        if group is None:
            self._sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self._sc.setJobGroup(group, group)

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, name, *, wrap_first_arg: str | None = None,
              on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a zero-argument callable returning one
        (evaluated per call, e.g. to tell the mining GBDT from the ranking
        GBDT by the enclosing span). ``wrap_first_arg`` names a span to
        record around each call of the callable passed as first argument
        (``grow_tree``'s ``histogram_fn``). ``on_result(tracer, result)``
        records counts at the boundary.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if wrap_first_arg is not None:
                inner = args[0]

                def traced_arg(*a, **k):
                    with tracer.span(wrap_first_arg):
                        return inner(*a, **k)

                args = (traced_arg, *args[1:])
            with tracer.span(name() if callable(name) else name):
                result = orig(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------
    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_time(self, name: str) -> float:
        """Σ over spans called ``name`` of duration minus their children's."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return sum(
            s.seconds - child[i] for i, s in enumerate(self.spans) if s.name == name
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def install_fit_patches(tracer: Tracer) -> None:
    """Wrap every layer a SAFE fit passes through, on both engines."""
    from repro.core import engine, pipeline, selection
    from repro.gbdt import boosting, spark_backend, tree

    def kept(tr: Tracer, result) -> None:
        tr.counts["kept_combos"] += len(result)

    tracer.patch(pipeline, "select_features", "select")
    tracer.patch(pipeline, "mine_combos", "stage.mine_combos")
    tracer.patch(pipeline, "top_combos", "top_combos", on_result=kept)
    tracer.patch(selection, "remove_redundant", "stage.redundancy")
    gbdt_stage = lambda: "stage.rank_gbdt" if tracer.inside("select") else "stage.mine_gbdt"  # noqa: E731
    for cls in (engine.LocalEngine, engine.SparkEngine):
        tracer.patch(cls, "fit_gbdt", gbdt_stage)
        tracer.patch(cls, "gain_ratios", "stage.gain_ratio")
        tracer.patch(cls, "iv", "stage.iv")
        tracer.patch(cls, "corr", "stage.corr")
        tracer.patch(cls, "add_generated", "stage.generate")
    for mod in (boosting, spark_backend):
        tracer.patch(mod, "grow_tree", "gbdt.grow_tree", wrap_first_arg="gbdt.hist_fn")
    tracer.patch(boosting, "assign_slots", "gbdt.assign_slots")
    tracer.patch(boosting, "build_histograms", "gbdt.build_histograms")
    tracer.patch(tree.Tree, "predict_binned", "gbdt.predict_binned")


def install_plan_patches(tracer: Tracer) -> None:
    """Wrap the Ψ read path (``FeaturePlan.apply_pandas`` and its spec walk)."""
    from repro.core.plan import FeaturePlan

    tracer.patch(FeaturePlan, "apply_pandas", "plan.apply")
    tracer.patch(FeaturePlan, "needed_specs", "plan.needed_specs")


def fit_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer seconds and counts of one traced fit (engine-agnostic part)."""
    out = {
        f"stage.{s}_s": tracer.total(f"stage.{s}")
        for s in ("mine_gbdt", "rank_gbdt", "iv", "gain_ratio", "generate", "corr",
                  "mine_combos", "redundancy")
    }
    out["gbdt.prep_s"] = tracer.self_time("stage.mine_gbdt") + tracer.self_time("stage.rank_gbdt")
    out["gbdt.hist_s"] = tracer.total("gbdt.build_histograms")
    out["gbdt.route_s"] = tracer.total("gbdt.assign_slots")
    out["gbdt.split_s"] = tracer.self_time("gbdt.grow_tree")
    out["gbdt.margin_s"] = tracer.total("gbdt.predict_binned")
    out["gbdt.hist_passes"] = len(tracer.durations("gbdt.hist_fn"))
    return out
