"""The two SAFE benchmark workloads.

Every workload is one process driving a closed loop with one caller: the
next operation starts when the previous one has returned.

* ``local-tall`` — ``SafePipeline.fit(engine="local")`` on Data1 at a
  fifth of its registry train/valid rows (15,000 x 40, ~3% positives),
  paper protocol but for gamma: one iteration, gamma = 30, top_k = 2M,
  mining and ranking GBDT of 20 trees at depth 3. Bound by numpy kernels
  (GBDT histograms take about two thirds of a fit); no Spark. A run fits
  four inputs in turn, in whole rounds.
* ``spark-small`` — ``SafePipeline.fit(engine="spark")`` on ``magic`` at
  registry size (4,000 train+valid rows x 10 dims) with GBDTs of one tree
  at depth 2, on ``local[1]``; one warm-up fit, then at least four timed
  fits a run. Bound by per-job Spark overhead (33 jobs per fit): numpy
  kernel speed-ups should not move it, cutting jobs per fit should.

The plan layer's read path (``FeaturePlan.apply_pandas``) is timed in the
traced run of both workloads, and every run checks Ψ's outputs against an
independent numpy evaluation (``psi.py``). A third workload that served a
fixed Ψ one record per call was dropped: on a shared host its run-level
mean moved by up to 1.7x between runs minutes apart (spread 0.48 over
five seeds), which no run length within the time limit averages out.

Inputs come from the ``repro.experiments.datasets`` registry with the
spec's ``seed`` replaced by the workload seed. The program is driven only
through ``SafePipeline.fit``, ``FeaturePlan.apply_pandas``/``apply_spark``
and those generators; the LR used for the quality guard comes from
``repro.models``.
"""
from __future__ import annotations

import hashlib
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pandas as pd

import psi
import spans

LABEL = "label"

#: end-to-end metric -> unit; every workload reports every one of them
END_TO_END = {
    # a mean, not a median: a shared host's cores switch between fast and
    # slow modes every few seconds, and the mean moves with the share of a
    # run spent in each where the median of a dozen fits jumps between them.
    # No tail: a run's dozen fits leave no percentile with ten beyond it
    "fit_s": "s",
    "auc_lr_over_orig": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per-layer metric -> unit; 0 where the workload does not exercise the layer
PER_LAYER = {
    **{f"stage.{s}_s": "s" for s in ("mine_gbdt", "rank_gbdt", "iv", "gain_ratio",
                                     "generate", "corr", "mine_combos", "redundancy")},
    "gbdt.prep_s": "s",
    "gbdt.hist_s": "s",
    "gbdt.route_s": "s",
    "gbdt.split_s": "s",
    "gbdt.margin_s": "s",
    "gbdt.hist_passes": "count",
    "spark.jobs_per_fit": "count",
    **{f"spark.jobs.{s}": "count" for s in (*spans.JOB_STAGES, "other")},
    "spark.hist_job_s_p50": "s",
    "spark.hist_job_s_max": "s",
    "spark.tasks_per_fit": "count",
    "spark.failed_tasks": "count",
    "spark.cached_frames_left": "count",
    "spark.input_cache_intact": "count",
    "plan.apply_call_overhead_us": "us",
    "plan.apply_ns_per_row": "ns",
    "plan.needed_specs_us": "us",
    **{f"funnel.{s}": "count" for s in ("paths", "combos", "kept_combos", "generated",
                                        "informative", "nonredundant", "selected")},
    "funnel.selected_per_generated": "ratio",
    "trace.overhead_s": "s",
    "mem.driver_peak_rss_mb": "MB",
    "mem.jvm_peak_rss_mb": "MB",
}

SETUP_REPEATS = 3
SPARK_CORES = 1  # run.py keeps the benchmark on one core at a time


@dataclass
class Outcome:
    """What one run measured: metric values, operation counts, failed checks."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A run-level check: a failure counts as one more failed operation."""
        if not ok:
            self.failed += 1
            self.problems.append(what)


# -- shared helpers -----------------------------------------------------------
def registry_spec(dataset: str):
    """The ``DatasetSpec`` of a registry dataset; its ``seed`` is a workload's default seed."""
    from repro.experiments.datasets import BENCHMARK_DATASETS, BUSINESS_DATASETS

    return {s.name: s for s in BUSINESS_DATASETS + BENCHMARK_DATASETS}[dataset]


def load(dataset: str, seed: int, scale: float, test_scale: float | None = None):
    """(train, valid|None, test) of a registry dataset with its seed replaced
    and its row counts scaled (the test split by ``test_scale`` if given)."""
    from repro.experiments.datasets import make_dataset

    spec = registry_spec(dataset)
    spec = replace(
        spec,
        seed=seed,
        n_train=max(200, int(spec.n_train * scale)),
        n_valid=int(spec.n_valid * scale),
        n_test=max(200, int(spec.n_test * (scale if test_scale is None else test_scale))),
    )
    return make_dataset(spec)


def lr_auc(plan, train: pd.DataFrame, test: pd.DataFrame) -> float:
    """AUC of the evaluation LR trained on Ψ(train), scored on Ψ(test)."""
    from repro.models import auc_score, make_classifier

    ftr, fte = plan.apply_pandas(train), plan.apply_pandas(test)
    model = make_classifier("LR")
    model.fit(ftr.drop(columns=[LABEL]).to_numpy(), ftr[LABEL].to_numpy())
    return auc_score(fte[LABEL].to_numpy(), model.predict_proba(fte.drop(columns=[LABEL]).to_numpy())[:, 1])


def orig_auc(train: pd.DataFrame, test: pd.DataFrame) -> float:
    """LR AUC of the ORIG baseline (the identity plan)."""
    from repro.core.plan import FeaturePlan

    return lr_auc(FeaturePlan.identity(list(train.columns), LABEL), train, test)


def matches_reference(plan, records: pd.DataFrame) -> tuple[bool, int]:
    """Whether Ψ(records) equals the benchmark's own numpy evaluation of the
    plan (``psi.reference_outputs``), and how many divisions hit their guard."""
    want, guarded = psi.reference_outputs(plan, records)
    got = plan.apply_pandas(records)
    same = list(got.columns[: len(plan.output_columns)]) == plan.output_columns and np.array_equal(
        got[plan.output_columns].to_numpy(dtype=np.float64), want, equal_nan=True
    )
    return same, guarded


def check_seeded_psi(out: Outcome, seed: int, test: pd.DataFrame) -> None:
    """A Ψ drawn from the seed over all four operators, applied to the test
    split with 1% of its cells zeroed, must equal the reference evaluation,
    and some division must hit its guard."""
    records = psi.zero_cells(test, seed, LABEL)
    plan = psi.build_plan(seed, [c for c in records.columns if c != LABEL], LABEL)
    same, guarded = matches_reference(plan, records)
    out.check(same, f"seed {seed}: seeded Ψ output differs from the reference evaluation")
    out.check(guarded > 0, f"seed {seed}: no division hit its guard on the zeroed test split")


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_seconds(fn, repeats: int = SETUP_REPEATS) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn``."""
    return statistics.median(_timed(fn) for _ in range(repeats))


def apply_cost(plan, records: pd.DataFrame, rows: list[pd.DataFrame]) -> tuple[float, float]:
    """(per-call overhead in us, ns per row) of ``apply_pandas``: the line
    through the median time of one-record calls and of calls on ``records``."""
    one = statistics.median(_timed(lambda r=r: plan.apply_pandas(r)) for r in rows[:200])
    full = statistics.median(_timed(lambda: plan.apply_pandas(records)) for _ in range(10))
    slope = (full - one) / max(1, len(records) - 1)
    return (one - slope) * 1e6, slope * 1e9


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def source_digest(root: Path) -> str:
    """Digest of the program's and the benchmark's sources: a plan recorded
    under one digest is only compared with plans of the same code."""
    h = hashlib.sha256()
    for p in sorted([*(root / "src" / "repro").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def plan_matches_earlier_runs(root: Path, workload: str, seed: int, scale: float, plan_json: str) -> bool:
    """Record this seed's plan fingerprint for the current source tree, or
    compare with the one an earlier run recorded."""
    digest = hashlib.sha256(plan_json.encode()).hexdigest()
    path = root / ".safebench" / "plans" / f"{workload}-seed{seed}-x{scale:g}-{source_digest(root)}.sha256"
    if path.exists():
        return path.read_text().strip() == digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return True


# -- Spark session ------------------------------------------------------------
def start_spark(root: Path):
    """A ``local[SPARK_CORES]`` session whose scratch files stay inside ``root``."""
    tmp = root / ".safebench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # C1-only JIT: the driver JVM reaches its steady speed within one warm-up
    # fit (measured on 4 cores: fits 2-8 of a session within 7% of each
    # other, against a slide from 20 s to 12 s over six fits with C2)
    java_opts = f"-XX:-UsePerfData -XX:TieredStopAtLevel=1 -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={shlex.quote(str(tmp))} "
        f"--driver-java-options {shlex.quote(java_opts)} pyspark-shell"
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # the launcher JVM spark-submit starts first
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("safebench")
        .config("spark.sql.shuffle.partitions", str(SPARK_CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and with it the Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


# -- fit workloads --------------------------------------------------------------
@dataclass
class FitInput:
    """One generated dataset and the frame the engine is fitted on."""

    seed: int
    train: pd.DataFrame
    valid: pd.DataFrame | None
    test: pd.DataFrame
    frame: object = None  # Spark input frame (spark engine only)


class FitWorkload:
    """SAFE fits in a closed loop; subclasses bind an engine and a dataset.

    A run fits ``n_inputs`` datasets in turn, seeded ``seed``, ``seed +
    100000``, ...: a run's median then averages over several draws of the
    planted structure, so the spread between runs of different seeds
    reflects the program, not how hard one draw happens to be.
    """

    name = ""
    dataset = ""
    engine = ""
    gbdt: dict = {}
    gamma: int | None = None  # None: the paper's 2M
    fit_scale = 1.0  # row scale of train/valid; the test split keeps registry size
    n_inputs = 1
    # a run times at least this many fits, however short ``seconds`` is, so
    # its median is never a single sample
    min_fits = 4
    # traced rounds a run makes at least; rounds alternate which of their two
    # fits (untraced, traced) runs first, so warm-up order cancels out
    min_traced_rounds = 2

    def __init__(self, root: Path, seed: int, scale: float):
        self.root, self.seed, self.scale = root, seed, scale
        self.spark = None
        self.inputs: list[FitInput] = []
        self.first_plans: dict[int, str] = {}  # input index -> plan of its first fit

    # engine hooks
    def make_input(self, seed: int) -> FitInput:
        train, valid, test = load(self.dataset, seed, self.scale * self.fit_scale, test_scale=self.scale)
        return FitInput(seed, train, valid, test)

    def before_fit(self, inp: FitInput) -> None:
        """Untimed work that puts the engine input in the same state before every fit."""

    def fit_args(self, inp: FitInput):
        return (inp.train, LABEL, inp.valid)

    def extra_checks(self, out: Outcome, inp: FitInput, plan) -> None:
        pass

    def cached_rdds(self) -> set[int]:
        return set()

    def input_cached(self, inp: FitInput) -> bool:
        return False

    def jvm_rss(self) -> float:
        return 0.0

    def close(self) -> None:
        pass

    # shared
    def prepare_inputs(self) -> None:
        self.inputs = [self.make_input(self.seed + 100_000 * i) for i in range(self.n_inputs)]

    def setup(self) -> float:
        return median_seconds(self.prepare_inputs)

    def fit_once(self, inp: FitInput):
        from repro.core.pipeline import SafePipeline

        pipe = SafePipeline(gamma=self.gamma, mining_gbdt=dict(self.gbdt), ranking_gbdt=dict(self.gbdt))
        train, label, valid = self.fit_args(inp)
        plan = pipe.fit(train, label, valid, engine=self.engine)
        return pipe, plan

    def timed_fit(self, inp: FitInput):
        self.before_fit(inp)
        t0 = time.perf_counter()
        pipe, plan = self.fit_once(inp)
        return time.perf_counter() - t0, pipe, plan

    def quality_checks(self, out: Outcome, inp: FitInput, plan) -> float:
        """Run-level checks of one input's plan; returns SAFE's LR AUC over ORIG's.

        The ratio is reported, not required to exceed 1: at these sizes SAFE's
        plan trails ORIG's on some draws (Data1 at a fifth of its rows: 7 of 40
        inputs, by up to 0.009 AUC), so "beats ORIG" is not a property of a
        correct program here.
        """
        auc, orig = lr_auc(plan, inp.train, inp.test), orig_auc(inp.train, inp.test)
        out.check(
            plan_matches_earlier_runs(self.root, self.name, inp.seed, self.scale, plan.to_json()),
            f"seed {inp.seed}: plan differs from an earlier run's plan",
        )
        same, _guarded = matches_reference(plan, psi.zero_cells(inp.test, inp.seed, LABEL))
        out.check(same, f"seed {inp.seed}: Ψ output differs from the reference evaluation")
        self.extra_checks(out, inp, plan)
        return auc / orig

    def measure(self, seconds: float, setup_s: float) -> Outcome:
        out = Outcome()
        durations: list[float] = []
        start = time.perf_counter()
        while self._more_fits(out.attempted, time.perf_counter() - start, seconds):
            k = out.attempted % self.n_inputs
            try:
                dt, _pipe, plan = self.timed_fit(self.inputs[k])
            except Exception:
                traceback.print_exc()
                out.op(False, f"fit of input {k} raised")
                continue
            durations.append(dt)
            plan_json = self.first_plans.setdefault(k, plan.to_json())
            out.op(plan.to_json() == plan_json, "plan differs between fits of one input")
        from repro.core.plan import FeaturePlan

        ratios = [
            self.quality_checks(out, inp, FeaturePlan.from_json(self.first_plans[k]))
            for k, inp in enumerate(self.inputs) if k in self.first_plans
        ]
        check_seeded_psi(out, self.seed, self.inputs[0].test)
        out.metrics = {
            "fit_s": statistics.fmean(durations),
            "auc_lr_over_orig": statistics.median(ratios),
            "peak_rss_mb": driver_peak_rss_mb() + self.jvm_rss(),
            "setup_s": setup_s,
        }
        return out

    def _more_fits(self, done: int, elapsed: float, seconds: float) -> bool:
        """Whether to fit again: a run ends on the end of a whole round over the
        inputs (so every input weighs the same) closest to ``seconds``."""
        if done < self.min_fits or done % self.n_inputs:
            return True
        round_s = elapsed / (done // self.n_inputs)
        return elapsed + round_s / 2 < seconds

    def measure_traced(self, seconds: float, trace_dir: Path) -> Outcome:
        out = Outcome()
        rounds = []
        start = time.perf_counter()
        while len(rounds) < self.min_traced_rounds or time.perf_counter() - start < seconds:
            k = len(rounds)
            rounds.append(self._traced_round(out, self.inputs[k % self.n_inputs], traced_first=k % 2 == 1))
        rounds[-1]["tracer"].write(trace_dir / f"{self.name}-seed{self.seed}.jsonl")
        layers = {
            name: statistics.median(r["layers"][name] for r in rounds) for name in rounds[0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(r["traced_s"] - r["untraced_s"] for r in rounds)
        inp = self.inputs[0]
        rows = [inp.test.iloc[[i]] for i in range(min(200, len(inp.test)))]
        plan = rounds[0]["plan"]
        layers["plan.apply_call_overhead_us"], layers["plan.apply_ns_per_row"] = apply_cost(plan, inp.train, rows)
        tracer = spans.Tracer(f"apply-{time.monotonic_ns()}")
        spans.install_plan_patches(tracer)
        try:
            for r in rows:
                plan.apply_pandas(r)
        finally:
            tracer.restore()
        layers["plan.needed_specs_us"] = tracer.total("plan.needed_specs") / len(rows) * 1e6
        layers["mem.driver_peak_rss_mb"] = driver_peak_rss_mb()
        layers["mem.jvm_peak_rss_mb"] = self.jvm_rss()
        out.metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
        return out

    def _traced_round(self, out: Outcome, inp: FitInput, traced_first: bool) -> dict:
        """An untraced and a traced fit of the same input; their plans must match."""
        if traced_first:
            traced = self._traced_fit(inp)
            untraced_s, _pipe, plan = self.timed_fit(inp)
        else:
            untraced_s, _pipe, plan = self.timed_fit(inp)
            traced = self._traced_fit(inp)
        tracer, traced_s, pipe, traced_plan, layers = traced
        out.op(traced_plan.to_json() == plan.to_json(), "traced plan differs from the untraced plan")
        return {"untraced_s": untraced_s, "traced_s": traced_s, "plan": traced_plan,
                "layers": layers, "tracer": tracer}

    def _traced_fit(self, inp: FitInput):
        """One fit under the tracer: (tracer, seconds, pipeline, plan, layer metrics)."""
        self.before_fit(inp)
        sc = self.spark.sparkContext if self.spark is not None else None
        tracer = spans.Tracer(f"fit-{time.monotonic_ns()}", sc)
        cached_before = self.cached_rdds()
        spans.install_fit_patches(tracer)
        try:
            t0 = time.perf_counter()
            with tracer.span("fit"):
                pipe, traced_plan = self.fit_once(inp)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.restore()
        layers = spans.fit_layer_metrics(tracer)
        layers.update(funnel(pipe, traced_plan, tracer.counts["kept_combos"]))
        if sc is not None:
            layers.update(spark_counts(sc, tracer))
            hist = tracer.durations("gbdt.hist_fn")
            layers["spark.hist_job_s_p50"] = statistics.median(hist) if hist else 0.0
            layers["spark.hist_job_s_max"] = max(hist, default=0.0)
            layers["spark.cached_frames_left"] = float(len(self.cached_rdds() - cached_before))
            layers["spark.input_cache_intact"] = float(self.input_cached(inp))
        return tracer, traced_s, pipe, traced_plan, layers


def funnel(pipe, plan, kept_combos: int) -> dict[str, float]:
    """Candidate funnel of one fit, summed over its iterations."""
    its = pipe.report_.iterations
    total = lambda key: float(sum(it[key] for it in its))  # noqa: E731
    generated = total("n_generated")
    return {
        "funnel.paths": total("n_paths"),
        "funnel.combos": total("n_combos"),
        "funnel.kept_combos": float(kept_combos),
        "funnel.generated": generated,
        "funnel.informative": total("n_informative"),
        "funnel.nonredundant": total("n_nonredundant"),
        "funnel.selected": total("n_selected"),
        "funnel.selected_per_generated": len(plan.generated_outputs()) / generated if generated else 0.0,
    }


def spark_counts(sc, tracer: spans.Tracer) -> dict[str, float]:
    """Jobs per stage group, tasks run and tasks failed during one traced fit."""
    try:
        sc._jsc.sc().listenerBus().waitUntilEmpty()
    except Exception:  # listener bus not reachable: the status store may lag
        time.sleep(1.0)
    tracker = sc.statusTracker()
    out: dict[str, float] = {}
    stage_ids: set[int] = set()
    for stage in (*spans.JOB_STAGES, "other"):
        jobs = tracker.getJobIdsForGroup(tracer.job_group(stage))
        out[f"spark.jobs.{stage}"] = float(len(jobs))
        for jid in jobs:
            info = tracker.getJobInfo(jid)
            if info is not None:
                stage_ids.update(info.stageIds)
    out["spark.jobs_per_fit"] = sum(out.values())
    tasks = failed = 0
    for sid in stage_ids:
        info = tracker.getStageInfo(sid)
        if info is not None:
            tasks += info.numCompletedTasks
            failed += info.numFailedTasks
    out["spark.tasks_per_fit"] = float(tasks)
    out["spark.failed_tasks"] = float(failed)
    return out


class LocalTall(FitWorkload):
    name = "local-tall"
    dataset = "Data1"
    engine = "local"
    gbdt = {"n_estimators": 20, "max_depth": 3}
    # a fifth of Data1's train/valid rows (15,000 x 40) keeps a fit near 2.5 s,
    # so a 20 s run holds two fits of each of its four inputs
    fit_scale = 0.2
    n_inputs = 4
    # the mining GBDT finds 43-54 combinations on these inputs; keeping 30
    # (not 2M = 80, which keeps them all) fixes the candidate count at 180,
    # and with it most of the fit's work: across eight seeds fit times then
    # spread 0.08 of their median, against 0.19 with gamma = 2M
    gamma = 30


class SparkSmall(FitWorkload):
    name = "spark-small"
    dataset = "magic"
    engine = "spark"
    # one tree of depth 2 keeps a warm fit near 10 s on one core, so a run
    # times four fits (33 Spark jobs each) within its budget
    gbdt = {"n_estimators": 1, "max_depth": 2}
    # one tree of depth 2 mines one or two combinations; keeping one makes
    # the candidate count (6), and so the IV/Pearson width, seed-independent
    gamma = 1

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.spark = start_spark(self.root)
        session_s = time.perf_counter() - t0
        data_s = super().setup()
        # the first fit in a fresh JVM runs cold (class loading, JIT, Python
        # worker start); users of a long-lived session pay that once
        t0 = time.perf_counter()
        _dt, _pipe, plan = self.timed_fit(self.inputs[0])
        warmup_s = time.perf_counter() - t0
        self.first_plans[0] = plan.to_json()
        return session_s + data_s + warmup_s

    def make_input(self, seed: int) -> FitInput:
        inp = super().make_input(seed)
        inp.frame = self.spark.createDataFrame(pd.concat([inp.train, inp.valid], ignore_index=True))
        inp.frame.cache().count()
        return inp

    def prepare_inputs(self) -> None:
        self.spark.catalog.clearCache()
        super().prepare_inputs()

    def before_fit(self, inp: FitInput) -> None:
        # a fit leaves its engine frame cached and un-caches its input; start
        # every fit from a cache holding only the input
        self.spark.catalog.clearCache()
        inp.frame.cache().count()

    def fit_args(self, inp: FitInput):
        return (inp.frame, LABEL, None)

    def extra_checks(self, out: Outcome, inp: FitInput, plan) -> None:
        got = plan.apply_spark(self.spark.createDataFrame(inp.test)).toPandas()
        want = plan.apply_pandas(inp.test)
        same = list(got.columns) == list(want.columns) and np.allclose(
            got.to_numpy(dtype=np.float64), want.to_numpy(dtype=np.float64), rtol=1e-12, atol=0.0
        )
        out.check(same, f"seed {inp.seed}: apply_spark differs from apply_pandas on the test split")

    def cached_rdds(self) -> set[int]:
        return {int(k) for k in self.spark.sparkContext._jsc.getPersistentRDDs().keys()}

    def input_cached(self, inp: FitInput) -> bool:
        level = inp.frame.storageLevel
        return level.useMemory or level.useDisk

    def jvm_rss(self) -> float:
        return jvm_peak_rss_mb(self.spark) if self.spark is not None else 0.0

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


WORKLOADS = {w.name: w for w in (LocalTall, SparkSmall)}
