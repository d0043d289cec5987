"""SAFE orchestration — paper Algorithm 1.

``SafePipeline.fit`` runs the iterative generate→select loop and returns a
:class:`repro.core.plan.FeaturePlan` (the learned Ψ). Per iteration:

1. train the XGBoost substrate on the current base features (+ the
   validation frame when given, as the paper trains on D_train ∪ D_valid);
2. mine feature combinations from same-path split features (§IV-B1);
3. sort combinations by information gain ratio, keep the top γ (Alg. 2);
4. apply the operator set to the kept combinations → generated features;
5. select from base ∪ generated with IV → Pearson → importance (Alg. 3/4);
6. the selection becomes the next iteration's base features.

The loop ends after ``n_iterations`` or ``time_budget_s`` (the paper's
nIter/tIter), or early when an iteration leaves the feature set unchanged
(paper §V-A6: "the features will not be updated, and the performance
keeps unchanged").
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame

from .combos import mine_combos
from .correlation import DEFAULT_THETA
from .engine import LocalEngine, SparkEngine
from .gain_ratio import top_combos
from .iv import DEFAULT_ALPHA, DEFAULT_BETA
from .operators import DEFAULT_BINARY_OPS, pair_specs
from .plan import FeaturePlan, FeatureSpec
from .selection import select_features

__all__ = ["SafePipeline", "SafeFitReport"]


@dataclass
class SafeFitReport:
    """Per-iteration diagnostics collected during ``fit``."""

    iterations: list[dict] = field(default_factory=list)
    fit_seconds: float = 0.0


@dataclass
class SafePipeline:
    """Scalable Automatic Feature Engineering (the paper's method).

    Hyper-parameters follow the paper: ``alpha``/``beta`` (Alg. 3),
    ``theta`` (Alg. 4), γ top combinations, output cap ``top_k`` (the
    benchmark protocol's 2M), and the two XGBoost configurations (K₁/D₁
    mining model, K₂/D₂ ranking model — Eq. 13 ties the feature budget to
    K·D). ``operators`` defaults to the evaluation's {+, −, ×, ÷}.
    """

    n_iterations: int = 1
    time_budget_s: float | None = None
    operators: tuple[str, ...] = DEFAULT_BINARY_OPS
    gamma: int | None = None  # default 2·M pairs
    top_k: int | None = None  # default 2·M output features
    alpha: float = DEFAULT_ALPHA
    beta: int = DEFAULT_BETA
    theta: float = DEFAULT_THETA
    mining_gbdt: dict = field(
        default_factory=lambda: {"n_estimators": 20, "max_depth": 3}
    )
    ranking_gbdt: dict = field(
        default_factory=lambda: {"n_estimators": 20, "max_depth": 3}
    )
    max_cells: int = 4096

    report_: SafeFitReport | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        train,
        label_col: str,
        valid=None,
        engine: str = "auto",
    ) -> FeaturePlan:
        """Learn Ψ from a pandas or Spark training frame.

        ``engine='auto'`` picks ``local`` for pandas input and ``spark``
        for Spark input; pass explicitly to force (a Spark frame with
        ``engine='local'`` is collected to the driver via Arrow).
        """
        eng = self._make_engine(train, label_col, valid, engine)
        try:
            return self._fit(eng, label_col)
        finally:
            eng.close()

    def _fit(self, eng, label_col: str) -> FeaturePlan:
        t0 = time.time()
        self.report_ = SafeFitReport()

        base = eng.feature_columns
        m0 = len(base)
        gamma = self.gamma or 2 * m0
        top_k = self.top_k or 2 * m0
        all_specs: list[FeatureSpec] = []
        existing = set(base)

        for it in range(self.n_iterations):
            if (
                self.time_budget_s is not None
                and time.time() - t0 > self.time_budget_s
            ):
                break
            # 1. mine combination relations from the tree model
            model = eng.fit_gbdt(base, **self.mining_gbdt)
            combos = mine_combos(model.paths(), sizes=(2,), max_cells=self.max_cells)
            if not combos:
                break
            # 2. sort by information gain ratio, keep top γ
            ratios = eng.gain_ratios(base, combos)
            kept = top_combos(combos, ratios, gamma)
            # 3. generate: apply the operator set to each kept combination
            new_specs: list[FeatureSpec] = []
            for combo in kept:
                a, b = base[combo.features[0]], base[combo.features[1]]
                for op_name, inputs in pair_specs(a, b, self.operators):
                    spec = FeatureSpec(op_name, inputs)
                    if spec.name not in existing:
                        new_specs.append(spec)
                        existing.add(spec.name)
            eng.add_generated(new_specs)
            all_specs.extend(new_specs)
            # 4. select from base ∪ generated
            candidates = base + [s.name for s in new_specs]
            report = select_features(
                eng,
                candidates,
                alpha=self.alpha,
                beta=self.beta,
                theta=self.theta,
                top_k=top_k,
                gbdt_params=self.ranking_gbdt,
            )
            selected = report["selected"]
            self.report_.iterations.append(
                {
                    "iteration": it,
                    "n_paths": len(model.paths()),
                    "n_combos": len(combos),
                    "n_generated": len(new_specs),
                    "n_informative": len(report["informative"]),
                    "n_nonredundant": len(report["nonredundant"]),
                    "n_selected": len(selected),
                }
            )
            if set(selected) == set(base):
                base = selected
                break  # fixed point: no new useful combinations (§V-A6)
            base = selected

        self.report_.fit_seconds = time.time() - t0
        return FeaturePlan(all_specs, base, label_col).pruned()

    # ------------------------------------------------------------------
    @staticmethod
    def _make_engine(train, label_col, valid, engine: str):
        if engine == "auto":
            engine = "spark" if isinstance(train, DataFrame) else "local"
        if engine == "local":
            if isinstance(train, DataFrame):
                train = train.toPandas()
            if valid is not None:
                vpdf = valid.toPandas() if isinstance(valid, DataFrame) else valid
                train = pd.concat([train, vpdf], ignore_index=True)
            return LocalEngine(train, label_col)
        if engine == "spark":
            if not isinstance(train, DataFrame):
                raise TypeError("engine='spark' needs a Spark DataFrame")
            df = train if valid is None else train.unionByName(valid)
            return SparkEngine(df, label_col)
        raise ValueError(f"unknown engine {engine!r}")
