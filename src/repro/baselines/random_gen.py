"""RAND and IMP ablations (paper §V-A1).

* RAND "randomly selects γ different feature combinations of all original
  features for feature generation".
* IMP "only randomly selects γ different feature combinations with the
  split features of XGBoost" (SAFE-Important — the ablation that keeps the
  split-feature assumption but drops same-path mining and gain-ratio
  sorting).

Both "follow the same feature selection process as SAFE", so they share
:func:`repro.core.selection.select_features` and run on either engine —
which is also why they appear in the business-scale Table VIII.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from pyspark.sql import DataFrame

from ..core.iv import DEFAULT_ALPHA, DEFAULT_BETA
from ..core.correlation import DEFAULT_THETA
from ..core.operators import DEFAULT_BINARY_OPS, pair_specs
from ..core.pipeline import SafePipeline
from ..core.plan import FeaturePlan, FeatureSpec
from ..core.selection import select_features

__all__ = ["RandomGenPipeline"]


@dataclass
class RandomGenPipeline:
    """``mode='rand'`` → RAND; ``mode='imp'`` → IMP."""

    mode: str = "rand"
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
    random_state: int = 0

    def fit(
        self, train, label_col: str, valid=None, engine: str = "auto"
    ) -> FeaturePlan:
        if self.mode not in ("rand", "imp"):
            raise ValueError(f"mode must be 'rand' or 'imp', got {self.mode!r}")
        eng = SafePipeline._make_engine(train, label_col, valid, engine)
        try:
            return self._fit(eng, label_col)
        finally:
            eng.close()

    def _fit(self, eng, label_col: str) -> FeaturePlan:
        base = eng.feature_columns
        m = len(base)
        gamma = self.gamma or 2 * m
        top_k = self.top_k or 2 * m
        # distinct stream per mode so RAND and IMP draw different pairs
        # even when IMP's split-feature pool equals the full feature set
        rng = np.random.default_rng([self.random_state, 1 if self.mode == "imp" else 0])

        if self.mode == "imp":
            model = eng.fit_gbdt(base, **self.mining_gbdt)
            pool = sorted(model.split_features())
        else:
            pool = list(range(m))
        pairs = list(combinations(pool, 2))
        if not pairs:
            return FeaturePlan.identity(base, label_col)
        take = min(gamma, len(pairs))
        chosen = [pairs[i] for i in rng.choice(len(pairs), size=take, replace=False)]

        specs: list[FeatureSpec] = []
        seen: set[str] = set(base)
        for i, j in chosen:
            for op_name, inputs in pair_specs(base[i], base[j], self.operators):
                spec = FeatureSpec(op_name, inputs)
                if spec.name not in seen:
                    specs.append(spec)
                    seen.add(spec.name)
        eng.add_generated(specs)
        candidates = base + [s.name for s in specs]
        report = select_features(
            eng,
            candidates,
            alpha=self.alpha,
            beta=self.beta,
            theta=self.theta,
            top_k=top_k,
            gbdt_params=self.ranking_gbdt,
        )
        return FeaturePlan(specs, report["selected"], label_col).pruned()
