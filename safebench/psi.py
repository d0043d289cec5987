"""A seeded Ψ and an independent evaluator for Ψ's outputs.

``build_plan`` draws a :class:`repro.core.plan.FeaturePlan` from the
workload seed with as many generated specs as SAFE keeps on Data1 (60,
all four operators) without fitting, so every run checks every operator,
whatever its fits select. A few specs take generated features as inputs,
as a second SAFE iteration would produce.

``reference_outputs`` re-evaluates a plan with arithmetic written here,
not with ``repro.core.operators``, so the benchmark can check Ψ's outputs
(including the division guard) against code the program does not share.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

OPS = ("add", "sub", "mul", "div")
DIV_EPS = 1e-12  # |denominator| at or below this yields 0.0


def build_plan(seed: int, columns: list[str], label_col: str, *, n_first: int = 56,
               n_second: int = 4):
    """Seeded Ψ: ``n_first`` specs over base columns, ``n_second`` over
    generated ones; its outputs are every base column and every spec."""
    from repro.core.plan import FeaturePlan, FeatureSpec

    rng = np.random.default_rng(seed)
    specs: list[FeatureSpec] = []
    names: set[str] = set()

    def draw(pool: list[str]) -> None:
        while True:
            a, b = rng.choice(len(pool), size=2, replace=False)
            spec = FeatureSpec(OPS[len(specs) % len(OPS)], (pool[a], pool[b]))
            if spec.name not in names:
                names.add(spec.name)
                specs.append(spec)
                return

    for _ in range(n_first):
        draw(columns)
    first = [s.name for s in specs]
    for _ in range(n_second):
        draw(first)
    return FeaturePlan(specs, list(columns) + [s.name for s in specs], label_col)


def reference_outputs(plan, pdf: pd.DataFrame) -> tuple[np.ndarray, int]:
    """(Ψ(pdf) as an (n, len(outputs)) array, number of guarded divisions)."""
    cols = {c: pdf[c].to_numpy(dtype=np.float64) for c in pdf.columns if c != plan.label_col}
    guarded = 0
    for s in plan.specs:
        a, b = (cols[i] for i in s.inputs)
        if s.op == "add":
            out = a + b
        elif s.op == "sub":
            out = a - b
        elif s.op == "mul":
            out = a * b
        elif s.op == "div":
            ok = np.abs(b) > DIV_EPS
            guarded += int((~ok).sum())
            out = np.zeros_like(a)
            out[ok] = a[ok] / b[ok]
        else:
            raise ValueError(f"no reference for operator {s.op!r}")
        cols[s.name] = out
    return np.column_stack([cols[c] for c in plan.output_columns]), guarded


def zero_cells(pdf: pd.DataFrame, seed: int, label_col: str, share: float = 0.01) -> pd.DataFrame:
    """Copy of ``pdf`` with ``share`` of each feature column set to exactly 0.0,
    so division specs hit their guard on served records."""
    rng = np.random.default_rng(seed + 1)
    out = pdf.copy()
    for c in out.columns:
        if c != label_col:
            out.loc[rng.random(len(out)) < share, c] = 0.0
    return out
