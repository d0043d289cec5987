"""Operator registry 𝒪 and its numpy / Spark-Column implementations.

The paper's experiments use the four basic arithmetic binary operators
{+, −, ×, ÷} (§V: "we only select four basic binary operators"), with
non-commutative operators treated as multiple operators (§III), i.e. an
unordered feature pair {a, b} yields six generated features:
a+b, a−b, b−a, a×b, a÷b, b÷a.

Division is guarded (denominator magnitude < 1e-12 → 0.0) identically on
both execution paths so the Spark transform and the numpy transform are
bit-for-bit comparable; a built-in binary one reads a Spark null (Arrow's
copy of a pandas NaN) as NaN, so it gives NaN where numpy does, never
null. The registry is open: new operators register with
:func:`register_operator` (framework requirement from §III).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from pyspark.sql import Column
from pyspark.sql import functions as F

__all__ = [
    "Operator",
    "BINARY_OPERATORS",
    "DEFAULT_BINARY_OPS",
    "UNARY_OPERATORS",
    "register_operator",
    "pair_specs",
]

_DIV_EPS = 1e-12


@dataclass(frozen=True)
class Operator:
    """One n-ary operator with parallel numpy and Spark implementations."""

    name: str
    arity: int
    commutative: bool
    np_fn: Callable[..., np.ndarray]
    spark_fn: Callable[..., Column]


def _np_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(np.abs(b) > _DIV_EPS, a / np.where(b == 0, 1.0, b), 0.0)
    return out


def _nan_for_null(fn: Callable[..., Column]) -> Callable[..., Column]:
    """``fn`` on its input columns with every null read as NaN."""
    return lambda *cols: fn(*(F.coalesce(c, F.lit(float("nan"))) for c in cols))


def _spark_div(a: Column, b: Column) -> Column:
    # Spark orders NaN above every double, so ``abs(NaN) > eps`` holds; a
    # NaN divisor gives 0, as in ``_np_div``
    return F.when(~F.isnan(b) & (F.abs(b) > F.lit(_DIV_EPS)), a / b).otherwise(F.lit(0.0))


BINARY_OPERATORS: dict[str, Operator] = {}
UNARY_OPERATORS: dict[str, Operator] = {}


def register_operator(op: Operator) -> Operator:
    """Add an operator to the registry (open set, §III requirement)."""
    table = {1: UNARY_OPERATORS, 2: BINARY_OPERATORS}.get(op.arity)
    if table is None:
        raise ValueError(f"unsupported arity {op.arity}")
    table[op.name] = op
    return op


register_operator(
    Operator("add", 2, True, lambda a, b: np.asarray(a) + np.asarray(b), _nan_for_null(operator.add))
)
register_operator(
    Operator("sub", 2, False, lambda a, b: np.asarray(a) - np.asarray(b), _nan_for_null(operator.sub))
)
register_operator(
    Operator("mul", 2, True, lambda a, b: np.asarray(a) * np.asarray(b), _nan_for_null(operator.mul))
)
register_operator(Operator("div", 2, False, _np_div, _nan_for_null(_spark_div)))

# A few unary operators for completeness of the framework surface (§III);
# the paper's evaluation does not use them, so they are opt-in.
register_operator(
    Operator(
        "log1p_abs",
        1,
        True,
        lambda a: np.log1p(np.abs(np.asarray(a, dtype=np.float64))),
        lambda a: F.log1p(F.abs(a)),
    )
)
register_operator(
    Operator("square", 1, True, lambda a: np.square(np.asarray(a, dtype=np.float64)), lambda a: a * a)
)
register_operator(
    Operator(
        "sqrt_abs",
        1,
        True,
        lambda a: np.sqrt(np.abs(np.asarray(a, dtype=np.float64))),
        lambda a: F.sqrt(F.abs(a)),
    )
)

DEFAULT_BINARY_OPS: tuple[str, ...] = ("add", "sub", "mul", "div")


def pair_specs(a: str, b: str, ops: tuple[str, ...] = DEFAULT_BINARY_OPS):
    """All (op, inputs) applications of ``ops`` to the unordered pair {a, b}.

    Commutative operators fire once on the canonically-sorted pair;
    non-commutative ones fire in both orders (§III: they count as distinct
    operators). Returns a list of ``(op_name, (x, y))`` tuples.
    """
    lo, hi = sorted((a, b))
    out: list[tuple[str, tuple[str, str]]] = []
    for name in ops:
        op = BINARY_OPERATORS[name]
        if op.commutative:
            out.append((name, (lo, hi)))
        else:
            out.append((name, (lo, hi)))
            out.append((name, (hi, lo)))
    return out
