"""SAFE core: operators, mining, gain-ratio sorting, selection, pipeline."""
from .combos import FeatureCombo, mine_combos
from .correlation import DEFAULT_THETA, PEARSON_BANDS, remove_redundant
from .engine import LocalEngine, SparkEngine
from .gain_ratio import top_combos
from .iv import DEFAULT_ALPHA, DEFAULT_BETA, IV_BANDS
from .operators import BINARY_OPERATORS, DEFAULT_BINARY_OPS, UNARY_OPERATORS, pair_specs
from .pipeline import SafePipeline
from .plan import FeaturePlan, FeatureSpec
from .scan import ColumnStats
from .selection import select_features

__all__ = [
    "FeatureCombo",
    "mine_combos",
    "PEARSON_BANDS",
    "DEFAULT_THETA",
    "remove_redundant",
    "LocalEngine",
    "SparkEngine",
    "top_combos",
    "IV_BANDS",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "BINARY_OPERATORS",
    "UNARY_OPERATORS",
    "DEFAULT_BINARY_OPS",
    "pair_specs",
    "SafePipeline",
    "FeaturePlan",
    "FeatureSpec",
    "select_features",
    "ColumnStats",
]
