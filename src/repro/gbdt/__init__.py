"""XGBoost substrate: from-scratch histogram GBDT (numpy + Spark backends)."""
from .binning import BinMapper, bin_matrix
from .boosting import GBDTClassifier, logistic_grad_hess, sigmoid
from .tree import Tree, TreeNode, assign_slots, build_histograms, grow_tree, histogram_weights

__all__ = [
    "BinMapper",
    "bin_matrix",
    "GBDTClassifier",
    "sigmoid",
    "logistic_grad_hess",
    "Tree",
    "TreeNode",
    "grow_tree",
    "assign_slots",
    "build_histograms",
    "histogram_weights",
]
