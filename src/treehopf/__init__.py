"""Exact-arithmetic Hopf algebras on rooted trees.

Two Hopf algebra structures on the same combinatorial objects: the
commutative algebra of forests with the admissible-cut coproduct, and the
cocommutative algebra of trees with the grafting product; plus the tree Lie
algebra relating their primitive parts, degree-raising operators, a
degree-truncated graded dual, and exhaustive low-degree verification of all
the structural identities.
"""

import sys

from .exactlin import (LinComb, combine, encoding, exact, extend_bilinear,
                       extend_linear, map_each_leg, rank, solve_membership,
                       swap_legs, tensor, tensor_key, tensor_multiply)
from .trees import (EMPTY_FOREST, LEAF, Cut, Forest, Tree, TreeParseError,
                    admissible_cuts, aut_order, b_minus, b_plus, canonicalize,
                    count_trees_recurrence, enumerate_forests, enumerate_trees,
                    graft_many, parse_forest, parse_tree, preorder_subtrees)

__version__ = "0.1.0"

# The verification suites in run order: ``verify`` runs them and ``cli``
# offers them, read from here so that building the parser imports no suite.
SUITES = ("trees", "hr", "gl", "lie", "operators", "dual")

__all__ = [
    "Cut", "EMPTY_FOREST", "Forest", "LEAF", "LinComb", "SUITES", "Tree",
    "TreeParseError", "admissible_cuts", "aut_order", "b_minus", "b_plus",
    "canonicalize", "clear_caches", "combine", "count_trees_recurrence",
    "encoding", "enumerate_forests", "enumerate_trees", "exact",
    "extend_bilinear", "extend_linear", "graft_many", "map_each_leg",
    "parse_forest", "parse_tree", "preorder_subtrees", "rank",
    "solve_membership", "swap_legs", "tensor", "tensor_key", "tensor_multiply",
]


def clear_caches() -> None:
    """Empty every memo in the package, each of which is an ``lru_cache``.

    Cached values were computed by the kernels as they were when first
    asked for.  After a kernel is replaced and put back (a mutation check,
    a test), the callers' caches would keep values built by the
    replacement for the rest of the process; this drops them all.  Only
    modules already imported can hold cached values, so none is imported.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(__name__ + "."):
            continue
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
