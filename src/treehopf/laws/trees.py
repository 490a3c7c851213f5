"""The ``trees`` suite: enumeration, root surgery, cuts, growth and the
canonical form, on the tree kernels alone.  The three cut rows read each
tree's cuts from one table that ``laws(D)`` builds and that ends with the
suite, since ``admissible_cuts`` caches nothing."""

from ..trees import (Tree, admissible_cuts, b_minus, b_plus, canonicalize,
                     count_trees_recurrence, enumerate_forests, enumerate_trees,
                     leaf_growth, parse_tree, preorder_subtrees)
from . import _each, _forests, _law, _trees


def _scrambled_nested(t: Tree, mode: int):
    kids = [_scrambled_nested(c, mode) for c in t.children]
    return kids[::-1] if mode == 0 else kids[1:] + kids[:1]


def laws(D: int) -> list:
    # each tree's cuts, enumerated once for the three cut rows
    domain = _trees(D + 1)
    cuts_of = {t: admissible_cuts(t) for (t,) in domain}

    def cuts():
        for t, tree_cuts in cuts_of.items():
            subs = preorder_subtrees(t)
            for cut in tree_cuts:
                yield (t, list(cut.edges)), subs, cut

    def antichain(subs, edges):
        return all(not (v < w < v + subs[v].size) for v in edges for w in edges)

    return [
        _law("trees.count", _each(range(1, D + 6)),
             lambda n: (len(enumerate_trees(n)), count_trees_recurrence(n))),
        _law("trees.b_plus_after_b_minus", _trees(D + 3),
             lambda t: (b_plus(b_minus(t)), t)),
        _law("trees.b_minus_after_b_plus", _forests(D + 2),
             lambda f: (b_minus(b_plus(f)), f)),
        _law("trees.b_plus_bijection", _each(range(D + 3)),
             lambda w: (sorted(b_plus(f).encoding for f in enumerate_forests(w)),
                        sorted(t.encoding for t in enumerate_trees(w + 1)))),
        ("trees.cut_weight", ((args, cut.branch.weight + cut.trunk.size, args[0].size)
                              for args, _, cut in cuts())),
        ("trees.cut_antichain", ((args, antichain(subs, cut.edges), True)
                                 for args, subs, cut in cuts())),
        _law("trees.single_cut_count", domain,
             lambda t: (sum(len(c.edges) == 1 for c in cuts_of[t]), t.size - 1)),
        _law("trees.growth_count", _trees(D + 1),
             lambda t: (leaf_growth(t).mass(), t.size)),
        _law("trees.canonical_invariance",
             [(t, mode) for (t,) in _trees(D) for mode in (0, 1)],
             lambda t, mode: (canonicalize(_scrambled_nested(t, mode)), t)),
        _law("trees.parse_roundtrip", _trees(D), lambda t: (parse_tree(t.encoding), t)),
    ]
