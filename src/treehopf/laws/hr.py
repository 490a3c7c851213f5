"""The ``hr`` suite: the forest Hopf algebra with the cut coproduct."""

from .. import connes_kreimer as ck
from ..exactlin import LinComb, swap_legs, tensor, tensor_key
from ..trees import (EMPTY_FOREST, LEAF, Forest, Tree, b_minus, b_plus,
                     tuples_up_to_size)
from . import _each, _forests, _hopf_laws, _law, _trees

CHERRY = Tree((LEAF, LEAF))


def laws(D: int) -> list:
    forests = _forests(D + 1)
    pairs = [(b_minus(a), b_minus(b)) for a, b in tuples_up_to_size(2, D + 3)]
    ks = _each(range(1, max(2, D - 1) + 1))
    cop, growth, term = ck.forest_coproduct, ck.forest_growth, LinComb.term

    # the paper's cocycle identity; the kernel is built by this recursion,
    # so the row restates it, and coproduct_forms_agree ties it to the cuts
    def root_cocycle(f):
        grafted = cop(f).map_keys(lambda k: tensor_key(k[0], Forest((b_plus(k[1]),))))
        rooted = ck.add_root(term(f))
        return ck.coproduct(rooted), tensor(rooted, ck.UNIT) + grafted

    return [
        *_hopf_laws("hr", forests, _forests(D), cop, ck.forest_antipode, ck.product,
                    EMPTY_FOREST),
        _law("hr.coproduct_grading", forests,
             lambda f: (all(a.weight + b.weight == f.weight
                            for a, b in cop(f).terms), True)),
        _law("hr.root_cocycle", forests, root_cocycle),
        _law("hr.growth_grading", forests,
             lambda f: (all(k.weight == f.weight + 1 for k in growth(f).terms), True)),
        _law("hr.antipode_grading", _forests(D),
             lambda f: (all(k.weight == f.weight
                            for k in ck.forest_antipode(f).terms), True)),
        _law("hr.coproduct_multiplicative", pairs,
             lambda a, b: (cop(a.union(b)), ck.multiply_tensors(cop(a), cop(b)))),
        _law("hr.growth_leibniz", pairs,
             lambda a, b: (growth(a.union(b)), ck.product(growth(a), term(b))
                           + ck.product(term(a), growth(b)))),
        _law("hr.coproduct_forms_agree", _trees(D + 2),
             lambda t: (ck.tree_coproduct_by_cuts(t), ck.tree_coproduct_recursive(t))),
        _law("hr.noncocommutative_witness", [(CHERRY,)],
             lambda t: (swap_legs(ck.tree_coproduct_by_cuts(t))
                        != ck.tree_coproduct_by_cuts(t), True)),
        _law("hr.delta_coproduct_closure", ks,
             lambda k: (ck.delta_coproduct_membership(k) is not None, True)),
        _law("hr.delta_self_membership", ks,
             lambda k: (ck.delta_membership(ck.delta(k), k) is not None, True)),
        _law("hr.delta_span_negative_control", [(CHERRY,)],
             lambda t: (ck.delta_membership(ck.tree_monomial(t), 3) is None, True)),
    ]
