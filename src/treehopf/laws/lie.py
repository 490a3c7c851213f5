"""The ``lie`` suite: the tree Lie algebra, its star against the cut-count
oracle, and the maps to and from the primitive trees."""

from .. import connes_kreimer as ck
from .. import grossman_larson as gl
from .. import tree_lie
from ..exactlin import LinComb
from ..trees import LEAF, Tree, tuples_up_to_size
from . import _each, _law, _primitives, _trees


def laws(D: int) -> list:
    pairs = tuples_up_to_size(2, D + 1)
    primitive_pairs = [(Tree((a,)), Tree((b,))) for a, b in tuples_up_to_size(2, D - 1)]
    star, bracket, term = tree_lie.star, tree_lie.bracket, LinComb.term
    phi, psi = tree_lie.phi, tree_lie.psi

    def jacobi(*trees):
        a, b, c = map(term, trees)
        jac = bracket(bracket(a, b), c) + bracket(bracket(b, c), a)
        return jac + bracket(bracket(c, a), b), LinComb.zero()

    def commutator(p, q):
        return gl.tree_product(p, q) - gl.tree_product(q, p)

    return [
        _law("lie.star_oracle", pairs,
             lambda a, b: (tree_lie.star_trees(a, b),
                           ck.star_by_cut_counting(a, b))),
        _law("lie.bracket_antisymmetry", pairs,
             lambda a, b: (bracket(term(a), term(b)), -bracket(term(b), term(a)))),
        _law("lie.jacobi", tuples_up_to_size(3, D + 1), jacobi),
        _law("lie.phi_after_psi", _trees(D + 2),
             lambda t: (phi(psi(term(t))), term(t))),
        _law("lie.psi_after_phi", _each(_primitives(D + 1)),
             lambda p: (psi(phi(term(p))), term(p))),
        _law("lie.commutator_primitive_support", primitive_pairs,
             lambda p, q: (all(k.fertility == 1
                               for k in commutator(p, q).terms), True)),
        _law("lie.phi_morphism", primitive_pairs,
             lambda p, q: (phi(commutator(p, q)), bracket(phi(term(p)), phi(term(q))))),
        _law("lie.star_nonassociative_witness", [(LEAF,)],
             lambda t: (star(star(term(t), term(t)), term(t))
                        != star(term(t), star(term(t), term(t))), True)),
    ]
