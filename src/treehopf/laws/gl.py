"""The ``gl`` suite: the grafting Hopf algebra and its primitives."""

from .. import grossman_larson as gl
from ..exactlin import LinComb, swap_legs, tensor, tensor_multiply
from ..trees import LEAF, enumerate_trees, tuples_up_to_size
from . import _each, _hopf_laws, _law, _primitives, _trees


def laws(D: int) -> list:
    singles = _trees(D + 2)
    # the left factor stops at size D + 1, the total at D + 3
    pairs = [p for p in tuples_up_to_size(2, D + 3) if p[0].size <= D + 1]
    degrees = _each(range(1, D + 2))
    cop, product, term = gl.tree_coproduct, gl.tree_product, LinComb.term

    def primitive(p):
        return cop(p), tensor(gl.UNIT, term(p)) + tensor(term(p), gl.UNIT)

    return [
        *_hopf_laws("gl", singles, singles, cop, gl.tree_antipode, gl.product, LEAF),
        _law("gl.cocommutativity", singles, lambda t: (swap_legs(cop(t)), cop(t))),
        _law("gl.coproduct_mass", singles, lambda t: (cop(t).mass(), 2 ** t.fertility)),
        _law("gl.coproduct_grading", singles,
             lambda t: (all(a.size + b.size == t.size + 1
                            for a, b in cop(t).terms), True)),
        _law("gl.unit_laws", singles,
             lambda t: ((product(LEAF, t), product(t, LEAF)), (term(t), term(t)))),
        _law("gl.product_mass", pairs,
             lambda a, b: (product(a, b).mass(), b.size ** a.fertility)),
        _law("gl.product_grading", pairs,
             lambda a, b: (all(k.size == a.size + b.size - 1
                               for k in product(a, b).terms), True)),
        _law("gl.coproduct_multiplicative", pairs,
             lambda a, b: (gl.coproduct(product(a, b)),
                           tensor_multiply(cop(a), cop(b), product))),
        _law("gl.associativity", tuples_up_to_size(3, D + 3),
             lambda a, b, c: (gl.product(product(a, b), term(c)),
                              gl.product(term(a), product(b, c)))),
        # smallest non-commuting pair sits at total size 5 (total degree 3)
        _law("gl.noncommutative_witness", [()],
             lambda: (any(product(a, b) != product(b, a)
                          for a, b in tuples_up_to_size(2, 5)), True)),
        _law("gl.primitive_count", degrees,
             lambda n: (len(gl.primitive_basis(n)), len(enumerate_trees(n)))),
        _law("gl.primitive_dimension", degrees,
             lambda n: (gl.primitive_space_dimension(n), len(gl.primitive_basis(n)))),
        _law("gl.primitivity_equation", _each(_primitives(D + 1)), primitive),
    ]
