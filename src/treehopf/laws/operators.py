"""The ``operators`` suite: leaf growth, the ``x_k`` chain and the chain
multiplication on the grafting algebra."""

from math import comb

from .. import grossman_larson as gl
from .. import operators as ops
from ..exactlin import LinComb, map_each_leg, rank, tensor
from ..trees import LEAF, tuples_up_to_size
from . import _each, _law, _trees


def laws(D: int) -> list:
    basis = _trees(D + 1)
    pairs = tuples_up_to_size(2, D + 1)
    orders = _each(range(D + 2))
    chain, term, x_k = LinComb.term(ops.CHAIN2), LinComb.term, ops.x_k

    def coderivation(op, b):
        return map_each_leg(op, gl.tree_coproduct(b))

    def reduced(b):
        return term(b) - (gl.UNIT if b == LEAF else LinComb.zero())

    def derivation(a, b):
        rhs = gl.product(term(a), ops.m_tree(b))
        if b == LEAF:
            rhs = rhs + ops.m_tree(a)
        return ops.m_apply(gl.tree_product(a, b)), rhs

    def growth_iterates():
        for (b,) in basis:
            iterated = term(b)
            for k in range(1, min(4, D) + 1):
                iterated = ops.n_apply(iterated)
                yield (k, b), gl.product(x_k(k), term(b)), iterated

    def binomial(m):
        return sum((comb(m, i) * tensor(x_k(i), x_k(m - i)) for i in range(m + 1)),
                   LinComb.zero())

    return [
        _law("op.growth_is_left_chain_mult", basis,
             lambda b: (gl.tree_product(ops.CHAIN2, b), ops.n_tree(b))),
        _law("op.growth_coderivation", basis,
             lambda b: (gl.coproduct(ops.n_tree(b)), coderivation(ops.n_tree, b))),
        _law("op.chain_mult_formula", basis,
             lambda b: (ops.m_tree(b), gl.product(reduced(b), chain))),
        _law("op.chain_mult_coproduct", basis,
             lambda b: (gl.coproduct(ops.m_tree(b)), coderivation(ops.m_tree, b)
                        + tensor(reduced(b), chain) + tensor(chain, reduced(b)))),
        _law("op.growth_left_action", pairs,
             lambda a, b: (ops.n_apply(gl.tree_product(a, b)),
                           gl.product(ops.n_tree(a), term(b)))),
        _law("op.chain_mult_derivation", pairs, derivation),
        ("op.growth_iterates", growth_iterates()),
        _law("op.growth_chain", _each(range(1, D + 1)),
             lambda k: ((gl.product(x_k(k), x_k(1)), gl.product(x_k(1), x_k(k))),
                        (x_k(k + 1), x_k(k + 1)))),
        _law("op.xk_product",
             [(m, n) for m in range(D + 3) for n in range(D + 3 - m)],
             lambda m, n: (gl.product(x_k(m), x_k(n)), x_k(m + n))),
        _law("op.xk_counit", orders, lambda m: (gl.counit(x_k(m)), 1 if m == 0 else 0)),
        _law("op.xk_degree", orders,
             lambda m: (all(t.size == m + 1 for t in x_k(m).terms), True)),
        _law("op.xk_coproduct_binomial", orders,
             lambda m: (gl.coproduct(x_k(m)), binomial(m))),
        _law("op.xk_antipode", orders,
             lambda m: (gl.antipode(x_k(m)), (-1) ** m * x_k(m))),
        _law("op.xk_independent", [(f"0..{D + 1}",)],
             lambda _: (rank([x_k(m) for m in range(D + 2)]), D + 2)),
        _law("op.chain_primitive", [(ops.CHAIN2,)],
             lambda c: (gl.tree_coproduct(c),
                        tensor(gl.UNIT, chain) + tensor(chain, gl.UNIT))),
    ]
