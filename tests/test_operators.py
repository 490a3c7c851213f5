"""Growth and chain-multiplication operators on the grafting algebra."""

from fractions import Fraction
from math import comb, factorial, prod

import pytest

from treehopf import grossman_larson as gl
from treehopf import operators as ops
from treehopf.exactlin import LinComb, extend_linear, rank, tensor
from treehopf.trees import (LEAF, aut_order, enumerate_trees, parse_tree,
                            preorder_subtrees)

E = LEAF
L2 = parse_tree("[[]]")
L3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[][]]")


def elem(t):
    return LinComb.term(t)


def coderivation(op, x):
    """(op (x) id + id (x) op)(x), lifted through ``extend_linear`` and
    ``tensor``, independently of ``exactlin.map_each_leg``."""
    return extend_linear(lambda k: tensor(op(k[0]), elem(k[1]))
                         + tensor(elem(k[0]), op(k[1])))(x)


def test_growth_examples():
    assert ops.n_apply(elem(E)) == elem(L2)
    assert ops.n_apply(elem(L2)) == elem(CHERRY) + elem(L3)


def test_xk_values():
    assert ops.x_k(0) == gl.UNIT
    assert ops.x_k(1) == elem(L2)
    assert ops.x_k(2) == elem(L3) + elem(CHERRY)
    assert ops.x_k(3) == (elem(parse_tree("[[[[]]]]"))
                          + elem(parse_tree("[[[][]]]"))
                          + 3 * elem(parse_tree("[[[]][]]"))
                          + elem(parse_tree("[[][][]]")))
    with pytest.raises(ValueError):
        ops.x_k(-1)


def tree_factorial(t) -> int:
    """Product of the subtree sizes over all vertices."""
    return prod(s.size for s in preorder_subtrees(t))


def test_xk_closed_form():
    # coeff_t(x_k) = (k+1)! / (t! aut(t)), the Connes-Moscovici coefficient:
    # an oracle that takes no growth step and no product
    for k in range(8):
        xk = ops.x_k(k)
        assert set(xk.terms) == set(enumerate_trees(k + 1))
        for t in enumerate_trees(k + 1):
            assert xk.coeff(t) == \
                Fraction(factorial(k + 1), tree_factorial(t) * aut_order(t)), t


def test_xk_homogeneous():
    for k in range(6):
        assert all(t.size == k + 1 for t in ops.x_k(k).terms)


def test_growth_is_left_chain_multiplication():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert gl.tree_product(ops.CHAIN2, t) == ops.n_tree(t)


def test_growth_left_action_on_products():
    for na in range(1, 4):
        for nb in range(1, 4):
            for a in enumerate_trees(na):
                for b in enumerate_trees(nb):
                    ab = gl.tree_product(a, b)
                    assert ops.n_apply(ab) == gl.product(ops.n_tree(a), elem(b))


def test_growth_iterates():
    for b in [E, L2, L3, CHERRY]:
        iterated = elem(b)
        for k in range(1, 4):
            iterated = ops.n_apply(iterated)
            assert gl.product(ops.x_k(k), elem(b)) == iterated


def test_growth_coderivation():
    for n in range(1, 5):
        for t in enumerate_trees(n):
            dt = gl.tree_coproduct(t)
            assert gl.coproduct(ops.n_tree(t)) == coderivation(ops.n_tree, dt)


def test_xk_product_adds_indices():
    for m in range(5):
        for n in range(5 - m + 1):
            assert gl.product(ops.x_k(m), ops.x_k(n)) == ops.x_k(m + n)
            assert gl.product(ops.x_k(n), ops.x_k(m)) == ops.x_k(m + n)


def test_xk_counit():
    for m in range(6):
        assert gl.counit(ops.x_k(m)) == (1 if m == 0 else 0)


def test_xk_binomial_coproduct():
    for m in range(5):
        expected = LinComb.zero()
        for i in range(m + 1):
            expected = expected + comb(m, i) * tensor(ops.x_k(i), ops.x_k(m - i))
        assert gl.coproduct(ops.x_k(m)) == expected


def test_xk_antipode_alternates():
    for m in range(5):
        assert gl.antipode(ops.x_k(m)) == (-1) ** m * ops.x_k(m)


def test_xk_linearly_independent():
    assert rank([ops.x_k(m) for m in range(7)]) == 7


def test_chain_is_primitive():
    chain = elem(ops.CHAIN2)
    assert gl.tree_coproduct(ops.CHAIN2) == \
        tensor(gl.UNIT, chain) + tensor(chain, gl.UNIT)


def test_m_examples():
    assert ops.m_apply(elem(E)) == LinComb.zero()
    assert ops.m_apply(elem(L2)) == elem(CHERRY) + elem(L3)
    assert ops.m_apply(2 * elem(E) + elem(L2)) == elem(CHERRY) + elem(L3)


def test_m_closed_formula():
    chain = elem(ops.CHAIN2)
    for n in range(1, 5):
        for t in enumerate_trees(n):
            eps = Fraction(1 if t == E else 0)
            assert ops.m_tree(t) == gl.product(elem(t) - eps * gl.UNIT, chain)


def test_m_derivation_with_counit_action():
    for na in range(1, 4):
        for nb in range(1, 4):
            for a in enumerate_trees(na):
                for b in enumerate_trees(nb):
                    ab = gl.tree_product(a, b)
                    rhs = gl.product(elem(a), ops.m_tree(b))
                    if b == E:
                        rhs = rhs + ops.m_tree(a)
                    assert ops.m_apply(ab) == rhs


def test_m_coproduct_identity():
    chain = elem(ops.CHAIN2)
    for n in range(1, 5):
        for t in enumerate_trees(n):
            eps = Fraction(1 if t == E else 0)
            reduced = elem(t) - eps * gl.UNIT
            dt = gl.tree_coproduct(t)
            expected = (coderivation(ops.m_tree, dt)
                        + tensor(reduced, chain) + tensor(chain, reduced))
            assert gl.coproduct(ops.m_tree(t)) == expected
