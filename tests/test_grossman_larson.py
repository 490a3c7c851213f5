"""The grafting Hopf algebra: product, split coproduct, antipode, primitives."""

import itertools
from fractions import Fraction
from math import prod

import pytest

from conftest import multiset_site_product, subset_split_coproduct
from treehopf import grossman_larson as gl
from treehopf.exactlin import LinComb, combine, swap_legs, tensor, tensor_key
from treehopf.trees import (LEAF, enumerate_trees, graft_many, parse_tree, runs,
                            tuples_up_to_size)

E = LEAF
L2 = parse_tree("[[]]")
L3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[][]]")
FORK = parse_tree("[[[]][]]")
STAR4 = parse_tree("[[][][]]")
BCHERRY = parse_tree("[[[][]]]")


def elem(t):
    return LinComb.term(t)


def test_unit_laws():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert gl.tree_product(E, t) == elem(t)
            assert gl.tree_product(t, E) == elem(t)


def test_product_chain_squared():
    assert gl.tree_product(L2, L2) == elem(CHERRY) + elem(L3)


def test_product_cherry_by_chain():
    assert gl.tree_product(CHERRY, L2) == \
        elem(STAR4) + elem(BCHERRY) + 2 * elem(FORK)


def test_product_chain_by_cherry():
    assert gl.tree_product(L2, CHERRY) == elem(STAR4) + 2 * elem(FORK)


def test_product_mass_conservation():
    for na in range(1, 5):
        for nb in range(1, 5):
            for ta in enumerate_trees(na):
                for tb in enumerate_trees(nb):
                    p = gl.tree_product(ta, tb)
                    assert p.mass() == Fraction(tb.size ** ta.fertility)
                    assert all(k.size == ta.size + tb.size - 1 for k in p.terms)


def test_product_matches_tuple_enumeration():
    # every one of the size(b) ** r ordered assignments, one graft each;
    # stars such as [[][][][][]] exercise the multinomial weights most
    trees = [t for n in range(1, 7) for t in enumerate_trees(n)]
    hosts = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for a in trees:
        for b in hosts:
            out = {}
            for sites in itertools.product(range(b.size), repeat=a.fertility):
                grown = graft_many(b, zip(sites, a.children))
                out[grown] = out.get(grown, 0) + 1
            assert gl.tree_product(a, b) == LinComb(out), (a, b)


def test_product_matches_multiset_oracle():
    # the product by multisets of host vertices, on every pair whose
    # product has at most 9 vertices
    pairs = tuples_up_to_size(2, 10)
    assert len(pairs) == 2025
    for a, b in pairs:
        assert gl.tree_product(a, b) == multiset_site_product(a, b), (a, b)


def test_product_not_commutative():
    assert gl.tree_product(L2, L3) != gl.tree_product(L3, L2)


def test_product_bilinear():
    two_e = LinComb.term(E, 2)
    assert gl.product(two_e, elem(L2)) == 2 * elem(L2)
    assert gl.product(LinComb.zero(), elem(CHERRY)) == LinComb.zero()


def test_associativity_small():
    for na in range(1, 4):
        for nb in range(1, 4):
            for nc in range(1, 8 - na - nb):
                for ta in enumerate_trees(na):
                    for tb in enumerate_trees(nb):
                        for tc in enumerate_trees(nc):
                            left = gl.product(gl.tree_product(ta, tb), elem(tc))
                            right = gl.product(elem(ta), gl.tree_product(tb, tc))
                            assert left == right


def test_coproduct_examples():
    assert gl.tree_coproduct(E) == LinComb.term(tensor_key(E, E))
    assert gl.tree_coproduct(L2) == \
        LinComb.term(tensor_key(E, L2)) + LinComb.term(tensor_key(L2, E))
    assert gl.tree_coproduct(CHERRY) == (
        LinComb.term(tensor_key(E, CHERRY)) + LinComb.term(tensor_key(CHERRY, E))
        + LinComb.term(tensor_key(L2, L2), 2))
    assert gl.tree_coproduct(FORK) == (
        LinComb.term(tensor_key(E, FORK)) + LinComb.term(tensor_key(FORK, E))
        + LinComb.term(tensor_key(L3, L2)) + LinComb.term(tensor_key(L2, L3)))


def test_coproduct_matches_subset_enumeration():
    # one term per subset of child slots, 2 ** r of them
    for n in range(1, 10):
        for t in enumerate_trees(n):
            assert gl.tree_coproduct(t) == subset_split_coproduct(t), t


def test_splits_take_one_count_per_run():
    # a run of m equal subtrees splits m + 1 ways: a 30-leaf corolla has 31
    # splits, not 2 ** 30 subsets
    splits = list(gl._splits(parse_tree("[" + "[]" * 30 + "]").children))
    assert len(splits) == 31
    assert sum(count for count, _, _ in splits) == 2 ** 30
    for t in (t for n in range(1, 9) for t in enumerate_trees(n)):
        assert len(list(gl._splits(t.children))) == \
            prod(m + 1 for _, m in runs(t.children)), t


def test_coproduct_mass_and_cocommutativity():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            cop = gl.tree_coproduct(t)
            assert cop.mass() == Fraction(2 ** t.fertility)
            assert swap_legs(cop) == cop


def test_counit():
    assert gl.counit(elem(E)) == 1
    assert gl.counit(elem(L3)) == 0
    assert gl.counit(2 * elem(E) - 7 * elem(L2)) == 2


def test_antipode_examples():
    assert gl.antipode(elem(E)) == elem(E)
    assert gl.antipode(elem(L2)) == -elem(L2)
    assert gl.antipode(elem(CHERRY)) == elem(CHERRY) + 2 * elem(L3)


def test_antipode_axiom_small():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            expected = gl.UNIT if t == E else LinComb.zero()
            acc = LinComb.zero()
            for (left, right), c in gl.tree_coproduct(t).terms.items():
                acc = combine(acc, gl.product(gl.tree_antipode(left),
                                              elem(right)), c)
            assert acc == expected


def test_coproduct_multiplicative_small():
    from treehopf.exactlin import tensor_multiply
    for na in range(1, 4):
        for nb in range(1, 5 - na + 1):
            for ta in enumerate_trees(na):
                for tb in enumerate_trees(nb):
                    assert gl.coproduct(gl.tree_product(ta, tb)) == tensor_multiply(
                        gl.tree_coproduct(ta), gl.tree_coproduct(tb), gl.tree_product)


def test_primitive_basis():
    assert gl.primitive_basis(1) == [L2]
    assert gl.primitive_basis(2) == [L3]
    for n in range(1, 7):
        basis = gl.primitive_basis(n)
        assert len(basis) == len(enumerate_trees(n))
        assert all(t.fertility == 1 and t.size == n + 1 for t in basis)
    with pytest.raises(ValueError):
        gl.primitive_basis(0)


def test_primitive_members_satisfy_equation():
    for n in range(1, 5):
        for p in gl.primitive_basis(n):
            assert gl.tree_coproduct(p) == \
                tensor(gl.UNIT, elem(p)) + tensor(elem(p), gl.UNIT)


def test_primitive_space_dimension():
    assert gl.primitive_space_dimension(1) == 1
    assert gl.primitive_space_dimension(2) == 1
    assert gl.primitive_space_dimension(3) == 2
    assert gl.primitive_space_dimension(4) == 4
    for n in range(1, 6):
        assert gl.primitive_space_dimension(n) == len(gl.primitive_basis(n))
