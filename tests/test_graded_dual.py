"""Degree-truncated dual: pairing, dual coproduct, transpose, cocycle check.

A functional is a ``LinComb`` over the tree basis; t* is ``LinComb.term(t)``.
"""

from fractions import Fraction

import pytest

from conftest import (count_cases, dense_dual_coproduct, dense_dual_product,
                      dense_hochschild_cases, dense_m_dual, dense_product_pairing,
                      dense_transpose_coherence, dual_coproduct, hochschild_check,
                      is_normalised, nonzero_cases, pair)
from treehopf import connes_kreimer as ck
from treehopf import graded_dual as gd
from treehopf import grossman_larson as gl
from treehopf import operators as ops
from treehopf.exactlin import LinComb, tensor_key
from treehopf.laws import dual as dual_laws
from treehopf.laws import sparse_cases
from treehopf.laws.dual import hochschild_cases
from treehopf.trees import LEAF, parse_tree, trees_up_to_degree

E = LEAF
L2 = parse_tree("[[]]")
L3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[][]]")
coordinate = LinComb.term  # t* as a functional


def test_pair_examples():
    assert pair(coordinate(E), LinComb.term(E)) == 1
    assert pair(coordinate(E), LinComb.term(L2)) == 0
    assert pair(coordinate(L2), ops.x_k(2)) == 0
    assert pair(coordinate(L3), ops.x_k(2)) == 1


def test_dual_coproduct_of_counit():
    assert dual_coproduct(coordinate(E), 3) == LinComb.term(tensor_key(E, E))


def test_dual_coproduct_of_chain():
    assert dual_coproduct(coordinate(L2), 1) == \
        LinComb.term(tensor_key(E, L2)) + LinComb.term(tensor_key(L2, E))


def test_dual_coproduct_of_cherry_pairs_chain_squared():
    cop = dual_coproduct(coordinate(CHERRY), 2)
    assert cop.coeff((L2, L2)) == 1


def test_dual_coproduct_reproduces_pairing():
    for t in trees_up_to_degree(3):
        f = coordinate(t)
        cop = dual_coproduct(f, gd.tree_degree(t))
        for a in trees_up_to_degree(3):
            for b in trees_up_to_degree(3):
                if gd.tree_degree(a) + gd.tree_degree(b) > 3:
                    continue
                assert gl.tree_product(a, b).coeff(t) == cop.coeff((a, b))


def test_m_dual_examples():
    assert gd.m_dual(coordinate(E)) == LinComb.zero()
    assert gd.m_dual(coordinate(L3)).terms == {L2: 1}
    assert gd.m_dual(coordinate(CHERRY)).terms == {L2: 1}


def test_m_dual_drops_degree():
    # the transpose of a coordinate lives one degree below it, and the top
    # of the support sets the index bound: a sum of coordinates of two
    # degrees transposes term by term
    for t in trees_up_to_degree(4):
        assert all(gd.tree_degree(a) == gd.tree_degree(t) - 1
                   for a in gd.m_dual(coordinate(t)).terms), t
    assert gd.m_dual(coordinate(L2) + coordinate(CHERRY)) == \
        gd.m_dual(coordinate(L2)) + gd.m_dual(coordinate(CHERRY))


def test_transpose_coherence():
    for t in trees_up_to_degree(3):
        f = coordinate(t)
        transpose = gd.m_dual(f)
        for x in trees_up_to_degree(3):
            assert pair(transpose, LinComb.term(x)) == \
                pair(f, ops.m_apply(LinComb.term(x)))


def test_convolution_unit_and_commutativity():
    bound = 3
    eps = coordinate(LEAF)
    for t in trees_up_to_degree(bound):
        f = coordinate(t)
        assert gd.dual_product(eps, f, bound) == f
        assert gd.dual_product(f, eps, bound) == f
    for t1 in trees_up_to_degree(2):
        for t2 in trees_up_to_degree(2):
            f1, f2 = coordinate(t1), coordinate(t2)
            assert gd.dual_product(f1, f2, 3) == gd.dual_product(f2, f1, 3)


def test_hochschild_check_passes():
    tiny = hochschild_check(1)
    assert tiny["violations"] == [] and tiny["checked"] > 0
    report = hochschild_check(4)
    assert report["violations"] == []
    with pytest.raises(ValueError):
        hochschild_check(0)


def _mutated(replacement):
    target, image = replacement

    def action(t):
        if t == target:
            return image
        return ops.m_tree(t)

    return action


@pytest.mark.parametrize("replacement", [
    (E, LinComb.term(parse_tree("[[]]"))),          # unit no longer killed
    (L2, LinComb.zero()),                           # image erased
    (CHERRY, None),                                 # image shifted by the unit
    (L3, LinComb.term(CHERRY, 2)),                  # off grade: degree kept
])
def test_hochschild_check_catches_mutations(replacement):
    target, image = replacement
    if image is None:
        image = ops.m_tree(target) + LinComb.term(E)
    action = _mutated((target, image))
    report = hochschild_check(4, action)
    assert len(report["violations"]) >= 1
    # the cases skipped on the mutated supports are those the dense loop
    # finds 0 on both sides
    sparse = list(hochschild_cases(4, action))
    dense = list(dense_hochschild_cases(4, action))
    assert nonzero_cases(sparse) == nonzero_cases(dense)
    assert count_cases(sparse) == len(dense) == report["checked"]


def test_dual_coefficients_are_normalised():
    f = LinComb({L3: Fraction(4, 2), CHERRY: Fraction(1, 2), L2: 3})
    assert f.terms == {L3: 2, CHERRY: Fraction(1, 2), L2: 3}
    assert all(is_normalised(c) for c in f.terms.values())
    assert pair(f, ops.x_k(2)) == Fraction(5, 2)
    assert type(pair(coordinate(L3), ops.x_k(2))) is int
    half = coordinate(E, Fraction(1, 2))
    for t1 in trees_up_to_degree(2):
        g = coordinate(t1)
        for h in (gd.dual_product(g, g, 3), gd.dual_product(half, g, 3),
                  gd.m_dual(g)):
            assert all(is_normalised(c) for c in h.terms.values()), h
    assert gd.dual_product(half, half, 3).terms == {E: Fraction(1, 4)}


@pytest.mark.parametrize("D", range(1, 7))
def test_sparse_dual_rows_match_dense_oracles(D):
    rows = dict(dual_laws.laws(D))
    for law, dense in (("dual.hochschild", dense_hochschild_cases(D)),
                       ("dual.transpose_coherence", dense_transpose_coherence(D)),
                       ("dual.product_pairing", dense_product_pairing(D))):
        sparse, dense = list(rows[law]), list(dense)
        assert nonzero_cases(sparse) == nonzero_cases(dense), law
        assert count_cases(sparse) == len(dense), law
        computed = sum(type(case) is not int for case in sparse)
        if D >= 4:
            # the cases off the supports are counted, not computed
            assert 4 * computed < len(dense), (law, computed, len(dense))


# kernels the sparse rows read through their indexes, each broken
BROKEN_KERNELS = {
    "tree_product": (gl, "tree_product",
                     lambda k: lambda a, b: LinComb(list(k(a, b).terms.items())[1:])),
    # off grade: the dual coproduct of t* keeps only the pairs within deg t
    "tree_product_off_grade": (gl, "tree_product",
                               lambda k: lambda a, b: k(a, b) + LinComb.term(LEAF)),
    "m_tree": (ops, "m_tree", lambda k: lambda t: k(t) + LinComb.term(LEAF)),
    "tree_coproduct_recursive": (ck, "tree_coproduct_recursive",
                                 lambda k: lambda t: 2 * k(t)),
}


@pytest.mark.parametrize("D", (3, 4))
@pytest.mark.parametrize("module, kernel, breaker", BROKEN_KERNELS.values(),
                         ids=BROKEN_KERNELS)
def test_sparse_dual_rows_match_dense_oracles_under_broken_kernels(
        module, kernel, breaker, D, monkeypatch, fresh_caches):
    # a sparse row and its dense oracle read the same broken kernel, so
    # they agree case by case, violations included
    monkeypatch.setattr(module, kernel, breaker(getattr(module, kernel)))
    rows = dict(dual_laws.laws(D))
    violated = False
    for law, dense in (("dual.hochschild", dense_hochschild_cases(D)),
                       ("dual.transpose_coherence", dense_transpose_coherence(D)),
                       ("dual.product_pairing", dense_product_pairing(D))):
        sparse, dense = list(rows[law]), list(dense)
        assert nonzero_cases(sparse) == nonzero_cases(dense), law
        assert count_cases(sparse) == len(dense), law
        violated |= any(lhs != rhs for _, lhs, rhs in nonzero_cases(sparse))
    assert violated


def test_sparse_cases():
    position = {(k,): i for i, k in enumerate("abcdef")}
    # the gaps are counted in order, the trailing one too, and a key
    # outside the position numbering is dropped
    assert list(sparse_cases(position, ("t",), {("b",): 1, ("z",): 5},
                             {("d",): 2, ("b",): 3})) == \
        [1, (("t", "b"), 1, 3), 1, (("t", "d"), 0, 2), 2]
    assert list(sparse_cases(position, (), {("f",): 1}, {})) == \
        [5, (("f",), 1, 0)]
    # a key whose side cancelled to 0 is still one case
    assert list(sparse_cases(position, (), {("a",): 0}, {})) == \
        [(("a",), 0, 0), 5]
    assert list(sparse_cases(position, (), {}, {})) == [6]
    assert list(sparse_cases({}, (), {("a",): 1}, {})) == []


def test_sparse_maps_match_dense_on_coordinates():
    trees = trees_up_to_degree(4)
    for t in trees:
        f = coordinate(t)
        assert gd.m_dual(f) == dense_m_dual(f)
        for top in range(gd.tree_degree(t), 5):
            assert dual_coproduct(f, top) == dense_dual_coproduct(f, top)
    for t1 in trees:
        for t2 in trees:
            f1, f2 = coordinate(t1), coordinate(t2)
            for bound in range(5):
                assert gd.dual_product(f1, f2, bound) == \
                    dense_dual_product(f1, f2, bound), (t1, t2, bound)
