"""The tree Lie algebra: grafting star, cut-count oracle, bracket, phi/psi."""

import pytest

from treehopf import connes_kreimer as ck
from treehopf import grossman_larson as gl
from treehopf import tree_lie
from treehopf.exactlin import LinComb
from treehopf.trees import (LEAF, Forest, aut_order, enumerate_trees, graft_many,
                            parse_tree)

E = LEAF
L2 = parse_tree("[[]]")
L3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[][]]")
FORK = parse_tree("[[[]][]]")
STAR4 = parse_tree("[[][][]]")
BCHERRY = parse_tree("[[[][]]]")


def z(t):
    return LinComb.term(t)


def test_star_examples():
    assert tree_lie.star_trees(E, E) == z(L2)
    assert tree_lie.star_trees(E, L2) == z(CHERRY) + z(L3)
    assert tree_lie.star_trees(L2, E) == z(L3)
    assert tree_lie.star_trees(E, CHERRY) == z(STAR4) + 2 * z(FORK)


def test_star_mass_equals_host_size():
    for na in range(1, 4):
        for nb in range(1, 5):
            for ta in enumerate_trees(na):
                for tb in enumerate_trees(nb):
                    assert tree_lie.star_trees(ta, tb).mass() == tb.size


def test_star_equals_one_graft_per_vertex():
    """The single-scion grafting kernel against one ``trees.graft_many`` per host
    vertex, the form the star had before it."""
    for na in range(1, 6):
        for nb in range(1, 8 - na):
            for ta in enumerate_trees(na):
                for tb in enumerate_trees(nb):
                    assert tree_lie.star_trees(ta, tb) == \
                        LinComb((graft_many(tb, [(v, ta)]), 1) for v in range(tb.size))


def test_oracle_examples():
    assert ck.star_by_cut_counting(E, E) == z(L2)
    assert ck.star_by_cut_counting(E, CHERRY) == z(STAR4) + 2 * z(FORK)
    assert ck.star_by_cut_counting(L2, L2) == tree_lie.star_trees(L2, L2)


def test_oracle_equals_graft_form():
    for na in range(1, 4):
        for nb in range(1, 6 - na):
            for ta in enumerate_trees(na):
                for tb in enumerate_trees(nb):
                    assert ck.star_by_cut_counting(ta, tb) == \
                        tree_lie.star_trees(ta, tb)


def raw_cut_count(t1, t2, t):
    """One-edge cuts of t with branch t1 and trunk t2: the coefficient of
    t1 (x) t2 in the cut coproduct of t."""
    return ck.tree_coproduct_by_cuts(t).coeff((Forest((t1,)), Forest((t2,))))


def test_raw_cut_count_differs_by_symmetry():
    # severable-edge counts versus attachment-site counts
    assert raw_cut_count(E, L2, CHERRY) == 2
    assert tree_lie.star_trees(E, L2).coeff(CHERRY) == 1
    assert raw_cut_count(E, CHERRY, STAR4) == 3
    assert tree_lie.star_trees(E, CHERRY).coeff(STAR4) == 1
    assert raw_cut_count(E, CHERRY, FORK) == 1
    assert tree_lie.star_trees(E, CHERRY).coeff(FORK) == 2


def test_cut_count_rescaling_identity():
    # sites * |Aut(result)| == edges * |Aut(branch)| * |Aut(trunk)|
    for na in range(1, 4):
        for nb in range(1, 6 - na):
            for ta in enumerate_trees(na):
                for tb in enumerate_trees(nb):
                    grafted = tree_lie.star_trees(ta, tb)
                    for t in enumerate_trees(ta.size + tb.size):
                        sites = grafted.coeff(t)
                        edges = raw_cut_count(ta, tb, t)
                        assert sites * aut_order(t) == \
                            edges * aut_order(ta) * aut_order(tb)


def test_bracket_examples():
    assert tree_lie.bracket(z(E), z(E)) == LinComb.zero()
    assert tree_lie.bracket(z(E), z(L2)) == z(CHERRY)
    assert tree_lie.bracket(z(L2), z(E)) == -z(CHERRY)


def test_jacobi_small():
    trees = [t for n in range(1, 4) for t in enumerate_trees(n)]
    for ta in trees:
        for tb in trees:
            for tc in trees:
                if ta.size + tb.size + tc.size > 5:
                    continue
                a, b, c = z(ta), z(tb), z(tc)
                total = (tree_lie.bracket(tree_lie.bracket(a, b), c)
                         + tree_lie.bracket(tree_lie.bracket(b, c), a)
                         + tree_lie.bracket(tree_lie.bracket(c, a), b))
                assert total == LinComb.zero()


def test_star_not_associative():
    e = z(E)
    assert tree_lie.star(tree_lie.star(e, e), e) == z(L3)
    assert tree_lie.star(e, tree_lie.star(e, e)) == z(CHERRY) + z(L3)


def test_phi_examples():
    assert tree_lie.phi(z(L2)) == z(E)
    assert tree_lie.phi(z(L3)) == z(L2)
    with pytest.raises(ValueError):
        tree_lie.phi(z(CHERRY))


def test_psi_examples():
    assert tree_lie.psi(z(E)) == z(L2)
    assert tree_lie.psi(z(CHERRY)) == z(BCHERRY)


def test_phi_psi_inverse():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert tree_lie.phi(tree_lie.psi(z(t))) == z(t)
    for n in range(1, 6):
        for p in gl.primitive_basis(n):
            assert tree_lie.psi(tree_lie.phi(z(p))) == z(p)


def test_phi_is_a_lie_morphism():
    assert tree_lie.phi(gl.tree_product(L2, L3) - gl.tree_product(L3, L2)) == \
        tree_lie.bracket(z(E), z(L2))
    primitive = [p for n in range(1, 4) for p in gl.primitive_basis(n)]
    for p1 in primitive:
        for p2 in primitive:
            if p1.size + p2.size > 6:
                continue
            commutator = gl.tree_product(p1, p2) - gl.tree_product(p2, p1)
            assert all(t.fertility == 1 for t in commutator.terms)
            assert tree_lie.phi(commutator) == tree_lie.bracket(
                tree_lie.phi(z(p1)), tree_lie.phi(z(p2)))
