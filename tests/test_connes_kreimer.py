"""The forest Hopf algebra: cut coproduct, antipode, growth, delta chain."""

import pytest

from treehopf import connes_kreimer as ck
from treehopf import tree_lie, verify
from treehopf.exactlin import LinComb, combine, swap_legs, tensor, tensor_key
from treehopf.trees import (EMPTY_FOREST, LEAF, Forest, admissible_cuts,
                            enumerate_forests, enumerate_trees, graft_many,
                            parse_forest, parse_tree)

E = parse_tree("[]")
L2 = parse_tree("[[]]")
L3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[][]]")


def forest(text):
    return parse_forest(text)


def elem(text):
    return LinComb.term(forest(text))


def tens(left, right, coeff=1):
    return LinComb.term(tensor_key(forest(left), forest(right)), coeff)


def test_product_examples():
    assert ck.product(ck.UNIT, elem("[[]]")) == elem("[[]]")
    assert ck.product(elem("[]"), elem("[]")) == elem("[] []")
    assert ck.product(elem("[]") + elem("[[]]"), elem("[]")) == \
        elem("[] []") + elem("[] [[]]")


def test_product_is_commutative():
    for w in range(4):
        for fa in enumerate_forests(w):
            for fb in enumerate_forests(3):
                a, b = LinComb.term(fa), LinComb.term(fb)
                assert ck.product(a, b) == ck.product(b, a)


def test_coproduct_unit():
    assert ck.coproduct(ck.UNIT) == tens("1", "1")


def test_coproduct_chain2():
    assert ck.tree_coproduct_by_cuts(L2) == \
        tens("1", "[[]]") + tens("[[]]", "1") + tens("[]", "[]")


def test_coproduct_cherry_has_multiplicity_two():
    assert ck.tree_coproduct_by_cuts(CHERRY) == (
        tens("1", "[[][]]") + tens("[[][]]", "1")
        + tens("[]", "[[]]", 2) + tens("[] []", "[]"))


def test_recursive_coproduct_examples():
    assert ck.tree_coproduct_recursive(E) == tens("[]", "1") + tens("1", "[]")
    assert ck.tree_coproduct_recursive(L3) == (
        tens("1", "[[[]]]") + tens("[[[]]]", "1")
        + tens("[[]]", "[]") + tens("[]", "[[]]"))


def test_coproduct_forms_agree():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert ck.tree_coproduct_by_cuts(t) == ck.tree_coproduct_recursive(t)


def test_counit():
    assert ck.counit(ck.UNIT) == 1
    assert ck.counit(elem("[[]]")) == 0
    assert ck.counit(5 * ck.UNIT + 3 * elem("[]")) == 5


def test_counit_axiom_small():
    for w in range(5):
        for f in enumerate_forests(w):
            cop = ck.forest_coproduct(f)
            left = LinComb((b, c) for (a, b), c in cop.terms.items()
                           if a == EMPTY_FOREST)
            right = LinComb((a, c) for (a, b), c in cop.terms.items()
                            if b == EMPTY_FOREST)
            assert left == LinComb.term(f)
            assert right == LinComb.term(f)


def test_antipode_examples():
    assert ck.antipode(ck.UNIT) == ck.UNIT
    assert ck.antipode(elem("[]")) == -elem("[]")
    assert ck.antipode(elem("[[]]")) == -elem("[[]]") + elem("[] []")
    assert ck.antipode(elem("[[[]]]")) == (
        -elem("[[[]]]") + 2 * elem("[] [[]]") - elem("[] [] []"))


def test_antipode_axiom_small():
    for w in range(5):
        for f in enumerate_forests(w):
            expected = ck.UNIT if f == EMPTY_FOREST else LinComb.zero()
            cop = ck.forest_coproduct(f)
            acc = LinComb.zero()
            for (left, right), c in cop.terms.items():
                acc = combine(acc, ck.product(ck.forest_antipode(left),
                                              LinComb.term(right)), c)
            assert acc == expected


def test_kernel_path_enumerates_no_cut(monkeypatch, fresh_caches):
    # the coproduct kernel, and everything that reads it, works by the root
    # recursion; only the oracle tree_coproduct_by_cuts enumerates cuts
    def refused(t):
        raise AssertionError(f"the cuts of {t} enumerated")

    monkeypatch.setattr(ck, "admissible_cuts", refused)
    # the 31-vertex complete binary tree: 458328 cuts, 2279 terms
    wide = elem("[[[[[][]][[][]]][[[][]][[][]]]][[[[][]][[][]]][[[][]][[][]]]]]")
    assert len(ck.coproduct(wide).terms) == 2279
    # a 10-leaf corolla: 1023 cuts, and 11 antipode terms
    assert len(ck.antipode(elem("[" + "[]" * 10 + "]")).terms) == 11
    assert ck.star_by_cut_counting(L2, CHERRY) == tree_lie.star_trees(L2, CHERRY)
    for suite in ("lie", "dual"):
        assert verify.run_suite(suite, 4)["violations"] == []


def test_antipode_matches_a_sum_over_cuts():
    # the tree antipode reads the merged terms of the coproduct kernel;
    # summed cut by cut the recursion gives the same element
    for n in range(1, 10):
        for t in enumerate_trees(n):
            expected = -LinComb.term(Forest((t,)))
            for cut in admissible_cuts(t):
                expected -= ck.product(ck.forest_antipode(cut.branch),
                                       LinComb.term(Forest((cut.trunk,))))
            assert ck.tree_antipode(t) == expected, t


def test_antipode_multiplicative():
    for w in range(4):
        for fa in enumerate_forests(w):
            for fb in enumerate_forests(2):
                assert ck.antipode(ck.product(LinComb.term(fa), LinComb.term(fb))) == \
                    ck.product(ck.antipode(LinComb.term(fa)),
                               ck.antipode(LinComb.term(fb)))


def test_growth_examples():
    assert ck.natural_growth(elem("[]")) == elem("[[]]")
    assert ck.natural_growth(elem("[] []")) == 2 * elem("[] [[]]")
    assert ck.natural_growth(ck.UNIT) == LinComb.zero()


def test_growth_leibniz_small():
    for wa in range(4):
        for fa in enumerate_forests(wa):
            for fb in enumerate_forests(2):
                a, b = LinComb.term(fa), LinComb.term(fb)
                assert ck.natural_growth(ck.product(a, b)) == (
                    ck.product(ck.natural_growth(a), b)
                    + ck.product(a, ck.natural_growth(b)))


def test_delta_chain():
    assert ck.delta(1) == elem("[]")
    assert ck.delta(2) == elem("[[]]")
    assert ck.delta(3) == elem("[[[]]]") + elem("[[][]]")
    assert ck.delta(4) == (elem("[[[[]]]]") + elem("[[[][]]]")
                           + 3 * elem("[[[]][]]") + elem("[[][][]]"))
    with pytest.raises(ValueError):
        ck.delta(0)


def test_forest_growth_continues_delta_chain():
    # delta is read off the grafting chain x_k; forest-side growth must agree
    for k in range(1, 8):
        assert ck.natural_growth(ck.delta(k)) == ck.delta(k + 1)


def test_forest_growth_cached_matches_leibniz():
    # an uncached Leibniz expansion: one leaf at every vertex of every factor
    for w in range(6):
        for f in enumerate_forests(w):
            expected = LinComb.zero()
            for i, t in enumerate(f.items):
                rest = f.items[:i] + f.items[i + 1:]
                for v in range(t.size):
                    expected = expected + LinComb.term(
                        Forest(rest + (graft_many(t, [(v, LEAF)]),)))
            assert ck.forest_growth(f) == expected, f
            assert ck.forest_growth(f) is ck.forest_growth(f)


def test_delta_homogeneous():
    for k in range(1, 7):
        assert all(f.weight == k for f in ck.delta(k).terms)


def test_add_root():
    assert ck.add_root(ck.UNIT) == elem("[]")
    assert ck.add_root(elem("[] []")) == elem("[[][]]")
    assert ck.add_root(elem("[[]]")) == elem("[[[]]]")


def test_root_cocycle_on_singleton():
    x = elem("[]")
    lhs = ck.coproduct(ck.add_root(x))
    assert lhs == tens("1", "[[]]") + tens("[[]]", "1") + tens("[]", "[]")


def test_root_cocycle_on_unit():
    lhs = ck.coproduct(ck.add_root(ck.UNIT))
    assert lhs == tens("[]", "1") + tens("1", "[]")


def test_noncocommutative():
    cop = ck.tree_coproduct_by_cuts(CHERRY)
    assert swap_legs(cop) != cop


def test_partitions():
    assert ck.partitions(0) == [()]
    assert ck.partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(ck.partitions(6)) == 11


def test_delta_membership_positive():
    coords = ck.delta_membership(ck.delta(3), 3)
    assert coords == {(3,): 1, (2, 1): 0, (1, 1, 1): 0}
    coords = ck.delta_membership(elem("[] [[]]"), 3)
    assert coords == {(3,): 0, (2, 1): 1, (1, 1, 1): 0}


def test_delta_membership_negative_control():
    assert ck.delta_membership(ck.tree_monomial(CHERRY), 3) is None


def test_delta_membership_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        ck.delta_membership(elem("[]") + elem("[[]]"), 2)
    with pytest.raises(ValueError):
        ck.delta_membership(elem("[]"), 0)


def test_delta_coproduct_membership_frozen_k3():
    coords = ck.delta_coproduct_membership(3)
    assert coords is not None
    nonzero = {label: c for label, c in coords.items() if c}
    assert nonzero == {
        ((), (3,)): 1,
        ((3,), ()): 1,
        ((1,), (2,)): 3,
        ((2,), (1,)): 1,
        ((1, 1), (1,)): 1,
    }


def test_delta_coproduct_membership_through_weight_four():
    for k in range(1, 5):
        coords = ck.delta_coproduct_membership(k)
        assert coords is not None
        # re-substitute: the coordinates must rebuild the coproduct exactly
        rebuilt = LinComb.zero()
        for (p, q), c in coords.items():
            rebuilt = combine(rebuilt,
                              tensor(ck.delta_monomial(p), ck.delta_monomial(q)), c)
        assert rebuilt == ck.coproduct(ck.delta(k))


def test_coproduct_multiplicative_small():
    for wa in range(4):
        for fa in enumerate_forests(wa):
            for fb in enumerate_forests(2):
                assert ck.forest_coproduct(fa.union(fb)) == ck.multiply_tensors(
                    ck.forest_coproduct(fa), ck.forest_coproduct(fb))
