"""Rational combinations, bilinear lifting, and exact elimination."""

import json
import math
import random
from fractions import Fraction

import pytest

from conftest import dense_rank, dense_solve_membership, is_normalised, run_python
from treehopf import connes_kreimer as ck
from treehopf import grossman_larson as gl
from treehopf import operators as ops
from treehopf import tree_lie
from treehopf.exactlin import (LinComb, combine, encoding, exact, extend_bilinear,
                               extend_linear, map_left, map_right, rank, ratio,
                               solve_membership, swap_legs, tensor, tensor_key)
from treehopf.serialize import lincomb_from_obj
from treehopf.trees import Forest, LEAF, enumerate_trees, parse_tree

E = LEAF
L2 = parse_tree("[[]]")
L3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[][]]")

KEYS = [E, L2, L3, CHERRY]


def random_lincomb(rng):
    return LinComb((k, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                   for k in rng.sample(KEYS, rng.randint(0, len(KEYS))))


def test_construction_merges_and_prunes():
    x = LinComb([(E, 1), (E, 1), (L2, 0), (L3, Fraction(1, 2)), (L3, Fraction(-1, 2))])
    assert x.terms == {E: Fraction(2)}
    assert LinComb.zero() == LinComb()
    assert not LinComb.zero()


def test_combine_examples():
    x = LinComb.term(E)
    assert combine(x, x, -1) == LinComb.zero()
    two_e = LinComb.term(E, 2)
    assert combine(two_e, LinComb.term(L2), 3) == LinComb({E: 2, L2: 3})
    assert combine(LinComb({E: 1, L2: 1}), LinComb.term(E), 1) == LinComb({E: 2, L2: 1})


def test_no_zero_survives_any_operation():
    rng = random.Random(7)
    for _ in range(100):
        a, b = random_lincomb(rng), random_lincomb(rng)
        for result in (a + b, a - b, combine(a, b, Fraction(-2, 3)), -a, 2 * a, a * 0):
            assert all(c != 0 for c in result.terms.values())


def test_combine_additive_axioms():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (random_lincomb(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + LinComb.zero() == a


def test_fraction_field_axioms_randomized():
    rng = random.Random(3)
    for _ in range(200):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        for value in (a + b, a * b, a - b):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1


def test_extend_linear_and_bilinear():
    double = extend_linear(lambda k: LinComb.term(k, 2))
    assert double(LinComb({E: 1, L2: 3})) == LinComb({E: 2, L2: 6})

    pairwise = extend_bilinear(lambda a, b: LinComb.term(a) + LinComb.term(b))
    zero = LinComb.zero()
    assert pairwise(zero, LinComb.term(L2)) == zero
    rng = random.Random(5)
    for _ in range(30):
        a, b = random_lincomb(rng), random_lincomb(rng)
        assert pairwise(3 * a, b) == 3 * pairwise(a, b)
        assert pairwise(a, b + b) == 2 * pairwise(a, b)


def test_tensor_helpers():
    x = tensor(LinComb({E: 1, L2: 2}), LinComb.term(L3))
    assert x == LinComb({tensor_key(E, L3): 1, tensor_key(L2, L3): 2})
    assert swap_legs(x) == LinComb({tensor_key(L3, E): 1, tensor_key(L3, L2): 2})
    grown = map_left(lambda k: LinComb.term(k, -1), x)
    assert grown == -x
    assert map_right(lambda k: LinComb.zero(), x) == LinComb.zero()


def test_tensor_encoding_is_unambiguous():
    assert encoding(tensor_key(E, L2)) == "[] | [[]]"
    assert encoding(L2) == "[[]]"
    assert tensor_key(E, L2) != tensor_key(L2, E)


def test_tensor_key_is_one_shared_pair():
    for a in KEYS:
        for b in KEYS:
            key = tensor_key(a, b)
            assert key is tensor_key(a, b)
            assert key == (a, b) and hash(key) == hash((a, b))
            assert key[0] is a and key[1] is b


def test_plain_pair_reads_a_memoized_coproduct():
    # a lookup needs no shared key: a plain tuple reads the stored one
    for t in enumerate_trees(5):
        for cop in (gl.tree_coproduct(t), ck.tree_coproduct_by_cuts(t)):
            for key, c in cop.terms.items():
                left, right = key
                assert key is tensor_key(left, right)
                assert cop.coeff((left, right)) == c


def test_solve_membership_identity_and_zero():
    gens = [LinComb.term(k) for k in KEYS]
    coords = solve_membership(gens[0], gens)
    assert coords == [1, 0, 0, 0]
    assert solve_membership(LinComb.zero(), gens) == [0, 0, 0, 0]


def test_solve_membership_finds_exact_coordinates():
    g1 = LinComb({E: 1, L2: 1})
    g2 = LinComb({L2: 2})
    target = LinComb({E: 3, L2: Fraction(7, 2)})
    coords = solve_membership(target, [g1, g2])
    assert coords == [3, Fraction(1, 4)]


def test_solve_membership_certifies_failure():
    assert solve_membership(LinComb.term(L3), [LinComb.term(E)]) is None
    assert solve_membership(LinComb.term(E), []) is None
    assert solve_membership(LinComb.zero(), []) == []


def test_solve_membership_resubstitution():
    rng = random.Random(13)
    gens = [random_lincomb(rng) for _ in range(5)]
    for _ in range(20):
        weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in gens]
        target = LinComb.zero()
        for w, g in zip(weights, gens):
            target = combine(target, g, w)
        coords = solve_membership(target, gens)
        assert coords is not None
        rebuilt = LinComb.zero()
        for c, g in zip(coords, gens):
            rebuilt = combine(rebuilt, g, c)
        assert rebuilt == target


def test_rank():
    assert rank([]) == 0
    assert rank([LinComb.zero()]) == 0
    assert rank([LinComb.term(E), LinComb.term(E, 5)]) == 1
    assert rank([LinComb({E: 1, L2: 1}), LinComb({E: 1, L2: -1}),
                 LinComb({L2: 1})]) == 2
    assert rank([LinComb.term(t) for t in enumerate_trees(5)]) == 9


def assert_normalised(x: LinComb) -> None:
    assert all(is_normalised(c) for c in x.terms.values()), x


def test_exact_normalises_coefficients():
    assert type(exact(3)) is int and exact(3) == 3
    assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exact(True)) is int and exact(True) == 1
    for value in (0.5, 2.0, "1/2", None):
        with pytest.raises(TypeError):
            exact(value)


def test_ratio_is_an_int_when_the_division_is_exact():
    assert type(ratio(6, 3)) is int and ratio(6, 3) == 2
    assert type(ratio(0, 5)) is int and ratio(0, 5) == 0
    assert type(ratio(7)) is int and ratio(7) == 7
    for (p, q), reduced in [((1, 2), (1, 2)), ((-4, 6), (-2, 3)), ((4, -6), (-2, 3))]:
        value = ratio(p, q)
        assert type(value) is Fraction and is_normalised(value)
        assert (value.numerator, value.denominator) == reduced
    # a rational numerator, as the back-substitution of a solve passes
    assert ratio(Fraction(3, 2), 3) == Fraction(1, 2)
    assert type(ratio(Fraction(9, 2), Fraction(3, 2))) is int


def test_ratio_loads_fractions_only_for_a_fraction():
    probe = ("import sys; from treehopf.exactlin import ratio; "
             "print(ratio(6, 3), 'fractions' in sys.modules)")
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 False\n"


def test_integral_results_fall_back_to_int():
    half = LinComb.term(E, Fraction(1, 2))
    for x in (half + half, 2 * half, combine(half, half, 3),
              LinComb([(E, Fraction(1, 3)), (E, Fraction(2, 3))])):
        assert_normalised(x)
        assert type(x.coeff(E)) is int
    assert half.coeff(L2) == 0 and type(half.coeff(L2)) is int
    assert type(half.mass()) is Fraction
    assert type((half + half).mass()) is int


def test_float_coefficients_rejected():
    x = LinComb.term(E)
    with pytest.raises(TypeError):
        LinComb({E: 0.1})
    with pytest.raises(TypeError):
        LinComb.term(E, 1.0)
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(TypeError):
        0.5 * x
    with pytest.raises(TypeError):
        combine(x, x, 0.5)


def test_dict_input_matches_pair_input():
    terms = {E: Fraction(4, 2), L2: 0, L3: Fraction(0), CHERRY: True}
    x = LinComb(terms)
    assert x.terms == {E: 2, CHERRY: 1} == LinComb(terms.items()).terms
    assert_normalised(x)
    rng = random.Random(3)
    for _ in range(50):
        terms = {k: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                 for k in rng.sample(KEYS, rng.randint(0, len(KEYS)))}
        assert LinComb(terms).terms == LinComb(list(terms.items())).terms
    for bad in (0.0, 1.5):
        with pytest.raises(TypeError):
            LinComb({E: 1, L2: bad})
        with pytest.raises(TypeError):
            LinComb([(E, 1), (L2, bad)])
    # floats that cancel or sum to an integral value still raise
    for pairs in ([(E, 0.5), (E, -0.5)], [(E, 1), (E, 0.0)], [(E, 0.5), (E, 0.5)]):
        with pytest.raises(TypeError):
            LinComb(pairs)
        with pytest.raises(TypeError):
            LinComb(dict(pairs))


def test_structure_constants_stay_normalised():
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for t in trees:
        for x in (gl.tree_coproduct(t), gl.tree_antipode(t),
                  ck.tree_coproduct_by_cuts(t), ck.tree_antipode(t),
                  ck.forest_coproduct(Forest((t, t)))):
            assert_normalised(x)
        for u in trees:
            assert_normalised(gl.tree_product(t, u))
            assert_normalised(ck.product(ck.tree_monomial(t), ck.tree_monomial(u)))
            if t.size + u.size <= 6:
                assert_normalised(ck.star_by_cut_counting(t, u))
    for k in range(1, 7):
        assert_normalised(ops.x_k(k))
        assert_normalised(ck.delta(k))


def test_parsed_coefficients_are_normalised():
    x = lincomb_from_obj(json.loads('{"terms": [{"basis": "[]", "coeff": "1/2"}, '
                                    '{"basis": "[[]]", "coeff": "4/2"}]}'), parse_tree)
    assert_normalised(x)
    assert x.terms == {E: Fraction(1, 2), L2: 2}
    assert type(x.coeff(L2)) is int


def test_solve_membership_divides_exactly():
    coords = solve_membership(LinComb.term(L3), [2 * LinComb.term(L3)])
    assert coords == [Fraction(1, 2)]
    assert type(coords[0]) is Fraction
    coords = solve_membership(LinComb.term(L3, 6), [2 * LinComb.term(L3)])
    assert coords == [3] and type(coords[0]) is int


def test_rank_elimination_divides_exactly():
    # columns in the order the elimination visits them (sorted by encoding)
    keys = sorted((E, L2, L3), key=lambda k: k.encoding)
    rows = [(5, 8, 6), (4, 9, 3), (23, 42, 24)]  # row 3 = 3 * row 1 + 2 * row 2
    vectors = [LinComb(zip(keys, row)) for row in rows]
    assert rank(vectors) == 2
    assert rank(vectors[:2]) == 2


ORACLE_KEYS = [t for n in range(1, 6) for t in enumerate_trees(n)]


def random_coeff(rng):
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 8))


def random_vector(rng, keys):
    return LinComb((k, random_coeff(rng))
                   for k in rng.sample(keys, rng.randint(0, len(keys))))


def random_system(rng):
    """Generators over a few keys, with dependent, duplicate and zero ones
    inserted, and three targets: zero, inside the span, likely outside it.
    Returns the generators, the targets and the kinds inserted."""
    keys = rng.sample(ORACLE_KEYS, rng.randint(1, 7))
    gens = [random_vector(rng, keys) for _ in range(rng.randint(0, 5))]
    kinds = set()
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("combination", "duplicate", "zero")) if gens else "zero"
        kinds.add(kind)
        if kind == "zero":
            extra = LinComb.zero()
        elif kind == "duplicate":
            extra = rng.choice(gens) * rng.choice((1, -2, Fraction(1, 3)))
        else:
            extra = LinComb.zero()
            for g in gens:
                extra = combine(extra, g, random_coeff(rng))
        gens.insert(rng.randint(0, len(gens)), extra)
    inside = LinComb.zero()
    for g in gens:
        inside = combine(inside, g, random_coeff(rng))
    outside = random_vector(rng, keys + rng.sample(ORACLE_KEYS, 1))
    return gens, (LinComb.zero(), inside, outside), kinds


def same_coords(got, expected) -> bool:
    """Equal coordinates with equal ``int``/``Fraction`` types, or both None."""
    if got is None or expected is None:
        return got is expected
    return got == expected and [type(c) for c in got] == [type(c) for c in expected]


def test_elimination_matches_dense_oracle_on_seeded_systems():
    rng = random.Random(20240611)
    seen = dict.fromkeys(("combination", "duplicate", "zero", "rank-deficient",
                          "inconsistent", "fraction coordinate"), 0)
    for _ in range(400):
        gens, targets, kinds = random_system(rng)
        assert rank(gens) == dense_rank(gens), gens
        seen["rank-deficient"] += rank(gens) < len(gens)
        for kind in kinds:
            seen[kind] += 1
        for target in targets:
            coords = solve_membership(target, gens)
            assert same_coords(coords, dense_solve_membership(target, gens)), \
                (target, gens)
            seen["inconsistent"] += coords is None
            seen["fraction coordinate"] += any(type(c) is Fraction
                                               for c in coords or ())
    assert all(seen.values()), seen


def test_delta_and_primitive_solves_match_dense_oracle(monkeypatch):
    fast = [ck.delta_coproduct_membership(k) for k in range(1, 7)]
    fast += [ck.delta_membership(ck.delta(k), k) for k in range(1, 7)]
    fast_dims = [gl.primitive_space_dimension(n) for n in range(1, 7)]
    monkeypatch.setattr(ck, "solve_membership", dense_solve_membership)
    monkeypatch.setattr(gl, "rank", dense_rank)
    slow = [ck.delta_coproduct_membership(k) for k in range(1, 7)]
    slow += [ck.delta_membership(ck.delta(k), k) for k in range(1, 7)]
    assert [gl.primitive_space_dimension(n) for n in range(1, 7)] == fast_dims
    for got, expected in zip(fast, slow):
        assert got is not None and list(got) == list(expected)
        assert same_coords(list(got.values()), list(expected.values()))
