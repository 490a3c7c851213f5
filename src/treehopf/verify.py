"""Exhaustive low-degree verification suites, written as tables of laws.

Each suite is a function of the degree bound ``D`` that returns rows
``(law, cases)``.  ``law`` is the name reported on failure, prefixed by the
suite (``op.`` for ``operators``); ``cases`` yields ``(args, lhs, rhs)``, one
triple per instance of the identity, or an ``int`` n for n instances whose
sides are both the zero coefficient.  The one loop in ``check`` counts every
case and, whenever the sides differ, records a violation with the args and
both sides as text: a combination by its terms, a tree, forest or tensor by
its encoding, and a tuple element by element.  The ``dual`` rows, the
transpose cocycle ``hochschild_cases`` among them, compare 0 with 0 in almost
every case, so for each coordinate t* they build the two sides as sparse
dicts read from the indexes of ``graded_dual`` (``support_index``, and
``product_index``, built once per bound), and ``sparse_cases`` yields the
keys either side holds as cases and the rest as ints, in the original
order.  Only this module knows that protocol, and no module but ``cli``
imports this one.  Most rows are
``_law(name, domain, sides)`` over a shared domain: trees by size, forests up
to a weight, or tuples of bounded total size.  A row whose cases share costly
per-element work is a short generator that does that work once per element.
The bounds at ``D = 5`` give antipode laws at weight/degree 5, most laws at 6,
the two forest coproducts at tree size 7 and grafting associativity at total
size 8.

The rows are built afresh on each ``run_suite`` call and reach the kernels
through module attributes or globals, so a kernel rebound at run time (a
deliberately broken one in a test, or a tracer's wrapper) is the one checked.
At module level this module imports only the standard library, ``exactlin``
and ``trees``: each suite's function (and ``hochschild_cases``) imports the
kernel modules it reads, and ``_render`` imports ``serialize`` only for a
violation, so a suite compiles no module it does not run.
To add a law, append ``_law("gl.name", _trees(D + 1), lambda t: (lhs, rhs))``,
or a generator row, to its suite's list; then re-pin the per-law counts in
``tests/test_verify.py`` and the report digests in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .exactlin import (LinComb, add_to, extend_linear, map_left, map_right, rank,
                       swap_legs, tensor, tensor_multiply)
from .trees import (EMPTY_FOREST, LEAF, Forest, Tree, admissible_cuts, aut_order,
                    b_minus, b_plus, canonicalize, count_trees_recurrence,
                    enumerate_forests, enumerate_trees, leaf_growth, parse_tree,
                    preorder_subtrees, trees_up_to_degree)

CHERRY = Tree((LEAF, LEAF))


def _render(value) -> str:
    """A side as text: a combination by its terms, a basis element by its
    encoding, a tuple element by element."""
    if isinstance(value, LinComb):
        from .serialize import lincomb_to_text
        return lincomb_to_text(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_render, value)) + ")"
    return str(getattr(value, "encoding", value))


def _violation(law: str, args, lhs, rhs) -> dict:
    """The report entry of a failed case."""
    return {"law": law,
            "inputs": [_render(a) for a in args],
            "lhs": _render(lhs), "rhs": _render(rhs)}


def check(rows) -> dict:
    """Count every case of every row and record those whose sides differ;
    an ``int`` n in a row's cases counts n cases whose sides are both 0."""
    checked, violations = 0, []
    for law, cases in rows:
        for case in cases:
            if type(case) is int:
                checked += case
                continue
            checked += 1
            args, lhs, rhs = case
            if lhs != rhs:
                violations.append(_violation(law, args, lhs, rhs))
    return {"checked": checked, "violations": violations}


def sparse_cases(position: dict, head: tuple, lhs: dict, rhs: dict):
    """Yield the cases of one row from its two sides, given as sparse dicts.

    ``position`` numbers the row's keys (tuples).  For each key that either
    side holds, in position order, yields ``(head + key, lhs[key], rhs[key])``,
    a missing side read as 0; between them, and after the last, yields the
    ``int`` count of the keys skipped, whose sides are both the zero
    coefficient, which ``check`` counts without a look.  A key outside
    ``position`` is not a case of the row and is dropped.
    """
    done = 0
    for i, key in sorted((position[k], k) for k in lhs.keys() | rhs.keys()
                         if k in position):
        if i > done:
            yield i - done
        yield head + key, lhs.get(key, 0), rhs.get(key, 0)
        done = i + 1
    if len(position) > done:
        yield len(position) - done


def _law(law: str, domain, sides):
    """The row that maps ``sides(*args) -> (lhs, rhs)`` over ``domain``."""
    return law, ((args, *sides(*args)) for args in domain)


def _each(values) -> list:
    """One-argument domain: each value as ``(value,)``."""
    return [(v,) for v in values]


def _trees(n: int) -> list:
    """Each tree of size at most n, by size, then encoding."""
    return _each(trees_up_to_degree(n - 1))


def _forests(w: int) -> list:
    """Each forest of weight at most w, by weight, then encoding."""
    return _each(f for v in range(w + 1) for f in enumerate_forests(v))


def _primitives(n: int) -> list:
    """The primitive basis trees of degree 1 to n, by degree."""
    from . import grossman_larson as gl
    return [p for d in range(1, n + 1) for p in gl.primitive_basis(d)]


def _sizes(k: int, total: int, least: int) -> list:
    """k-tuples of sizes, each ``least`` or more, summing to at most ``total``."""
    if k == 0:
        return [()]
    return [(s,) + rest for s in range(least, total - (k - 1) * least + 1)
            for rest in _sizes(k - 1, total - s, least)]


def _tuples(k: int, total: int, by_size=None, least: int = 1) -> list:
    """k-tuples of basis elements, each of size ``least`` or more, of total size
    at most ``total``, ordered by the tuple of sizes, then by encodings;
    ``by_size`` (default ``enumerate_trees``, looked up per call) lists the
    elements of one size.
    """
    by_size = by_size or enumerate_trees
    return [args for sizes in _sizes(k, total, least)
            for args in itertools.product(*map(by_size, sizes))]


# Flattened by hand: map_left/map_right + map_keys took hr -D7 from 0.36 to 0.46 s.
def _coassociativity_sides(cop, x: LinComb):
    """Flatten (cop (x) id) and (id (x) cop) of x to triple-key dictionaries."""
    lhs: dict = {}
    rhs: dict = {}
    for (a, b), c in x.terms.items():
        for (a1, a2), c2 in cop(a).terms.items():
            add_to(lhs, (a1.encoding, a2.encoding, b.encoding), c * c2)
        for (b1, b2), c2 in cop(b).terms.items():
            add_to(rhs, (a.encoding, b1.encoding, b2.encoding), c * c2)
    return {k: v for k, v in lhs.items() if v}, {k: v for k, v in rhs.items() if v}


def _hopf_laws(suite: str, elements, antipode_elements, coproduct, antipode, product,
               unit_key) -> list:
    """Coassociativity, counit and antipode rows of one Hopf algebra.

    ``coproduct`` and ``antipode`` are basis maps, ``product`` is bilinear
    on combinations, and ``unit_key`` is the basis element of the unit.
    """
    unit = LinComb.term(unit_key)
    s_left = extend_linear(lambda k: product(antipode(k[0]), LinComb.term(k[1])))
    s_right = extend_linear(lambda k: product(LinComb.term(k[0]), antipode(k[1])))

    def antipode_law(x, side):
        return side(coproduct(x)), unit if x == unit_key else LinComb.zero()

    return [
        _law(f"{suite}.coassociativity", elements,
             lambda x: _coassociativity_sides(coproduct, coproduct(x))),
        _law(f"{suite}.counit_left", elements,
             lambda x: (LinComb((b, c) for (a, b), c in coproduct(x).terms.items()
                                if a == unit_key), LinComb.term(x))),
        _law(f"{suite}.counit_right", elements,
             lambda x: (LinComb((a, c) for (a, b), c in coproduct(x).terms.items()
                                if b == unit_key), LinComb.term(x))),
        _law(f"{suite}.antipode_left", antipode_elements,
             lambda x: antipode_law(x, s_left)),
        _law(f"{suite}.antipode_right", antipode_elements,
             lambda x: antipode_law(x, s_right)),
    ]


# trees

def _scrambled_nested(t: Tree, mode: int):
    kids = [_scrambled_nested(c, mode) for c in t.children]
    return kids[::-1] if mode == 0 else kids[1:] + kids[:1]


def _trees_laws(D: int) -> list:
    def cuts():
        for (t,) in _trees(D + 1):
            subs = preorder_subtrees(t)
            for cut in admissible_cuts(t):
                yield (t, list(cut.edges)), subs, cut

    def antichain(subs, edges):
        return all(not (v < w < v + subs[v].size) for v in edges for w in edges)

    return [
        _law("trees.count", _each(range(1, D + 6)),
             lambda n: (len(enumerate_trees(n)), count_trees_recurrence(n))),
        _law("trees.b_plus_after_b_minus", _trees(D + 3),
             lambda t: (b_plus(b_minus(t)), t)),
        _law("trees.b_minus_after_b_plus", _forests(D + 2),
             lambda f: (b_minus(b_plus(f)), f)),
        _law("trees.b_plus_bijection", _each(range(D + 3)),
             lambda w: (sorted(b_plus(f).encoding for f in enumerate_forests(w)),
                        sorted(t.encoding for t in enumerate_trees(w + 1)))),
        ("trees.cut_weight", ((args, cut.branch.weight + cut.trunk.size, args[0].size)
                              for args, _, cut in cuts())),
        ("trees.cut_antichain", ((args, antichain(subs, cut.edges), True)
                                 for args, subs, cut in cuts())),
        _law("trees.single_cut_count", _trees(D + 1),
             lambda t: (sum(len(c.edges) == 1 for c in admissible_cuts(t)), t.size - 1)),
        _law("trees.growth_count", _trees(D + 1),
             lambda t: (leaf_growth(t).mass(), t.size)),
        _law("trees.canonical_invariance",
             [(t, mode) for (t,) in _trees(D) for mode in (0, 1)],
             lambda t, mode: (canonicalize(_scrambled_nested(t, mode)), t)),
        _law("trees.parse_roundtrip", _trees(D), lambda t: (parse_tree(t.encoding), t)),
    ]


# the forest Hopf algebra

def _hr_laws(D: int) -> list:
    from . import connes_kreimer as ck
    forests = _forests(D + 1)
    pairs = _tuples(2, D + 1, enumerate_forests, 0)
    ks = _each(range(1, max(2, D - 1) + 1))
    cop, growth, term = ck.forest_coproduct, ck.forest_growth, LinComb.term

    def root_cocycle(f):
        grafted = map_right(lambda g: term(Forest((b_plus(g),))), cop(f))
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


# the grafting Hopf algebra

def _gl_laws(D: int) -> list:
    from . import grossman_larson as gl
    singles = _trees(D + 2)
    # the left factor stops at size D + 1, the total at D + 3
    pairs = [p for p in _tuples(2, D + 3) if p[0].size <= D + 1]
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
        _law("gl.associativity", _tuples(3, D + 3),
             lambda a, b, c: (gl.product(product(a, b), term(c)),
                              gl.product(term(a), product(b, c)))),
        # smallest non-commuting pair sits at total size 5 (total degree 3)
        _law("gl.noncommutative_witness", [()],
             lambda: (any(product(a, b) != product(b, a)
                          for a, b in _tuples(2, 5)), True)),
        _law("gl.primitive_count", degrees,
             lambda n: (len(gl.primitive_basis(n)), len(enumerate_trees(n)))),
        _law("gl.primitive_dimension", degrees,
             lambda n: (gl.primitive_space_dimension(n), len(gl.primitive_basis(n)))),
        _law("gl.primitivity_equation", _each(_primitives(D + 1)), primitive),
    ]


# the tree Lie algebra

def _lie_laws(D: int) -> list:
    from . import connes_kreimer as ck
    from . import grossman_larson as gl
    from . import tree_lie
    pairs = _tuples(2, D + 1)
    primitive = _primitives(D - 1)
    primitive_pairs = [(p, q) for p in primitive for q in primitive
                       if p.size + q.size <= D + 1]
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
        _law("lie.jacobi", _tuples(3, D + 1), jacobi),
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


# growth and chain-multiplication operators

def _operators_laws(D: int) -> list:
    from . import grossman_larson as gl
    from . import operators as ops
    basis = _trees(D + 1)
    pairs = _tuples(2, D + 1)
    orders = _each(range(D + 2))
    chain, term, x_k = LinComb.term(ops.CHAIN2), LinComb.term, ops.x_k

    def coderivation(op, b):
        db = gl.tree_coproduct(b)
        return map_right(op, db) + map_left(op, db)

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
        _law("op.xk_product", _sizes(2, D + 2, 0),
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


# graded dual

def hochschild_cases(degree_bound: int, m_tree_func=None):
    """Yield every case ``((t, a, b), lhs, rhs)`` of the transpose cocycle

        (M* f)(a b) = (M* f)(a) eps(b) + sum_i f_i(a) (M* f'_i)(b),

    where ``sum_i f_i (x) f'_i`` is the dual coproduct of f, tabulating
    f(a b) over tree pairs.  For every coordinate functional t* with
    deg t <= degree_bound and every tree pair (a, b) with
    deg a + deg b <= degree_bound - 1, both sides of one t* are built in one
    pass as sparse dicts over the pairs (a, b): the left side from the
    products containing a term of ``M* t*``, the right from ``M* t*`` at
    b = the unit and from the dual coproduct of t* through the transposed
    action.  Every other case is counted in an ``int`` (see
    ``sparse_cases``).  ``m_tree_func`` swaps in an alternate basis action
    for the multiplication operator, to confirm that the check fails on a
    perturbed one.
    """
    from . import graded_dual as gd
    from . import operators as ops
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    action = m_tree_func or ops.m_tree
    arguments = trees_up_to_degree(degree_bound - 1)
    position = {p: i for i, p in enumerate(
        (a, b) for a in arguments for b in arguments
        if a.size + b.size <= degree_bound + 1)}
    # the action's images transposed, s -> [(b, coeff of s in M(b))]; the
    # action depends on its argument alone: one evaluation per tree
    transposed = gd.support_index((b, action(b)) for b in arguments)
    products = gd.product_index(degree_bound)
    for t in trees_up_to_degree(degree_bound):
        lhs: dict = {}
        rhs: dict = {}
        for a, v in transposed.get(t, ()):
            add_to(rhs, (a, LEAF), v)
            for p, c in products.get(a, ()):
                add_to(lhs, p, c * v)
        # the dual coproduct of t*, within deg t
        for (a, right), c in products.get(t, ()):
            if a.size + right.size <= t.size + 1:
                for b, d in transposed.get(right, ()):
                    add_to(rhs, (a, b), c * d)
        yield from sparse_cases(position, (t,), lhs, rhs)


def _dual_laws(D: int) -> list:
    from . import connes_kreimer as ck
    from . import graded_dual as gd
    from . import operators as ops
    basis = trees_up_to_degree(D)
    pairs = [(a, b) for a in basis for b in basis if a.size + b.size <= D + 2]
    bound = min(D, 4)
    small = trees_up_to_degree(bound)

    def transpose_coherence():
        # the images of the chain multiplication, transposed once:
        # t -> [(x, coeff of t in M(x))]
        position = {(x,): i for i, x in enumerate(basis)}
        transposed = gd.support_index((x, ops.m_apply(LinComb.term(x))) for x in basis)
        for t in basis:
            lhs = {(x,): c for x, c in gd.m_dual(LinComb.term(t)).terms.items()}
            rhs = {(x,): c for x, c in transposed.get(t, ())}
            yield from sparse_cases(position, (t,), lhs, rhs)

    def product_pairing():
        # coeff_t(a b) = s(a) s(b) / s(t) * [B-(a) (x) b] cut-coproduct(t),
        # with s the automorphism order: grafting against cutting
        position = {p: i for i, p in enumerate(pairs)}
        legs = {(b_minus(a), Forest((b,))): ((a, b), aut_order(a) * aut_order(b))
                for a, b in pairs}
        # the same pairs as ``pairs``: both degrees within D, and their sum
        products = gd.product_index(D)
        for t in basis:
            sigma, rhs = aut_order(t), {}
            for key, c in ck.tree_coproduct_by_cuts(t).terms.items():
                if key in legs:
                    p, weight = legs[key]
                    rhs[p] = Fraction(c * weight, sigma)
            yield from sparse_cases(position, (t,), dict(products.get(t, ())), rhs)

    def perturbed_m(t):
        return LinComb.term(ops.CHAIN2) if t == LEAF else ops.m_tree(t)

    def convolution(t1, t2):
        f1, f2 = LinComb.term(t1), LinComb.term(t2)
        return gd.dual_product(f1, f2, bound), gd.dual_product(f2, f1, bound)

    return [
        ("dual.hochschild", hochschild_cases(D)),
        ("dual.transpose_coherence", transpose_coherence()),
        ("dual.product_pairing", product_pairing()),
        _law("dual.convolution_commutative", itertools.product(small, small),
             convolution),
        _law("dual.mutation_control", [("m(leaf) := chain",)],
             lambda _: (any(case[1] != case[2] for case in
                            hochschild_cases(min(D, 2), perturbed_m)
                            if type(case) is not int), True)),
    ]


# suite name -> the function of D that builds its rows
_LAWS = {"trees": _trees_laws, "hr": _hr_laws, "gl": _gl_laws, "lie": _lie_laws,
         "operators": _operators_laws, "dual": _dual_laws}

SUITES = tuple(_LAWS)


def run_suite(name: str, max_degree: int = 5) -> dict:
    """Run one suite (or ``"all"``) and return its report."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if name != "all" and name not in _LAWS:
        raise ValueError(f"unknown suite {name!r}")
    names = SUITES if name == "all" else (name,)
    rows = (row for suite in names for row in _LAWS[suite](max_degree))
    return {"suite": name, "maxDegree": max_degree, **check(rows)}
