"""Exhaustive low-degree verification suites with machine-readable reports.

Every suite walks its identities over all basis elements within bounds
derived from ``max_degree`` (the defaults at ``max_degree=5`` reproduce the
documented guarantees: antipode laws at weight/degree 5, most laws at 6,
agreement of the two forest coproducts at tree size 7, associativity of the
grafting product at total size 8).  A report is
``{"suite", "maxDegree", "checked", "violations"}`` where each violation
carries the law name, the offending basis inputs, and both sides.
"""

from __future__ import annotations

from math import comb

from . import connes_kreimer as ck
from . import graded_dual as gd
from . import grossman_larson as gl
from . import operators as ops
from . import tree_lie
from .exactlin import (LinComb, Tensor, add_to, extend_linear, map_left,
                       map_right, rank, swap_legs, tensor, tensor_multiply)
from .serialize import lincomb_to_text
from .trees import (EMPTY_FOREST, LEAF, Forest, Tree, admissible_cuts,
                    b_minus, b_plus, canonicalize, count_trees_recurrence,
                    enumerate_forests, enumerate_trees, natural_growth_terms,
                    parse_tree, preorder_subtrees)

SUITES = ("trees", "hr", "gl", "lie", "operators", "dual")

CHERRY = Tree((LEAF, LEAF))


def _render(value) -> str:
    if isinstance(value, LinComb):
        return lincomb_to_text(value)
    return str(value)


class _Recorder:
    def __init__(self):
        self.checked = 0
        self.violations: list[dict] = []

    def check(self, law: str, inputs, lhs, rhs) -> None:
        self.checked += 1
        if lhs != rhs:
            self.violations.append({
                "law": law,
                "inputs": list(inputs),
                "lhs": _render(lhs),
                "rhs": _render(rhs),
            })


def _coassociativity_sides(cop, x: LinComb):
    """Flatten (cop (x) id) and (id (x) cop) of x to triple-key dictionaries."""
    left: dict = {}
    right: dict = {}
    for key, c in x.terms.items():
        for inner, c2 in cop(key.left).terms.items():
            add_to(left, (inner.left.encoding, inner.right.encoding,
                          key.right.encoding), c * c2)
        for inner, c2 in cop(key.right).terms.items():
            add_to(right, (key.left.encoding, inner.left.encoding,
                           inner.right.encoding), c * c2)
    return ({k: v for k, v in left.items() if v},
            {k: v for k, v in right.items() if v})


def _antipode_sides(cop: LinComb, basis_antipode, product):
    """m(S (x) id) and m(id (x) S) applied to a coproduct ``cop``."""
    left = extend_linear(lambda key: product(basis_antipode(key.left),
                                             LinComb.term(key.right)))
    right = extend_linear(lambda key: product(LinComb.term(key.left),
                                              basis_antipode(key.right)))
    return left(cop), right(cop)


def _counit_legs(x: LinComb, unit_key):
    left = LinComb((k.right, c) for k, c in x.terms.items() if k.left == unit_key)
    right = LinComb((k.left, c) for k, c in x.terms.items() if k.right == unit_key)
    return left, right


# ---------------------------------------------------------------------------
# trees

def _scrambled_nested(t: Tree, mode: int):
    kids = [_scrambled_nested(c, mode) for c in t.children]
    if mode == 0:
        kids.reverse()
    else:
        kids = kids[1:] + kids[:1]
    return kids


def _suite_trees(D: int, rec: _Recorder) -> None:
    for n in range(1, D + 6):
        rec.check("trees.count", [str(n)],
                  len(enumerate_trees(n)), count_trees_recurrence(n))
    for n in range(1, D + 4):
        for t in enumerate_trees(n):
            rec.check("trees.b_plus_after_b_minus", [t.encoding],
                      b_plus(b_minus(t)), t)
    for w in range(D + 3):
        for f in enumerate_forests(w):
            rec.check("trees.b_minus_after_b_plus", [f.encoding],
                      b_minus(b_plus(f)), f)
        images = sorted(b_plus(f).encoding for f in enumerate_forests(w))
        rec.check("trees.b_plus_bijection", [str(w)], images,
                  sorted(t.encoding for t in enumerate_trees(w + 1)))
    for n in range(1, D + 2):
        for t in enumerate_trees(n):
            subs = preorder_subtrees(t)
            for cut in admissible_cuts(t):
                rec.check("trees.cut_weight",
                          [t.encoding, str(sorted(cut.edges))],
                          cut.branch.weight + cut.trunk.size, t.size)
                antichain = all(not (v < w < v + subs[v].size)
                                for v in cut.edges for w in cut.edges)
                rec.check("trees.cut_antichain",
                          [t.encoding, str(sorted(cut.edges))], antichain, True)
            rec.check("trees.single_cut_count", [t.encoding],
                      sum(1 for c in admissible_cuts(t) if c.order == 1),
                      t.size - 1)
            rec.check("trees.growth_count", [t.encoding],
                      len(natural_growth_terms(t)), t.size)
    for n in range(1, D + 1):
        for t in enumerate_trees(n):
            for mode in (0, 1):
                rec.check("trees.canonical_invariance", [t.encoding, str(mode)],
                          canonicalize(_scrambled_nested(t, mode)), t)
            rec.check("trees.parse_roundtrip", [t.encoding],
                      parse_tree(t.encoding), t)


# ---------------------------------------------------------------------------
# the forest Hopf algebra

def _suite_hr(D: int, rec: _Recorder) -> None:
    by_weight = {w: enumerate_forests(w) for w in range(D + 2)}
    all_forests = [f for w in range(D + 2) for f in by_weight[w]]

    for f in all_forests:
        df = ck.forest_coproduct(f)
        lhs, rhs = _coassociativity_sides(ck.forest_coproduct, df)
        rec.check("hr.coassociativity", [f.encoding], lhs, rhs)
        left, right = _counit_legs(df, EMPTY_FOREST)
        rec.check("hr.counit_left", [f.encoding], left, LinComb.term(f))
        rec.check("hr.counit_right", [f.encoding], right, LinComb.term(f))
        rec.check("hr.coproduct_grading", [f.encoding],
                  all(k.left.weight + k.right.weight == f.weight
                      for k in df.terms), True)
        # Hochschild cocycle for the root-attachment operator
        x = LinComb.term(f)
        cocycle_rhs = tensor(ck.add_root(x), ck.UNIT) + map_right(
            lambda g: LinComb.term(Forest((b_plus(g),))), df)
        rec.check("hr.root_cocycle", [f.encoding],
                  ck.coproduct(ck.add_root(x)), cocycle_rhs)
        # growth grading
        rec.check("hr.growth_grading", [f.encoding],
                  all(k.weight == f.weight + 1
                      for k in ck.forest_growth(f).terms), True)

    for w in range(D + 1):
        for f in by_weight[w]:
            df = ck.forest_coproduct(f)
            expected = ck.UNIT if f == EMPTY_FOREST else LinComb.zero()
            left, right = _antipode_sides(df, ck.forest_antipode, ck.product)
            rec.check("hr.antipode_left", [f.encoding], left, expected)
            rec.check("hr.antipode_right", [f.encoding], right, expected)
            rec.check("hr.antipode_grading", [f.encoding],
                      all(k.weight == f.weight
                          for k in ck.forest_antipode(f).terms), True)

    for wa in range(D + 2):
        for wb in range(D + 2 - wa):
            for fa in by_weight[wa]:
                for fb in by_weight[wb]:
                    rec.check("hr.coproduct_multiplicative",
                              [fa.encoding, fb.encoding],
                              ck.forest_coproduct(fa.union(fb)),
                              ck.multiply_tensors(ck.forest_coproduct(fa),
                                                  ck.forest_coproduct(fb)))
                    rec.check("hr.growth_leibniz", [fa.encoding, fb.encoding],
                              ck.forest_growth(fa.union(fb)),
                              ck.product(ck.forest_growth(fa), LinComb.term(fb))
                              + ck.product(LinComb.term(fa), ck.forest_growth(fb)))

    for n in range(1, D + 3):
        for t in enumerate_trees(n):
            rec.check("hr.coproduct_forms_agree", [t.encoding],
                      ck.tree_coproduct_by_cuts(t), ck.tree_coproduct_recursive(t))

    cherry_cop = ck.tree_coproduct_by_cuts(CHERRY)
    rec.check("hr.noncocommutative_witness", [CHERRY.encoding],
              swap_legs(cherry_cop) != cherry_cop, True)

    for k in range(1, max(2, D - 1) + 1):
        rec.check("hr.delta_coproduct_closure", [str(k)],
                  ck.delta_coproduct_membership(k) is not None, True)
        rec.check("hr.delta_self_membership", [str(k)],
                  ck.delta_membership(ck.delta(k), k) is not None, True)
    rec.check("hr.delta_span_negative_control", [CHERRY.encoding],
              ck.delta_membership(ck.tree_monomial(CHERRY), 3) is None, True)


# ---------------------------------------------------------------------------
# the grafting Hopf algebra

def _suite_gl(D: int, rec: _Recorder) -> None:
    singles = gd.trees_up_to_degree(D + 1)

    for t in singles:
        dt = gl.tree_coproduct(t)
        lhs, rhs = _coassociativity_sides(gl.tree_coproduct, dt)
        rec.check("gl.coassociativity", [t.encoding], lhs, rhs)
        left, right = _counit_legs(dt, LEAF)
        rec.check("gl.counit_left", [t.encoding], left, LinComb.term(t))
        rec.check("gl.counit_right", [t.encoding], right, LinComb.term(t))
        rec.check("gl.cocommutativity", [t.encoding], swap_legs(dt), dt)
        rec.check("gl.coproduct_mass", [t.encoding],
                  dt.mass(), 2 ** t.fertility)
        rec.check("gl.coproduct_grading", [t.encoding],
                  all(k.left.size + k.right.size == t.size + 1
                      for k in dt.terms), True)
        expected = gl.UNIT if t == LEAF else LinComb.zero()
        left, right = _antipode_sides(dt, gl.tree_antipode, gl.product)
        rec.check("gl.antipode_left", [t.encoding], left, expected)
        rec.check("gl.antipode_right", [t.encoding], right, expected)
        rec.check("gl.unit_laws", [t.encoding],
                  (gl.tree_product(LEAF, t), gl.tree_product(t, LEAF)),
                  (LinComb.term(t), LinComb.term(t)))

    by_size = {n: enumerate_trees(n) for n in range(1, D + 3)}
    for sa in range(1, D + 2):
        for sb in range(1, D + 4 - sa):
            for ta in by_size[sa]:
                for tb in by_size[sb]:
                    p = gl.tree_product(ta, tb)
                    rec.check("gl.product_mass", [ta.encoding, tb.encoding],
                              p.mass(), tb.size ** ta.fertility)
                    rec.check("gl.product_grading", [ta.encoding, tb.encoding],
                              all(k.size == ta.size + tb.size - 1
                                  for k in p.terms), True)
                    rec.check("gl.coproduct_multiplicative",
                              [ta.encoding, tb.encoding],
                              gl.coproduct(p),
                              tensor_multiply(gl.tree_coproduct(ta),
                                              gl.tree_coproduct(tb),
                                              gl.tree_product, gl.tree_product))

    for sa in range(1, D + 2):
        for sb in range(1, D + 3 - sa):
            for sc in range(1, D + 4 - sa - sb):
                for ta in by_size[sa]:
                    for tb in by_size[sb]:
                        for tc in by_size[sc]:
                            rec.check(
                                "gl.associativity",
                                [ta.encoding, tb.encoding, tc.encoding],
                                gl.product(gl.tree_product(ta, tb),
                                           LinComb.term(tc)),
                                gl.product(LinComb.term(ta),
                                           gl.tree_product(tb, tc)))

    # smallest non-commuting pair sits at total size 5 (total degree 3)
    witness = any(gl.tree_product(ta, tb) != gl.tree_product(tb, ta)
                  for sa in range(1, 5) for sb in range(1, 6 - sa)
                  for ta in enumerate_trees(sa) for tb in enumerate_trees(sb))
    rec.check("gl.noncommutative_witness", [], witness, True)

    for n in range(1, D + 2):
        basis = gl.primitive_basis(n)
        rec.check("gl.primitive_count", [str(n)],
                  len(basis), len(enumerate_trees(n)))
        rec.check("gl.primitive_dimension", [str(n)],
                  gl.primitive_space_dimension(n), len(basis))
        for p in basis:
            elem = LinComb.term(p)
            rec.check("gl.primitivity_equation", [p.encoding],
                      gl.tree_coproduct(p),
                      tensor(gl.UNIT, elem) + tensor(elem, gl.UNIT))


# ---------------------------------------------------------------------------
# the tree Lie algebra

def _suite_lie(D: int, rec: _Recorder) -> None:
    by_size = {n: enumerate_trees(n) for n in range(1, D + 2)}

    for sa in range(1, D + 1):
        for sb in range(1, D + 2 - sa):
            for ta in by_size[sa]:
                for tb in by_size[sb]:
                    rec.check("lie.star_oracle", [ta.encoding, tb.encoding],
                              tree_lie.star_trees(ta, tb),
                              tree_lie.star_by_cut_counting(ta, tb))
                    a, b = LinComb.term(ta), LinComb.term(tb)
                    rec.check("lie.bracket_antisymmetry",
                              [ta.encoding, tb.encoding],
                              tree_lie.bracket(a, b), -tree_lie.bracket(b, a))

    for sa in range(1, D):
        for sb in range(1, D + 1 - sa):
            for sc in range(1, D + 2 - sa - sb):
                for ta in by_size[sa]:
                    for tb in by_size[sb]:
                        for tc in by_size[sc]:
                            a = LinComb.term(ta)
                            b = LinComb.term(tb)
                            c = LinComb.term(tc)
                            jac = (tree_lie.bracket(tree_lie.bracket(a, b), c)
                                   + tree_lie.bracket(tree_lie.bracket(b, c), a)
                                   + tree_lie.bracket(tree_lie.bracket(c, a), b))
                            rec.check("lie.jacobi",
                                      [ta.encoding, tb.encoding, tc.encoding],
                                      jac, LinComb.zero())

    for n in range(1, D + 3):
        for t in enumerate_trees(n):
            elem = LinComb.term(t)
            rec.check("lie.phi_after_psi", [t.encoding],
                      tree_lie.phi(tree_lie.psi(elem)), elem)
        if n >= 2:
            for p in gl.primitive_basis(n - 1):
                elem = LinComb.term(p)
                rec.check("lie.psi_after_phi", [p.encoding],
                          tree_lie.psi(tree_lie.phi(elem)), elem)

    primitive = [p for n in range(1, D) for p in gl.primitive_basis(n)]
    for p1 in primitive:
        for p2 in primitive:
            if p1.size + p2.size > D + 1:
                continue
            commutator = gl.tree_product(p1, p2) - gl.tree_product(p2, p1)
            rec.check("lie.commutator_primitive_support",
                      [p1.encoding, p2.encoding],
                      all(k.fertility == 1 for k in commutator.terms), True)
            rec.check("lie.phi_morphism", [p1.encoding, p2.encoding],
                      tree_lie.phi(commutator),
                      tree_lie.bracket(tree_lie.phi(LinComb.term(p1)),
                                       tree_lie.phi(LinComb.term(p2))))

    e = LinComb.term(LEAF)
    rec.check("lie.star_nonassociative_witness", [LEAF.encoding],
              tree_lie.star(tree_lie.star(e, e), e)
              != tree_lie.star(e, tree_lie.star(e, e)), True)


# ---------------------------------------------------------------------------
# growth and chain-multiplication operators

def _suite_operators(D: int, rec: _Recorder) -> None:
    basis = gd.trees_up_to_degree(D)
    chain = LinComb.term(ops.CHAIN2)

    for b in basis:
        elem = LinComb.term(b)
        eps = 1 if b == LEAF else 0
        rec.check("op.growth_is_left_chain_mult", [b.encoding],
                  gl.tree_product(ops.CHAIN2, b), ops.n_tree(b))
        db = gl.tree_coproduct(b)
        rec.check("op.growth_coderivation", [b.encoding],
                  gl.coproduct(ops.n_tree(b)),
                  map_right(ops.n_tree, db) + map_left(ops.n_tree, db))
        reduced = elem - eps * gl.UNIT
        rec.check("op.chain_mult_formula", [b.encoding],
                  ops.m_tree(b), gl.product(reduced, chain))
        rec.check("op.chain_mult_coproduct", [b.encoding],
                  gl.coproduct(ops.m_tree(b)),
                  map_right(ops.m_tree, db) + map_left(ops.m_tree, db)
                  + tensor(reduced, chain) + tensor(chain, reduced))

    for sa in range(1, D + 1):
        for sb in range(1, D + 2 - sa):
            for a in enumerate_trees(sa):
                for b in enumerate_trees(sb):
                    ab = gl.tree_product(a, b)
                    rec.check("op.growth_left_action", [a.encoding, b.encoding],
                              ops.n_apply(ab),
                              gl.product(ops.n_tree(a), LinComb.term(b)))
                    rhs = gl.product(LinComb.term(a), ops.m_tree(b))
                    if b == LEAF:
                        rhs = rhs + ops.m_tree(a)
                    rec.check("op.chain_mult_derivation",
                              [a.encoding, b.encoding], ops.m_apply(ab), rhs)

    for b in basis:
        iterated = LinComb.term(b)
        for k in range(1, min(4, D) + 1):
            iterated = ops.n_apply(iterated)
            rec.check("op.growth_iterates", [str(k), b.encoding],
                      gl.product(ops.x_k(k), LinComb.term(b)), iterated)

    for k in range(1, D + 1):
        rec.check("op.growth_chain", [str(k)],
                  (gl.product(ops.x_k(k), ops.x_k(1)),
                   gl.product(ops.x_k(1), ops.x_k(k))),
                  (ops.x_k(k + 1), ops.x_k(k + 1)))

    for m in range(D + 3):
        for n in range(D + 3 - m):
            rec.check("op.xk_product", [str(m), str(n)],
                      gl.product(ops.x_k(m), ops.x_k(n)), ops.x_k(m + n))

    for m in range(D + 2):
        xm = ops.x_k(m)
        rec.check("op.xk_counit", [str(m)],
                  gl.counit(xm), 1 if m == 0 else 0)
        rec.check("op.xk_degree", [str(m)],
                  all(t.size == m + 1 for t in xm.terms), True)
        binomial = LinComb.zero()
        for i in range(m + 1):
            binomial = binomial + comb(m, i) * tensor(ops.x_k(i), ops.x_k(m - i))
        rec.check("op.xk_coproduct_binomial", [str(m)],
                  gl.coproduct(xm), binomial)
        rec.check("op.xk_antipode", [str(m)],
                  gl.antipode(xm), (-1) ** m * xm)

    rec.check("op.xk_independent", [f"0..{D + 1}"],
              rank([ops.x_k(m) for m in range(D + 2)]), D + 2)
    rec.check("op.chain_primitive", [ops.CHAIN2.encoding],
              gl.tree_coproduct(ops.CHAIN2),
              tensor(gl.UNIT, chain) + tensor(chain, gl.UNIT))


# ---------------------------------------------------------------------------
# graded dual

def _suite_dual(D: int, rec: _Recorder) -> None:
    report = gd.hochschild_check(D)
    rec.checked += report["checked"]
    rec.violations.extend(report["violations"])

    basis = gd.trees_up_to_degree(D)
    pairs = [(a, b) for a in basis for b in basis
             if gd.tree_degree(a) + gd.tree_degree(b) <= D]
    # each basis element with its image under the chain multiplication
    images = [(x, LinComb.term(x), ops.m_apply(LinComb.term(x))) for x in basis]
    for t in basis:
        f = gd.dual_basis(t)
        transpose = gd.m_dual(f)
        for x, term, image in images:
            rec.check("dual.transpose_coherence", [t.encoding, x.encoding],
                      gd.pair(transpose, term), gd.pair(f, image))
        cop = gd.dual_coproduct(f, gd.tree_degree(t))
        for a, b in pairs:
            rec.check("dual.product_pairing",
                      [t.encoding, a.encoding, b.encoding],
                      gl.tree_product(a, b).coeff(t),
                      cop.coeff(Tensor(a, b)))

    bound = min(D, 4)
    small = gd.trees_up_to_degree(bound)
    for t1 in small:
        f1 = gd.dual_basis(t1, bound)
        for t2 in small:
            f2 = gd.dual_basis(t2, bound)
            rec.check("dual.convolution_commutative",
                      [t1.encoding, t2.encoding],
                      gd.dual_product(f1, f2, bound), gd.dual_product(f2, f1, bound))

    def perturbed(tree):
        if tree == LEAF:
            return LinComb.term(ops.CHAIN2)
        return ops.m_tree(tree)

    control = gd.hochschild_check(min(D, 2), perturbed)
    rec.check("dual.mutation_control", ["m(leaf) := chain"],
              len(control["violations"]) > 0, True)


_SUITE_FUNCS = {
    "trees": _suite_trees,
    "hr": _suite_hr,
    "gl": _suite_gl,
    "lie": _suite_lie,
    "operators": _suite_operators,
    "dual": _suite_dual,
}


def run_suite(name: str, max_degree: int = 5) -> dict:
    """Run one suite (or ``"all"``) and return its report."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if name == "all":
        checked = 0
        violations: list[dict] = []
        for suite in SUITES:
            report = run_suite(suite, max_degree)
            checked += report["checked"]
            violations.extend(report["violations"])
        return {"suite": "all", "maxDegree": max_degree,
                "checked": checked, "violations": violations}
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}")
    recorder = _Recorder()
    _SUITE_FUNCS[name](max_degree, recorder)
    return {"suite": name, "maxDegree": max_degree,
            "checked": recorder.checked, "violations": recorder.violations}
