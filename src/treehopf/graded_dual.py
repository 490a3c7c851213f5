"""Degree-truncated dual of the grafting Hopf algebra.

A functional is a finite rational combination of tree coordinates t*, with a
declared degree bound on its support; ``pair`` evaluates it against an
element through the tree basis.  Because the algebra is graded with
finite-dimensional slices, fixing a degree bound makes every dual-side
computation finite and exact: the dual coproduct of f tabulates f(a * b)
over tree pairs within the bound, and the transpose of the chain
right-multiplication operator drops degree by one.

``hochschild_cases`` lists, and ``hochschild_check`` checks, every case of
the cocycle identity that this transpose satisfies

    (M* f)(a b) = (M* f)(a) eps(b) + sum_i f_i(a) (M* f'_i)(b)

where ``sum_i f_i (x) f'_i`` is the dual coproduct of f.  An alternate basis
action can be injected in place of the chain multiplication to confirm the
check actually fails on perturbed operators.
"""

from __future__ import annotations

from .exactlin import LinComb, Tensor, add_to
from .trees import LEAF, Tree, enumerate_trees
from . import grossman_larson as gl
from .grossman_larson import tree_degree
from .operators import m_tree


def trees_up_to_degree(bound: int) -> list[Tree]:
    return [t for d in range(bound + 1) for t in enumerate_trees(d + 1)]


class DualFunctional:
    """Functional on the grafting algebra, supported in bounded degree."""

    __slots__ = ("coeffs", "max_degree")

    def __init__(self, coeffs=None, max_degree: int | None = None):
        clean = LinComb(dict(coeffs or {})).terms
        top = max((tree_degree(t) for t in clean), default=0)
        if max_degree is None:
            max_degree = top
        if top > max_degree:
            raise ValueError(
                f"support reaches degree {top}, above the declared bound {max_degree}")
        self.coeffs = clean
        self.max_degree = max_degree

    def __eq__(self, other):
        return isinstance(other, DualFunctional) and self.coeffs == other.coeffs

    def __repr__(self):
        body = ", ".join(f"{t.encoding!r}: {c}" for t, c in
                         sorted(self.coeffs.items(), key=lambda kv: kv[0].encoding))
        return f"DualFunctional({{{body}}}, max_degree={self.max_degree})"


def dual_basis(t: Tree, max_degree: int | None = None) -> DualFunctional:
    """The coordinate functional t*."""
    return DualFunctional({t: 1}, max_degree)


def counit_functional(max_degree: int = 0) -> DualFunctional:
    """The counit as a functional; the coordinate of the one-vertex tree."""
    return dual_basis(LEAF, max_degree)


def pair(f: DualFunctional, x: LinComb):
    """Evaluate the functional on an element."""
    total = 0
    for t, c in x.terms.items():
        total += f.coeffs.get(t, 0) * c
    return total


def dual_coproduct(f: DualFunctional, degree_bound: int) -> LinComb:
    """Tabulate f(a * b) over tree pairs with degrees summing within the bound.

    The result, read as ``sum_i f_i (x) f'_i`` on coordinate functionals,
    satisfies ``f(x y) = sum_i f_i(x) f'_i(y)`` for elements supported
    within the bound.
    """
    out: dict = {}
    for da in range(degree_bound + 1):
        for db in range(degree_bound - da + 1):
            for a in enumerate_trees(da + 1):
                for b in enumerate_trees(db + 1):
                    value = pair(f, gl.tree_product(a, b))
                    if value:
                        add_to(out, Tensor(a, b), value)
    return LinComb(out)


def m_dual(f: DualFunctional) -> DualFunctional:
    """Transpose of the chain right-multiplication; degree drops by one."""
    bound = max(f.max_degree - 1, 0)
    coeffs = {}
    for a in trees_up_to_degree(bound):
        value = pair(f, m_tree(a))
        if value:
            coeffs[a] = value
    return DualFunctional(coeffs, bound)


def dual_product(f: DualFunctional, g: DualFunctional,
                 degree_bound: int) -> DualFunctional:
    """Convolution product, tabulated on trees within the bound.

    ``(f g)(t) = sum over coproduct(t) of f(left) g(right)``; commutative
    because the coproduct is cocommutative.
    """
    coeffs = {}
    for t in trees_up_to_degree(degree_bound):
        total = 0
        for key, c in gl.tree_coproduct(t).terms.items():
            total += c * f.coeffs.get(key.left, 0) * g.coeffs.get(key.right, 0)
        if total:
            coeffs[t] = total
    return DualFunctional(coeffs, degree_bound)


def hochschild_cases(degree_bound: int, m_tree_func=None):
    """Yield every case ``((t, a, b), lhs, rhs)`` of the transpose cocycle.

    For every coordinate functional t* with deg t <= degree_bound and every
    tree pair (a, b) with deg a + deg b <= degree_bound - 1, the sides are

        (M* t*)(a b)  and  (M* t*)(a) eps(b) + sum_i f_i(a) (M* f'_i)(b).

    ``m_tree_func`` swaps in an alternate basis action for the
    multiplication operator.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    action = m_tree_func or m_tree
    arguments = trees_up_to_degree(degree_bound - 1)
    # the action depends on its argument alone: one evaluation per tree
    images = {b: action(b) for b in arguments}
    argument_pairs = [(a, b) for a in arguments for b in arguments
                      if tree_degree(a) + tree_degree(b) <= degree_bound - 1]
    for t in trees_up_to_degree(degree_bound):
        f = dual_basis(t)
        # (M* f) tabulated on every tree a product below can reach
        transpose = {a: pair(f, images[a]) for a in arguments}
        # the dual coproduct indexed by its left leg
        cop_by_left: dict = {}
        for key, c in dual_coproduct(f, tree_degree(t)).terms.items():
            cop_by_left.setdefault(key.left, []).append((key.right, c))
        for a, b in argument_pairs:
            lhs = 0
            for term, c in gl.tree_product(a, b).terms.items():
                lhs += c * transpose.get(term, 0)
            rhs = transpose[a] if b is LEAF else 0
            mb = images[b]
            for right, c in cop_by_left.get(a, ()):
                rhs += c * mb.coeff(right)
            yield (t, a, b), lhs, rhs


def hochschild_check(degree_bound: int, m_tree_func=None) -> dict:
    """Exhaustive transpose-cocycle check up to the degree bound.

    Runs every case of ``hochschild_cases`` under the law name
    ``dual.hochschild`` and returns ``{"checked": n, "violations": [...]}``.
    """
    from .verify import check  # verify imports this module
    return check([("dual.hochschild",
                   hochschild_cases(degree_bound, m_tree_func))])
