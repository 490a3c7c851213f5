import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from treehopf import clear_caches
from treehopf import connes_kreimer as ck
from treehopf import graded_dual as gd
from treehopf import grossman_larson as gl
from treehopf import operators as ops
from treehopf import verify
from treehopf.laws.dual import hochschild_cases
from treehopf.exactlin import LinComb, add_to, encoding, exact, tensor_key
from treehopf.serialize import (encode_z_key, lincomb_from_obj, lincomb_to_json,
                                parse_tensor_key, parse_z_key)
from treehopf.trees import (LEAF, Forest, Tree, admissible_cuts, aut_order,
                            b_minus, enumerate_trees, graft_many, parse_forest,
                            parse_tree, preorder_subtrees, trees_up_to_degree)

KEY_PARSERS = {
    "tree": parse_tree,
    "forest": parse_forest,
    "tensor-tree": lambda text: parse_tensor_key(text, parse_tree, parse_tree),
    "tensor-forest": lambda text: parse_tensor_key(text, parse_forest, parse_forest),
    "z": parse_z_key,
}

KEY_ENCODERS = {
    "tree": encoding,
    "forest": encoding,
    "tensor-tree": encoding,
    "tensor-forest": encoding,
    "z": encode_z_key,
}


SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env() -> dict:
    """The environment of a child process that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh process that imports this checkout's package."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env())


def is_normalised(value) -> bool:
    """An exact coefficient: a plain int, or a Fraction that is not integral."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def roundtrip_ok(payload: str, family: str) -> bool:
    """Re-parse an emitted JSON combination and re-serialize it bit-exactly."""
    obj = json.loads(payload)
    parsed = lincomb_from_obj(obj, KEY_PARSERS[family])
    return lincomb_to_json(parsed, KEY_ENCODERS[family]) == payload


def antichain_filter_cuts(t: Tree) -> tuple:
    """Admissible cuts by filtering every vertex subset, as an oracle.

    Tries each set of non-root preorder indices in order of size, then
    lexicographically, keeps the antichains in the ancestor order, and
    rebuilds branch and trunk by walking the tree.  Returns ``(edges,
    branch encoding, trunk encoding)`` per cut, the edges ascending.
    """
    subs = preorder_subtrees(t)
    n = t.size
    out = []
    for order in range(1, n):
        for combo in itertools.combinations(range(1, n), order):
            if any(w < v + subs[v].size
                   for i, v in enumerate(combo) for w in combo[i + 1:]):
                continue
            severed = set(combo)

            def rebuild(node, index):
                child_index = index + 1
                kids = []
                for child in node.children:
                    if child_index not in severed:
                        kids.append(rebuild(child, child_index))
                    child_index += child.size
                return Tree(kids)

            branch = Forest(subs[v] for v in combo)
            out.append((combo, branch.encoding, rebuild(t, 0).encoding))
    return tuple(out)


def cut_signature(t: Tree) -> tuple:
    """``admissible_cuts(t)`` in the oracle's shape, keeping its order and
    each cut's edge tuple as stored."""
    return tuple((c.edges, c.branch.encoding, c.trunk.encoding)
                 for c in admissible_cuts(t))


def graft_per_vertex_growth(t: Tree) -> dict:
    """Leaf growth by one ``graft_many`` of a leaf per vertex, as an oracle.

    Returns ``{tree: count}``, the terms of ``trees.leaf_growth(t)``.
    """
    out: dict = {}
    for v in range(t.size):
        add_to(out, graft_many(t, [(v, LEAF)]), 1)
    return out


def _multisets(n: int, m: int):
    """Multisets of m vertices out of ``range(n)``, with multinomial weights.

    The weight m! / prod(mult!) counts the ordered m-tuples that list the
    multiset.
    """
    for sites in itertools.combinations_with_replacement(range(n), m):
        weight = factorial(m)
        for _, same in itertools.groupby(sites):
            weight //= factorial(len(list(same)))
        yield sites, weight


def multiset_site_product(t1: Tree, t2: Tree) -> LinComb:
    """The grafting product by multisets of host vertices, as an oracle.

    Each run of equal root subtrees of t1 picks a multiset of vertices of
    t2, weighted by the number of ordered assignments that list it, and
    every choice is grafted by one ``graft_many`` call on the original t2.
    """
    runs = [[([(v, scion) for v in sites], weight)
             for sites, weight in _multisets(t2.size, len(list(group)))]
            for scion, group in itertools.groupby(t1.children)]
    out: dict = {}
    for choice in itertools.product(*runs):
        placements = [p for sites, _ in choice for p in sites]
        add_to(out, graft_many(t2, placements), prod(w for _, w in choice))
    return LinComb(out)


def dense_solve_membership(target: LinComb, generators) -> list | None:
    """Dense Gauss-Jordan membership solve over ``Fraction`` rows, as an oracle.

    The elimination ``exactlin.solve_membership`` ran before the sparse
    fraction-free reducer replaced it; it must give the same coordinates,
    ``int``/``Fraction`` types included.
    """
    generators = list(generators)
    keys = sorted({k for g in generators for k in g.terms} | set(target.terms),
                  key=encoding)
    ncols = len(generators)
    rows = [[Fraction(g.coeff(k)) for g in generators] + [Fraction(target.coeff(k))]
            for k in keys]
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
        pivot = rows[row][col]
        rows[row] = [v / pivot for v in rows[row]]
        for i in range(len(rows)):
            if i != row and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[row])]
        pivots.append(col)
        row += 1
        if row == len(rows):
            break
    for i in range(row, len(rows)):
        if rows[i][ncols]:
            return None
    coords = [0] * ncols
    for i, col in enumerate(pivots):
        coords[col] = exact(rows[i][ncols])
    return coords


def dense_rank(vectors) -> int:
    """Rank by dense forward elimination over ``Fraction`` rows, as an oracle.

    The elimination ``exactlin.rank`` ran before the sparse reducer.
    """
    vectors = list(vectors)
    keys = sorted({k for v in vectors for k in v.terms}, key=encoding)
    if not keys:
        return 0
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for v in vectors:
        row = [Fraction(0)] * len(keys)
        for k, c in v.terms.items():
            row[index[k]] = Fraction(c)
        rows.append(row)
    rnk = 0
    for col in range(len(keys)):
        pivot_row = next((i for i in range(rnk, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rnk], rows[pivot_row] = rows[pivot_row], rows[rnk]
        pivot = rows[rnk][col]
        for i in range(rnk + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / pivot
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rnk])]
        rnk += 1
        if rnk == len(rows):
            break
    return rnk


def product_pairs(max_size: int) -> list:
    """Every pair of trees (a, b) whose product has at most max_size vertices."""
    return [(a, b) for na in range(1, max_size + 1)
            for nb in range(1, max_size + 2 - na)
            for a in enumerate_trees(na) for b in enumerate_trees(nb)]


def count_cases(cases) -> int:
    """The number of cases in a row's ``cases``; an ``int`` item counts as
    that many cases, as ``verify.check`` counts it."""
    return sum(case if type(case) is int else 1 for case in cases)


def nonzero_cases(cases) -> list:
    """The ``(args, lhs, rhs)`` cases of a row with a side other than 0."""
    return [case for case in cases
            if type(case) is not int and (case[1] != 0 or case[2] != 0)]


# Functionals on the grafting algebra are combinations over the tree basis,
# with coordinates t* = LinComb.term(t).

def pair(f: LinComb, x: LinComb):
    """Evaluate the functional f on the element x."""
    return sum(f.coeff(t) * c for t, c in x.terms.items())


def dual_coproduct(f: LinComb, degree_bound: int) -> LinComb:
    """Tabulate f(a * b) over tree pairs with degrees summing within the bound.

    The result, read as ``sum_i f_i (x) f'_i`` on coordinate functionals,
    satisfies ``f(x y) = sum_i f_i(x) f'_i(y)`` for elements supported
    within the bound.  Reads ``graded_dual.product_index``.
    """
    index = gd.product_index(degree_bound)
    out: dict = {}
    for t, ft in f.terms.items():
        for (a, b), c in index.get(t, ()):
            add_to(out, tensor_key(a, b), ft * c)
    return LinComb(out)


def hochschild_check(degree_bound: int, m_tree_func=None) -> dict:
    """The report of the transpose cocycle row alone, as ``verify`` counts it."""
    return verify.check([("dual.hochschild",
                          hochschild_cases(degree_bound, m_tree_func))])


# The dense dual-side maps and rows, as they ran before the sparse supports:
# every coordinate is evaluated against every kernel image.

def dense_dual_coproduct(f: LinComb, degree_bound: int) -> LinComb:
    """f(a * b) by one ``pair`` per tree pair within the bound, as an oracle."""
    out: dict = {}
    for da in range(degree_bound + 1):
        for db in range(degree_bound - da + 1):
            for a in enumerate_trees(da + 1):
                for b in enumerate_trees(db + 1):
                    value = pair(f, gl.tree_product(a, b))
                    if value:
                        add_to(out, tensor_key(a, b), value)
    return LinComb(out)


def dense_m_dual(f: LinComb) -> LinComb:
    """The transpose of the chain multiplication by one ``pair`` per tree."""
    top = max((gd.tree_degree(t) for t in f.terms), default=0)
    return LinComb((a, pair(f, ops.m_tree(a)))
                   for a in trees_up_to_degree(max(top - 1, 0)))


def dense_dual_product(f: LinComb, g: LinComb, degree_bound: int) -> LinComb:
    """The convolution product over every tree's coproduct, as an oracle."""
    return LinComb((t, sum(c * f.coeff(left) * g.coeff(right)
                           for (left, right), c in gl.tree_coproduct(t).terms.items()))
                   for t in trees_up_to_degree(degree_bound))


def dense_hochschild_cases(degree_bound: int, m_tree_func=None):
    """Every case of the transpose cocycle, each computed, as an oracle."""
    action = m_tree_func or ops.m_tree
    arguments = trees_up_to_degree(degree_bound - 1)
    images = {b: action(b) for b in arguments}
    argument_pairs = [(a, b) for a in arguments for b in arguments
                      if a.size + b.size <= degree_bound + 1]
    for t in trees_up_to_degree(degree_bound):
        f = LinComb.term(t)
        transpose = {a: pair(f, images[a]) for a in arguments}
        cop_by_left: dict = {}
        for (left, right), c in dense_dual_coproduct(f, t.size - 1).terms.items():
            cop_by_left.setdefault(left, []).append((right, c))
        for a, b in argument_pairs:
            lhs = 0
            for term, c in gl.tree_product(a, b).terms.items():
                lhs += c * transpose.get(term, 0)
            rhs = transpose[a] if b is LEAF else 0
            for right, c in cop_by_left.get(a, ()):
                rhs += c * images[b].coeff(right)
            yield (t, a, b), lhs, rhs


def dense_transpose_coherence(D: int):
    """``dual.transpose_coherence`` with every (t, x) case computed."""
    basis = trees_up_to_degree(D)
    images = [(x, LinComb.term(x), ops.m_apply(LinComb.term(x))) for x in basis]
    for t in basis:
        f = LinComb.term(t)
        transpose = dense_m_dual(f)
        for x, term, image in images:
            yield (t, x), pair(transpose, term), pair(f, image)


def dense_product_pairing(D: int):
    """``dual.product_pairing`` with every (t, a, b) case computed."""
    basis = trees_up_to_degree(D)
    legs = [(a, b, (b_minus(a), Forest((b,))), aut_order(a) * aut_order(b))
            for a in basis for b in basis if a.size + b.size <= D + 2]
    for t in basis:
        cuts, sigma = ck.tree_coproduct_by_cuts(t), aut_order(t)
        for a, b, key, weight in legs:
            c = cuts.coeff(key)
            yield ((t, a, b), gl.tree_product(a, b).coeff(t),
                   Fraction(c * weight, sigma) if c else 0)


@pytest.fixture
def fresh_caches():
    """A broken kernel leaves wrong values in the caches of its callers."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(scope="session")
def cli_corpus(tmp_path_factory):
    """Fixed corpus of 50 invocations; entries are (argv, roundtrip family)."""
    path = tmp_path_factory.mktemp("elements") / "x2.json"
    path.write_text(json.dumps({"terms": [
        {"basis": "[[[]]]", "coeff": "1"},
        {"basis": "[[][]]", "coeff": "1"},
    ]}), encoding="utf-8")
    at_file = f"@{path}"
    corpus = [
        (["enum", "--size", "1"], None),
        (["enum", "--size", "2"], None),
        (["enum", "--size", "3"], None),
        (["enum", "--size", "4"], None),
        (["enum", "--size", "5"], None),
        (["enum", "--size", "6"], None),
        (["enum", "--size", "5", "--count-only"], None),
        (["enum", "--size", "7", "--count-only"], None),
        (["--format", "text", "enum", "--size", "4"], None),
        (["prod", "--algebra", "gl", "[[]]", "[[]]"], "tree"),
        (["prod", "--algebra", "gl", "[[][]]", "[[]]"], "tree"),
        (["prod", "--algebra", "gl", "[[]]", "[[][]]"], "tree"),
        (["prod", "--algebra", "hr", "[] [[]]", "[]"], "forest"),
        (["prod", "--algebra", "hr", "1", "[[]]"], "forest"),
        (["coprod", "--algebra", "gl", "[[][]]"], "tensor-tree"),
        (["coprod", "--algebra", "gl", "[[[]][]]"], "tensor-tree"),
        (["coprod", "--algebra", "hr", "[[][]]"], "tensor-forest"),
        (["coprod", "--algebra", "hr", "[] []"], "tensor-forest"),
        (["antipode", "--algebra", "gl", "[[][]]"], "tree"),
        (["antipode", "--algebra", "hr", "[[[]]]"], "forest"),
        (["counit", "--algebra", "gl", "[]"], None),
        (["counit", "--algebra", "hr", "1"], None),
        (["counit", "--algebra", "hr", "[[]]"], None),
        (["grow", "--algebra", "gl", "[[]]"], "tree"),
        (["grow", "--algebra", "hr", "[] []"], "forest"),
        (["xk", "0"], "tree"),
        (["xk", "3"], "tree"),
        (["delta", "1"], "forest"),
        (["delta", "4"], "forest"),
        (["mop", "[[]]"], "tree"),
        (["mop", "[]"], "tree"),
        (["lop", "1"], "forest"),
        (["lop", "[[]] []"], "forest"),
        (["bracket", "[]", "[[]]"], "z"),
        (["bracket", "[[]]", "[]"], "z"),
        (["star", "[]", "[[][]]"], "z"),
        (["star", "[[]]", "[[]]"], "z"),
        (["phi", "[[]]"], "z"),
        (["phi", "[[[]]]"], "z"),
        (["psi", "[]"], "tree"),
        (["psi", "[[][]]"], "tree"),
        (["--format", "text", "prod", "--algebra", "gl", "[[]]", "[[]]"], None),
        (["--format", "text", "coprod", "--algebra", "gl", "[[]]"], None),
        (["--format", "text", "delta", "3"], None),
        (["verify", "--suite", "trees", "--max-degree", "3"], None),
        (["verify", "--suite", "lie", "--max-degree", "3"], None),
        (["verify", "--suite", "dual", "--max-degree", "2"], None),
        (["--format", "text", "verify", "--suite", "hr", "--max-degree", "2"], None),
        (["verify", "--suite", "gl", "--max-degree", "2"], None),
        (["prod", "--algebra", "gl", at_file, "[[]]"], "tree"),
    ]
    assert len(corpus) == 50
    return corpus
