"""The law table of ``verify``: pinned per-law counts and negative controls."""

import hashlib
import json
import re
import sys
from collections import Counter
from importlib import import_module

import pytest

from conftest import count_cases, hochschild_check
from treehopf import clear_caches
from treehopf import connes_kreimer as ck
from treehopf import graded_dual as gd
from treehopf import grossman_larson as gl
from treehopf import operators as ops
from treehopf import tree_lie, trees, verify
from treehopf.exactlin import LinComb
from treehopf.laws import dual as dual_laws
from treehopf.laws import trees as trees_laws
from treehopf.laws.dual import hochschild_cases
from treehopf.trees import LEAF, Forest, parse_forest

PREFIXES = {"trees": "trees.", "hr": "hr.", "gl": "gl.", "lie": "lie.",
            "operators": "op.", "dual": "dual."}


def test_law_counts_pinned():
    # taken before the suites became tables, by counting each law's checks
    counts = {}
    for suite in verify.SUITES:
        for law, cases in import_module(f"treehopf.laws.{suite}").laws(5):
            assert law.startswith(PREFIXES[suite]), law
            assert law not in counts, law
            counts[law] = count_cases(cases)
    assert len(counts) == 71
    assert sum(counts.values()) == 13344
    text = json.dumps(counts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a2190f56d69c3527ac345c062e0fd506e1deb4d62f58e9a536117399641041fd"


def _drop_first(x: LinComb) -> LinComb:
    return LinComb(list(x.terms.items())[1:])


def _extra_term(x: LinComb) -> LinComb:
    return x + LinComb.term(next(iter(x.terms)))


def _drop_last(x: LinComb) -> LinComb:
    return LinComb(list(x.terms.items())[:-1])


def _bump_leaf(f: LinComb) -> LinComb:
    return f + LinComb.term(LEAF)


BREAKS = [
    # (suite, module, kernel, how it breaks, the law that must fire)
    # read through the trees suite's module global
    ("trees", trees_laws, "leaf_growth", lambda k: lambda t: _drop_last(k(t)),
     "trees.growth_count"),
    # the last tree of each size from 3 on goes missing; a forest that the
    # enumeration misses is the B- image of such a tree, so these rows see it
    ("trees", trees_laws, "enumerate_trees",
     lambda k: lambda n: k(n)[:-1] if n >= 3 else k(n), "trees.count"),
    ("trees", trees_laws, "enumerate_trees",
     lambda k: lambda n: k(n)[:-1] if n >= 3 else k(n), "trees.b_plus_bijection"),
    ("hr", ck, "forest_antipode", lambda k: lambda f: -k(f),
     "hr.antipode_left"),
    # the oracle: only the cut sum against the kernel can see it
    ("hr", ck, "tree_coproduct_by_cuts", lambda k: lambda t: 2 * k(t),
     "hr.coproduct_forms_agree"),
    # the row's B+ reaches the rooted forest through add_root and the
    # right leg through b_plus, so a wrong add_root parts its sides
    ("hr", ck, "add_root", lambda k: lambda x: -k(x), "hr.root_cocycle"),
    ("gl", gl, "tree_product", lambda k: lambda a, b: _drop_first(k(a, b)),
     "gl.product_mass"),
    # a tuple of combinations on each side
    ("gl", gl, "tree_product", lambda k: lambda a, b: _drop_first(k(a, b)),
     "gl.unit_laws"),
    # reached only through the module global, by tree_product and by the
    # recursion itself
    ("gl", gl, "graft_forest",
     lambda k: lambda scions, host: _drop_first(k(scions, host)),
     "gl.product_mass"),
    ("lie", tree_lie, "star_trees", lambda k: lambda a, b: _extra_term(k(a, b)),
     "lie.star_oracle"),
    # the oracle reads its cut counts from the coproduct kernel
    ("lie", ck, "tree_coproduct_recursive", lambda k: lambda t: 2 * k(t),
     "lie.star_oracle"),
    ("operators", ops, "n_tree", lambda k: lambda t: _extra_term(k(t)),
     "op.growth_is_left_chain_mult"),
    # N + id is no coderivation: the sides differ by the coproduct itself
    ("operators", ops, "n_tree", lambda k: lambda t: k(t) + LinComb.term(t),
     "op.growth_coderivation"),
    # puts the inserted child first; grafting reads this binding, leaf growth
    # the one in trees, so x_k b and N^k(b) part
    ("operators", gl, "with_child",
     lambda k: lambda kids, child: trees._tree((child,) + kids),
     "op.growth_iterates"),
    ("dual", gd, "m_dual", lambda k: lambda f: _bump_leaf(k(f)),
     "dual.transpose_coherence"),
    # the cut coproduct, not the product, gives the other side
    ("dual", gl, "tree_product", lambda k: lambda a, b: _drop_first(k(a, b)),
     "dual.product_pairing"),
    # an off-grade term: the skipped cases come from the supports of the
    # kernel under test, not from the grading
    ("dual", ops, "m_tree", lambda k: lambda t: k(t) + LinComb.term(LEAF),
     "dual.hochschild"),
    # the coproduct kernel gives the right side of the pairing
    ("dual", ck, "tree_coproduct_recursive", lambda k: lambda t: 2 * k(t),
     "dual.product_pairing"),
    # the automorphism orders dropped from the weights: the cut term of
    # each pair then misses its factor s(a) s(b) / s(t)
    ("dual", dual_laws, "aut_order", lambda k: lambda t: 1, "dual.product_pairing"),
    # reaches the inverted coproduct behind dual_product
    ("dual", gl, "tree_coproduct",
     lambda k: lambda t: _drop_last(k(t)) if t.fertility >= 2 else k(t),
     "dual.convolution_commutative"),
    # a split counted twice: the counts no longer sum to 2 ** r
    ("gl", gl, "tree_coproduct", lambda k: lambda t: _extra_term(k(t)),
     "gl.coproduct_mass"),
    ("operators", ops, "m_tree",
     lambda k: lambda t: _extra_term(m) if (m := k(t)) else m,
     "op.chain_mult_coproduct"),
]


def _break_ids(rows) -> list:
    """Each row's kernel name, with the suite added when a kernel repeats."""
    ids = []
    for suite, _, kernel, _, _ in rows:
        ids.append(f"{kernel}-{suite}" if kernel in ids else kernel)
    return ids


@pytest.mark.parametrize("suite, module, kernel, breaker, law", BREAKS,
                         ids=_break_ids(BREAKS))
def test_broken_kernel_fires_its_law(suite, module, kernel, breaker, law,
                                     monkeypatch, fresh_caches):
    monkeypatch.setattr(module, kernel, breaker(getattr(module, kernel)))
    report = verify.run_suite(suite, 3)
    hits = [v for v in report["violations"] if v["law"] == law]
    assert hits, report["violations"][:3]
    for v in hits:
        # an input is an integer (a degree, an order) or an encoding
        assert v["inputs"] and all(s.isdigit() or parse_forest(s).encoding == s
                                   for s in v["inputs"]), v
        # each side renders as its inputs do, never as a Python repr
        for side in (v["lhs"], v["rhs"]):
            assert isinstance(side, str) and not re.search(r"\w\(", side), v


def test_clear_caches_drops_values_built_by_a_replaced_kernel(monkeypatch,
                                                             fresh_caches):
    original = gl.tree_product
    monkeypatch.setattr(gl, "tree_product",
                        lambda a, b: _drop_first(original(a, b)))
    assert verify.run_suite("gl", 3)["violations"]
    monkeypatch.setattr(gl, "tree_product", original)
    # the antipode cache still holds values built with the broken product
    assert verify.run_suite("gl", 3)["violations"]
    clear_caches()
    assert verify.run_suite("gl", 3)["violations"] == []


def _package_memos() -> dict:
    """Every ``cache_info``-bearing attribute of the loaded treehopf modules,
    by the qualified name of its definition."""
    return {f"{value.__module__}.{value.__qualname__}": value
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith("treehopf.")
            for value in vars(module).values() if hasattr(value, "cache_info")}


def test_clear_caches_empties_every_memo():
    verify.run_suite("all", 3)
    memos = _package_memos()
    assert {"treehopf.grossman_larson.graft_forest", "treehopf.trees.leaf_growth",
            "treehopf.operators.x_k"} <= set(memos)
    assert [name for name, memo in memos.items()
            if not memo.cache_info().currsize] == []
    assert not hasattr(ops, "_xk_cache")
    clear_caches()
    assert [name for name, memo in memos.items()
            if memo.cache_info().currsize] == []


def test_each_value_has_one_memo():
    # the basis maps over a kernel's memo return its value, not a copy
    for kernel in (gl.tree_product, ops.n_tree, ck.delta):
        assert not hasattr(kernel, "cache_info"), kernel
    # no cut is remembered, and a tree's coproduct only by the kernel: the
    # cut sum is its memo-less oracle
    assert not hasattr(trees.admissible_cuts, "cache_info")
    assert not hasattr(ck.tree_coproduct_by_cuts, "cache_info")
    for a in trees.enumerate_trees(4):
        for b in trees.enumerate_trees(3):
            assert gl.tree_product(a, b) is gl.graft_forest(a.children, b)
        assert ops.n_tree(a) is trees.leaf_growth(a)
        assert ck.forest_coproduct(Forest((a,))) is ck.tree_coproduct_recursive(a)


def test_hochschild_check_reports_through_the_runner():
    def broken(t):
        return LinComb.term(ops.CHAIN2) if t == LEAF else ops.m_tree(t)

    report = hochschild_check(2, broken)
    cases = list(hochschild_cases(2, broken))
    assert report["checked"] == count_cases(cases)
    failed = [case for case in cases if type(case) is not int and case[1] != case[2]]
    assert report["violations"] == [
        {"law": "dual.hochschild", "inputs": [x.encoding for x in args],
         "lhs": str(lhs), "rhs": str(rhs)} for args, lhs, rhs in failed]
    assert failed


def test_dual_suite_reads_each_kernel_image_once(monkeypatch, fresh_caches):
    # the coordinates t* share one transposed table of m_tree per bound and
    # one product index per row, so no kernel is evaluated once per t
    calls = {}

    def counted(module, name):
        kernel = getattr(module, name)

        def wrapper(*args):
            calls.setdefault(name, []).append(args[0])
            return kernel(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(ops, "m_tree")
    D = 5
    assert verify.run_suite("dual", D)["violations"] == []
    per_tree = Counter(calls["m_tree"])
    assert max(per_tree.values()) <= D + 3, per_tree.most_common(1)


def test_trees_suite_enumerates_each_tree_cuts_once(monkeypatch):
    # the three cut rows share one table of cuts, built once per tree
    calls = []

    def counted(t):
        calls.append(t)
        return trees.admissible_cuts(t)

    monkeypatch.setattr(trees_laws, "admissible_cuts", counted)
    D = 4
    assert verify.run_suite("trees", D)["violations"] == []
    assert Counter(calls) == Counter(trees.trees_up_to_degree(D))
