"""The law table of ``verify``: pinned per-law counts and negative controls."""

import hashlib
import json
import sys

import pytest

from treehopf import connes_kreimer as ck
from treehopf import graded_dual as gd
from treehopf import grossman_larson as gl
from treehopf import operators as ops
from treehopf import tree_lie, verify
from treehopf.exactlin import LinComb
from treehopf.trees import LEAF, parse_forest

PREFIXES = {"trees": "trees.", "hr": "hr.", "gl": "gl.", "lie": "lie.",
            "operators": "op.", "dual": "dual."}


def test_law_counts_pinned():
    # taken before the suites became tables, by counting each law's checks
    counts = {}
    for suite in verify.SUITES:
        for law, cases in verify._LAWS[suite](5):
            assert law.startswith(PREFIXES[suite]), law
            assert law not in counts, law
            counts[law] = sum(1 for _ in cases)
    assert len(counts) == 71
    assert sum(counts.values()) == 13344
    text = json.dumps(counts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a2190f56d69c3527ac345c062e0fd506e1deb4d62f58e9a536117399641041fd"


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("treehopf") and module is not None:
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    ops._xk_cache.clear()


@pytest.fixture
def fresh_caches():
    """A broken kernel leaves wrong values in the caches of its callers."""
    _clear_caches()
    yield
    _clear_caches()


def _extra_term(x: LinComb) -> LinComb:
    return x + LinComb.term(next(iter(x.terms)))


def _bump_leaf(f: gd.DualFunctional) -> gd.DualFunctional:
    return gd.DualFunctional({**f.coeffs, LEAF: f.coeffs.get(LEAF, 0) + 1},
                             f.max_degree)


BREAKS = [
    # (suite, module, kernel, how it breaks, the law that must fire)
    ("trees", verify, "natural_growth_terms", lambda k: lambda t: k(t)[:-1],
     "trees.growth_count"),
    ("hr", ck, "forest_antipode", lambda k: lambda f: -k(f),
     "hr.antipode_left"),
    ("gl", gl, "tree_product",
     lambda k: lambda a, b: LinComb(list(k(a, b).terms.items())[1:]),
     "gl.product_mass"),
    ("lie", tree_lie, "star_trees", lambda k: lambda a, b: _extra_term(k(a, b)),
     "lie.star_oracle"),
    ("operators", ops, "n_tree", lambda k: lambda t: _extra_term(k(t)),
     "op.growth_is_left_chain_mult"),
    ("dual", gd, "m_dual", lambda k: lambda f: _bump_leaf(k(f)),
     "dual.transpose_coherence"),
]


@pytest.mark.parametrize("suite, module, kernel, breaker, law", BREAKS,
                         ids=[b[2] for b in BREAKS])
def test_broken_kernel_fires_its_law(suite, module, kernel, breaker, law,
                                     monkeypatch, fresh_caches):
    monkeypatch.setattr(module, kernel, breaker(getattr(module, kernel)))
    report = verify.run_suite(suite, 3)
    hits = [v for v in report["violations"] if v["law"] == law]
    assert hits, report["violations"][:3]
    for v in hits:
        assert v["inputs"] and all(parse_forest(s).encoding == s
                                   for s in v["inputs"]), v
        assert isinstance(v["lhs"], str) and isinstance(v["rhs"], str)


def test_hochschild_check_reports_through_the_runner():
    def broken(t):
        return LinComb.term(ops.CHAIN2) if t == LEAF else ops.m_tree(t)

    report = gd.hochschild_check(2, broken)
    cases = list(gd.hochschild_cases(2, broken))
    assert report["checked"] == len(cases)
    failed = [(args, lhs, rhs) for args, lhs, rhs in cases if lhs != rhs]
    assert report["violations"] == [
        {"law": "dual.hochschild", "inputs": [x.encoding for x in args],
         "lhs": str(lhs), "rhs": str(rhs)} for args, lhs, rhs in failed]
    assert failed
