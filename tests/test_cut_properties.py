"""Property tests for the cut kernel on random trees beyond the exhaustive bounds."""

import pytest

from conftest import antichain_filter_cuts, cut_signature
from treehopf import connes_kreimer as ck
from treehopf.trees import canonicalize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def random_trees(draw, min_size=8, max_size=12):
    """A random recursive tree: vertex i hangs below a vertex drawn from 0..i-1."""
    n = draw(st.integers(min_size, max_size))
    children = [[] for _ in range(n)]
    for i in range(1, n):
        children[draw(st.integers(0, i - 1))].append(i)

    def nested(v):
        return [nested(c) for c in children[v]]

    return canonicalize(nested(0))


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(random_trees())
def test_recursive_cuts_match_antichain_filter(t):
    assert 8 <= t.size <= 12
    assert cut_signature(t) == antichain_filter_cuts(t)


@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(random_trees())
def test_cut_coproduct_matches_recursive_form(t):
    assert ck.tree_coproduct_by_cuts(t) == ck.tree_coproduct_recursive(t)
