"""Property tests for the cut and grafting kernels on random trees beyond the
exhaustive bounds, and for the interned canonical form."""

import pytest

from conftest import antichain_filter_cuts, cut_signature, multiset_site_product
from treehopf import connes_kreimer as ck
from treehopf import grossman_larson as gl
from treehopf.trees import canonicalize, enumerate_trees

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


@st.composite
def random_pairs(draw, min_size=8, max_size=12):
    """Two random trees whose grafting product has min_size..max_size vertices."""
    total = draw(st.integers(min_size, max_size))
    left = draw(st.integers(2, total - 1))
    right = total + 1 - left
    return draw(random_trees(left, left)), draw(random_trees(right, right))


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(random_pairs())
def test_recursive_product_matches_multiset_oracle(pair):
    a, b = pair
    assert 8 <= a.size + b.size - 1 <= 12
    assert gl.tree_product(a, b) == multiset_site_product(a, b)


def shuffled(t, rng):
    """Nested child lists of t, with the children of every vertex shuffled."""
    kids = [shuffled(c, rng) for c in t.children]
    rng.shuffle(kids)
    return kids


@hypothesis.settings(derandomize=True, max_examples=80, deadline=None)
@hypothesis.given(st.integers(1, 10).flatmap(
                      lambda n: st.sampled_from(enumerate_trees(n))),
                  st.randoms(use_true_random=False))
def test_canonicalize_of_a_shuffle_is_the_tree_itself(t, rng):
    assert canonicalize(shuffled(t, rng)) is t
