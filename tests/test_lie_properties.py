"""Property tests for the tree Lie algebra on random rational combinations:
the grafting star against the cut-count oracle, and bracket antisymmetry."""

import pytest

from treehopf import connes_kreimer as ck
from treehopf import tree_lie
from treehopf.exactlin import LinComb, extend_bilinear
from treehopf.trees import enumerate_trees

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TREES = [t for n in range(1, 6) for t in enumerate_trees(n)]


@st.composite
def combinations(draw):
    """A rational combination of up to four trees with at most 5 vertices."""
    return LinComb(draw(st.dictionaries(
        st.sampled_from(TREES),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        max_size=4)))


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(combinations(), combinations())
def test_star_matches_cut_count_oracle_and_bracket_is_antisymmetric(x, y):
    assert tree_lie.star(x, y) == extend_bilinear(ck.star_by_cut_counting)(x, y)
    assert tree_lie.bracket(x, y) == -tree_lie.bracket(y, x)
