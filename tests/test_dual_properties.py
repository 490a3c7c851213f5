"""Property tests for the sparse dual-side maps on random rational
functionals, against the dense oracles in ``conftest``."""

import pytest

from conftest import (dense_dual_coproduct, dense_dual_product, dense_m_dual,
                      dual_coproduct)
from treehopf import graded_dual as gd
from treehopf.exactlin import LinComb
from treehopf.trees import trees_up_to_degree

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TREES = trees_up_to_degree(4)


@st.composite
def functionals(draw):
    """A rational combination of coordinates t*, deg t <= 4, some zero."""
    return LinComb(draw(st.dictionaries(
        st.sampled_from(TREES),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        max_size=6)))


@hypothesis.settings(derandomize=True, max_examples=120, deadline=None)
@hypothesis.given(functionals(), functionals(), st.integers(0, 5))
def test_dual_product_matches_dense_and_commutes(f, g, bound):
    product = gd.dual_product(f, g, bound)
    assert product == dense_dual_product(f, g, bound)
    assert product == gd.dual_product(g, f, bound)
    assert all(type(c) is int or c.denominator > 1 for c in product.terms.values())


@hypothesis.settings(derandomize=True, max_examples=120, deadline=None)
@hypothesis.given(functionals())
def test_m_dual_matches_dense(f):
    assert gd.m_dual(f) == dense_m_dual(f)


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(functionals(), st.integers(0, 4))
def test_dual_coproduct_matches_dense(f, bound):
    assert dual_coproduct(f, bound) == dense_dual_coproduct(f, bound)

