"""Property tests for the Hopf laws of both algebras on random rational
combinations, and for the JSON and text round trips of every key family."""

import json
import re
from fractions import Fraction

import pytest

from conftest import KEY_ENCODERS, KEY_PARSERS
from treehopf import connes_kreimer as ck
from treehopf import grossman_larson as gl
from treehopf.exactlin import LinComb, tensor_key, tensor_multiply
from treehopf.serialize import lincomb_from_obj, lincomb_to_json, lincomb_to_text
from treehopf.trees import enumerate_forests, enumerate_trees

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TREES = [t for n in range(1, 6) for t in enumerate_trees(n)]
FORESTS = [f for w in range(5) for f in enumerate_forests(w)]

# name -> (basis, basis product, product, coproduct, antipode, counit, unit)
ALGEBRAS = {
    "gl": (TREES, gl.tree_product, gl.product, gl.coproduct, gl.antipode,
           gl.counit, gl.UNIT),
    "hr": (FORESTS, lambda f, g: LinComb.term(f.union(g)), ck.product, ck.coproduct,
           ck.antipode, ck.counit, ck.UNIT),
}

COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def combinations(keys, max_size=4):
    """A rational combination of up to ``max_size`` keys, some zero."""
    return st.dictionaries(keys, COEFFS, max_size=max_size).map(LinComb)


@pytest.mark.parametrize("name", ALGEBRAS)
@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_coproduct_of_product_is_product_of_coproducts(name, data):
    basis, basis_product, product, coproduct, *_ = ALGEBRAS[name]
    x, y = (data.draw(combinations(st.sampled_from(basis))) for _ in range(2))
    assert coproduct(product(x, y)) == \
        tensor_multiply(coproduct(x), coproduct(y), basis_product)


@pytest.mark.parametrize("name", ALGEBRAS)
@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(data=st.data())
def test_antipode_convolves_to_counit(name, data):
    # m (S (x) id) Delta = eps 1
    basis, _, product, coproduct, antipode, counit, unit = ALGEBRAS[name]
    x = data.draw(combinations(st.sampled_from(basis)))
    convolved = LinComb.zero()
    for (left, right), c in coproduct(x).terms.items():
        convolved += c * product(antipode(LinComb.term(left)),
                                 LinComb.term(right))
    assert convolved == counit(x) * unit


def _tensors(keys):
    return st.builds(tensor_key, keys, keys)


KEYS = {
    "tree": st.sampled_from(TREES),
    "forest": st.sampled_from(FORESTS),
    "tensor-tree": _tensors(st.sampled_from(TREES)),
    "tensor-forest": _tensors(st.sampled_from(FORESTS)),
    "z": st.sampled_from(TREES),
}


@pytest.mark.parametrize("family", KEY_PARSERS)
@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(data=st.data())
def test_json_roundtrip(family, data):
    x = data.draw(combinations(KEYS[family], max_size=6))
    text = lincomb_to_json(x, KEY_ENCODERS[family])
    assert lincomb_from_obj(json.loads(text), KEY_PARSERS[family]) == x


def text_terms(text):
    """``(basis, coefficient)`` pairs read back from ``lincomb_to_text``.

    Terms are joined by ``" + "`` or ``" - "``; the first may carry a
    leading ``-``, and each an optional ``c*`` before its basis.
    """
    if text == "0":
        return []
    pieces = re.split(r" ([+-]) ", text)
    signs = ["-" if pieces[0].startswith("-") else "+"] + pieces[1::2]
    bodies = [pieces[0].removeprefix("-")] + pieces[2::2]
    terms = []
    for sign, body in zip(signs, bodies):
        coeff, star, basis = body.rpartition("*")
        magnitude = Fraction(coeff) if star else 1
        terms.append((basis, -magnitude if sign == "-" else magnitude))
    return terms


@pytest.mark.parametrize("family", KEY_PARSERS)
@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(data=st.data())
def test_text_roundtrip(family, data):
    x = data.draw(combinations(KEYS[family], max_size=6))
    encode = KEY_ENCODERS[family]
    terms = text_terms(lincomb_to_text(x, encode))
    assert LinComb((KEY_PARSERS[family](basis), c) for basis, c in terms) == x
    assert [basis for basis, _ in terms] == sorted(basis for basis, _ in terms)
    assert lincomb_to_text(LinComb.zero(), encode) == "0"
