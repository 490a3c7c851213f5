"""Serialization: JSON schema, shorthand coefficients, text rendering."""

import json
from fractions import Fraction

import pytest

from conftest import KEY_ENCODERS, KEY_PARSERS
from treehopf.exactlin import LinComb, encoding, tensor_key
from treehopf.serialize import (encode_z_key, lincomb_from_obj, lincomb_to_json,
                                lincomb_to_text, parse_z_key)
from treehopf.trees import (EMPTY_FOREST, Forest, b_minus, enumerate_forests,
                            parse_forest, parse_tree, trees_up_to_degree,
                            tuples_up_to_size)

E = parse_tree("[]")
L2 = parse_tree("[[]]")
L3 = parse_tree("[[[]]]")


def test_obj_terms_sorted_by_basis():
    x = LinComb({L2: 2, E: 1, L3: Fraction(1, 3)})
    obj = json.loads(lincomb_to_json(x))
    assert [t["basis"] for t in obj["terms"]] == ["[[[]]]", "[[]]", "[]"]
    assert [t["coeff"] for t in obj["terms"]] == ["1/3", "2", "1"]


FAMILY_KEYS = {
    "tree": [E, L2, L3],
    "forest": [EMPTY_FOREST, parse_forest("[] [[]]"), Forest((L3,))],
    "tensor-tree": [tensor_key(E, L2), tensor_key(L2, E), tensor_key(L3, L3)],
    "tensor-forest": [tensor_key(parse_forest("[] [[]]"), Forest((E,))),
                      tensor_key(EMPTY_FOREST, Forest((L2,))),
                      tensor_key(Forest((E,)), EMPTY_FOREST)],
    "z": [E, L2, L3],
}


@pytest.mark.parametrize("family", KEY_ENCODERS)
@pytest.mark.parametrize("coeffs", [(), (-1, Fraction(2, 3), 5),
                                    (Fraction(-7, 2), -3, Fraction(1, 9))])
def test_json_text_is_the_sorted_dump_of_the_schema_object(family, coeffs):
    # the terms are joined by hand; the text is the one json.dumps gives
    encode = KEY_ENCODERS[family]
    x = LinComb(zip(FAMILY_KEYS[family], coeffs))
    obj = {"terms": [{"basis": basis, "coeff": str(coeff)} for basis, coeff
                     in sorted((encode(k), c) for k, c in x.terms.items())]}
    assert lincomb_to_json(x, encode) == json.dumps(obj, sort_keys=True)
    assert len(obj["terms"]) == len(coeffs)


def test_every_basis_encoding_is_json_safe():
    # lincomb_to_json quotes encodings as they stand, so none may need escaping
    trees = trees_up_to_degree(8)
    forests = [f for w in range(9) for f in enumerate_forests(w)]
    pairs = tuples_up_to_size(2, 10)
    keys = [*trees, *forests, *(tensor_key(a, b) for a, b in pairs),
            *(tensor_key(b_minus(a), b_minus(b)) for a, b in pairs)]
    texts = [encoding(k) for k in keys] + [encode_z_key(t) for t in trees]
    assert len(trees) == len(forests) == 486 and len(pairs) == 2025
    for text in texts:
        assert json.dumps(text) == f'"{text}"'


def test_json_roundtrip_tree_basis():
    x = LinComb({L2: Fraction(-7, 2), E: 4})
    text = lincomb_to_json(x)
    assert lincomb_from_obj(json.loads(text), parse_tree) == x


def test_integer_shorthand_accepted():
    obj = {"terms": [{"basis": "[]", "coeff": "3"}]}
    assert lincomb_from_obj(obj, parse_tree) == LinComb.term(E, 3)
    obj = {"terms": [{"basis": "[]", "coeff": "3/1"}]}
    assert lincomb_from_obj(obj, parse_tree) == LinComb.term(E, 3)


def test_malformed_objects_rejected():
    with pytest.raises(ValueError):
        lincomb_from_obj({"nope": []}, parse_tree)
    with pytest.raises(ValueError):
        lincomb_from_obj({"terms": [{"basis": "[]"}]}, parse_tree)
    for basis in (5, None, ["[]"]):
        with pytest.raises(ValueError, match="basis must be a string"):
            lincomb_from_obj({"terms": [{"basis": basis, "coeff": "1"}]}, parse_tree)


@pytest.mark.parametrize("coeff", ["1/0", "-2/00", 1.5, 3, True, None,
                                   "1.5", " 3", "+3", "3\n", "1/-2"])
def test_coefficient_grammar_is_strict(coeff):
    obj = {"terms": [{"basis": "[]", "coeff": coeff}]}
    with pytest.raises(ValueError, match="coefficient") as info:
        lincomb_from_obj(obj, parse_tree)
    assert repr(coeff) in str(info.value)


def test_forest_and_tensor_keys():
    f = parse_forest("[] [[]]")
    x = LinComb.term(tensor_key(f, Forest((E,))))
    text = lincomb_to_json(x)
    assert '"[[]] [] | []"' in text
    assert lincomb_from_obj(json.loads(text), KEY_PARSERS["tensor-forest"]) == x

    y = LinComb.term(tensor_key(E, L2), 2)
    assert lincomb_from_obj(json.loads(lincomb_to_json(y)),
                            KEY_PARSERS["tensor-tree"]) == y


def test_z_keys():
    x = LinComb({E: 1, L2: -1})
    text = lincomb_to_json(x, encode_z_key)
    assert '"Z:[]"' in text and '"Z:[[]]"' in text
    assert lincomb_from_obj(json.loads(text), parse_z_key) == x
    with pytest.raises(ValueError):
        parse_z_key("[]")


def test_text_rendering():
    assert lincomb_to_text(LinComb.zero()) == "0"
    assert lincomb_to_text(LinComb.term(E)) == "[]"
    assert lincomb_to_text(LinComb({E: -1})) == "-[]"
    assert lincomb_to_text(LinComb({E: 2, L2: Fraction(-1, 2)})) == \
        "-1/2*[[]] + 2*[]"
    assert lincomb_to_text(LinComb({L3: 1, L2: 3})) == "[[[]]] + 3*[[]]"
