"""Deterministic JSON and text renderings of linear combinations.

JSON schema: ``{"terms": [{"basis": "<encoding>", "coeff": "<p>/<q>"}, ...]}``
with terms sorted by basis encoding.  Integer coefficients omit the
denominator, and ``"3"`` is accepted on input as shorthand for ``"3/1"``.
On input a coefficient must be a JSON string matching ``-?[0-9]+(/[0-9]+)?``
with a nonzero denominator; JSON numbers, booleans and anything else are
rejected with ``ValueError``, as is a basis that is not a JSON string.
A basis key renders as ``exactlin.encoding``, the default encoder, gives
it: a tensor key as ``"<left> | <right>"``, which ``parse_tensor_key`` reads
back, with a parser per leg, to the shared tuple of ``tensor_key``.  The
Lie-side basis renders with a ``"Z:"`` prefix on the tree encoding.
Encodings are JSON-safe as they stand: ``encoding`` and ``encode_z_key``
write only ``[``, ``]``, space, ``|``, ``1``, ``Z`` and ``:``, none of which
JSON escapes, so ``lincomb_to_json`` quotes them without ``json.dumps``.
"""

import re

from .exactlin import LinComb, encoding, ratio, tensor_key
from .trees import parse_tree


def encode_z_key(key) -> str:
    return "Z:" + key.encoding


def parse_z_key(text: str):
    if not text.startswith("Z:"):
        raise ValueError(f"expected 'Z:' prefixed tree encoding, got {text!r}")
    return parse_tree(text[2:])


def parse_tensor_key(text: str, parse_left, parse_right) -> tuple:
    left, sep, right = text.partition(" | ")
    if not sep:
        raise ValueError(f"missing ' | ' tensor separator in {text!r}")
    return tensor_key(parse_left(left), parse_right(right))


def _sorted_terms(x: LinComb, encode) -> list:
    """``(encoding, coefficient)`` for each term of x, sorted by encoding."""
    return sorted((encode(k), c) for k, c in x.terms.items())


def lincomb_to_json(x: LinComb, encode=encoding) -> str:
    """The schema's text, as ``json.dumps(obj, sort_keys=True)`` gives it,
    joined term by term so that no dict is built per term; each encoding is
    quoted as it stands, since none needs escaping."""
    return '{"terms": [' + ", ".join(
        f'{{"basis": "{basis}", "coeff": "{coeff}"}}'
        for basis, coeff in _sorted_terms(x, encode)) + "]}"


# "p" or "p/q" with q != 0; [0-9] keeps out non-ASCII digits
_COEFF = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def lincomb_from_obj(obj, parse_key) -> LinComb:
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise ValueError("expected an object with a 'terms' list")
    pairs = []
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or "basis" not in entry or "coeff" not in entry:
            raise ValueError(f"malformed term entry: {entry!r}")
        if not isinstance(entry["basis"], str):
            raise ValueError(f"basis must be a string encoding: {entry!r}")
        coeff = entry["coeff"]
        if not isinstance(coeff, str) or not _COEFF.fullmatch(coeff):
            raise ValueError("coefficient must be a string 'p' or 'p/q' with "
                             f"q != 0: {entry!r}")
        pairs.append((parse_key(entry["basis"]), ratio(*map(int, coeff.split("/")))))
    return LinComb(pairs)


def lincomb_to_text(x: LinComb, encode=encoding) -> str:
    """Human-readable rendering, e.g. ``[[[]]] + 2*[[][]]``; zero is ``0``."""
    if not x.terms:
        return "0"
    pieces = []
    for basis, coeff in _sorted_terms(x, encode):
        magnitude = -coeff if coeff < 0 else coeff
        body = basis if magnitude == 1 else f"{magnitude}*{basis}"
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)
