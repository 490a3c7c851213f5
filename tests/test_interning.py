"""Hash-consing: one object per tree and forest shape, one tuple per tensor key."""

import copy
import pickle

import pytest

from treehopf import clear_caches
from treehopf.exactlin import tensor_key
from treehopf.trees import (EMPTY_FOREST, LEAF, Forest, Tree, b_minus, b_plus,
                            canonicalize, enumerate_forests, enumerate_trees,
                            parse_forest, parse_tree)

TREES = [t for n in range(1, 9) for t in enumerate_trees(n)]


def nested(t):
    return [nested(c) for c in t.children]


def test_every_route_to_a_tree_returns_the_same_object():
    for t in TREES:
        assert parse_tree(t.encoding) is t
        assert Tree(reversed(t.children)) is t
        assert b_plus(b_minus(t)) is t
        assert canonicalize(nested(t)) is t


def test_forests_and_tensors_are_interned():
    # union against a re-sorted Forest is checked in test_trees
    forests = [f for w in range(5) for f in enumerate_forests(w)]
    for a in forests:
        assert parse_forest(a.encoding) is a
        for b in forests:
            assert tensor_key(a, b) is tensor_key(a, b)


def test_distinct_shapes_stay_distinct_objects():
    assert len({id(t) for t in TREES}) == len(TREES)
    assert tensor_key(LEAF, EMPTY_FOREST) != tensor_key(EMPTY_FOREST, LEAF)
    # each class has its own table, although their keys can coincide
    assert Forest(()) is not Tree(())
    assert Forest((LEAF,)) is not Tree((LEAF,))


def test_clear_caches_keeps_the_intern_tables():
    before = parse_tree("[[[]][][[][]]]")
    sized = enumerate_trees(6)
    clear_caches()
    assert parse_tree("[[[]][][[][]]]") is before
    assert all(a is b for a, b in zip(enumerate_trees(6), sized))


@pytest.mark.parametrize("make", [
    lambda: parse_tree("[[][[]]]"),
    lambda: LEAF,
    lambda: parse_forest("[[]] [] []"),
    lambda: EMPTY_FOREST,
    lambda: tensor_key(parse_tree("[[]]"), LEAF),
    lambda: tensor_key(EMPTY_FOREST, parse_forest("[] [[]]")),
], ids=["tree", "leaf", "forest", "empty-forest", "tree-tensor", "forest-tensor"])
def test_copy_and_pickle_return_the_interned_object(make):
    x = make()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        if isinstance(x, tuple):
            # a tensor key is a plain tuple: unpickling builds a new, equal
            # one, whose legs are the interned objects themselves
            assert y == x and all(a is b for a, b in zip(y, x))
        else:
            assert y is x
    assert LEAF.encoding == "[]" and LEAF.size == 1 and LEAF.children == ()
    assert EMPTY_FOREST.encoding == "1" and EMPTY_FOREST.items == ()

