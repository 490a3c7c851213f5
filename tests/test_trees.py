"""Tree and forest primitives: parsing, surgery, and enumeration."""

from math import factorial

import pytest

from conftest import antichain_filter_cuts, cut_signature, graft_per_vertex_growth
from treehopf.trees import (EMPTY_FOREST, LEAF, Forest, Tree, TreeParseError,
                            admissible_cuts, aut_order, b_minus, b_plus,
                            canonicalize, count_trees_recurrence,
                            enumerate_forests, enumerate_trees, graft_many,
                            leaf_growth, parse_forest, parse_tree,
                            preorder_subtrees, runs, trees_up_to_degree,
                            with_child)

E = parse_tree("[]")
L2 = parse_tree("[[]]")
L3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[][]]")

A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def nested(t):
    return [nested(c) for c in t.children]


def test_parse_smallest():
    assert parse_tree("[]") == LEAF
    assert LEAF.size == 1 and LEAF.fertility == 0


def test_parse_resorts_children():
    assert parse_tree("[[][[]]]").encoding == "[[[]][]]"
    assert parse_tree("[[[]][]]").encoding == "[[[]][]]"


@pytest.mark.parametrize("text,position", [
    ("[[]", 3),
    ("", 0),
    ("[]x", 2),
    ("]", 0),
    ("[] ", 2),
])
def test_parse_errors_carry_position(text, position):
    with pytest.raises(TreeParseError) as err:
        parse_tree(text)
    assert err.value.position == position


def test_parse_forest():
    f = parse_forest("[] [[]]")
    assert f.items == (L2, E)  # sorted canonically, chain first
    assert f.weight == 3
    assert parse_forest("1") == EMPTY_FOREST
    with pytest.raises(TreeParseError):
        parse_forest("[]  []")
    with pytest.raises(TreeParseError):
        parse_forest("")


def test_forest_encoding_roundtrip():
    for w in range(6):
        for f in enumerate_forests(w):
            assert parse_forest(f.encoding) == f


def test_canonicalize_order_independent():
    assert canonicalize([[], [[]]]) == canonicalize([[[]], []])
    assert canonicalize([[], [[]]]).encoding == "[[[]][]]"
    assert canonicalize([]) == LEAF


def test_canonicalize_idempotent():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert canonicalize(nested(t)) == t


def test_b_minus_b_plus_examples():
    assert b_minus(E) == EMPTY_FOREST
    assert b_minus(CHERRY) == Forest((E, E))
    assert b_minus(L3) == Forest((L2,))
    assert b_plus(EMPTY_FOREST) == E
    assert b_plus(Forest((E, E))) == CHERRY
    assert b_plus(Forest((L2,))) == L3


def test_b_plus_b_minus_inverse():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert b_plus(b_minus(t)) == t
    for w in range(6):
        for f in enumerate_forests(w):
            assert b_minus(b_plus(f)) == f


def test_graft_examples():
    assert graft_many(E, [(0, E)]) == L2
    assert graft_many(L2, [(0, E)]) == CHERRY
    assert graft_many(L2, [(1, E)]) == L3
    with pytest.raises(IndexError):
        graft_many(L2, [(2, E)])
    with pytest.raises(IndexError):
        graft_many(E, [(-1, E)])


def test_graft_many_attaches_simultaneously():
    # both placements name vertices of the original host
    assert graft_many(L2, [(0, E), (1, E)]) == parse_tree("[[[]][]]")
    assert graft_many(L2, [(0, E), (0, E)]) == parse_tree("[[][][]]")


def test_graft_many_shares_subtrees_off_the_graft_paths():
    for n in range(1, 7):
        for host in enumerate_trees(n):
            subs = preorder_subtrees(host)
            for v in range(n):
                for w in range(v, n):
                    grown = graft_many(host, [(v, E), (w, E)])
                    shared = {id(node) for node in preorder_subtrees(grown)}
                    for u in range(1, n):
                        # vertex u is off both graft paths when its preorder
                        # interval [u, u + size) holds neither site
                        if not (u <= v < u + subs[u].size
                                or u <= w < u + subs[u].size):
                            assert id(subs[u]) in shared, (host, v, w, u)


def test_admissible_cuts_examples():
    assert admissible_cuts(E) == ()
    l3_cuts = admissible_cuts(L3)
    assert len(l3_cuts) == 2
    assert {(c.branch.encoding, c.trunk.encoding) for c in l3_cuts} == {
        ("[[]]", "[]"), ("[]", "[[]]")}
    cherry_cuts = admissible_cuts(CHERRY)
    assert len(cherry_cuts) == 3
    pairs = sorted((c.branch.encoding, c.trunk.encoding) for c in cherry_cuts)
    assert pairs == [("[]", "[[]]"), ("[]", "[[]]"), ("[] []", "[]")]


def test_cuts_conserve_vertices_and_are_antichains():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            subs = preorder_subtrees(t)
            for cut in admissible_cuts(t):
                assert cut.branch.weight + cut.trunk.size == t.size
                for v in cut.edges:
                    for w in cut.edges:
                        assert not (v < w < v + subs[v].size)
            # the one-edge cuts come first: one per non-root vertex, by
            # index, severing that subtree
            assert [(c.edges, c.branch.items)
                    for c in admissible_cuts(t)[:t.size - 1]] == \
                [((v,), (subs[v],)) for v in range(1, t.size)]


def test_admissible_cuts_match_antichain_filter():
    # the recursion must give the same cuts, in the same order, as the filter
    for n in range(1, 10):
        for t in enumerate_trees(n):
            assert cut_signature(t) == antichain_filter_cuts(t), t


def test_forest_union_matches_resort():
    forests = [f for w in range(5) for f in enumerate_forests(w)]
    for a in forests:
        for b in forests:
            merged = a.union(b)
            resorted = Forest(a.items + b.items)
            assert merged.encoding == resorted.encoding, (a, b)
            assert merged.weight == resorted.weight
            assert merged is resorted
            assert merged.items == resorted.items


def test_with_child_matches_resort():
    # every canonical child tuple of a tree with up to 7 vertices, plus every
    # tree with up to 4 vertices, is the tree the sorting constructor returns
    seen = set()
    for t in trees_up_to_degree(6):
        kids = t.children
        for child in trees_up_to_degree(3):
            grown = with_child(kids, child)
            assert grown is Tree(kids + (child,)), (t, child)
            if child in kids:
                seen.add("beside an equal child")
            elif kids:
                position = grown.children.index(child)
                seen.add("first" if position == 0 else
                         "last" if position == len(kids) else "inside")
    assert seen == {"first", "last", "inside", "beside an equal child"}


def test_natural_growth_examples():
    def counts(t):
        return {g.encoding: k for g, k in leaf_growth(t).terms.items()}

    assert counts(E) == {"[[]]": 1}
    assert counts(L2) == {"[[][]]": 1, "[[[]]]": 1}
    assert counts(CHERRY) == {"[[][][]]": 1, "[[[]][]]": 2}


def test_leaf_growth_matches_graft_per_vertex():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            oracle = graft_per_vertex_growth(t)
            assert leaf_growth(t).terms == oracle, t


def test_growth_count_equals_size():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            grown = leaf_growth(t)
            assert grown.mass() == t.size
            assert all(g.size == t.size + 1 for g in grown.terms)


def test_enumerate_small():
    assert enumerate_trees(1) == (LEAF,)
    assert enumerate_trees(3) == (L3, CHERRY)


def test_enumeration_matches_recurrence():
    for n, expected in enumerate(A000081, start=1):
        assert len(enumerate_trees(n)) == expected
        assert count_trees_recurrence(n) == expected


def test_enumerate_all_distinct_and_sized():
    for n in range(1, 8):
        trees = enumerate_trees(n)
        assert len({t.encoding for t in trees}) == len(trees)
        assert all(t.size == n for t in trees)


def test_recurrence_examples():
    assert count_trees_recurrence(1) == 1
    assert count_trees_recurrence(4) == 4
    assert count_trees_recurrence(7) == 48
    with pytest.raises(ValueError):
        count_trees_recurrence(0)


def test_b_plus_bijection_forests_to_trees():
    for w in range(6):
        images = sorted(b_plus(f).encoding for f in enumerate_forests(w))
        assert images == sorted(t.encoding for t in enumerate_trees(w + 1))


def test_aut_order():
    assert aut_order(E) == 1
    assert aut_order(L3) == 1
    assert aut_order(CHERRY) == 2
    assert aut_order(parse_tree("[[][][]]")) == 6
    assert aut_order(parse_tree("[[[]][]]")) == 1
    assert aut_order(parse_tree("[[[][]]]")) == 2
    assert list(runs(parse_tree("[[][][[]][[]][[][]]]").children)) == [
        (CHERRY, 1), (L2, 2), (E, 2)]
    assert list(runs(())) == []


def test_aut_order_counts_labelled_trees():
    # Cayley: the n^(n - 1) rooted trees on n labelled vertices fall into
    # isomorphism classes t of n! / |Aut(t)| labellings each
    for n in range(1, 10):
        assert sum(factorial(n) // aut_order(t)
                   for t in enumerate_trees(n)) == n ** (n - 1), n


def test_preorder_indexing():
    subs = preorder_subtrees(parse_tree("[[[]][]]"))
    assert [s.size for s in subs] == [4, 2, 1, 1]
    assert subs[1] == L2
