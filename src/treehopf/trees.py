"""Canonical unordered rooted trees and forests: parsing, surgery, enumeration.

A tree stores its children in a fixed canonical order (lexicographic by
bracket encoding), so two trees are isomorphic exactly when their encodings
are equal.  The encoding grammar is ``Tree := "[" Tree* "]"`` with no
whitespace inside a tree; a forest renders as its tree tokens joined by
single spaces, and the empty forest renders as ``"1"``.

Trees and forests are hash-consed: the constructor returns the one object
already built for that canonical shape, so two trees are isomorphic exactly
when they are the same object, and ``==`` and ``hash`` are plain identity.
Objects made by bypassing the constructor (such as ``object.__new__(Tree)``)
are not supported.  The constructor sorts its children and then looks the
sorted tuple up; ``with_child`` adds one child to a tuple that is already
sorted by inserting it in place, and looks up the same table.

Vertices are addressed by preorder index on the canonical form: the root is
0 and children are visited in canonical order.  All values are immutable
after construction and every operation is pure.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache
from math import factorial
from operator import attrgetter

from .exactlin import LinComb

_by_encoding = attrgetter("encoding")


class TreeParseError(ValueError):
    """Malformed encoding; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class Tree:
    """Immutable rooted tree in canonical form, one object per shape.

    Construction returns the interned tree for the sorted child tuple, so
    ``==`` and ``hash`` are the default identity ones.
    """

    __slots__ = ("children", "encoding", "size")

    def __new__(cls, children=()):
        return _tree(tuple(sorted(children, key=_by_encoding)))

    # kept: perfbench's tracer wraps ``__init__`` and passes it the
    # constructor's arguments, which ``object.__init__`` would then reject
    def __init__(self, children=()):
        """Nothing to do: ``__new__`` returns a finished, shared tree."""

    def __reduce__(self):
        # copy and pickle go back through the constructor, never around it
        return Tree, (self.children,)

    @property
    def fertility(self) -> int:
        """Number of children of the root."""
        return len(self.children)

    def __repr__(self):
        return f"Tree({self.encoding!r})"


class Forest:
    """Immutable multiset of trees, kept as a canonically sorted tuple.

    Interned like ``Tree``: one object per sorted item tuple.
    """

    __slots__ = ("items", "encoding", "weight")

    def __new__(cls, items=()):
        return _forest(tuple(sorted(items, key=_by_encoding)))

    def __init__(self, items=()):  # kept, as for ``Tree``
        """Nothing to do: ``__new__`` returns a finished, shared forest."""

    def __reduce__(self):
        return Forest, (self.items,)

    def union(self, other: "Forest") -> "Forest":
        """Multiset union; the monomial product of forests.

        Both item tuples are already sorted, so an empty side returns the
        other operand, two runs that do not interleave are concatenated,
        and only interleaving runs are re-sorted.
        """
        left, right = self.items, other.items
        if not right:
            return self
        if not left:
            return other
        if left[-1].encoding <= right[0].encoding:
            return _forest(left + right)
        if right[-1].encoding <= left[0].encoding:
            return _forest(right + left)
        return _forest(tuple(sorted(left + right, key=_by_encoding)))

    def __repr__(self):
        return f"Forest({self.encoding!r})"


# The intern tables: canonical child or item tuple -> its one object.  They
# are never cleared, so a shape keeps its object for the whole process.
_trees: dict[tuple, Tree] = {}
_forests: dict[tuple, Forest] = {}


def _tree(kids: tuple) -> Tree:
    """The interned tree of an already sorted child tuple."""
    tree = _trees.get(kids)
    if tree is None:
        tree = object.__new__(Tree)
        tree.children = kids
        tree.encoding = "[" + "".join(c.encoding for c in kids) + "]"
        tree.size = 1 + sum(c.size for c in kids)
        _trees[kids] = tree
    return tree


def with_child(kids: tuple, child: Tree) -> Tree:
    """The tree ``Tree(kids + (child,))``, for an already canonical ``kids``.

    Inserts the child in place, after every child that sorts no later, so
    nothing is re-sorted; the result is the same interned object.
    """
    i = bisect_right(kids, child.encoding, key=_by_encoding)
    return _tree(kids[:i] + (child,) + kids[i:])


def _forest(items: tuple) -> Forest:
    """The interned forest of an already sorted item tuple."""
    forest = _forests.get(items)
    if forest is None:
        forest = object.__new__(Forest)
        forest.items = items
        forest.encoding = " ".join(t.encoding for t in items) if items else "1"
        forest.weight = sum(t.size for t in items)
        _forests[items] = forest
    return forest


LEAF = Tree()
EMPTY_FOREST = Forest()


class Cut:
    """An admissible cut of a tree.

    ``edges`` names each severed edge by the preorder index of its lower
    vertex, in an ascending tuple; ``branch`` collects the severed subtrees
    and ``trunk`` is the part still containing the root.  Admissibility
    means no severed vertex is an ancestor of another.
    """

    __slots__ = ("edges", "branch", "trunk")

    def __init__(self, edges, branch: Forest, trunk: Tree):
        self.edges = tuple(edges)
        self.branch = branch
        self.trunk = trunk

    def __repr__(self):
        return (f"Cut({list(self.edges)}, branch={self.branch.encoding!r}, "
                f"trunk={self.trunk.encoding!r})")


def _parse_tree_at(text: str, pos: int) -> tuple[Tree, int]:
    if pos >= len(text) or text[pos] != "[":
        raise TreeParseError("expected '['", pos)
    pos += 1
    children = []
    while True:
        if pos >= len(text):
            raise TreeParseError("expected ']'", pos)
        if text[pos] == "]":
            return Tree(children), pos + 1
        child, pos = _parse_tree_at(text, pos)
        children.append(child)


def parse_tree(text: str) -> Tree:
    """Parse a bracket encoding; child order in the input is irrelevant."""
    tree, pos = _parse_tree_at(text, 0)
    if pos != len(text):
        raise TreeParseError("trailing input", pos)
    return tree


def parse_forest(text: str) -> Forest:
    """Parse space-separated tree tokens; ``"1"`` is the empty forest."""
    if text == "1":
        return EMPTY_FOREST
    items = []
    pos = 0
    while True:
        tree, pos = _parse_tree_at(text, pos)
        items.append(tree)
        if pos == len(text):
            return Forest(items)
        if text[pos] != " ":
            raise TreeParseError("expected ' '", pos)
        pos += 1


def canonicalize(nested) -> Tree:
    """Build the canonical tree from nested child lists, in any child order.

    Idempotent: feeding back the nested child lists of a tree (a leaf is
    ``[]``) returns an equal tree.
    """
    return Tree(canonicalize(child) for child in nested)


def b_minus(t: Tree) -> Forest:
    """Delete the root, leaving the forest of its child subtrees."""
    return Forest(t.children)


def b_plus(f: Forest) -> Tree:
    """Attach a new root over every tree of the forest; inverse of b_minus."""
    return Tree(f.items)


def graft_many(host: Tree, placements) -> Tree:
    """Attach each scion as a new child of the host vertex it names.

    ``placements`` is an iterable of (preorder index, scion tree) pairs; all
    indices refer to the original host, so simultaneous attachments do not
    disturb each other.  A plain rebuild of every vertex, kept as the
    reference for ``grossman_larson.graft_forest``; interning returns each
    untouched subtree as the same object, so every subtree off the paths
    from the root to the graft sites is shared with the result.
    """
    extra: dict[int, list[Tree]] = {}
    for vertex, scion in placements:
        if not 0 <= vertex < host.size:
            raise IndexError(
                f"vertex {vertex} out of range for tree of size {host.size}")
        extra.setdefault(vertex, []).append(scion)

    def rebuild(node: Tree, index: int) -> Tree:
        child_index = index + 1
        kids = []
        for child in node.children:
            kids.append(rebuild(child, child_index))
            child_index += child.size
        kids.extend(extra.get(index, ()))
        return Tree(kids)

    return rebuild(host, 0)


def preorder_subtrees(t: Tree) -> list[Tree]:
    """Subtree rooted at each vertex, listed by preorder index."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


@lru_cache(maxsize=None)
def admissible_cuts(t: Tree) -> tuple[Cut, ...]:
    """Every admissible cut with at least one severed edge.

    A cut is a set of non-root preorder indices that is an antichain in the
    ancestor order (vertex v covers the preorder interval [v, v + size_v),
    so w is a descendant of v iff v < w < v + size_v).  Built recursively
    over the root's children: each child, at preorder offset o, is either
    severed whole (edge o), kept whole, or cut by one of its own admissible
    cuts with every edge shifted by o.  Every combination but the all-keep
    one is a cut of t, and each cut arises exactly once.  Deterministic
    order: by cut order, then lexicographically by sorted index tuple.
    """
    choices = []
    offset = 1
    for child in t.children:
        # (edges, branch trees, trunk child or None) for this child
        options = [((offset,), (child,), None), ((), (), child)]
        for cut in admissible_cuts(child):
            options.append((tuple(e + offset for e in cut.edges),
                            cut.branch.items, cut.trunk))
        choices.append(options)
        offset += child.size
    combos = []
    for picks in itertools.product(*choices):
        edges = tuple(e for pick in picks for e in pick[0])
        if edges:
            combos.append((len(edges), edges, picks))
    combos.sort()  # edge tuples are distinct, so picks are never compared
    return tuple(
        Cut(edges,
            Forest(tree for pick in picks for tree in pick[1]),
            Tree(pick[2] for pick in picks if pick[2] is not None))
        for _, edges, picks in combos)


@lru_cache(maxsize=None)
def leaf_growth(t: Tree) -> LinComb:
    """Every way to attach one new leaf to a vertex of t, counted per tree.

    The leaf goes on the root, giving B+(children + leaf), or into one child
    subtree.  A run of m equal children c contributes, for each tree g with
    count k in the growth of c, the tree with one copy of c replaced by g,
    with count m * k.  The counts sum to ``t.size``.  This memo is the only
    cache of leaf growth; the returned combination is shared and must not be
    mutated.
    """
    kids = t.children
    out = {with_child(kids, LEAF): 1}
    start = 0
    for child, m in runs(kids):
        others = kids[:start] + kids[start + 1:]
        for grown, k in leaf_growth(child).terms.items():
            tree = with_child(others, grown)
            out[tree] = out.get(tree, 0) + m * k
        start += m
    return LinComb(out)


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[Tree, ...]:
    """All canonical trees with exactly n vertices, sorted by encoding."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    if n == 1:
        return (LEAF,)
    return tuple(sorted((b_plus(f) for f in enumerate_forests(n - 1)),
                        key=_by_encoding))


def trees_up_to_degree(bound: int) -> list[Tree]:
    """Each tree of degree (size - 1) at most ``bound``, by size, then encoding."""
    return [t for d in range(bound + 1) for t in enumerate_trees(d + 1)]


@lru_cache(maxsize=None)
def enumerate_forests(weight: int) -> tuple[Forest, ...]:
    """All canonical forests with the given total vertex count, sorted.

    By the recurrence on the last tree: a forest of weight w is its last
    tree t, in canonical order, added to a forest of weight w - |t| whose
    trees all sort no later than t, so each forest is built exactly once.
    """
    if weight < 0:
        raise ValueError("forest weight must be >= 0")
    if weight == 0:
        return (EMPTY_FOREST,)
    found = [_forest(f.items + (t,))
             for k in range(1, weight + 1) for t in enumerate_trees(k)
             for f in enumerate_forests(weight - k)
             if not f.items or f.items[-1].encoding <= t.encoding]
    return tuple(sorted(found, key=_by_encoding))


def count_trees_recurrence(n: int) -> int:
    """Rooted-tree count via the divisor-sum convolution.

    r(1) = 1 and m * r(m+1) = sum over k of (sum of d*r(d) over d | k)
    multiplied by r(m-k+1).  Never touches the enumerator, so the two can
    cross-check each other.
    """
    if n < 1:
        raise ValueError("tree size must be >= 1")
    counts = [0, 1]
    while len(counts) <= n:
        m = len(counts) - 1
        total = 0
        for k in range(1, m + 1):
            divisor_sum = sum(d * counts[d] for d in range(1, k + 1) if k % d == 0)
            total += divisor_sum * counts[m - k + 1]
        assert total % m == 0
        counts.append(total // m)
    return counts[n]


def runs(items):
    """Each distinct item of a sorted tuple, with how often it occurs."""
    return ((item, len(list(run))) for item, run in itertools.groupby(items))


@lru_cache(maxsize=None)
def aut_order(t: Tree) -> int:
    """Order of the automorphism group: a run of m equal child subtrees c
    gives ``aut_order(c) ** m * m!``, since the copies may permute."""
    result = 1
    for child, m in runs(t.children):
        result *= aut_order(child) ** m * factorial(m)
    return result
