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

Enumeration lists the trees of one size, those up to a degree, and
(``tuples_up_to_size``) the k-tuples of trees of bounded total size: the one
domain of every pair and triple law, and of the graded dual's product index.
Forests and primitives are images of trees, never enumerated on their own:
the forests of one weight are the B- images of the trees one vertex larger,
so forest pairs are B- of tree pairs, and primitive pairs are B+ of them.
The ``enumerate_trees`` memo is the one memo of the enumeration.

Vertices are addressed by preorder index on the canonical form: the root is
0 and children are visited in canonical order.  All values are immutable
after construction and every operation is pure.  Admissible cuts are
enumerated afresh on each call and cached nowhere.  They define the cut
coproduct, but its kernel in ``connes_kreimer`` never enumerates them: only
its oracle ``tree_coproduct_by_cuts`` and the ``trees`` suite do.
"""

import itertools
from bisect import bisect_right
from collections import namedtuple
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


Cut = namedtuple("Cut", "edges branch trunk")
Cut.__doc__ = """An admissible cut of a tree, as a named tuple.

``edges`` names each severed edge by the preorder index of its lower
vertex, in an ascending tuple; ``branch`` collects the severed subtrees
(a ``Forest``) and ``trunk`` is the part still containing the root (a
``Tree``).  Admissibility means no severed vertex is an ancestor of
another.  Cuts are cached nowhere: ``admissible_cuts`` builds them afresh
on each call.
"""


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
    return _forest(t.children)


def b_plus(f: Forest) -> Tree:
    """Attach a new root over every tree of the forest; inverse of b_minus."""
    return _tree(f.items)


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


def admissible_cuts(t: Tree) -> tuple[Cut, ...]:
    """Every admissible cut with at least one severed edge.

    A cut is a set of non-root preorder indices that is an antichain in the
    ancestor order (vertex v covers the preorder interval [v, v + size_v),
    so w is a descendant of v iff v < w < v + size_v).  Built recursively
    over the root's children by ``_cut_parts``; only the cuts of t itself
    are sorted and get a branch ``Forest``.  Deterministic order: by cut
    order, then lexicographically by sorted index tuple.  Nothing is
    memoized: each call enumerates afresh, its children's cuts included.
    The coproduct kernel never calls it; the coproduct's oracle
    ``connes_kreimer.tree_coproduct_by_cuts`` and the ``trees`` suite do.
    """
    # edge tuples are distinct, so the branch trees are never compared
    return tuple(Cut(edges, Forest(branch), trunk) for _, edges, branch, trunk
                 in sorted((len(cut[0]),) + cut for cut in _cut_parts(t)))


def _cut_parts(t: Tree) -> list:
    """``(edges, branch trees, trunk)`` of each cut of t, in no set order,
    the branch trees unsorted.

    Each child, at preorder offset o, is either severed whole (edge o), kept
    whole, or cut by one of its own cuts with every edge shifted by o; the
    choices are joined child by child, by tuple concatenation.  Every
    combination but the all-keep one is a cut of t, and each cut arises
    exactly once.  Only the trunks are interned on the way, since each
    becomes a child of its parent's trunk.
    """
    parts = [((), (), ())]  # (edges, branch trees, trunk children) so far
    offset = 1
    for child in t.children:
        options = [((offset,), (child,), ()), ((), (), (child,))]
        options += [(tuple(e + offset for e in edges), branch, (trunk,))
                    for edges, branch, trunk in _cut_parts(child)]
        parts = [(edges + e, branch + b, kids + k)
                 for edges, branch, kids in parts for e, b, k in options]
        offset += child.size
    return [(edges, branch, _tree(tuple(sorted(kids, key=_by_encoding))))
            for edges, branch, kids in parts if edges]


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
    """All canonical trees with exactly n vertices, sorted by encoding.

    By the recurrence on the last child: a tree of n vertices is its last
    child c, in canonical order, added to a tree of n - |c| vertices whose
    children all sort no later than c, so each tree is built exactly once
    and no forest is built on the way.
    """
    if n < 1:
        raise ValueError("tree size must be >= 1")
    if n == 1:
        return (LEAF,)
    found = [_tree(s.children + (c,))
             for k in range(1, n) for c in enumerate_trees(k)
             for s in enumerate_trees(n - k)
             if not s.children or s.children[-1].encoding <= c.encoding]
    return tuple(sorted(found, key=_by_encoding))


def trees_up_to_degree(bound: int) -> list[Tree]:
    """Each tree of degree (size - 1) at most ``bound``, by size, then encoding."""
    return [t for d in range(bound + 1) for t in enumerate_trees(d + 1)]


def _sizes(k: int, total: int) -> list:
    """k-tuples of positive sizes summing to at most ``total``."""
    if k == 0:
        return [()]
    return [(s,) + rest for s in range(1, total - k + 2)
            for rest in _sizes(k - 1, total - s)]


def tuples_up_to_size(k: int, total: int) -> list:
    """k-tuples of trees of total size at most ``total``, ordered by the tuple
    of sizes, then by encodings.

    Forest and primitive domains are images of these: B- of each tree of a
    pair lists the forest pairs of total weight at most ``total - 2`` in the
    order of their weights, then encodings (see ``enumerate_forests``).
    """
    return [args for sizes in _sizes(k, total)
            for args in itertools.product(*map(enumerate_trees, sizes))]


def enumerate_forests(weight: int) -> tuple[Forest, ...]:
    """All canonical forests with the given total vertex count, sorted: the
    B- images of the trees of ``weight + 1`` vertices, read off the tree
    memo on each call."""
    if weight < 0:
        raise ValueError("forest weight must be >= 0")
    # B- keeps the trees' encoding order.  Where the forest encodings of two
    # same-size trees first differ, both hold a bracket: a space in one would
    # end a tree in both, after the same prefix, and the encodings have one
    # length.  So dropping the roots' brackets and adding the spaces changes
    # no comparison.
    return tuple(map(b_minus, enumerate_trees(weight + 1)))


def count_trees_recurrence(n: int) -> int:
    """Rooted-tree count via the divisor-sum convolution.

    r(1) = 1 and m * r(m+1) = sum over k of (sum of d*r(d) over d | k)
    multiplied by r(m-k+1).  Never touches the enumerator, so the two can
    cross-check each other.
    """
    if n < 1:
        raise ValueError("tree size must be >= 1")
    counts = [0, 1]
    divisor_sums = [0]  # entry k: the sum of d * r(d) over d | k
    for m in range(1, n):
        divisor_sums.append(sum(d * counts[d] for d in range(1, m + 1) if m % d == 0))
        total = sum(divisor_sums[k] * counts[m - k + 1] for k in range(1, m + 1))
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
