"""Canonical descriptors and the canonical vertex order.

The descriptor of a subtree rooted at ``v`` is an array of color arrays:
a leaf is ``((),)``, and an inner vertex contributes the ascending color
sequence of its sorted children followed by the concatenated descriptors
of those children.  Arrays compare lexicographically with the
shorter-strict-prefix rule, which is Python's tuple ordering.

Computing the order materializes no descriptor, and most trees build
no descriptor id either.  A leaf's descriptor ``((),)`` is the least, so
within a color a leaf sorts first and leaves tie in full: the descriptor
decides only between two same-colored siblings that both have children.
One pass sorts every family by color, a leaf first within a color, and
notes the families holding such a pair.  Only when one exists are ids
built: bottom-up, every inner vertex gets an interned id, hash-consed on
the child colors plus the child ids of its sorted children, so equal ids
mean equal descriptors, and the noted families re-sort their
same-colored runs by id before their parents' ids are built.  Two
same-colored siblings with different ids compare by walking one chain:
their child-color arrays first, and when those are equal, the first pair
of differing child ids.  This equals tuple order on the descriptors
because a descriptor is a self-delimiting preorder code, never a proper
prefix of another: two concatenations of descriptors differ first within
the first pair of parts that differ.

The canonical order is the depth-first traversal that visits children in
ascending (color, descriptor) order; remaining ties are broken by stored
child order, which is safe because fully tied siblings head isomorphic
subtrees.  The full descriptor is the root color followed by every
vertex's child-color array in that order.

Checking that a tree is already canonically labeled needs no sort.  In
a preorder-labeled tree whose subtree at ``a`` is sorted, the descriptor
of ``a`` is the slice ``rows[a:b]`` of the child-color rows, ``b`` being
its next sibling.  Being self-delimiting, two different descriptors
first differ within the shorter, and equal ones have one length, so
``rows[a:b]`` against the window of the same length at ``b`` orders the
pair even where that window runs past ``b``'s subtree or the last row.
A pair costs its common prefix, at most the smaller subtree: O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Sequence

from .errors import MalformedDescriptor
from .trees import Color, ColoredArborescence, VertexId

LdArray = tuple[tuple[Color, ...], ...]


@dataclass(frozen=True)
class CanonicalOrder:
    """Bijection between vertices and ranks ``0..n-1``.

    ``phi[v]`` is the rank of vertex ``v``; ``inverse[r]`` the vertex at
    rank ``r``.  The root has rank 0 and ranks increase along every
    root-to-leaf path.
    """

    phi: tuple[int, ...]
    inverse: tuple[VertexId, ...]


def sorted_siblings(tree: ColoredArborescence) -> list[tuple[VertexId, ...]]:
    """Children in canonical order: ``sorted_children[v]`` lists the
    children of ``v`` by ascending (color, descriptor), fully tied ones
    in stored order.

    One pass sorts every family by color, a leaf first within a color,
    which leaves only two same-colored inner siblings undecided.  Only
    when some family holds such a pair are descriptor ids built, by
    :func:`_break_ties`; a tree without one, such as a path or a
    caterpillar whose legs are leaves, builds none.
    """
    colors, children = tree.colors, tree.children

    def rank(c: VertexId) -> int:
        return 2 * colors[c] + (len(children[c]) > 0)

    sorted_children = list(children)
    tied: list[VertexId] = []  # families with two same-colored inner children
    for v, kids in enumerate(children):
        if len(kids) < 2:
            continue
        # Most families have two children: a swap orders them, no sort.
        if len(kids) == 2:
            a, b = kids
            if colors[a] == colors[b]:
                if children[a]:
                    if children[b]:
                        tied.append(v)
                    else:
                        sorted_children[v] = (b, a)
            elif colors[a] > colors[b]:
                sorted_children[v] = (b, a)
        else:
            kids = sorted_children[v] = tuple(sorted(kids, key=rank))
            last = rank(kids[0])
            for c in kids[1:]:
                r = rank(c)
                if r == last and r & 1:  # two inner children of one color
                    tied.append(v)
                    break
                last = r
    if tied:
        _break_ties(tree, sorted_children, set(tied))
    return sorted_children


def _break_ties(tree: ColoredArborescence, sorted_children: list, tied: set) -> None:
    """Re-sort the ``tied`` families by (color, descriptor) in place,
    bottom-up, so that a tie nested lower is resolved before the ids
    above it are built."""
    colors = tree.colors
    color_of = colors.__getitem__
    ident = [0] * tree.n  # interned descriptor id per vertex; leaves are 0
    id_of = ident.__getitem__
    interned: dict[tuple[int, ...], int] = {(): 0}
    kid_colors: list[tuple[Color, ...]] = [()]  # per id
    kid_keys: list[tuple[int, ...]] = [()]  # per id: child colors + child ids

    def compare_ids(a: int, b: int) -> int:
        while a != b:
            colors_a, colors_b = kid_colors[a], kid_colors[b]
            if colors_a != colors_b:
                return -1 if colors_a < colors_b else 1
            # Equal child colors, so the keys first differ at a child id.
            for x, y in zip(kid_keys[a], kid_keys[b]):
                if x != y:
                    a, b = x, y
                    break
        return 0

    by_id = cmp_to_key(compare_ids)
    for v in reversed(tree.bfs_order()):
        kids = sorted_children[v]
        if not kids:
            continue
        if len(kids) == 1:
            c = kids[0]
            arrays = (colors[c],)
            key = (colors[c], ident[c])
        else:
            if v in tied:
                if len(kids) == 2:
                    a, b = kids
                    if ident[a] != ident[b] and compare_ids(ident[a], ident[b]) > 0:
                        kids = sorted_children[v] = (b, a)
                else:
                    # only same-colored runs move: the family is in color order
                    kids = sorted_children[v] = tuple(
                        sorted(kids, key=lambda c: (colors[c], by_id(ident[c])))
                    )
            arrays = tuple(map(color_of, kids))
            key = arrays + tuple(map(id_of, kids))
        found = interned.get(key)
        if found is None:
            found = interned[key] = len(kid_colors)
            kid_colors.append(arrays)
            kid_keys.append(key)
        ident[v] = found


def is_canonically_labeled(tree: ColoredArborescence) -> bool:
    """Whether every vertex id is its canonical rank, checked in place:
    the ids are the preorder (the first child of ``v`` is ``v + 1``, and
    each next sibling starts where the subtree before it ends), and each
    adjacent pair of stored siblings ``(a, b)`` is in order by color,
    then a leaf first, then by descriptor, the slice ``rows[a:b]``
    against the window of the same length at ``b``.  O(n log n) at worst.
    """
    children, colors = tree.children, tree.colors
    if tree.root != 0:
        return False
    end = list(range(1, tree.n + 1))  # one past the last id of each subtree
    rows: list = []  # the child-color rows, once two first rows tie
    for v in reversed(range(tree.n)):
        kids = children[v]
        if kids:
            a = kids[0]
            if a != v + 1:
                return False
            for b in kids[1:]:
                if b != end[a] or colors[a] > colors[b]:
                    return False
                # a leaf a (b == a + 1) is least; a leaf b has the least row
                if colors[a] == colors[b] and b - a > 1 and _descriptor_greater(tree, rows, a, b):
                    return False
                a = b
            end[v] = end[a]
    return True


def _descriptor_greater(tree: ColoredArborescence, rows: list, a: int, b: int) -> bool:
    """Whether the descriptor of ``a``, the sibling before ``b``, exceeds
    ``b``'s.  Their first rows are built on the fly; at the first tie all
    rows go into ``rows``, and windows growing fourfold (rows 0, 1-3,
    4-15, ...) cost a pair at most four times its common prefix."""
    if not rows:
        color_of = tree.colors.__getitem__
        row = tuple(map(color_of, tree.children[a]))
        other = tuple(map(color_of, tree.children[b]))
        if row != other:
            return row > other
        rows += [tuple(map(color_of, kids)) for kids in tree.children]
    size, lo, hi = b - a, 0, 1
    while lo < size:
        window, other = rows[a + lo : a + hi], rows[b + lo : b + hi]
        if window != other:
            return window > other
        lo, hi = hi, min(size, 4 * hi)
    return False


def _preorder(tree: ColoredArborescence, sorted_children) -> list[VertexId]:
    """Vertices in canonical order: rank ``r`` at index ``r``."""
    inverse = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        inverse.append(v)
        kids = sorted_children[v]
        if len(kids) == 1:
            stack.append(kids[0])
        elif kids:
            stack += kids[::-1]
    return inverse


def _ranks(inverse: Sequence[VertexId]) -> list[int]:
    phi = [0] * len(inverse)
    for rank, v in enumerate(inverse):
        phi[v] = rank
    return phi


def full_ld_array(tree: ColoredArborescence) -> LdArray:
    """Root-color singleton followed by the tree descriptor.

    Unlike the plain descriptor this determines the colored tree up to
    isomorphism, because the root color is no longer omitted.
    """
    sorted_children = sorted_siblings(tree)
    colors = tree.colors
    color_of = colors.__getitem__
    # the rows in canonical preorder, by the walk of _preorder
    rows = [(colors[tree.root],)]
    stack = [tree.root]
    while stack:
        kids = sorted_children[stack.pop()]
        if len(kids) == 1:
            rows.append((colors[kids[0]],))
            stack.append(kids[0])
        elif kids:
            rows.append(tuple(map(color_of, kids)))
            stack += kids[::-1]
        else:
            rows.append(())
    return tuple(rows)


def canonical_order(tree: ColoredArborescence) -> CanonicalOrder:
    """Depth-first ranks with children visited in sorted descriptor order."""
    inverse = _preorder(tree, sorted_siblings(tree))
    return CanonicalOrder(phi=tuple(_ranks(inverse)), inverse=tuple(inverse))


def canonicalize(tree: ColoredArborescence) -> ColoredArborescence:
    """Relabel so vertex ids equal canonical ranks.

    In the result, children tuples are ascending both by id and by
    canonical sibling order, and the root is vertex 0.
    """
    sorted_children = sorted_siblings(tree)
    inverse = _preorder(tree, sorted_children)
    phi = _ranks(inverse)
    children = tuple(tuple(phi[c] for c in sorted_children[v]) for v in inverse)
    colors = tuple(tree.colors[v] for v in inverse)
    return ColoredArborescence(
        n=tree.n, root=0, children=children, colors=colors, tree_id=tree.tree_id
    )


def reconstruct(full: Sequence[Sequence[Color]]) -> ColoredArborescence:
    """Rebuild the canonically labeled tree from its full descriptor.

    Inverse of :func:`full_ld_array` up to relabeling:
    ``reconstruct(full_ld_array(t))`` equals ``canonicalize(t)`` exactly.
    """
    arrays = [tuple(inner) for inner in full]
    if not arrays or len(arrays[0]) != 1:
        raise MalformedDescriptor("descriptor must start with a root-color singleton")
    n = sum(len(inner) for inner in arrays)
    if len(arrays) != n + 1:
        raise MalformedDescriptor(
            f"{len(arrays)} arrays cannot describe {n} color entries"
        )
    for inner in arrays:
        for c in inner:
            if type(c) is not int or c < 0:
                raise MalformedDescriptor(f"bad color entry {c!r}")

    # Vertex ids follow the reading order of color entries.  After the
    # root singleton, each array lists the children of the next vertex in
    # preorder, which is the top of a stack of vertices awaiting theirs.
    colors = [c for inner in arrays for c in inner]
    children: list[tuple[int, ...]] = [()] * n
    awaiting = [0]
    next_id = 1
    for inner in arrays[1:]:
        if not awaiting:
            raise MalformedDescriptor("more arrays than vertices awaiting children")
        ids = tuple(range(next_id, next_id + len(inner)))
        next_id += len(inner)
        children[awaiting.pop()] = ids
        awaiting.extend(reversed(ids))
    if awaiting:
        raise MalformedDescriptor("fewer arrays than vertices awaiting children")

    raw = ColoredArborescence(
        n=n, root=0, children=tuple(children), colors=tuple(colors)
    )
    return canonicalize(raw)
