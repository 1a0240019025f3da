"""Canonical descriptors and the canonical vertex order.

The descriptor of a subtree rooted at ``v`` is an array of color arrays:
a leaf is ``((),)``, and an inner vertex contributes the ascending color
sequence of its sorted children followed by the concatenated descriptors
of those children.  Arrays compare lexicographically with the
shorter-strict-prefix rule, which is Python's tuple ordering.

Computing the order materializes no descriptor.  Bottom-up, every vertex
gets an interned id, hash-consed on the child colors plus the child ids
of its sorted children, so equal ids mean equal descriptors.  Two
same-colored siblings with different ids compare by walking one chain:
their child-color arrays first, and when those are equal, the first pair
of differing child ids.  This equals tuple order on the descriptors
because a descriptor is a self-delimiting preorder code, never a proper
prefix of another: two concatenations of descriptors differ first inside
the first pair of parts that differ.

The canonical order is the depth-first traversal that visits children in
ascending (color, descriptor) order; remaining ties are broken by stored
child order, which is safe because fully tied siblings head isomorphic
subtrees.  The full descriptor is the root color followed by every
vertex's child-color array in that order.
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


def sorted_siblings(tree: ColoredArborescence):
    """Sorted children and their colors, by one bottom-up pass.

    ``sorted_children[v]`` lists the children of ``v`` in ascending
    (color, descriptor) order and ``child_colors[v]`` their colors.
    """
    colors = tree.colors
    color_of = colors.__getitem__
    ident = [0] * tree.n  # interned descriptor id per vertex; leaves are 0
    id_of = ident.__getitem__
    interned: dict[tuple[int, ...], int] = {(): 0}
    kid_colors: list[tuple[Color, ...]] = [()]  # per id
    kid_keys: list[tuple[int, ...]] = [()]  # per id: child colors + child ids

    def compare_ids(a: int, b: int) -> int:
        while True:
            colors_a, colors_b = kid_colors[a], kid_colors[b]
            if colors_a != colors_b:
                return -1 if colors_a < colors_b else 1
            # Equal child colors, so the keys first differ at a child id.
            for x, y in zip(kid_keys[a], kid_keys[b]):
                if x != y:
                    a, b = x, y
                    break

    def compare_vertices(u: VertexId, v: VertexId) -> int:
        if colors[u] != colors[v]:
            return -1 if colors[u] < colors[v] else 1
        if ident[u] == ident[v]:
            return 0
        return compare_ids(ident[u], ident[v])

    sorted_children = list(tree.children)
    child_colors: list[tuple[Color, ...]] = [()] * tree.n
    for v in reversed(tree.bfs_order()):
        kids = sorted_children[v]
        if not kids:
            continue
        # Most inner vertices have one or two children; only larger
        # families go through cmp_to_key.
        if len(kids) == 1:
            c = kids[0]
            arrays = child_colors[v] = (colors[c],)
            key = (colors[c], ident[c])
        else:
            if len(kids) == 2:
                a, b = kids
                if colors[a] > colors[b] or (
                    colors[a] == colors[b]
                    and ident[a] != ident[b]
                    and compare_ids(ident[a], ident[b]) > 0
                ):
                    kids = sorted_children[v] = (b, a)
            else:
                kids = sorted_children[v] = tuple(
                    sorted(kids, key=cmp_to_key(compare_vertices))
                )
            arrays = child_colors[v] = tuple(map(color_of, kids))
            key = arrays + tuple(map(id_of, kids))
        found = interned.get(key)
        if found is None:
            found = interned[key] = len(kid_colors)
            kid_colors.append(arrays)
            kid_keys.append(key)
        ident[v] = found
    return sorted_children, child_colors


def _preorder(tree: ColoredArborescence, sorted_children) -> list[VertexId]:
    """Vertices in canonical order: rank ``r`` at index ``r``."""
    inverse = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        inverse.append(v)
        if sorted_children[v]:
            stack += sorted_children[v][::-1]
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
    sorted_children, child_colors = sorted_siblings(tree)
    inverse = _preorder(tree, sorted_children)
    return ((tree.colors[tree.root],),) + tuple(map(child_colors.__getitem__, inverse))


def canonical_order(tree: ColoredArborescence) -> CanonicalOrder:
    """Depth-first ranks with children visited in sorted descriptor order."""
    inverse = _preorder(tree, sorted_siblings(tree)[0])
    return CanonicalOrder(phi=tuple(_ranks(inverse)), inverse=tuple(inverse))


def canonicalize(tree: ColoredArborescence) -> ColoredArborescence:
    """Relabel so vertex ids equal canonical ranks.

    In the result, children tuples are ascending both by id and by
    canonical sibling order, and the root is vertex 0.
    """
    sorted_children, _ = sorted_siblings(tree)
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
