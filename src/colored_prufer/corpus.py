"""Corpus analytics: isomorphism classes, subtree poset, common structure.

The poset is the exact sub-arborescence order between class
representatives (see :mod:`colored_prufer.matching`), with a witness per
relation pair: the representative's prune steps mapped to the larger
representative's.  Both come from one bottom-up sweep over the
representatives' shared subtree table, which finds every contained pair,
so the relation is never incomplete and is transitively closed as found.
The most common class is found over a table of the corpus trees
themselves, grouped into classes by hash-consed root id; only the
winner's tree is encoded.  Support falls strictly up the order, so when
every larger class holds a one- or two-vertex class only those are
counted; otherwise the table is swept like the representatives'.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .codec import Vcpc, encode_canonical
from .errors import NoEligibleClass
from .matching import Rooted, SubtreeTable
from .trees import ColoredArborescence


@dataclass(frozen=True)
class IsoClass:
    """One isomorphism class of a corpus: identical codes, pooled members."""

    class_id: int
    representative: Vcpc
    member_ids: tuple[str, ...]
    size: int


def member_name(tree: ColoredArborescence, position: int) -> str:
    """The name of the corpus member at ``position``: its ``tree_id``, else the position."""
    return tree.tree_id if tree.tree_id is not None else str(position)


def partition_by_isomorphism(corpus: Iterable[ColoredArborescence]) -> list[IsoClass]:
    """Group a corpus, read once, by code equality; ids in first-appearance order."""
    groups: dict[Vcpc, list[str]] = {}
    for position, tree in enumerate(corpus):
        code, _ = encode_canonical(tree)
        # one lookup per tree: hashing a code hashes both of its rows
        groups.setdefault(code, []).append(member_name(tree, position))
    return [
        IsoClass(class_id=k, representative=code, member_ids=tuple(members), size=len(members))
        for k, (code, members) in enumerate(groups.items())
    ]


def _sweep(classes: Sequence[IsoClass]) -> tuple[SubtreeTable, list[Rooted], list[list[int]]]:
    """Intern the representatives into one table and sweep it.  Returns the
    table, each interned representative and, per class, the ascending
    positions of the classes that contain it, itself included."""
    table = SubtreeTable()
    rooted = [table.intern_code(cls.representative) for cls in classes]
    table.sweep()
    # duplicate representatives share a root id, so each id keeps a list
    at: dict[int, list[int]] = {}
    for i, tree in enumerate(rooted):
        at.setdefault(tree.ids[-1], []).append(i)
    above: list[list[int]] = [[] for _ in classes]
    for j, tree in enumerate(rooted):
        for q in at.keys() & table.contained(set(tree.ids)):
            for i in at[q]:
                above[i].append(j)
    return table, rooted, above


def poset_pairs(classes: Sequence[IsoClass]) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Every ``(below, above, witness)`` of the poset in ascending class-id
    order, each witness read from the sweep's memo as it is yielded: the
    one :func:`~colored_prufer.matching.subtree_search` gives, and the
    identity for ``below == above``."""
    classes = sorted(classes, key=attrgetter("class_id"))
    table, rooted, above = _sweep(classes)
    for i, (cls, query, containers) in enumerate(zip(classes, rooted, above)):
        a = cls.class_id
        for j in containers:
            if j == i:
                yield a, a, tuple(range(cls.representative.n))
            else:
                yield a, classes[j].class_id, table.witness(query, rooted[j])


# perfbench's tracer wraps corpus.subtree_poset; nothing else calls it
def subtree_poset(classes: Sequence[IsoClass]) -> dict[tuple[int, int], tuple[int, ...]]:
    return {(a, b): w for a, b, w in poset_pairs(classes)}


def _minimal_counts(table: SubtreeTable, groups: dict, eligible: dict) -> dict[int, int] | None:
    """The support of each eligible one-vertex class, and of each two-vertex
    class neither of whose colors has one; ``None`` when a larger eligible
    class holds none of their colors and edges, so that it may be minimal."""
    size, color, kids = table.size, table.color, table.kids
    small: dict = {color[root]: root for root in eligible if size[root] == 1}
    edges = {(color[root], color[kids[root][0]]): root for root in eligible if size[root] == 2}
    edges = {edge: root for edge, root in edges.items() if small.keys().isdisjoint(edge)}
    small.update(edges)
    counts = dict.fromkeys(small.values(), 0)
    for root, (tree, _, members) in groups.items():
        colors = tree.colors
        held = small.keys() & colors
        if edges:
            pairs = {(colors[p], colors[c]) for p, out in enumerate(tree.children) for c in out}
            held |= edges.keys() & pairs
        if not held and root in eligible:
            return None
        for key in held:
            counts[small[key]] += len(members)
    return counts


def most_representative(
    corpus: Iterable[ColoredArborescence], max_order: int
) -> tuple[IsoClass, int]:
    """Class with at most ``max_order`` vertices contained in most trees.

    The trees are hash-consed into one subtree table and grouped by root
    id, which gives the classes of :func:`partition_by_isomorphism`, ids
    and members included.  The count for class A sums the sizes of every
    class whose first tree contains A's, A itself included.  When every
    eligible class of three or more vertices holds an eligible one- or
    two-vertex class, which then has a larger count, only those are
    counted; otherwise all are, from one sweep of the table.  Ties favor
    the smaller class id.  Only the winner's first tree is encoded, for
    its representative.  Raises
    :class:`~colored_prufer.errors.NoEligibleClass` when the corpus has no
    trees or no class is small enough.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    table = SubtreeTable()
    # per root id, in first appearance: the first tree, its ids, the members
    groups: dict[int, tuple[ColoredArborescence, list[int], list[str]]] = {}
    for position, tree in enumerate(corpus):
        down = table.intern_tree(tree)
        groups.setdefault(down[tree.root], (tree, down, []))[2].append(member_name(tree, position))
    if not groups:
        raise NoEligibleClass("the corpus has no trees")
    eligible = {root: k for k, root in enumerate(groups) if table.size[root] <= max_order}
    if not eligible:
        raise NoEligibleClass(
            f"no class representative has at most {max_order} vertices"
        )
    counts = _minimal_counts(table, groups, eligible)
    if counts is None:
        table.sweep()
        counts = dict.fromkeys(eligible, 0)
        for _, down, members in groups.values():
            for root in eligible.keys() & table.contained(down):
                counts[root] += len(members)
    best = min(counts, key=lambda root: (-counts[root], eligible[root]))
    tree, _, members = groups[best]
    code, _ = encode_canonical(tree)
    return IsoClass(eligible[best], code, tuple(members), len(members)), counts[best]
