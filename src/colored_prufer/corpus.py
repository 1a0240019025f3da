"""Corpus analytics: isomorphism classes, subtree poset, common structure.

The poset is the exact sub-arborescence order between class
representatives (see :mod:`colored_prufer.matching`), stored transitively
closed with a witness per relation pair: the representative's prune steps
mapped to the larger representative's, composed along the chain for pairs
skipped via transitivity.  It comes from one bottom-up sweep over the
representatives' shared subtree table, which finds every contained pair,
and an ordered replay of the related pairs, so it is never incomplete;
the most common class is counted straight from the sweep, with no replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .codec import Vcpc, encode_canonical
from .errors import NoEligibleClass
from .matching import SubtreeTable
from .trees import ColoredArborescence


@dataclass(frozen=True)
class IsoClass:
    """One isomorphism class of a corpus: identical codes, pooled members."""

    class_id: int
    representative: Vcpc
    member_ids: tuple[str, ...]
    size: int


@dataclass
class CorpusPoset:
    """Sub-arborescence order between class representatives.

    ``below[(a, b)]`` holds a witness embedding a's representative into
    b's: the prune step of b's code that takes each prune step of a's.
    The relation is reflexive and transitively closed.
    """

    classes: list[IsoClass]
    below: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)

    def relation(self) -> set[tuple[int, int]]:
        return set(self.below)


def partition_by_isomorphism(corpus: Sequence[ColoredArborescence]) -> list[IsoClass]:
    """Group a corpus by exact code equality, ids in first-appearance order."""
    groups: dict[Vcpc, list[str]] = {}
    order: list[Vcpc] = []
    for position, tree in enumerate(corpus):
        code, _ = encode_canonical(tree)
        member = tree.tree_id if tree.tree_id is not None else str(position)
        if code not in groups:
            groups[code] = []
            order.append(code)
        groups[code].append(member)
    return [
        IsoClass(
            class_id=k,
            representative=code,
            member_ids=tuple(groups[code]),
            size=len(groups[code]),
        )
        for k, code in enumerate(order)
    ]


def _compose(first: Sequence[int], second: Sequence[int]) -> tuple[int, ...]:
    """Chain witnesses: embed A in B then B in C gives A in C."""
    return tuple(map(second.__getitem__, first))


class _Closure:
    """Reflexive, transitively closed relation over a set of ids."""

    def __init__(self, ids: Iterable[int]):
        members = list(ids)
        self.up: dict[int, set[int]] = {i: {i} for i in members}
        self.down: dict[int, set[int]] = {i: {i} for i in members}

    def has(self, a: int, b: int) -> bool:
        return b in self.up[a]

    def add(self, a: int, b: int) -> list[tuple[int, int]]:
        """Insert a <= b with everything it implies; return the new pairs."""
        pairs = [
            (x, y)
            for x in self.down[a]
            for y in self.up[b]
            if y not in self.up[x]
        ]
        for x, y in pairs:
            self.up[x].add(y)
            self.down[y].add(x)
        return pairs


def subtree_poset(classes: Sequence[IsoClass]) -> CorpusPoset:
    """Compute the full below-relation between class representatives.

    One bottom-up sweep over the representatives' shared subtree table
    finds every contained pair.  The related pairs are then replayed by
    ascending vertex-count gap, so both legs of a transitive chain are
    committed before the pair they imply, which gets a composed witness.
    """
    poset = CorpusPoset(classes=list(classes))
    closure = _Closure(cls.class_id for cls in classes)
    below = poset.below
    for cls in classes:
        below[(cls.class_id, cls.class_id)] = tuple(range(cls.representative.n))

    table = SubtreeTable()
    rooted = [table.intern_code(cls.representative) for cls in classes]
    related = []
    for j, bits in enumerate(table.sweep([r.ids[-1] for r in rooted])):
        while bits:
            i = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            gap = classes[j].representative.n - classes[i].representative.n
            if gap > 0:
                related.append((gap, classes[i].class_id, classes[j].class_id, i, j))
    for _, a, b, i, j in sorted(related):
        if closure.has(a, b):
            continue
        witness = table.witness(rooted[i], rooted[j])
        for x, y in closure.add(a, b):
            w = witness
            if x != a:
                w = _compose(below[(x, a)], w)
            if y != b:
                w = _compose(w, below[(b, y)])
            below[(x, y)] = w
    return poset


def most_representative(classes: Sequence[IsoClass], max_order: int) -> tuple[IsoClass, int]:
    """Class with at most ``max_order`` vertices contained in most trees.

    The count for class A sums the sizes of every class whose
    representative contains A's, A itself included, read straight from
    one sweep over the representatives' shared subtree table.  Ties favor
    the smaller class id.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    eligible = [i for i, cls in enumerate(classes) if cls.representative.n <= max_order]
    if not eligible:
        raise NoEligibleClass(
            f"no class representative has at most {max_order} vertices"
        )

    table = SubtreeTable()
    roots = [table.intern_code(cls.representative).ids[-1] for cls in classes]
    counts = [0] * len(classes)
    for cls, bits in zip(classes, table.sweep(roots)):
        while bits:
            counts[(bits & -bits).bit_length() - 1] += cls.size
            bits &= bits - 1
    best = max(eligible, key=counts.__getitem__)  # the first of equal counts
    return classes[best], counts[best]
