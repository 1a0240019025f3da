"""Corpus analytics: isomorphism classes, subtree poset, common structure.

The poset is the exact sub-arborescence order between class
representatives (see :mod:`colored_prufer.matching`), with a witness per
relation pair: the representative's prune steps mapped to the larger
representative's.  Both come from one bottom-up sweep over the
representatives' shared subtree table, which finds every contained pair,
so the relation is never incomplete and is transitively closed as found.
The most common class is counted straight from the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
    b's: the prune step of b's code that takes each prune step of a's,
    as :func:`~colored_prufer.matching.subtree_search` gives it (the
    identity for ``a == b``).  The relation is reflexive and transitively
    closed, because containment is.
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


def subtree_poset(classes: Sequence[IsoClass]) -> CorpusPoset:
    """Compute the full below-relation between class representatives.

    One bottom-up sweep over the representatives' shared subtree table
    finds every contained pair and leaves the table's memo holding every
    pair of subtrees that embed root on root; each pair's witness is then
    read from that memo.
    """
    poset = CorpusPoset(classes=list(classes))
    below = poset.below
    for cls in classes:
        below[(cls.class_id, cls.class_id)] = tuple(range(cls.representative.n))

    table = SubtreeTable()
    rooted = [table.intern_code(cls.representative) for cls in classes]
    for j, bits in enumerate(table.sweep([r.ids[-1] for r in rooted])):
        b = classes[j].class_id
        while bits:
            i = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if i != j:
                below[(classes[i].class_id, b)] = table.witness(rooted[i], rooted[j])
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
