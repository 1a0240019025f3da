"""Corpus analytics: isomorphism classes, subtree poset, common structure.

The poset is the exact sub-arborescence order between class
representatives (see :mod:`colored_prufer.matching`), stored transitively
closed with a witness per relation pair: the representative's prune steps
mapped to the larger representative's, composed along the chain for pairs
skipped via transitivity.  Every pair is decided, so the poset is never
incomplete.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .codec import Vcpc, encode_canonical
from .errors import NoEligibleClass
from .matching import Rooted, SubtreeTable
from .trees import ColoredArborescence

# Jobs per worker task when the poset runs on several processes.
_CHUNK = 256


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
    return tuple(second[i] for i in first)


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


def _verdicts(jobs, table: SubtreeTable, rooted: dict[int, Rooted]) -> list:
    """Witness or ``None`` for each ``(a, rep_a, b, rep_b)`` job.

    ``rooted`` holds the representatives already interned into ``table``,
    by class id.
    """
    out = []
    for a, rep_a, b, rep_b in jobs:
        for class_id, rep in ((a, rep_a), (b, rep_b)):
            if class_id not in rooted:
                rooted[class_id] = table.intern_code(rep)
        out.append(table.search(rooted[a], rooted[b])[0])
    return out


def _chunk_verdicts(jobs) -> list:
    """Worker entry point: one table per chunk of jobs."""
    return _verdicts(jobs, SubtreeTable(), {})


def subtree_poset(classes: Sequence[IsoClass], workers: int = 1) -> CorpusPoset:
    """Compute the full below-relation between class representatives.

    Pairs are scheduled by ascending vertex-count gap so that both legs
    of any transitive chain are committed before the pair they imply;
    implied pairs are skipped and receive composed witnesses.  Run
    sequentially, every pair is decided on one subtree table, so each
    pair of distinct rooted subtrees is decided once for the whole
    corpus; each worker chunk builds its own table.  The relation and the
    witnesses are independent of scheduling and worker count.
    """
    poset = CorpusPoset(classes=list(classes))
    closure = _Closure(cls.class_id for cls in classes)
    below = poset.below
    for cls in classes:
        below[(cls.class_id, cls.class_id)] = tuple(range(cls.representative.n))

    reps = {cls.class_id: cls.representative for cls in classes}
    candidates = [
        (b_cls.representative.n - a_cls.representative.n, a_cls.class_id, b_cls.class_id)
        for a_cls in classes
        for b_cls in classes
        if a_cls.class_id != b_cls.class_id
        and a_cls.representative.n < b_cls.representative.n
    ]
    candidates.sort()

    table = SubtreeTable()
    rooted: dict[int, Rooted] = {}
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        start = 0
        while start < len(candidates):
            gap = candidates[start][0]
            stop = start
            while stop < len(candidates) and candidates[stop][0] == gap:
                stop += 1
            wave = [
                (a, b)
                for _, a, b in candidates[start:stop]
                if not closure.has(a, b)
            ]
            jobs = [(a, reps[a], b, reps[b]) for a, b in wave]
            if pool is not None:
                chunks = [jobs[k : k + _CHUNK] for k in range(0, len(jobs), _CHUNK)]
                witnesses = [w for part in pool.map(_chunk_verdicts, chunks) for w in part]
            else:
                witnesses = _verdicts(jobs, table, rooted)
            for (a, b), witness in zip(wave, witnesses):
                if witness is None:
                    continue
                for x, y in closure.add(a, b):
                    w = witness
                    if x != a:
                        w = _compose(below[(x, a)], w)
                    if y != b:
                        w = _compose(w, below[(b, y)])
                    below[(x, y)] = w
            start = stop
    finally:
        if pool is not None:
            pool.shutdown()
    return poset


def most_representative(
    classes: Sequence[IsoClass], poset: CorpusPoset, max_order: int
) -> tuple[IsoClass, int]:
    """Class with at most ``max_order`` vertices contained in most trees.

    The count for class A sums the sizes of every class above A in the
    poset, A itself included.  Ties favor the smaller class id.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    size_of = {cls.class_id: cls.size for cls in classes}
    eligible = [cls for cls in classes if cls.representative.n <= max_order]
    if not eligible:
        raise NoEligibleClass(
            f"no class representative has at most {max_order} vertices"
        )

    counts: dict[int, int] = {cls.class_id: 0 for cls in classes}
    for a, b in poset.below:
        counts[a] += size_of[b]

    best = eligible[0]
    for cls in eligible[1:]:
        if counts[cls.class_id] > counts[best.class_id]:
            best = cls
    return best, counts[best.class_id]
