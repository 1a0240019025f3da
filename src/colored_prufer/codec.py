"""Vertex-colored Prüfer codes (VCPCs).

A code is a 2 x n array: row one holds the canonical rank of the pruned
vertex's parent, ending in a terminal ``None`` sentinel for the root; row
two holds the color of the vertex pruned at each step.  Pruning always
removes the eligible vertex (out-degree zero) of minimum canonical rank,
so the numeric part of row one is the classical Prüfer sequence of the
rank-labeled tree with one auxiliary vertex attached above the root.

Under the canonical order, pruning follows the postorder of the
canonical depth-first traversal: the ranks are its preorder, so every
vertex ranked below the next vertex in postorder is either its ancestor,
not yet eligible, or in a subtree the postorder has finished, already
pruned.  So :func:`encode_canonical` reads the code off that traversal.
Under other orders, and when decoding, a linear scan needs no heap
(Caminiti, Finocchi & Petreschi, TCS 2007): a pointer walks the labels
upward, and a vertex freed below the pointer is the least eligible one,
so it goes next.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

# canonical_order is part of this module's namespace for perfbench's
# tracer, which wraps codec.canonical_order
from .canonical import CanonicalOrder, canonical_order, sorted_siblings  # noqa: F401
from .errors import InvalidCode, OrderMismatch, TooSmall
from .trees import Color, ColoredArborescence, VertexId


@dataclass(frozen=True)
class Vcpc:
    """Canonical code of a colored arborescence on ``n`` vertices.

    ``parents[i]`` is the rank of the parent of the i-th pruned vertex
    (``None`` only at index ``n-1``); ``colors[i]`` the pruned vertex's
    color.  ``colors[n-1]`` is therefore the root color, and for n >= 2
    ``parents[n-2] == 0`` because the last pruned non-root vertex is a
    child of the root.
    """

    parents: tuple[int | None, ...]
    colors: tuple[Color, ...]
    n: int

    def to_json(self) -> dict:
        return {"parents": list(self.parents), "colors": list(self.colors), "n": self.n}

    @classmethod
    def from_json(cls, obj: object) -> "Vcpc":
        if not isinstance(obj, dict):
            raise InvalidCode("bad code object: expected a JSON object")
        for name in ("parents", "colors"):
            if not isinstance(obj.get(name), list):
                raise InvalidCode(f"bad code object: {name} must be an array")
        n = obj.get("n")
        if type(n) is not int:
            raise InvalidCode(f"bad code object: n must be an integer, got {n!r}")
        code = cls(parents=tuple(obj["parents"]), colors=tuple(obj["colors"]), n=n)
        validate_code(code)
        return code


@dataclass(frozen=True)
class PruneTrace:
    """Which vertex was pruned at each step, and its parent.

    ``pruned[i]`` is the vertex removed at step ``i`` (the root last);
    ``parent_of[i]`` its parent, defined for ``i < n-1``.
    """

    pruned: tuple[VertexId, ...]
    parent_of: tuple[VertexId, ...]


def validate_code(code: Vcpc) -> None:
    """Raise :class:`InvalidCode` unless the code's invariants hold."""
    n = code.n
    if n < 1 or len(code.parents) != n or len(code.colors) != n:
        raise InvalidCode(f"rows must both have length n={n}")
    if code.parents[-1] is not None:
        raise InvalidCode("terminal sentinel missing from the parents row")
    for i, p in enumerate(code.parents[:-1]):
        if p is None:
            raise InvalidCode(f"sentinel at interior position {i}")
        if type(p) is not int or not 0 <= p < n:
            raise InvalidCode(f"parents entry {p!r} at position {i} out of range")
    if n >= 2 and code.parents[n - 2] != 0:
        raise InvalidCode("second-to-last parent entry must be the root rank 0")
    for c in code.colors:
        if type(c) is not int or c < 0:
            raise InvalidCode(f"bad color entry {c!r}")


def encode(
    tree: ColoredArborescence, order: CanonicalOrder
) -> tuple[Vcpc, PruneTrace]:
    """Prune minimum-rank eligible vertices, recording (parent rank, color).

    ``order`` must be a rank bijection on the tree's vertices; pass the
    tree's canonical order to obtain its canonical code.  A single vertex
    encodes to ``([None], [root color])``.  Linear in n: one upward scan
    over the ranks.
    """
    n = tree.n
    phi = order.phi
    if len(phi) != n or len(order.inverse) != n or sorted(phi) != list(range(n)):
        raise OrderMismatch("order is not a bijection onto 0..n-1")
    for rank, v in enumerate(order.inverse):
        if phi[v] != rank:
            raise OrderMismatch("order.inverse disagrees with order.phi")

    parent = tree.parent_map()
    left = [len(tree.children[v]) for v in order.inverse]  # unpruned children, by rank
    parents_row: list[int | None] = []
    colors_row: list[Color] = []
    pruned: list[VertexId] = []
    parent_of: list[VertexId] = []
    # The root keeps a child until the last step, so it is never pruned.
    scan = 0
    v = None
    for _ in range(n - 1):
        if v is None:
            while left[scan]:
                scan += 1
            v = order.inverse[scan]
            scan += 1
        u = parent[v]
        assert u is not None
        r = phi[u]
        parents_row.append(r)
        colors_row.append(tree.colors[v])
        pruned.append(v)
        parent_of.append(u)
        left[r] -= 1
        # A parent freed below the scan is now the least eligible rank.
        v = u if left[r] == 0 and r < scan else None

    parents_row.append(None)
    colors_row.append(tree.colors[tree.root])
    pruned.append(tree.root)
    code = Vcpc(parents=tuple(parents_row), colors=tuple(colors_row), n=n)
    return code, PruneTrace(pruned=tuple(pruned), parent_of=tuple(parent_of))


def encode_canonical(tree: ColoredArborescence) -> tuple[Vcpc, PruneTrace]:
    """``encode(tree, canonical_order(tree))`` by one traversal that
    ranks each vertex on the way down and prunes it on the way up."""
    sorted_children = sorted_siblings(tree)[0]
    rank = [0] * tree.n
    pruned: list[VertexId] = []
    parent_of: list[VertexId | None] = []
    # ancestors[-1] is the parent of the vertex on top of the stack (None
    # above the root); a -1 on the stack closes the innermost ancestor
    ancestors: list[VertexId | None] = [None]
    stack = [tree.root]
    r = 0
    while stack:
        v = stack.pop()
        if v < 0:
            v = ancestors.pop()
        else:
            rank[v] = r
            r += 1
            if sorted_children[v]:
                ancestors.append(v)
                stack.append(-1)
                stack += sorted_children[v][::-1]
                continue
        pruned.append(v)
        parent_of.append(ancestors[-1])
    parent_of.pop()  # the root's
    code = Vcpc(
        parents=(*map(rank.__getitem__, parent_of), None),
        colors=tuple(map(tree.colors.__getitem__, pruned)),
        n=tree.n,
    )
    return code, PruneTrace(pruned=tuple(pruned), parent_of=tuple(parent_of))


def decode(code: Vcpc, strict: bool = False) -> ColoredArborescence:
    """Rebuild the canonically labeled tree whose encoding is ``code``.

    Structure comes from the classical inverse run over labels
    ``0..n`` (label n standing in for the auxiliary vertex above the
    root); vertex ``v`` then takes the color recorded at the step where
    ``v`` was pruned.  ``strict`` re-encodes the result and rejects codes
    that are well-formed but not the encoding of any tree.  The inverse
    run is a linear scan (see :func:`prufer_to_edges`).
    """
    validate_code(code)
    n = code.n
    if n == 1:
        tree = ColoredArborescence(
            n=1, root=0, children=((),), colors=(code.colors[0],)
        )
        return tree

    sequence = [p for p in code.parents[:-1] if p is not None]
    attach_edges, attach_order, _last_pair = prufer_to_edges(sequence, n + 1)

    colors = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    # the inverse never consumes its top label n, the auxiliary vertex
    for step, leaf in enumerate(attach_order):
        colors[leaf] = code.colors[step]
        children[sequence[step]].append(leaf)
    colors[0] = code.colors[n - 1]

    tree = ColoredArborescence(
        n=n,
        root=0,
        children=tuple(tuple(sorted(kids)) for kids in children),
        colors=tuple(colors),
    )
    if strict:
        recoded, _ = encode_canonical(tree)
        if recoded != code:
            raise InvalidCode("code does not re-encode to itself")
    return tree


# --- classical Prüfer sequences -----------------------------------------------


def classical_prufer(
    tree: ColoredArborescence, labels: Sequence[int] | None = None
) -> list[int]:
    """Length n-2 Prüfer sequence of the tree's underlying undirected tree.

    Repeatedly removes the degree-one vertex of minimum label and records
    its neighbor's label, stopping when two vertices remain.  ``labels``
    defaults to the identity on the stored ids.
    """
    n = tree.n
    if n < 2:
        raise TooSmall("classical sequences need at least 2 vertices")
    if labels is None:
        labels = list(range(n))
    if sorted(labels) != list(range(n)):
        raise OrderMismatch("labels must be a bijection onto 0..n-1")

    adjacency = [set(x) for x in tree.undirected_adjacency()]
    heap = [labels[v] for v in range(n) if len(adjacency[v]) <= 1]
    by_label = sorted(range(n), key=lambda v: labels[v])
    heapq.heapify(heap)
    out: list[int] = []
    for _ in range(n - 2):
        leaf = by_label[heapq.heappop(heap)]
        neighbor = next(iter(adjacency[leaf]))
        out.append(labels[neighbor])
        adjacency[neighbor].discard(leaf)
        adjacency[leaf].clear()
        if len(adjacency[neighbor]) == 1:
            heapq.heappush(heap, labels[neighbor])
    return out


def prufer_to_edges(
    sequence: Sequence[int], n_labels: int
) -> tuple[list[tuple[int, int]], list[int], tuple[int, int]]:
    """Classical inverse over the label set ``0..n_labels-1``.

    Requires ``len(sequence) == n_labels - 2``.  Returns the attachment
    edges ``(sequence[i], leaf_i)`` in construction order, the consumed
    leaves ``leaf_i`` themselves, and the final edge joining the last two
    unattached labels (the second is always ``n_labels - 1``).  One
    upward scan over a count per label; a label whose count drops to
    zero below the scan is the least leaf, so it is consumed next.
    """
    if len(sequence) != n_labels - 2:
        raise InvalidCode(
            f"sequence of length {len(sequence)} needs exactly {len(sequence) + 2} labels"
        )
    remaining = [0] * n_labels  # unconsumed occurrences per label
    for x in sequence:
        if type(x) is not int or not 0 <= x < n_labels:
            raise InvalidCode(f"sequence entry {x!r} out of range")
        remaining[x] += 1
    scan = remaining.index(0)
    leaf = scan
    edges: list[tuple[int, int]] = []
    order: list[int] = []
    for a in sequence:
        edges.append((a, leaf))
        order.append(leaf)
        remaining[a] -= 1
        if remaining[a] == 0 and a < scan:
            leaf = a
        else:
            scan += 1
            while remaining[scan]:
                scan += 1
            leaf = scan
    return edges, order, (leaf, n_labels - 1)
