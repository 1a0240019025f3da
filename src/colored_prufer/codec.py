"""Vertex-colored Prüfer codes (VCPCs).

A code is a 2 x n array: row one holds the canonical rank of the pruned
vertex's parent, ending in a terminal ``None`` sentinel for the root; row
two holds the color of the vertex pruned at each step.  Pruning always
removes the eligible vertex (out-degree zero) of minimum canonical rank,
so the numeric part of row one is the classical Prüfer sequence of the
rank-labeled tree with one auxiliary vertex attached above the root.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .canonical import CanonicalOrder, canonical_order
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
    def from_json(cls, obj: dict) -> "Vcpc":
        try:
            parents = tuple(obj["parents"])
            colors = tuple(obj["colors"])
            n = int(obj["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidCode(f"bad code object: {exc}") from exc
        code = cls(parents=parents, colors=colors, n=n)
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
    encodes to ``([None], [root color])``.
    """
    n = tree.n
    phi = order.phi
    if len(phi) != n or len(order.inverse) != n or sorted(phi) != list(range(n)):
        raise OrderMismatch("order is not a bijection onto 0..n-1")
    for rank, v in enumerate(order.inverse):
        if phi[v] != rank:
            raise OrderMismatch("order.inverse disagrees with order.phi")

    parent = tree.parent_map()
    out_deg = [len(tree.children[v]) for v in range(n)]
    heap = [phi[v] for v in range(n) if out_deg[v] == 0 and v != tree.root]
    heapq.heapify(heap)

    parents_row: list[int | None] = []
    colors_row: list[Color] = []
    pruned: list[VertexId] = []
    parent_of: list[VertexId] = []
    for _ in range(n - 1):
        v = order.inverse[heapq.heappop(heap)]
        u = parent[v]
        assert u is not None
        parents_row.append(phi[u])
        colors_row.append(tree.colors[v])
        pruned.append(v)
        parent_of.append(u)
        out_deg[u] -= 1
        if out_deg[u] == 0 and u != tree.root:
            heapq.heappush(heap, phi[u])

    parents_row.append(None)
    colors_row.append(tree.colors[tree.root])
    pruned.append(tree.root)
    code = Vcpc(parents=tuple(parents_row), colors=tuple(colors_row), n=n)
    return code, PruneTrace(pruned=tuple(pruned), parent_of=tuple(parent_of))


def encode_canonical(tree: ColoredArborescence) -> tuple[Vcpc, PruneTrace]:
    """Canonical code of a tree in one call."""
    return encode(tree, canonical_order(tree))


def decode(code: Vcpc, strict: bool = False) -> ColoredArborescence:
    """Rebuild the canonically labeled tree whose encoding is ``code``.

    Structure comes from the classical inverse run over labels
    ``0..n`` (label n standing in for the auxiliary vertex above the
    root); vertex ``v`` then takes the color recorded at the step where
    ``v`` was pruned.  ``strict`` re-encodes the result and rejects codes
    that are well-formed but not the encoding of any tree.
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
    for step, leaf in enumerate(attach_order):
        if leaf >= n:
            raise InvalidCode("inverse construction consumed the auxiliary vertex")
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
    unattached labels.
    """
    if len(sequence) != n_labels - 2:
        raise InvalidCode(
            f"sequence of length {len(sequence)} needs exactly {len(sequence) + 2} labels"
        )
    for x in sequence:
        if not isinstance(x, int) or not 0 <= x < n_labels:
            raise InvalidCode(f"sequence entry {x!r} out of range")

    remaining = Counter(sequence)
    heap = [x for x in range(n_labels) if remaining[x] == 0]
    heapq.heapify(heap)
    edges: list[tuple[int, int]] = []
    order: list[int] = []
    for a in sequence:
        leaf = heapq.heappop(heap)
        edges.append((a, leaf))
        order.append(leaf)
        remaining[a] -= 1
        if remaining[a] == 0:
            heapq.heappush(heap, a)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    return edges, order, (u, v)
