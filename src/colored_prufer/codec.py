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
so it goes next.  There is one scan each way: the upward prune scan
(``_prune_scan``) serves :func:`encode` and :func:`classical_prufer`,
and the inverse scan (``_leaf_order``) serves :func:`prufer_to_edges`
and, as :func:`prune_labels`, :func:`decode` and the matching layer's
``SubtreeTable.intern_code`` and ``code_adjacent``.

The inverse is a bijection between valid codes and rank-labeled trees,
so a code is canonical exactly when its decoded tree's labels are the
canonical ranks, which strict decoding checks without re-encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# canonical_order is part of this module's namespace for perfbench's
# tracer, which wraps codec.canonical_order
from .canonical import CanonicalOrder, canonical_order  # noqa: F401
from .canonical import is_canonically_labeled, sorted_siblings
from .errors import InvalidCode, OrderMismatch, TooSmall
from .trees import Color, ColoredArborescence, VertexId


@dataclass(frozen=True)
class Vcpc:
    """Canonical code of a colored arborescence on ``n`` vertices.

    ``parents[i]`` is the rank of the parent of the i-th pruned vertex
    (``None`` only at index ``n-1``); ``colors[i]`` the pruned vertex's
    color.  ``colors[n-1]`` is therefore the root color, and for n >= 2
    ``parents[n-2] == 0`` because the last pruned non-root vertex is a
    child of the root.  Construction runs :func:`validate_code`.
    """

    parents: tuple[int | None, ...]
    colors: tuple[Color, ...]
    n: int

    def __post_init__(self) -> None:
        validate_code(self)

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
        return cls(parents=tuple(obj["parents"]), colors=tuple(obj["colors"]), n=n)


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
    if type(n) is not int:
        raise InvalidCode(f"n must be an integer, got {n!r}")
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

    ``order`` must be a rank bijection on the tree's vertices that ranks
    the root 0; pass the tree's canonical order to obtain its canonical
    code.  A single vertex encodes to ``([None], [root color])``.  Linear
    in n: one upward scan over the ranks.
    """
    n = tree.n
    phi = order.phi
    integral = all(type(r) is int for r in phi)  # True == 1, yet is no rank
    if not integral or len(order.inverse) != n or sorted(phi) != list(range(n)):
        raise OrderMismatch("order is not a bijection onto 0..n-1")
    for rank, v in enumerate(order.inverse):
        if phi[v] != rank:
            raise OrderMismatch("order.inverse disagrees with order.phi")
    if phi[tree.root] != 0:  # else parents[n-2] is the root's rank
        raise OrderMismatch("order must rank the root 0")

    parent = tree.parent_map()
    left = [len(tree.children[v]) for v in order.inverse]
    pruned = _prune_scan(parent, phi, order.inverse, left, n - 1)
    parent_of = tuple(map(parent.__getitem__, pruned))
    colors = (*map(tree.colors.__getitem__, pruned), tree.colors[tree.root])
    code = Vcpc((*map(phi.__getitem__, parent_of), None), colors, n)
    pruned.append(tree.root)
    return code, PruneTrace(pruned=tuple(pruned), parent_of=parent_of)


def _prune_scan(
    parent: Sequence, rank: Sequence[int], inverse: Sequence, left: list[int], steps: int
) -> list[VertexId]:
    """The first ``steps`` vertices pruned least rank first, in order;
    ``left[r]`` counts the children of the vertex ranked ``r`` (consumed).
    The root keeps a child until step n-1, so it is never pruned."""
    pruned: list[VertexId] = []
    scan, v = 0, None
    for _ in range(steps):
        if v is None:
            while left[scan]:
                scan += 1
            v = inverse[scan]
            scan += 1
        pruned.append(v)
        u = parent[v]
        r = rank[u]
        left[r] -= 1
        # A parent freed below the scan is now the least eligible rank.
        v = u if left[r] == 0 and r < scan else None
    return pruned


def encode_canonical(tree: ColoredArborescence) -> tuple[Vcpc, PruneTrace]:
    """``encode(tree, canonical_order(tree))`` by one traversal that
    ranks each vertex on the way down and prunes it on the way up."""
    sorted_children = sorted_siblings(tree)
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
            kids = sorted_children[v]
            if kids:
                ancestors.append(v)
                stack.append(-1)
                if len(kids) == 1:
                    stack.append(kids[0])
                else:
                    stack += kids[::-1]
                continue
        pruned.append(v)
        parent_of.append(ancestors[-1])
    parent_of.pop()  # the root's
    colors = tuple(map(tree.colors.__getitem__, pruned))
    code = Vcpc((*map(rank.__getitem__, parent_of), None), colors, tree.n)
    return code, PruneTrace(pruned=tuple(pruned), parent_of=tuple(parent_of))


def decode(code: Vcpc, strict: bool = False) -> ColoredArborescence:
    """Rebuild the canonically labeled tree whose encoding is ``code``.

    Step i's prune label (:func:`prune_labels`) names the vertex that
    takes step i's color and hangs below ``parents[i]``.  A valid code
    encodes its decoded tree under the identity order, so it re-encodes
    to itself exactly when the ids are the preorder and every children
    tuple is in canonical sibling order; ``strict`` rejects the valid
    codes that fail this.  It checks that in place
    (:func:`is_canonically_labeled`): each adjacent sibling pair by color,
    leaf, and the descriptor ``rows[a:b]`` of the first against the
    window of the same length at the second, which decides because
    descriptors are self-delimiting.
    """
    n = code.n
    colors = [code.colors[n - 1]] * n  # the root's; the loop sets all others
    children: list[list[int]] = [[] for _ in range(n)]
    # zip stops before the root, whose parents entry is the sentinel
    for leaf, parent, color in zip(prune_labels(code), code.parents[:-1], code.colors):
        colors[leaf] = color
        children[parent].append(leaf)
    for kids in children:
        if len(kids) > 1:
            kids.sort()

    tree = ColoredArborescence(
        n=n, root=0, children=tuple(map(tuple, children)), colors=tuple(colors)
    )
    if strict and not is_canonically_labeled(tree):
        raise InvalidCode("code does not re-encode to itself")
    return tree


def prune_labels(code: Vcpc) -> list[int]:
    """The rank label of the vertex pruned at each step, the root (0)
    last: the inverse scan over labels ``0..n``, label n standing in for
    the auxiliary vertex above the root, which it never consumes.  So
    step ``i``'s parent is pruned at the step whose label is
    ``parents[i]``.  Linear in n; every valid code has one reading."""
    return _leaf_order(code.parents[:-1], code.n + 1)


# --- classical Prüfer sequences -----------------------------------------------


def classical_prufer(
    tree: ColoredArborescence, labels: Sequence[int] | None = None
) -> list[int]:
    """Length n-2 Prüfer sequence of the tree's underlying undirected tree.

    Repeatedly removes the degree-one vertex of minimum label and records
    its neighbor's label, stopping when two vertices remain.  ``labels``
    defaults to the identity on the stored ids.  Label n-1 is never
    removed, so this is the upward prune scan on the tree hung from it.
    """
    n = tree.n
    if n < 2:
        raise TooSmall("classical sequences need at least 2 vertices")
    if labels is None:
        labels = list(range(n))
    if any(type(x) is not int for x in labels) or sorted(labels) != list(range(n)):
        raise OrderMismatch("labels must be a bijection onto 0..n-1")

    by_label = sorted(range(n), key=labels.__getitem__)
    parent = list(tree.parent_map())
    left = [len(tree.children[v]) for v in by_label]
    # hang the tree from the top label: reverse its path to the root,
    # which moves one child from the root to the top
    below, v = None, by_label[n - 1]
    while v is not None:
        parent[v], below, v = below, v, parent[v]
    left[n - 1] += 1
    left[labels[tree.root]] -= 1
    pruned = _prune_scan(parent, labels, by_label, left, n - 2)
    return [labels[parent[v]] for v in pruned]


def prufer_to_edges(
    sequence: Sequence[int], n_labels: int
) -> tuple[list[tuple[int, int]], list[int], tuple[int, int]]:
    """Classical inverse over the label set ``0..n_labels-1``.

    Requires ``len(sequence) == n_labels - 2``.  Returns the attachment
    edges ``(sequence[i], leaf_i)`` in construction order, the consumed
    leaves ``leaf_i`` themselves, and the final edge joining the last two
    unattached labels (the second is always ``n_labels - 1``).
    """
    if len(sequence) != n_labels - 2:
        raise InvalidCode(
            f"sequence of length {len(sequence)} needs exactly {len(sequence) + 2} labels"
        )
    for x in sequence:
        if type(x) is not int or not 0 <= x < n_labels:
            raise InvalidCode(f"sequence entry {x!r} out of range")
    *order, last = _leaf_order(sequence, n_labels)
    return list(zip(sequence, order)), order, (last, n_labels - 1)


def _leaf_order(sequence: Sequence[int], n_labels: int) -> list[int]:
    """The leaves the classical inverse consumes, in order, then the last
    label left beside the top one.  One upward scan over a count per
    label; a label whose count drops to zero below the scan is the least
    leaf, so it is consumed next.  Entries must be labels.
    """
    remaining = [0] * n_labels  # unconsumed occurrences per label
    for x in sequence:
        remaining[x] += 1
    scan = leaf = remaining.index(0)
    order: list[int] = []
    for a in sequence:
        order.append(leaf)
        remaining[a] -= 1
        if remaining[a] == 0 and a < scan:
            leaf = a
        else:
            scan += 1
            while remaining[scan]:
                scan += 1
            leaf = scan
    order.append(leaf)
    return order
