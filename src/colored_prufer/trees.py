"""Colored arborescences and the JSONL corpus format.

A tree is stored with vertex ids normalized to ``0..n-1`` (sorted order of
the original ids), the root first in no particular sense, and per-vertex
children tuples sorted ascending.  Children order carries no semantics;
every meaningful order comes from canonicalization.  Instances are frozen
and hashable, so they can serve as cache keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleDetected,
    DisconnectedVertex,
    DuplicateEdge,
    MissingColor,
    MultipleRoots,
    ParseError,
    ValidationError,
)

Color = int
VertexId = int

# Compact JSON text of one object, as ``json.dumps(obj, separators=(",", ":"))``
# gives it, from one encoder built once rather than one per call.
json_line = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True)
class ColoredArborescence:
    """Rooted directed tree, all edges away from the root, vertices colored.

    ``children[v]`` is the tuple of direct out-neighbors of ``v`` and
    ``colors[v]`` its color; both are indexed by the normalized vertex id.
    ``tree_id`` and ``source_ids`` are provenance only and excluded from
    equality and hashing.
    """

    n: int
    root: VertexId
    children: tuple[tuple[VertexId, ...], ...]
    colors: tuple[Color, ...]
    tree_id: str | None = field(default=None, compare=False)
    source_ids: tuple[int, ...] | None = field(default=None, compare=False)

    def parent_map(self) -> tuple[VertexId | None, ...]:
        """Parent of every vertex; ``None`` for the root."""
        parent: list[VertexId | None] = [None] * self.n
        for u in range(self.n):
            for v in self.children[u]:
                parent[v] = u
        return tuple(parent)

    def undirected_adjacency(self) -> tuple[tuple[VertexId, ...], ...]:
        adj: list[list[VertexId]] = [[] for _ in range(self.n)]
        for u in range(self.n):
            for v in self.children[u]:
                adj[u].append(v)
                adj[v].append(u)
        return tuple(tuple(sorted(x)) for x in adj)

    def bfs_order(self) -> list[VertexId]:
        order = [self.root]
        for v in order:
            order.extend(self.children[v])
        return order


def build_tree(
    edges: Sequence[tuple[int, int]],
    colors: Mapping[int, Color],
    root: int | None = None,
    tree_id: str | None = None,
) -> ColoredArborescence:
    """Validate an edge list and colors, normalizing ids to ``0..n-1``.

    The root is inferred as the unique vertex of in-degree zero; passing
    ``root`` additionally asserts the inference.  Raises a
    :class:`TreeStructureError` subclass naming the offending vertex or
    edge when the input is not a colored arborescence.  Of several faults
    the first in this order is reported: per edge in list order a self-loop,
    then a repeated edge or second parent; no vertices; an isolated vertex;
    the root count; the declared root; reachability; then by ascending id a
    missing color and (after ``int`` coerces every color) a negative one.
    """
    parent: dict[int, int] = {}
    kids: dict[int, list[int]] = {}
    for p, c in edges:
        if p == c:
            raise CycleDetected(f"self-loop on vertex {p}")
        if c in parent:
            q = parent[c]
            if q == p:
                raise DuplicateEdge(f"edge ({p}, {c}) appears twice")
            # name c as the first edge spelled it (1 and 1.0 are one key)
            first = (q, next(k for k in parent if k is c or k == c))
            raise DuplicateEdge(f"vertex {c} has two in-edges {first} and {(p, c)}")
        parent[c] = p
        kids.setdefault(p, []).append(c)

    vertices = {*colors, *parent, *kids}
    if not vertices:
        raise DisconnectedVertex("empty tree: no vertices supplied")
    roots = sorted(vertices.difference(parent))
    isolated = [v for v in roots if v not in kids]
    if edges and isolated:
        raise DisconnectedVertex(f"vertex {isolated[0]} has no incident edges")
    if len(roots) > 1:
        raise MultipleRoots(f"vertices {roots} all have in-degree 0")
    if not roots:
        raise CycleDetected("no vertex has in-degree 0; the edges contain a cycle")
    inferred_root = roots[0]
    if root is not None and root != inferred_root:
        raise MultipleRoots(
            f"declared root {root} differs from inferred root {inferred_root}"
        )

    # With one parent per vertex, only a cycle can hide a vertex from the root.
    reached = [inferred_root]
    for v in reached:
        reached.extend(kids.get(v, ()))
    if len(reached) != len(vertices):
        missing = min(vertices.difference(reached))
        raise CycleDetected(f"vertex {missing} is not reachable from the root")

    source_ids = tuple(sorted(vertices))
    n = len(source_ids)
    if len(colors) != n:
        missing = min(vertices.difference(colors))
        raise MissingColor(f"vertex {missing} has no color")
    color_row = tuple(map(int, map(colors.__getitem__, source_ids)))
    if min(color_row) < 0:
        v, col = next(vc for vc in zip(source_ids, color_row) if vc[1] < 0)
        raise MissingColor(f"vertex {v} has negative color {col}")

    # Relabel unless the ids already are 0..n-1, all of type int.
    id_types = {*map(type, source_ids), *map(type, parent), *map(type, kids)}
    if id_types != {int} or source_ids[0] != 0 or source_ids[-1] != n - 1:
        new_id = {old: new for new, old in enumerate(source_ids)}
        kids = {new_id[p]: [new_id[c] for c in cs] for p, cs in kids.items()}
        inferred_root = new_id[inferred_root]
    children: list[tuple[int, ...]] = [()] * n
    for p, cs in kids.items():
        children[p] = tuple(sorted(cs))
    return ColoredArborescence(
        n=n,
        root=inferred_root,
        children=tuple(children),
        colors=color_row,
        tree_id=tree_id,
        source_ids=source_ids,
    )


def leaves(tree: ColoredArborescence) -> set[VertexId]:
    """Vertices with out-degree zero (in-degree is at most one by invariant)."""
    return {v for v in range(tree.n) if not tree.children[v]}


def subtree_vertices(tree: ColoredArborescence, apex: VertexId) -> set[VertexId]:
    """The apex together with all of its descendants (its out-component)."""
    if not 0 <= apex < tree.n:
        raise IndexError(f"apex {apex} not a vertex of the tree")
    result = set()
    stack = [apex]
    while stack:
        v = stack.pop()
        result.add(v)
        stack.extend(tree.children[v])
    return result


# --- JSONL corpus format ------------------------------------------------------
#
# One tree per line:
#   {"id": "<str>", "root": <int optional>, "edges": [[p, c], ...],
#    "colors": {"<vid>": <int or name>, ...}}
# Color values may be names when a color-table (JSON map name -> int) is given.
# Integers are checked with ``type(x) is int``: JSON true/false load as bool,
# a subclass of int, and are rejected.


def tree_to_json(tree: ColoredArborescence) -> dict:
    return {
        "id": tree.tree_id if tree.tree_id is not None else "",
        "root": tree.root,
        "edges": [[u, v] for u in range(tree.n) for v in tree.children[u]],
        "colors": {str(v): tree.colors[v] for v in range(tree.n)},
    }


def write_corpus(trees: Iterable[ColoredArborescence], fp: IO[str]) -> None:
    for tree in trees:
        fp.write(json_line(tree_to_json(tree)))
        fp.write("\n")


def load_color_table(fp: IO[str]) -> dict[str, int]:
    """Read a JSON map of color name -> nonnegative integer."""
    try:
        table = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise ParseError(1, "JSON nested too deeply") from None
    if not isinstance(table, dict) or any(
        not isinstance(k, str) or type(v) is not int or v < 0
        for k, v in table.items()
    ):
        raise ParseError(1, "color table must map names to nonnegative integers")
    return table


def _tree_from_json(obj: dict, line: int, color_table: Mapping[str, int] | None):
    if not isinstance(obj, dict):
        raise ParseError(line, "expected a JSON object")
    if "colors" not in obj:
        raise ParseError(line, 'missing "colors" key')
    if "edges" not in obj:
        raise ParseError(line, 'missing "edges" key')
    raw_colors = obj["colors"]
    raw_edges = obj["edges"]
    if not isinstance(raw_colors, dict) or not isinstance(raw_edges, list):
        raise ParseError(line, '"colors" must be an object and "edges" a list')

    edges: list[tuple[int, int]] = []
    for e in raw_edges:
        if isinstance(e, list) and len(e) == 2:
            p, c = e
            if type(p) is int and type(c) is int:
                edges.append((p, c))
                continue
        raise ParseError(line, f"bad edge entry {e!r}")

    colors: dict[int, int] = {}
    for key, value in raw_colors.items():
        try:
            vid = int(key)
        except ValueError:
            raise ParseError(line, f"non-integer vertex id {key!r}") from None
        if isinstance(value, str):
            if color_table is None or value not in color_table:
                raise ParseError(line, f"unknown color name {value!r}")
            value = color_table[value]
        if type(value) is not int or value < 0:
            raise ParseError(line, f"bad color {value!r} for vertex {key}")
        colors[vid] = value
    if len(colors) != len(raw_colors):
        # two keys, such as "1" and " 1" or "01", name one vertex
        seen: dict[int, str] = {}
        for key in raw_colors:
            first = seen.setdefault(int(key), key)
            if first != key:
                message = f"vertex {int(key)} has two color keys {first!r} and {key!r}"
                raise ParseError(line, message)

    root = obj.get("root")
    if root is not None and type(root) is not int:
        raise ParseError(line, '"root" must be an integer')
    tree_id = obj.get("id")
    if tree_id is not None and not isinstance(tree_id, str):
        raise ParseError(line, '"id" must be a string')
    return edges, colors, root, tree_id


def iter_corpus(
    source: IO[str] | IO[bytes] | Iterable[str] | Iterable[bytes],
    color_table: Mapping[str, int] | None = None,
) -> Iterator[ColoredArborescence]:
    """Stream trees from a JSONL source, one validated tree per line.

    Raises :class:`ParseError` for malformed lines and
    :class:`ValidationError` (carrying the structural cause) for lines
    that parse but do not describe an arborescence.  Line numbers are
    1-based.
    """
    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
        except RecursionError:
            raise ParseError(line_no, "JSON nested too deeply") from None
        edges, colors, root, tree_id = _tree_from_json(obj, line_no, color_table)
        try:
            tree = build_tree(edges, colors, root=root, tree_id=tree_id or None)
        except Exception as exc:
            raise ValidationError(line_no, exc) from exc
        yield tree


def parse_corpus(
    source: IO[str] | IO[bytes] | Iterable[str] | Iterable[bytes],
    color_table: Mapping[str, int] | None = None,
) -> list[ColoredArborescence]:
    """Parse a whole JSONL corpus, preserving input order."""
    return list(iter_corpus(source, color_table))
