"""Colored arborescences and the JSONL corpus format.

A tree is stored with vertex ids normalized to ``0..n-1`` (sorted order of
the original ids, so the root keeps the id of its sorted position) and
per-vertex children tuples sorted ascending.  Children order carries no
semantics; every meaningful order comes from canonicalization.  Instances
are frozen and hashable.
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
    TreeStructureError,
    ValidationError,
)

Color = int
VertexId = int

# Compact JSON text of one object, as ``json.dumps(obj, separators=(",", ":"))``
# gives it, from one encoder built once rather than one per call.  Every
# object it encodes is built by this package and has no reference cycle,
# so the encoder skips the cycle check.
json_line = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


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

    Ids that are the ints ``0..n-1`` are kept as they are; any other ids,
    shifted or sparse ints, floats or bools, are relabeled in sorted order,
    and ``source_ids`` keeps the originals.  The root is inferred as the
    unique vertex of in-degree zero; passing ``root`` additionally asserts
    the inference.  Raises a :class:`TreeStructureError` subclass naming
    the offending vertex or edge when the input is not a colored
    arborescence.  Of several faults the first in this order is reported:
    per edge in list order a self-loop, then a repeated edge or second
    parent; no vertices; an isolated vertex; the root count; the declared
    root; reachability; then by ascending id a missing color and (after
    ``int`` coerces every color) a negative one.
    """
    edges = list(edges)
    n = len(colors)
    source_ids = range(n)
    found = None
    # ids that are the ints 0..n-1 index the scan's arrays as they are
    if n and min(colors) == 0 and max(colors) == n - 1 and set(map(type, colors)) == {int}:
        found = _scan(edges, source_ids, root)
    if found is None:  # other ids, or an edge the scan could not place
        source_ids, relabeled = _relabel(edges, colors)
        found = _scan(relabeled, source_ids, root)
        if found is None:
            raise _edge_fault(edges)
    if len(colors) != len(source_ids):
        missing = next(v for v in source_ids if v not in colors)
        raise MissingColor(f"vertex {missing} has no color")
    color_row = tuple(map(int, map(colors.__getitem__, source_ids)))
    if min(color_row) < 0:
        v, col = next(vc for vc in zip(source_ids, color_row) if vc[1] < 0)
        raise MissingColor(f"vertex {v} has negative color {col}")
    return ColoredArborescence(len(source_ids), *found, color_row, tree_id, tuple(source_ids))


def _relabel(edges, colors) -> tuple[list, list[tuple[int, int]]]:
    """Every id of ``colors`` and ``edges`` in sorted order, and the edges
    as pairs of positions in it."""
    # Of equal ids such as 1 and 1.0 the set keeps the first spelling, in
    # the order colors, children, parents, which the fault messages name.
    source_ids = sorted({*colors, *(c for _, c in edges), *(p for p, _ in edges)})
    position = {v: i for i, v in enumerate(source_ids)}
    return source_ids, [(position[p], position[c]) for p, c in edges]


def _scan(edges, source_ids, root) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """Root and sorted children rows of the arborescence that ``edges``
    make on the vertices ``0..n-1``, ``n = len(source_ids)``, checking the
    declared ``root``.  ``None`` at the first entry that is not a pair of
    ints in that range, or that is a self-loop or gives a vertex a second
    parent: the caller relabels the ids or names that edge.  Every other
    fault raises, naming each vertex ``v`` as ``source_ids[v]``."""
    n = len(source_ids)
    parent = [-1] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    try:
        # A JSON entry that unpacks to two ints is a list of two ints: a
        # string unpacks to strings and an object to its string keys.
        for p, c in edges:
            if (
                type(p) is not int
                or type(c) is not int
                or not 0 <= p < n
                or not 0 <= c < n
                or parent[c] >= 0
                or p == c
            ):
                return None
            parent[c] = p
            kids[p].append(c)
    except (TypeError, ValueError):  # an entry that is not a pair
        return None

    if not n:
        raise DisconnectedVertex("empty tree: no vertices supplied")
    # n - 1 edges into distinct vertices leave exactly one without a parent
    if len(edges) == n - 1:
        roots = [parent.index(-1)]
    else:
        roots = [v for v in range(n) if parent[v] < 0]
    if edges:
        for v in roots:
            if not kids[v]:
                raise DisconnectedVertex(f"vertex {source_ids[v]} has no incident edges")
    if len(roots) > 1:
        raise MultipleRoots(f"vertices {[source_ids[v] for v in roots]} all have in-degree 0")
    if not roots:
        raise CycleDetected("no vertex has in-degree 0; the edges contain a cycle")
    inferred_root = roots[0]
    if root is not None and root != source_ids[inferred_root]:
        raise MultipleRoots(
            f"declared root {root} differs from inferred root {source_ids[inferred_root]}"
        )

    # With one parent per vertex, only a cycle can hide a vertex from the root.
    reached = [inferred_root]
    for v in reached:
        reached += kids[v]
    if len(reached) != n:
        missing = min(set(range(n)).difference(reached))
        raise CycleDetected(f"vertex {source_ids[missing]} is not reachable from the root")
    for cs in kids:
        cs.sort()
    return inferred_root, tuple(map(tuple, kids))


def _edge_fault(edges) -> TreeStructureError:
    """The first self-loop, repeated edge or second parent in ``edges``,
    named as the edges spell it; :func:`_scan` has found that there is one."""
    parent: dict = {}
    for p, c in edges:
        if p == c:
            return CycleDetected(f"self-loop on vertex {p}")
        if c in parent:
            q = parent[c]
            if q == p:
                return DuplicateEdge(f"edge ({p}, {c}) appears twice")
            # name c as the first edge spelled it (1 and 1.0 are one key)
            first = (q, next(k for k in parent if k is c or k == c))
            return DuplicateEdge(f"vertex {c} has two in-edges {first} and {(p, c)}")
        parent[c] = p


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


def tree_line(tree: ColoredArborescence, tree_id: str) -> str:
    """``json_line(tree_to_json(tree))`` with id ``tree_id``, and a newline,
    formatted directly from the int ids and colors; the id is escaped alike."""
    edges = ",".join([f"[{u},{v}]" for u, kids in enumerate(tree.children) for v in kids])
    colors = ",".join([f'"{v}":{c}' for v, c in enumerate(tree.colors)])
    return f'{{"id":{json_line(tree_id)},"root":{tree.root},"edges":[{edges}],"colors":{{{colors}}}}}\n'


def write_corpus(trees: Iterable[ColoredArborescence], fp: IO[str]) -> None:
    for tree in trees:
        fp.write(tree_line(tree, tree.tree_id if tree.tree_id is not None else ""))


def _utf8(raw: bytes, line: int | None) -> str:
    """``raw`` as UTF-8 text; a bad byte is a :class:`ParseError` at ``line``, else at its own."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line = line or raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"not valid UTF-8 ({exc.reason})") from None


def parse_json(text: str | bytes, line: int | None = None) -> object:
    """Parse one JSON document, bytes as UTF-8; any failure is a :class:`ParseError`
    at ``line`` (one line of a JSONL stream), else at the faulty line."""
    if isinstance(text, bytes):
        text = _utf8(text, line)
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer literal over Python's digit limit
        message = f"invalid JSON ({getattr(exc, 'msg', exc)})"
        raise ParseError(line or getattr(exc, "lineno", 1), message) from exc
    except RecursionError:
        raise ParseError(line or 1, "JSON nested too deeply") from None


def load_color_table(text: str | bytes) -> dict[str, int]:
    """The JSON map of color name -> nonnegative integer that ``text``
    holds, bytes decoded as UTF-8.  Any fault is a :class:`ParseError`,
    at its line where it has one."""
    table = parse_json(text)
    if not isinstance(table, dict) or any(
        not isinstance(k, str) or type(v) is not int or v < 0
        for k, v in table.items()
    ):
        raise ParseError(1, "color table must map names to nonnegative integers")
    return table


def _tree_from_json(
    obj: object, line: int, color_table: Mapping[str, int] | None
) -> ColoredArborescence:
    """The tree of one corpus object.  Raises :class:`ParseError` naming
    the first malformed field, before any structural fault, which raises
    as the :class:`TreeStructureError` that names it.

    When ``root`` and ``id`` have their types, the colors are nonnegative
    ints and the ids are ``0..n-1``, the fields are checked in bulk and the
    raw edges go straight to :func:`_scan`, which checks each entry.  Any
    other object is read entry by entry and built by :func:`build_tree`."""
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
    root = obj.get("root")
    tree_id = obj.get("id")
    n = len(raw_colors)
    # shifted or sparse ids leave before the pass over the keys; so does
    # a line that spells the key of 0 or n-1 as, say, " 0" or "00"
    if (
        (root is None or type(root) is int)
        and (tree_id is None or type(tree_id) is str)
        and "0" in raw_colors
        and str(n - 1) in raw_colors
    ):
        color_row = tuple(raw_colors.values())
        source_ids = tuple(range(n))
        try:
            ids = tuple(map(int, raw_colors))
            if ids != source_ids:  # color keys in another order, or other ids
                # a KeyError unless the n keys name each of 0..n-1 once
                color_row = tuple(map(dict(zip(ids, color_row)).__getitem__, source_ids))
        except (ValueError, KeyError):
            color_row = ()  # no row: the object is read entry by entry
        if set(map(type, color_row)) == {int} and min(color_row) >= 0:
            found = _scan(raw_edges, source_ids, root)
            if found is not None:
                return ColoredArborescence(n, *found, color_row, tree_id or None, source_ids)

    for e in raw_edges:
        if not (
            isinstance(e, list) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
        ):
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

    if root is not None and type(root) is not int:
        raise ParseError(line, '"root" must be an integer')
    if tree_id is not None and not isinstance(tree_id, str):
        raise ParseError(line, '"id" must be a string')
    return build_tree(raw_edges, colors, root, tree_id or None)


def iter_json_lines(source: Iterable[str] | Iterable[bytes]) -> Iterator[tuple[int, object]]:
    """Line number (from 1) and parsed JSON of every non-blank line of a
    JSONL source, such as an open file; a bytes line is decoded as UTF-8
    first.  A line that does not decode or parse is a :class:`ParseError`
    at its number."""
    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = _utf8(raw, line_no)
        if raw.strip():
            yield line_no, parse_json(raw, line_no)


def iter_corpus(
    source: Iterable[str] | Iterable[bytes],
    color_table: Mapping[str, int] | None = None,
) -> Iterator[ColoredArborescence]:
    """Stream trees from a JSONL source, one validated tree per line.

    Raises :class:`ParseError` for malformed lines and
    :class:`ValidationError` (carrying the structural cause) for lines
    that parse but do not describe an arborescence.  Line numbers are
    1-based.  Ids ``0..n-1`` index the scan's arrays as they are, and
    any other ids are relabeled in sorted order first, so the line's tree
    and its fault are those :func:`build_tree` gives for the same ints.
    """
    for line_no, obj in iter_json_lines(source):
        try:
            tree = _tree_from_json(obj, line_no, color_table)
        except TreeStructureError as exc:
            raise ValidationError(line_no, exc) from exc
        yield tree
