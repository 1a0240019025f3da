"""Reference answers, computed without the package under test.

* Isomorphism: AHU-style keys ``(color, sorted child keys)``, interned to
  small integers.  Equal ids mean isomorphic colored arborescences.
* Rooted containment: the query embeds in the host when its root maps to
  some host vertex so that colors match and the query's children map
  injectively onto the host vertex's children, recursively (bipartite
  matching over children).  This is the unordered semantics, the same
  question ``has_embedding(ordered=False)`` answers by backtracking.
* Closed forms for the adversarial shapes: a monochrome spider with k1
  legs of L1 vertices sits in one with k2 legs of L2 exactly when
  k1 <= k2 and L1 <= L2; a path of a vertices in one of b exactly when
  a <= b.
* Codes are decoded with the classical Prüfer inverse over the parents
  row, so witnesses and round trips are checked on the code format
  itself.
"""

from __future__ import annotations

import heapq
from collections import Counter

from gen import Tree


class Interner:
    """Shared table of rooted subtree ids across every tree it has seen."""

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.color: list[int] = []
        self.kids: list[tuple[int, ...]] = []
        self.size: list[int] = []
        self._can: dict[tuple[int, int], bool] = {}

    def vertex_ids(self, tree: Tree) -> list[int]:
        """Subtree id of every vertex, bottom up without recursion."""
        kids = tree.children()
        order = [0]
        for v in order:
            order.extend(kids[v])
        out = [0] * tree.n
        for v in reversed(order):
            key = (tree.colors[v], tuple(sorted(out[c] for c in kids[v])))
            sid = self.ids.get(key)
            if sid is None:
                sid = len(self.color)
                self.ids[key] = sid
                self.color.append(key[0])
                self.kids.append(key[1])
                self.size.append(1 + sum(self.size[c] for c in key[1]))
            out[v] = sid
        return out

    def key(self, tree: Tree) -> int:
        return self.vertex_ids(tree)[0]

    def can_map(self, q: int, h: int) -> bool:
        """Whether subtree ``q`` embeds with its root on subtree ``h``'s root."""
        memo = (q, h)
        hit = self._can.get(memo)
        if hit is not None:
            return hit
        ok = (
            self.color[q] == self.color[h]
            and self.size[q] <= self.size[h]
            and len(self.kids[q]) <= len(self.kids[h])
            and self._match_children(self.kids[q], self.kids[h])
        )
        self._can[memo] = ok
        return ok

    def _match_children(self, qk: tuple[int, ...], hk: tuple[int, ...]) -> bool:
        owner: dict[int, int] = {}

        def augment(i: int, seen: set[int]) -> bool:
            for j, h in enumerate(hk):
                if j in seen or not self.can_map(qk[i], h):
                    continue
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
            return False

        return all(augment(i, set()) for i in range(len(qk)))

    def contains(self, q_root: int, host_ids) -> bool:
        """Rooted containment: the query's root id maps onto some host id."""
        return any(self.can_map(q_root, h) for h in set(host_ids))


def rerooted_ids(interner: Interner, tree: Tree) -> list[int]:
    """Root subtree id of the tree re-rooted at each vertex in turn."""
    adjacency: list[list[int]] = [[] for _ in range(tree.n)]
    for v, p in enumerate(tree.parent):
        if p is not None:
            adjacency[p].append(v)
            adjacency[v].append(p)
    out = []
    for root in range(tree.n):
        parent: list[int | None] = [None] * tree.n
        order = [root]
        seen = {root}
        for u in order:
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    order.append(w)
        relabel = {v: k for k, v in enumerate(order)}
        out.append(
            interner.key(
                Tree(
                    tuple(None if parent[v] is None else relabel[parent[v]] for v in order),
                    tuple(tree.colors[v] for v in order),
                )
            )
        )
    return out


def undirected_contains(interner: Interner, query: Tree, host: Tree) -> bool:
    """Any fixed rooting of the query embeds under some rooting of the host."""
    if query.n > host.n:
        return False
    q_root = interner.key(query)
    return any(interner.can_map(q_root, h) for h in set(rerooted_ids(interner, host)))


def spider_in_spider(legs1: int, len1: int, legs2: int, len2: int) -> bool:
    return legs1 <= legs2 and len1 <= len2


def path_in_path(a: int, b: int) -> bool:
    return a <= b


# --- the code format ---------------------------------------------------------


def code_steps(parents, colors) -> tuple[Tree, list[int]]:
    """Decode a code: the rank-labeled tree and the rank pruned at each step.

    Raises ``ValueError`` when the rows do not describe a tree.
    """
    n = len(colors)
    if n < 1 or len(parents) != n or parents[-1] is not None:
        raise ValueError("rows must have length n and end in the sentinel")
    if n == 1:
        return Tree((None,), tuple(colors)), [0]
    sequence = list(parents[:-1])
    if any(not isinstance(x, int) or not 0 <= x < n for x in sequence):
        raise ValueError("parents entry out of range")
    # Classical inverse over labels 0..n, label n standing above the root.
    remaining = Counter(sequence)
    heap = [x for x in range(n + 1) if remaining[x] == 0]
    heapq.heapify(heap)
    parent: list[int | None] = [None] * n
    vertex_color = [0] * n
    pruned = []
    for step, a in enumerate(sequence):
        leaf = heapq.heappop(heap)
        if leaf >= n:
            raise ValueError("inverse consumed the auxiliary vertex")
        parent[leaf] = a
        vertex_color[leaf] = colors[step]
        pruned.append(leaf)
        remaining[a] -= 1
        if remaining[a] == 0:
            heapq.heappush(heap, a)
    vertex_color[0] = colors[-1]
    pruned.append(0)
    if parent[0] is not None or sorted(pruned) != list(range(n)):
        raise ValueError("rows do not describe a tree rooted at rank 0")
    return Tree(tuple(parent), tuple(vertex_color)), pruned


def witness_ok(q_code, h_code, witness) -> bool:
    """Whether an index set maps the query's vertices into the host's,
    colors and parent-child edges preserved, injectively.

    ``q_code`` and ``h_code`` are ``(parents, colors)`` rows; witness
    position j names the host step whose pruned vertex takes the
    query's step-j vertex.
    """
    try:
        q_tree, q_pruned = code_steps(*q_code)
        h_tree, h_pruned = code_steps(*h_code)
    except ValueError:
        return False
    if len(witness) != q_tree.n or len(set(witness)) != len(witness):
        return False
    if any(not isinstance(i, int) or not 0 <= i < h_tree.n for i in witness):
        return False
    image = [0] * q_tree.n
    for step, i in enumerate(witness):
        image[q_pruned[step]] = h_pruned[i]
    for v in range(q_tree.n):
        if q_tree.colors[v] != h_tree.colors[image[v]]:
            return False
        p = q_tree.parent[v]
        if p is not None and h_tree.parent[image[v]] != image[p]:
            return False
    return True


def descriptor_tree(descriptor) -> Tree:
    """The tree a full canonical descriptor describes.

    The first array is the root color; every later array lists the child
    colors of the next vertex in depth-first preorder.
    """
    if not descriptor or len(descriptor[0]) != 1:
        raise ValueError("descriptor must start with a root-color singleton")
    colors = [descriptor[0][0]]
    parent: list[int | None] = [None]
    stack = [0]
    arrays = iter(descriptor[1:])
    while stack:
        v = stack.pop()
        try:
            kids = next(arrays)
        except StopIteration:
            raise ValueError("fewer arrays than vertices") from None
        new = list(range(len(colors), len(colors) + len(kids)))
        colors.extend(kids)
        parent.extend([v] * len(kids))
        stack.extend(reversed(new))
    if next(arrays, None) is not None:
        raise ValueError("more arrays than vertices")
    return Tree(tuple(parent), tuple(colors))


def tree_from_json(obj) -> Tree:
    """A tree from the package's JSONL format, relabeled root-first."""
    n = len(obj["colors"])
    kids: dict[int, list[int]] = {}
    has_parent = set()
    for p, c in obj["edges"]:
        kids.setdefault(p, []).append(c)
        has_parent.add(c)
    vertices = [int(v) for v in obj["colors"]]
    roots = [v for v in vertices if v not in has_parent]
    if len(roots) != 1:
        raise ValueError("not rooted")
    order = [roots[0]]
    for v in order:
        order.extend(kids.get(v, ()))
    if len(order) != n:
        raise ValueError("not a tree")
    relabel = {v: k for k, v in enumerate(order)}
    parent: list[int | None] = [None] * n
    for p, cs in kids.items():
        for c in cs:
            parent[relabel[c]] = relabel[p]
    return Tree(tuple(parent), tuple(obj["colors"][str(v)] for v in order))
