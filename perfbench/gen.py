"""Seeded tree generators for the benchmark's inputs.

Trees are plain ``Tree`` tuples rooted at vertex 0, independent of the
package under test, so the inputs stay fixed when the package changes.
Random generators take a ``random.Random`` or a seed; the same seed gives the
same trees.
"""

from __future__ import annotations

import heapq
import json
import random
from typing import NamedTuple


class Tree(NamedTuple):
    """Rooted tree on vertices ``0..n-1``; ``parent[0]`` is ``None``."""

    parent: tuple
    colors: tuple

    @property
    def n(self) -> int:
        return len(self.colors)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return kids


def to_json(tree: Tree, tree_id: str) -> dict:
    """A tree in the package's corpus format."""
    return {
        "id": tree_id,
        "root": 0,
        "edges": [[p, v] for v, p in enumerate(tree.parent) if p is not None],
        "colors": {str(v): c for v, c in enumerate(tree.colors)},
    }


def to_json_line(tree: Tree, tree_id: str) -> str:
    """One line of the package's JSONL corpus format."""
    return json.dumps(to_json(tree, tree_id), separators=(",", ":"))


def from_undirected(n: int, edges: list[tuple[int, int]], colors: list[int]) -> Tree:
    """Orient an undirected tree on ``0..n-1`` away from vertex 0."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent: list[int | None] = [None] * n
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                stack.append(v)
    return Tree(tuple(parent), tuple(colors))


def random_tree(rng: random.Random, n: int, n_colors: int) -> Tree:
    """Uniform labeled tree on ``n`` vertices (via a uniform Prüfer
    sequence), colors i.i.d. uniform, oriented away from vertex 0."""
    colors = [rng.randrange(n_colors) for _ in range(n)]
    if n == 1:
        return Tree((None,), tuple(colors))
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in sequence:
        leaf = heapq.heappop(heap)
        edges.append((x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return from_undirected(n, edges, colors)


def random_corpus(seed: int, count: int, m: int, n_colors: int) -> list[Tree]:
    """``count`` trees with order uniform in ``[1, m]``: the same
    distribution as the package's own ``random_corpus``."""
    rng = random.Random(f"corpus:{seed}:{count}:{m}:{n_colors}")
    return [random_tree(rng, rng.randint(1, m), n_colors) for _ in range(count)]


def path(n: int, colors: list[int] | None = None) -> Tree:
    """Directed path ``0 -> 1 -> ... -> n-1``; monochrome by default."""
    return Tree((None,) + tuple(range(n - 1)), tuple(colors or [0] * n))


def caterpillar(rng: random.Random, n: int, n_colors: int) -> Tree:
    """A spine from the root; each new vertex extends the spine with
    probability one half and otherwise hangs a leaf on the spine's end."""
    parent: list[int | None] = [None]
    tip = 0
    for v in range(1, n):
        parent.append(tip)
        if rng.random() < 0.5:
            tip = v
    return Tree(tuple(parent), tuple(rng.randrange(n_colors) for _ in range(n)))


def deep_random(rng: random.Random, n: int, n_colors: int, window: int = 3) -> Tree:
    """Each vertex attaches to one of the ``window`` vertices made just
    before it, so depth grows linearly with ``n``."""
    parent: list[int | None] = [None]
    for v in range(1, n):
        parent.append(rng.randrange(max(0, v - window), v))
    return Tree(tuple(parent), tuple(rng.randrange(n_colors) for _ in range(n)))


def spider(legs: int, length: int) -> Tree:
    """Monochrome spider (broom): a center with ``legs`` directed paths of
    ``length`` vertices each.  ``spider(k, 1)`` is a star with k leaves."""
    parent: list[int | None] = [None]
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            parent.append(prev)
            prev = len(parent) - 1
    return Tree(tuple(parent), (0,) * len(parent))
