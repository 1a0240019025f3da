"""Brute-force references and seeded random instance generation.

Everything here exists to check the code-based paths from a second,
independent angle; nothing in the production modules calls into it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .canonical import canonical_order
from .codec import prufer_to_edges
from .errors import SearchBudgetExceeded
from .trees import ColoredArborescence, build_tree

DEFAULT_NODE_BUDGET = 10**7

GENERATOR_ID = "mt19937"


@dataclass(frozen=True)
class GenParams:
    """Corpus generation parameters; identical params give identical corpora."""

    m: int
    N: int
    C: int
    seed: int

    def __post_init__(self):
        if self.m < 1 or self.N < 1 or self.C < 1:
            raise ValueError("m, N and C must all be >= 1")


def brute_canonical(tree: ColoredArborescence):
    """Recursive multiset canonical form: (color, sorted child keys).

    Keys of two trees are equal exactly when the trees are isomorphic as
    colored arborescences.  Computed bottom-up to stay off the recursion
    limit on path-like trees.
    """
    key: dict[int, tuple] = {}
    for v in reversed(tree.bfs_order()):
        key[v] = (tree.colors[v], tuple(sorted(key[c] for c in tree.children[v])))
    return key[tree.root]


def enumerate_embeddings(
    tq: ColoredArborescence,
    t: ColoredArborescence,
    ordered: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
    limit: int | None = None,
) -> list[dict[int, int]]:
    """Backtracking search for embeddings of tq into t.

    An embedding is an injective map preserving colors and sending every
    parent-child edge of tq to a parent-child edge of t.  With
    ``ordered`` it must additionally be monotone between the canonical
    order of tq and t's canonical order restricted to the image.  Raises
    :class:`SearchBudgetExceeded` past ``node_budget`` expansions;
    ``limit`` stops early after that many embeddings.
    """
    if tq.n > t.n:
        return []
    q_order = canonical_order(tq)
    t_order = canonical_order(t)
    q_by_rank = q_order.inverse
    q_parent = tq.parent_map()

    results: list[dict[int, int]] = []
    assigned: list[int] = []
    used: set[int] = set()
    expansions = 0

    def candidates(rank: int) -> Iterator[int]:
        qv = q_by_rank[rank]
        color = tq.colors[qv]
        if rank == 0:
            pool = sorted(range(t.n), key=lambda v: t_order.phi[v])
        else:
            parent_image = assigned[q_order.phi[q_parent[qv]]]
            pool = sorted(t.children[parent_image], key=lambda v: t_order.phi[v])
        for v in pool:
            if t.colors[v] != color or v in used:
                continue
            if ordered and assigned and t_order.phi[v] <= t_order.phi[assigned[-1]]:
                continue
            yield v

    def extend(rank: int) -> bool:
        nonlocal expansions
        if rank == tq.n:
            results.append(
                {q_by_rank[r]: assigned[r] for r in range(tq.n)}
            )
            return limit is not None and len(results) >= limit
        for v in candidates(rank):
            expansions += 1
            if expansions > node_budget:
                raise SearchBudgetExceeded(node_budget)
            assigned.append(v)
            used.add(v)
            done = extend(rank + 1)
            used.discard(v)
            assigned.pop()
            if done:
                return True
        return False

    extend(0)
    return results


def has_embedding(
    tq: ColoredArborescence, t: ColoredArborescence, ordered: bool = False
) -> bool:
    return bool(enumerate_embeddings(tq, t, ordered=ordered, limit=1))


def random_corpus(params: GenParams) -> list[ColoredArborescence]:
    """Seeded random corpus of colored arborescences.

    Per tree: draw the order n uniformly from [1, m], draw a uniform
    classical Prüfer sequence and invert it to a labeled tree, color
    vertices i.i.d. uniformly over {0..C-1}, then orient away from
    vertex 0.  Tree k uses its own mt19937 stream seeded from
    ``"{seed}:{k}"``, so generation is order-independent and stable
    across runs; the generator id, seed and index are recorded in each
    tree's id string.
    """
    trees = []
    for k in range(params.N):
        rng = random.Random(f"{params.seed}:{k}")
        tree_id = f"{GENERATOR_ID}:{params.seed}:{k}"
        trees.append(_random_tree(params.m, params.C, rng, tree_id))
    return trees


def _random_tree(m: int, c: int, rng: random.Random, tree_id: str | None = None):
    n = rng.randint(1, m)
    colors = {v: rng.randrange(c) for v in range(n)}
    if n == 1:
        return build_tree([], colors, tree_id=tree_id)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    attach, _, last = prufer_to_edges(sequence, n)
    undirected = attach + [last]

    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in undirected:
        adjacency[u].append(v)
        adjacency[v].append(u)
    edges: list[tuple[int, int]] = []
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                edges.append((u, v))
                queue.append(v)
    return build_tree(edges, colors, tree_id=tree_id)


def random_trees(
    m: int, n_trees: int, c: int, seed: int
) -> list[ColoredArborescence]:
    """Shorthand for ``random_corpus(GenParams(m, n_trees, c, seed))``."""
    return random_corpus(GenParams(m=m, N=n_trees, C=c, seed=seed))
