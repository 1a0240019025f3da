"""Brute-force references and seeded random instance generation.

Everything here exists to check the code-based paths from a second,
independent angle; nothing in the production modules calls into it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
    ``limit`` stops early after that many embeddings (none below 1).

    Query vertices are assigned parents first, in one loop over a stack
    that holds an iterator of candidate images per assigned vertex and
    one for the next.  The unordered search takes tq breadth first and
    tries hosts in id order, so it computes no canonical order.  The
    ordered one takes tq in canonical order and tries hosts in t's,
    skipping each one ranked before the last image.
    """
    if tq.n > t.n or (limit is not None and limit < 1):
        return []
    if ordered:
        sequence = canonical_order(tq).inverse
        t_order = canonical_order(t)
        rank, roots = t_order.phi, t_order.inverse
        pools = [sorted(kids, key=rank.__getitem__) for kids in t.children]
    else:
        sequence = tq.bfs_order()
        roots, pools = range(t.n), t.children
    at = {v: k for k, v in enumerate(sequence)}
    q_parent = tq.parent_map()
    up = [at.get(q_parent[v]) for v in sequence]  # the parent's position
    want = [tq.colors[v] for v in sequence]
    colors, last = t.colors, tq.n - 1

    results: list[dict[int, int]] = []
    assigned: list[int] = []
    used: set[int] = set()
    pending = [iter(roots)]  # candidates per position, up to the next one
    expansions = 0
    while pending:
        k = len(assigned)
        for v in pending[-1]:
            if colors[v] == want[k] and v not in used and not (
                ordered and assigned and rank[v] <= rank[assigned[-1]]
            ):
                break
        else:
            pending.pop()
            if assigned:
                used.discard(assigned.pop())
            continue
        expansions += 1
        if expansions > node_budget:
            raise SearchBudgetExceeded(node_budget)
        if k == last:
            results.append(dict(zip(sequence, assigned + [v])))
            if limit is not None and len(results) >= limit:
                break
            continue
        assigned.append(v)
        used.add(v)
        pending.append(iter(pools[assigned[up[k + 1]]]))
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
    attach, _, (last, top) = prufer_to_edges(sequence, n)
    # the inverse roots the tree at label n-1; reverse the path from vertex 0
    parent = {leaf: p for p, leaf in attach}
    parent[last] = top
    below, v = None, 0
    while v is not None:
        up = parent.get(v)
        parent[v] = below
        below, v = v, up
    edges = [(p, v) for v, p in parent.items() if p is not None]
    return build_tree(edges, colors, tree_id=tree_id)


def random_trees(
    m: int, n_trees: int, c: int, seed: int
) -> list[ColoredArborescence]:
    """Shorthand for ``random_corpus(GenParams(m, n_trees, c, seed))``."""
    return random_corpus(GenParams(m=m, N=n_trees, C=c, seed=seed))
