"""Golden trees with hand-checked expected codes.

Color integers follow alphabetical name order within each family:
blue=0, green=1, red=2, yellow=3 for the code examples;
blue=0, green=1, yellow=2 for the descriptor example;
black=0, green=1, red=2, yellow=3 for the ordering example;
blue=0, green=1, red=2, violet=3 for the incident-edge example.
"""

from __future__ import annotations

from colored_prufer import ColoredArborescence, build_tree

B, G, R, Y = 0, 1, 2, 3


def vcpc_build_tree() -> ColoredArborescence:
    """Five vertices: red root, two blue children, one with green+yellow kids."""
    return build_tree([(0, 1), (0, 2), (2, 3), (2, 4)], {0: R, 1: B, 2: B, 3: G, 4: Y})


VCPC_BUILD_PARENTS = (0, 2, 2, 0, None)
VCPC_BUILD_COLORS = (B, G, Y, B, R)


def automorphic_tree(mirrored: bool = False) -> ColoredArborescence:
    """Red root over two isomorphic blue branches, each green+yellow."""
    if not mirrored:
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    else:
        edges = [(0, 2), (0, 1), (2, 6), (2, 5), (1, 4), (1, 3)]
    return build_tree(edges, {0: R, 1: B, 2: B, 3: G, 4: Y, 5: G, 6: Y})


AUTOMORPHIC_PARENTS = (1, 1, 0, 4, 4, 0, None)
AUTOMORPHIC_COLORS = (G, Y, B, G, Y, B, R)


def subtree_host_1() -> ColoredArborescence:
    """Ten-vertex host containing the five-vertex query below its root."""
    return build_tree(
        [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (3, 8), (6, 9), (6, 10)],
        {1: R, 2: B, 3: B, 4: G, 5: R, 6: G, 7: Y, 8: Y, 9: B, 10: Y},
    )


SUBTREE_HOST_1_PARENTS = (1, 1, 0, 5, 5, 4, 4, 4, 0, None)
SUBTREE_HOST_1_COLORS = (G, R, B, B, Y, G, Y, Y, B, R)


def subtree_host_2() -> ColoredArborescence:
    """Ten-vertex host whose green root sits above the embedded apex."""
    return build_tree(
        [(9, 1), (9, 10), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (3, 8)],
        {9: G, 10: R, 1: R, 2: B, 3: B, 4: G, 5: R, 6: G, 7: Y, 8: Y},
    )


SUBTREE_HOST_2_PARENTS = (0, 3, 3, 2, 6, 6, 6, 2, 0, None)
SUBTREE_HOST_2_COLORS = (R, G, R, B, G, Y, Y, B, R, G)


def subtree_query_3() -> ColoredArborescence:
    """Six-vertex query that does not embed in host 2."""
    return build_tree(
        [(1, 2), (1, 3), (1, 4), (3, 6), (3, 7)],
        {1: R, 2: B, 3: B, 4: G, 6: G, 7: Y},
    )


SUBTREE_QUERY_3_PARENTS = (0, 2, 2, 0, 0, None)
SUBTREE_QUERY_3_COLORS = (B, G, Y, B, G, R)


# incident-edge example colors: blue=0, green=1, red=2, violet=3
IB, IG, IR, IV = 0, 1, 2, 3


def incident_query() -> ColoredArborescence:
    """Violet root, red child, green+violet grandchildren."""
    return build_tree([(0, 1), (1, 2), (1, 3)], {0: IV, 1: IR, 2: IG, 3: IV})


INCIDENT_QUERY_PARENTS = (1, 1, 0, None)
INCIDENT_QUERY_COLORS = (IG, IV, IR, IV)


def incident_host() -> ColoredArborescence:
    """Host with a color/shape-matching slice that is not a subtree."""
    return build_tree(
        [(5, 1), (5, 6), (1, 2), (2, 3), (2, 4)],
        {5: IV, 1: IB, 6: IR, 2: IR, 3: IG, 4: IV},
    )


INCIDENT_HOST_PARENTS = (2, 2, 1, 0, 0, None)
INCIDENT_HOST_COLORS = (IG, IV, IR, IB, IR, IV)


def incident_middle_host() -> ColoredArborescence:
    """Wide host where the query does embed despite one failing slice."""
    return build_tree(
        [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5)],
        {0: IV, 1: IR, 2: IG, 3: IR, 4: IV, 5: IV},
    )


INCIDENT_MIDDLE_PARENTS = (1, 1, 1, 1, 0, None)
INCIDENT_MIDDLE_COLORS = (IG, IR, IV, IV, IR, IV)


def descriptor_tree() -> ColoredArborescence:
    """Ten-vertex tree with pinned per-vertex descriptors (blue=0,green=1,yellow=2)."""
    return build_tree(
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (6, 7), (6, 8), (6, 9)],
        {0: 0, 1: 2, 2: 1, 3: 1, 4: 0, 5: 1, 6: 1, 7: 0, 8: 2, 9: 0},
    )


DESCRIPTOR_LD = ((1, 2), (1, 1), (), (0, 0, 2), (), (), (), (0, 1), (), ())
DESCRIPTOR_FULL = ((0,),) + DESCRIPTOR_LD


def ordering_tree() -> ColoredArborescence:
    """Seven-vertex tree with pinned canonical ranks (black=0,green=1,red=2,yellow=3)."""
    return build_tree(
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
        {0: 0, 1: 3, 2: 1, 3: 2, 4: 1, 5: 3, 6: 0},
    )


# vertex -> rank: root 0, green branch first (black then yellow leaves),
# then the yellow branch (green then red leaves)
ORDERING_RANKS = {0: 0, 2: 1, 6: 2, 5: 3, 1: 4, 4: 5, 3: 6}


def classical_tree() -> ColoredArborescence:
    """Labeled 7-vertex tree with a known classical sequence (rooted arbitrarily)."""
    return build_tree(
        [(4, 0), (4, 1), (4, 2), (4, 5), (4, 6), (1, 3)], {v: 0 for v in range(7)}
    )


CLASSICAL_SEQUENCE = [4, 4, 1, 4, 4]
CLASSICAL_EDGES = {
    frozenset(e) for e in [(4, 0), (4, 1), (4, 2), (4, 5), (4, 6), (1, 3)]
}


def divergent_pair() -> tuple[ColoredArborescence, ColoredArborescence]:
    """(query, host) embeddable undirected-style but not order-preservingly.

    The host's two like-colored branches sort one way by full subtree
    descriptors and the other way once a branch is pruned to match the
    query, so the unique embedding reverses canonical order.
    """
    host = build_tree(
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)],
        {0: 0, 1: 5, 2: 5, 3: 0, 4: 9, 5: 1},
    )
    query = build_tree(
        [(0, 1), (0, 2), (1, 3), (2, 4)], {0: 0, 1: 5, 2: 5, 3: 9, 4: 1}
    )
    return query, host


def descent_pair() -> tuple[ColoredArborescence, ColoredArborescence]:
    """(query, host) where only the descent half of adjacency rejects.

    The host prunes a deeper vertex of the query's root color right
    after the color-matching leaf, with no intervening positions, so an
    incident-edge check without the descent requirement would accept a
    non-edge.
    """
    host = build_tree(
        [(0, 1), (1, 2), (1, 3), (3, 4)], {0: 0, 1: 3, 2: 2, 3: 3, 4: 1}
    )
    query = build_tree([(0, 1)], {0: 1, 1: 2})
    return query, host


def neighbors(tree: ColoredArborescence) -> list[set[int]]:
    """The neighbors of every vertex in the tree's underlying undirected
    tree: its children and its parent."""
    adjacent: list[set[int]] = [set() for _ in range(tree.n)]
    for u, kids in enumerate(tree.children):
        adjacent[u].update(kids)
        for v in kids:
            adjacent[v].add(u)
    return adjacent
