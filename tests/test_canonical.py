"""Canonical descriptors, the canonical order, and reconstruction."""

import random

import pytest

from colored_prufer import (
    brute_canonical,
    build_tree,
    canonical_order,
    canonicalize,
    full_ld_array,
    reconstruct,
)
from colored_prufer import canonical
from colored_prufer.errors import MalformedDescriptor
from colored_prufer.oracle import random_trees

from golden import DESCRIPTOR_FULL, DESCRIPTOR_LD, ORDERING_RANKS, descriptor_tree, ordering_tree


def _permuted(tree, rng):
    """Same tree under a random relabeling of vertex ids."""
    perm = list(range(tree.n))
    rng.shuffle(perm)
    edges = [
        (perm[u], perm[v]) for u in range(tree.n) for v in tree.children[u]
    ]
    rng.shuffle(edges)
    colors = {perm[v]: tree.colors[v] for v in range(tree.n)}
    return build_tree(edges, colors)


def _materialized(tree):
    """Reference per-vertex descriptors, built by concatenation.

    Quadratic in depth, but a direct transcription of the definition:
    children sorted on (color, descriptor) as tuples.
    """
    cache = {}
    for v in reversed(tree.bfs_order()):
        kids = sorted(tree.children[v], key=lambda c: (tree.colors[c], cache[c]))
        arrays = [tuple(tree.colors[c] for c in kids)]
        for c in kids:
            arrays.extend(cache[c])
        cache[v] = tuple(arrays)
    return cache


def _assert_matches_materialized(tree):
    cache = _materialized(tree)
    inverse, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        inverse.append(v)
        kids = sorted(tree.children[v], key=lambda c: (tree.colors[c], cache[c]))
        stack.extend(reversed(kids))
    assert canonical_order(tree).inverse == tuple(inverse)
    full = full_ld_array(tree)
    assert full == ((tree.colors[tree.root],),) + cache[tree.root]
    # every subtree's descriptor is a contiguous run of the tree's
    phi = canonical_order(tree).phi
    for v, descriptor in cache.items():
        assert full[1 + phi[v] : 1 + phi[v] + len(descriptor)] == descriptor


def _path(n):
    return build_tree([(v, v + 1) for v in range(n - 1)], {v: 0 for v in range(n)})


def _two_leg_spider(leg, odd_tip_first):
    """Monochrome root with two legs of ``leg`` vertices differing only at one tip."""
    first, second = range(1, leg + 1), range(leg + 1, 2 * leg + 1)
    edges = [(0, first[0]), (0, second[0])]
    edges += [(v, v + 1) for v in first[:-1]] + [(v, v + 1) for v in second[:-1]]
    colors = {v: 0 for v in range(2 * leg + 1)}
    colors[first[-1] if odd_tip_first else second[-1]] = 1
    return build_tree(edges, colors)


def _caterpillar(spine, seed):
    rng = random.Random(seed)
    edges = [(v, v + 1) for v in range(spine - 1)]
    colors = {v: 0 for v in range(spine)}
    for v in range(spine):
        for _ in range(rng.randint(0, 3)):
            leaf = len(colors)
            edges.append((v, leaf))
            colors[leaf] = rng.randint(0, 1)
    return build_tree(edges, colors)


def _colored(edges, colors):
    return build_tree(edges, dict(enumerate(colors)))


def _complete_binary(n):
    return _colored([((v - 1) // 2, v) for v in range(1, n)], [0] * n)


def _broom(legs):
    """Monochrome root with one leg of each given length."""
    edges, n = [], 1
    for length in legs:
        edges.append((0, n))
        edges += [(v, v + 1) for v in range(n, n + length - 1)]
        n += length
    return _colored(edges, [0] * n)


def _path_to_star(handle, bristles):
    """Monochrome path of ``handle`` vertices, its end holding ``bristles`` leaves."""
    edges = [(v, v + 1) for v in range(handle - 1)]
    edges += [(handle - 1, handle + k) for k in range(bristles)]
    return _colored(edges, [0] * (handle + bristles))


def _chain_leg_caterpillar(spine, seed):
    """Monochrome spine, each vertex with up to three legs that are
    monochrome 2-vertex chains, so every spine family holds a tie."""
    rng = random.Random(seed)
    edges = [(v, v + 1) for v in range(spine - 1)]
    n = spine
    for v in range(spine):
        for _ in range(rng.randint(0 if v < spine - 1 else 2, 3)):
            edges += [(v, n), (n, n + 1)]
            n += 2
    return _colored(edges, [0] * n)


# Stored orders put canonically later siblings first, so both passes move them.
TIE_UNDER_UNTIED = _colored(
    # the root's family sorts by color alone; vertex 2's two color-0
    # inner children tie on (color, has children)
    [(0, 3), (0, 2), (0, 1), (2, 4), (2, 5), (4, 6), (6, 7), (5, 8), (3, 9), (3, 10)],
    [0, 1, 0, 2, 0, 0, 1, 0, 0, 1, 0],
)
UNTIED_UNDER_TIE = _colored(
    # the root's two color-1 children tie; below them, families of four
    # and two with no tie of their own
    [(0, 2), (0, 1), (1, 7), (1, 6), (1, 3), (1, 5), (3, 4), (7, 8), (2, 10), (2, 9), (10, 11)],
    [0, 1, 1, 2, 0, 0, 2, 1, 1, 0, 2, 1],
)
TIE_PASS_SHAPES = {
    "tie under an untied family": (TIE_UNDER_UNTIED, True),
    "untied family under a tie": (UNTIED_UNDER_TIE, True),
    "monochrome complete binary, 255": (_complete_binary(255), True),
    "monochrome complete binary, 300": (_complete_binary(300), True),
    "monochrome broom": (_broom([3, 1, 2, 3, 5, 2, 1]), True),
    "path ending in a star": (_path_to_star(40, 30), False),
    "caterpillar with chain legs": (_chain_leg_caterpillar(60, seed=22), True),
    "path": (_path(50), False),
    "caterpillar with leaf legs": (_caterpillar(60, seed=23), False),
}


def _builds_ids(tree, monkeypatch):
    """Whether ``sorted_siblings`` runs its tie pass on ``tree``."""
    calls = []
    break_ties = canonical._break_ties
    monkeypatch.setattr(canonical, "_break_ties", lambda *args: calls.append(break_ties(*args)))
    canonical.sorted_siblings(tree)
    monkeypatch.undo()
    return bool(calls)


# --- differential checks against materialized descriptors ---------------------


@pytest.mark.parametrize("colors", [1, 2, 3, 4])
def test_order_and_descriptor_match_materialized_on_random_trees(colors, monkeypatch):
    trees = random_trees(60, 150, colors, seed=20 + colors)
    for t in trees:
        _assert_matches_materialized(t)
    # with more colors, most trees build no id: both passes are checked
    with_ids = sum(_builds_ids(t, monkeypatch) for t in trees)
    assert 0 < with_ids < len(trees)


@pytest.mark.parametrize("name", TIE_PASS_SHAPES)
def test_shapes_mixing_both_passes_match_materialized(name, monkeypatch):
    tree, builds_ids = TIE_PASS_SHAPES[name]
    assert _builds_ids(tree, monkeypatch) is builds_ids
    _assert_matches_materialized(tree)
    rng = random.Random(24)
    for _ in range(5):
        _assert_matches_materialized(_permuted(tree, rng))


@pytest.mark.parametrize("odd_tip_first", [True, False])
def test_long_legs_differing_at_tips_match_materialized(odd_tip_first):
    spider = _two_leg_spider(2000, odd_tip_first)
    _assert_matches_materialized(spider)
    # The leg with the uniform tip sorts first: (0,) < (1,) at the tips.
    odd_leg_head = 1 if odd_tip_first else 2001
    assert canonical_order(spider).phi[odd_leg_head] == 2001


def test_long_path_and_caterpillar_match_materialized():
    _assert_matches_materialized(_path(4000))
    _assert_matches_materialized(_caterpillar(300, seed=21))


def test_monochrome_star_keeps_stored_order_on_full_ties():
    star = build_tree([(0, leaf) for leaf in range(1, 1001)], {v: 0 for v in range(1001)})
    _assert_matches_materialized(star)
    assert canonical_order(star).inverse == tuple(range(1001))


# --- descriptors -------------------------------------------------------------


def test_ld_array_golden_values():
    t = descriptor_tree()
    descriptor = full_ld_array(t)[1:]
    assert descriptor == DESCRIPTOR_LD
    phi = canonical_order(t).phi

    def subtree(v, size):
        return descriptor[phi[v] : phi[v] + size]

    assert subtree(2, 6) == ((1, 1), (), (0, 0, 2), (), (), ())
    assert subtree(1, 3) == ((0, 1), (), ())
    assert subtree(6, 4) == ((0, 0, 2), (), (), ())
    for leaf in (3, 4, 5, 7, 8, 9):
        assert subtree(leaf, 1) == ((),)


def test_ld_array_single_vertex_and_single_child():
    single = build_tree([], {0: 9})
    assert full_ld_array(single)[1:] == ((),)
    chain = build_tree([(0, 1)], {0: 0, 1: 5})
    assert full_ld_array(chain)[1:] == ((5,), ())


def test_full_ld_array_golden_and_concatenation():
    t = descriptor_tree()
    full = full_ld_array(t)
    assert full == DESCRIPTOR_FULL
    assert full == ((t.colors[t.root],),) + _materialized(t)[t.root]


def test_full_ld_array_single_vertex():
    assert full_ld_array(build_tree([], {0: 3})) == ((3,), ())


def test_inner_list_count_matches_subtree_sizes():
    for t in random_trees(10, 40, 4, seed=7):
        cache = _materialized(t)
        sizes = {}
        for v in reversed(t.bfs_order()):
            sizes[v] = 1 + sum(sizes[c] for c in t.children[v])
        for v in range(t.n):
            assert len(cache[v]) == sizes[v]
        assert len(full_ld_array(t)) == 1 + t.n


def test_full_descriptor_equality_is_isomorphism():
    trees = random_trees(7, 90, 2, seed=8)
    fulls = [full_ld_array(t) for t in trees]
    keys = [brute_canonical(t) for t in trees]
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            assert (fulls[i] == fulls[j]) == (keys[i] == keys[j])


# --- canonical order ----------------------------------------------------------


def test_canonical_order_golden_ranks():
    order = canonical_order(ordering_tree())
    for vertex, rank in ORDERING_RANKS.items():
        assert order.phi[vertex] == rank


def test_canonical_order_path():
    path = build_tree([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2})
    assert canonical_order(path).phi == (0, 1, 2)


def test_canonical_order_is_dfs_with_sorted_siblings():
    for t in random_trees(11, 50, 3, seed=9):
        order = canonical_order(t)
        assert order.phi[t.root] == 0
        assert sorted(order.phi) == list(range(t.n))
        cache = _materialized(t)
        sizes = {}
        for v in reversed(t.bfs_order()):
            sizes[v] = 1 + sum(sizes[c] for c in t.children[v])
        for v in range(t.n):
            ranks = sorted(
                order.phi[u]
                for u in range(t.n)
                if order.phi[v] <= order.phi[u] < order.phi[v] + sizes[v]
            )
            # subtree ranks form a contiguous interval (depth-first order)
            assert ranks == list(range(order.phi[v], order.phi[v] + sizes[v]))
            kids = sorted(t.children[v], key=lambda c: (t.colors[c], cache[c]))
            assert [order.phi[c] for c in kids] == sorted(order.phi[c] for c in kids)
            for c in t.children[v]:
                assert order.phi[c] > order.phi[v]


def test_canonicalize_stable_under_relabeling():
    rng = random.Random(10)
    for t in random_trees(9, 40, 3, seed=11):
        expected = canonicalize(t)
        for _ in range(3):
            assert canonicalize(_permuted(t, rng)) == expected


# --- reconstruction ------------------------------------------------------------


def test_reconstruct_trivial_and_golden():
    single = reconstruct(((3,), ()))
    assert (single.n, single.colors) == (1, (3,))
    rebuilt = reconstruct(DESCRIPTOR_FULL)
    assert brute_canonical(rebuilt) == brute_canonical(descriptor_tree())


def test_reconstruct_is_exact_inverse_on_canonical_trees():
    for t in random_trees(12, 120, 7, seed=12):
        canonical = canonicalize(t)
        assert reconstruct(full_ld_array(canonical)) == canonical


def test_reconstruct_roundtrip_isomorphism():
    for t in random_trees(12, 100, 7, seed=13):
        assert brute_canonical(reconstruct(full_ld_array(t))) == brute_canonical(t)


def test_reconstruct_is_exact_inverse_on_deep_trees():
    for t in (_path(4000), _two_leg_spider(2000, True), _two_leg_spider(2000, False)):
        assert reconstruct(full_ld_array(t)) == canonicalize(t)


def test_reconstruct_rejects_malformed():
    with pytest.raises(MalformedDescriptor):
        reconstruct(())
    with pytest.raises(MalformedDescriptor):
        reconstruct(((1, 2), ()))  # head not a singleton
    with pytest.raises(MalformedDescriptor):
        reconstruct(((1,), (2,)))  # counts inconsistent
    with pytest.raises(MalformedDescriptor):
        reconstruct(((1,), (), (2,)))  # child group after leaf root
    with pytest.raises(MalformedDescriptor):
        reconstruct(((1,), (-2,), ()))
    with pytest.raises(MalformedDescriptor):
        reconstruct(((True,), ()))  # JSON true is not a color
    with pytest.raises(MalformedDescriptor):
        reconstruct(((1,), (False,), ()))
