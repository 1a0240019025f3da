"""Canonical descriptors, the canonical order, and reconstruction."""

import random

import pytest

from colored_prufer import (
    brute_canonical,
    build_tree,
    canonical_order,
    canonicalize,
    full_ld_array,
    ld_array,
    reconstruct,
)
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
    assert full_ld_array(tree) == ((tree.colors[tree.root],),) + cache[tree.root]
    assert ld_array(tree) == (cache[tree.root], cache)


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


# --- differential checks against materialized descriptors ---------------------


@pytest.mark.parametrize("colors", [1, 2])
def test_order_and_descriptor_match_materialized_on_random_trees(colors):
    for t in random_trees(60, 150, colors, seed=20 + colors):
        _assert_matches_materialized(t)


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
    root_ld, cache = ld_array(descriptor_tree())
    assert root_ld == DESCRIPTOR_LD
    assert cache[2] == ((1, 1), (), (0, 0, 2), (), (), ())
    assert cache[1] == ((0, 1), (), ())
    assert cache[6] == ((0, 0, 2), (), (), ())
    for leaf in (3, 4, 5, 7, 8, 9):
        assert cache[leaf] == ((),)


def test_ld_array_single_vertex_and_single_child():
    single = build_tree([], {0: 9})
    assert ld_array(single)[0] == ((),)
    chain = build_tree([(0, 1)], {0: 0, 1: 5})
    assert ld_array(chain)[0] == ((5,), ())


def test_full_ld_array_golden_and_concatenation():
    t = descriptor_tree()
    full = full_ld_array(t)
    assert full == DESCRIPTOR_FULL
    assert full == ((t.colors[t.root],),) + ld_array(t)[0]


def test_full_ld_array_single_vertex():
    assert full_ld_array(build_tree([], {0: 3})) == ((3,), ())


def test_inner_list_count_matches_subtree_sizes():
    for t in random_trees(10, 40, 4, seed=7):
        _, cache = ld_array(t)
        sizes = {}
        for v in reversed(t.bfs_order()):
            sizes[v] = 1 + sum(sizes[c] for c in t.children[v])
        for v in range(t.n):
            assert len(cache[v]) == sizes[v]


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
        _, cache = ld_array(t)
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
