"""Brute-force references and the seeded corpus generator."""

import itertools
import math

import pytest

from colored_prufer import (
    GenParams,
    brute_canonical,
    build_tree,
    encode_canonical,
    enumerate_embeddings,
    has_embedding,
    random_corpus,
    random_trees,
)
from colored_prufer import oracle
from colored_prufer.errors import SearchBudgetExceeded

from golden import (
    automorphic_tree,
    incident_host,
    incident_query,
    subtree_host_1,
    vcpc_build_tree,
)


def test_brute_canonical_automorphic_labelings_agree():
    assert brute_canonical(automorphic_tree()) == brute_canonical(
        automorphic_tree(mirrored=True)
    )


def test_brute_canonical_separates_colors():
    assert brute_canonical(build_tree([], {0: 1})) != brute_canonical(
        build_tree([], {0: 2})
    )


def test_brute_canonical_agrees_with_codes():
    trees = random_trees(8, 120, 3, seed=41)
    keys = [brute_canonical(t) for t in trees]
    codes = [encode_canonical(t)[0] for t in trees]
    for i, j in itertools.combinations(range(len(trees)), 2):
        assert (keys[i] == keys[j]) == (codes[i] == codes[j])


def test_enumerate_embeddings_golden_cases():
    assert enumerate_embeddings(vcpc_build_tree(), subtree_host_1())
    assert not enumerate_embeddings(incident_query(), incident_host())
    t = subtree_host_1()
    identity = {v: v for v in range(t.n)}
    assert identity in enumerate_embeddings(t, t)


def test_enumerate_embeddings_properties():
    host = subtree_host_1()
    query = vcpc_build_tree()
    for psi in enumerate_embeddings(query, host):
        assert len(set(psi.values())) == query.n
        for u in range(query.n):
            assert query.colors[u] == host.colors[psi[u]]
            for v in query.children[u]:
                assert psi[v] in host.children[psi[u]]


def test_ordered_embeddings_refine_unordered():
    trees = random_trees(7, 60, 3, seed=42)
    refined = 0
    for a, b in itertools.combinations(trees, 2):
        if a.n > b.n:
            a, b = b, a
        ordered = enumerate_embeddings(a, b, ordered=True)
        unordered = enumerate_embeddings(a, b, ordered=False)
        assert len(ordered) <= len(unordered)
        for psi in ordered:
            assert psi in unordered
        if ordered:
            refined += 1
    assert refined > 0


def test_search_budget_exceeded():
    # 12 identical leaves against 12 identical leaves blows a tiny budget
    star = build_tree([(0, i) for i in range(1, 13)], {v: 0 for v in range(13)})
    with pytest.raises(SearchBudgetExceeded):
        enumerate_embeddings(star, star, node_budget=50)


def test_limit_short_circuits():
    star = build_tree([(0, i) for i in range(1, 10)], {v: 0 for v in range(10)})
    assert len(enumerate_embeddings(star, star, limit=1)) == 1
    assert has_embedding(star, star)


def test_limit_below_one_returns_no_embedding_without_searching():
    star = build_tree([(0, i) for i in range(1, 10)], {v: 0 for v in range(10)})
    for limit in (0, -1):
        # a zero budget raises on the first expansion, so none is made
        assert enumerate_embeddings(star, star, node_budget=0, limit=limit) == []


def _path(n, last_color=0):
    colors = {v: 0 for v in range(n)}
    colors[n - 1] = last_color
    return build_tree([(v, v + 1) for v in range(n - 1)], colors)


def test_long_paths_need_no_recursion():
    # one assignment per query vertex, far past the interpreter's
    # recursion limit, on an explicit stack
    assert has_embedding(_path(1200), _path(1500))
    assert not has_embedding(_path(1500), _path(1200))
    # the search reaches the last query vertex before it fails
    assert not has_embedding(_path(1200, last_color=1), _path(1500))


def test_only_the_ordered_search_computes_canonical_orders(monkeypatch):
    def refuse(tree):
        raise AssertionError("canonical_order called")

    monkeypatch.setattr(oracle, "canonical_order", refuse)
    query, host = vcpc_build_tree(), subtree_host_1()
    assert has_embedding(query, host, ordered=False)
    assert enumerate_embeddings(query, host, ordered=False)
    with pytest.raises(AssertionError, match="canonical_order called"):
        has_embedding(query, host, ordered=True)


# --- random corpus -----------------------------------------------------------


def test_gen_params_validate():
    with pytest.raises(ValueError):
        GenParams(m=0, N=1, C=1, seed=0)
    with pytest.raises(ValueError):
        GenParams(m=1, N=1, C=0, seed=0)


def test_random_corpus_m1_gives_single_vertices():
    for t in random_corpus(GenParams(m=1, N=3, C=2, seed=5)):
        assert t.n == 1
        assert t.colors[0] in (0, 1)


def test_random_corpus_deterministic():
    a = random_corpus(GenParams(m=8, N=200, C=4, seed=9))
    b = random_corpus(GenParams(m=8, N=200, C=4, seed=9))
    assert a == b
    assert [t.tree_id for t in a] == [t.tree_id for t in b]
    c = random_corpus(GenParams(m=8, N=200, C=4, seed=10))
    assert a != c


def test_random_corpus_ids_record_generator():
    [t] = random_corpus(GenParams(m=3, N=1, C=2, seed=7))
    assert t.tree_id == "mt19937:7:0"


def test_random_corpus_order_distribution():
    trees = random_trees(8, 10000, 2, seed=6)
    orders = [t.n for t in trees]
    mean = sum(orders) / len(orders)
    sigma = math.sqrt((8 * 8 - 1) / 12 / len(orders))
    assert abs(mean - 4.5) < 3 * sigma
    assert set(orders) == set(range(1, 9))


def test_random_corpus_trees_are_valid():
    for t in random_trees(8, 300, 4, seed=14):
        parent = t.parent_map()
        assert parent[t.root] is None
        assert all(p is not None for v, p in enumerate(parent) if v != t.root)
        assert max(t.colors) < 4
