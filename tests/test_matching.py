"""Code-level predicates: isomorphism, adjacency, subtree matching."""

import hashlib
import itertools
import json
import random
import time

import pytest

from colored_prufer import (
    CanonicalOrder,
    Vcpc,
    brute_canonical,
    build_tree,
    code_adjacent,
    decode,
    encode,
    encode_canonical,
    enumerate_embeddings,
    has_embedding,
    is_subarborescence,
    subtree_search,
    undirected_subtree,
)
from colored_prufer.errors import IndexOutOfRange, SentinelCompared
from colored_prufer.matching import SubtreeTable, _cover_left
from colored_prufer.oracle import random_trees

from golden import (
    automorphic_tree,
    descent_pair,
    divergent_pair,
    incident_host,
    incident_middle_host,
    incident_query,
    neighbors,
    subtree_host_1,
    subtree_host_2,
    subtree_query_3,
    vcpc_build_tree,
)


def _code(tree) -> Vcpc:
    return encode_canonical(tree)[0]


# --- isomorphism -------------------------------------------------------------


def test_codes_isomorphic_automorphic_golden():
    assert _code(automorphic_tree()) == _code(automorphic_tree(True))


def test_codes_isomorphic_detects_one_color_change():
    code = _code(vcpc_build_tree())
    mutated = Vcpc(
        parents=code.parents,
        colors=code.colors[:-1] + (code.colors[-1] + 1,),
        n=code.n,
    )
    assert code != mutated


def test_codes_isomorphic_agrees_with_brute_force():
    # monochrome, so that 327 pairs are isomorphic and 36 trees have two
    # same-colored inner siblings, which the tie pass orders
    trees = random_trees(10, 150, 1, seed=31)
    codes = [_code(t) for t in trees]
    keys = [brute_canonical(t) for t in trees]
    verdicts = set()
    for i, j in itertools.combinations(range(len(trees)), 2):
        assert (codes[i] == codes[j]) == (keys[i] == keys[j])
        verdicts.add(codes[i] == codes[j])
    assert verdicts == {True, False}


# --- adjacency ------------------------------------------------------------------


def test_code_adjacent_golden_code():
    code = _code(vcpc_build_tree())  # parents (0, 2, 2, 0, None)
    assert code_adjacent(code, 1, 3)  # yellow leaf's parent pruned at step 3
    assert not code_adjacent(code, 0, 1)


def test_code_adjacent_rejects_sentinel_and_bad_indices():
    code = _code(vcpc_build_tree())
    with pytest.raises(SentinelCompared):
        code_adjacent(code, 0, 4)
    with pytest.raises(IndexOutOfRange):
        code_adjacent(code, 2, 1)
    with pytest.raises(IndexOutOfRange):
        code_adjacent(code, -1, 2)


def subtree_vertices(tree, apex):
    """The apex together with all of its descendants."""
    result, stack = set(), [apex]
    while stack:
        v = stack.pop()
        result.add(v)
        stack.extend(tree.children[v])
    return result


def branch_partition(tree, apex):
    """Partition of the apex's proper descendants into one block per child."""
    return [subtree_vertices(tree, child) for child in tree.children[apex]]


def test_adjacency_interval_lies_in_parent_branches():
    # between a vertex's prune step and its parent's, every pruned vertex
    # belongs to the parent's branch partition, in a branch no earlier
    # (canonically) than the one housing the child
    from colored_prufer import canonical_order

    for t in random_trees(10, 60, 3, seed=37):
        code, trace = encode_canonical(t)
        order = canonical_order(t)
        kids = SubtreeTable().intern_code(code).kids
        for a, b in ((a, b) for b in range(t.n) for a in kids[b]):
            child, parent = trace.pruned[a], trace.pruned[b]
            blocks = sorted(
                branch_partition(t, parent), key=lambda blk: min(map(order.phi.__getitem__, blk))
            )
            home = next(k for k, blk in enumerate(blocks) if child in blk)
            for k in range(a + 1, b):
                between = trace.pruned[k]
                assert between in subtree_vertices(t, parent) - {parent}
                assert next(
                    i for i, blk in enumerate(blocks) if between in blk
                ) >= home


def test_code_adjacent_matches_prune_trace():
    for t in random_trees(10, 150, 4, seed=32):
        code, trace = encode_canonical(t)
        n = t.n
        step = {v: i for i, v in enumerate(trace.pruned)}
        edges = {(step[trace.parent_of[i]], i) for i in range(n - 1)}
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                assert code_adjacent(code, i, j) == ((j, i) in edges)
        kids = SubtreeTable().intern_code(code).kids
        assert {(j, i) for j in range(n) for i in kids[j]} == edges


def _random_root_first_order(tree, rng):
    rest = [v for v in range(tree.n) if v != tree.root]
    rng.shuffle(rest)
    inverse = (tree.root, *rest)
    phi = [0] * tree.n
    for rank, v in enumerate(inverse):
        phi[v] = rank
    return CanonicalOrder(phi=tuple(phi), inverse=inverse)


def test_codes_under_any_root_first_order_are_read_right():
    # query and host each encoded under a random root-first order, most of
    # them no depth-first preorder: every verdict is the oracle's, every
    # witness read through both prune traces is an embedding, and
    # code_adjacent agrees with the host's trace on every pair
    rng = random.Random(4)
    hosts = random_trees(9, 300, 2, seed=4)
    found = 0
    for host, small in zip(hosts, random_trees(5, 300, 2, seed=5)):
        code, trace = encode(host, _random_root_first_order(host, rng))
        n = host.n
        step = {v: i for i, v in enumerate(trace.pruned)}
        edges = {(step[trace.parent_of[i]], i) for i in range(n - 1)}
        assert all(
            code_adjacent(code, i, j) == ((j, i) in edges)
            for j in range(n - 1)
            for i in range(j)
        )
        for query in (host, small):
            q_code, q_trace = encode(query, _random_root_first_order(query, rng))
            witness = is_subarborescence(q_code, code)
            assert (witness is not None) == has_embedding(query, host)
            if witness is not None:
                found += 1
                psi = {v: trace.pruned[witness[i]] for i, v in enumerate(q_trace.pruned)}
                assert psi in enumerate_embeddings(query, host)
    assert found > 350


def test_decider_reads_every_valid_code_as_its_decoded_tree():
    # every valid monochrome code of n <= 7 vertices, canonical or not,
    # interns to the root id of its decoded tree's canonical code
    table = SubtreeTable()
    seen = 0
    for n in range(1, 8):
        for head in itertools.product(range(n), repeat=max(n - 2, 0)):
            code = Vcpc(parents=(*head, 0, None)[-n:], colors=(0,) * n, n=n)
            root = table.intern_code(code).ids[-1]
            assert root == table.intern_code(_code(decode(code))).ids[-1], code
            seen += 1
    assert seen == 18249


def test_incident_edge_requires_descent():
    query, host = descent_pair()
    assert is_subarborescence(_code(query), _code(host)) is None
    assert not has_embedding(query, host)


# --- subtree verdicts ---------------------------------------------------------------


def test_subtree_golden_verdicts():
    query = _code(vcpc_build_tree())
    host1, host2 = _code(subtree_host_1()), _code(subtree_host_2())
    assert is_subarborescence(query, host1) == (2, 5, 6, 8, 9)
    assert is_subarborescence(query, host2) == (3, 4, 5, 7, 8)
    assert is_subarborescence(_code(subtree_query_3()), host2) is None
    assert is_subarborescence(_code(incident_query()), _code(incident_host())) is None
    assert is_subarborescence(
        _code(incident_query()), _code(incident_middle_host())
    ) == (0, 2, 4, 5)


def test_subtree_reflexive_identity():
    trees = random_trees(9, 25, 3, seed=33) + [_broom(5, 3), _path(300), _repeats(6, 2, 0)]
    for t in trees:
        code = _code(t)
        assert is_subarborescence(code, code) == tuple(range(code.n))
        assert subtree_search(code, code).witness == tuple(range(code.n))


def test_witnesses_match_pinned_digest():
    """Every witness over all ordered pairs of a seeded corpus, pinned."""
    codes = [_code(t) for t in random_trees(14, 60, 2, seed=8)]
    digest = hashlib.sha256()
    found = 0
    for query, host in itertools.product(codes, repeat=2):
        witness = subtree_search(query, host).witness
        found += witness is not None
        digest.update(json.dumps(witness).encode() + b"\n")
    assert found == 700
    assert digest.hexdigest() == (
        "977d22c215f56d9f769ce73f78f2c0c06a62b99c22085ad598039b4bb4cc8594"
    )


def test_subtree_single_vertex_queries():
    host = _code(subtree_host_1())
    present = Vcpc(parents=(None,), colors=(host.colors[3],), n=1)
    absent = Vcpc(parents=(None,), colors=(99,), n=1)
    assert is_subarborescence(present, host) == (host.colors.index(host.colors[3]),)
    assert is_subarborescence(absent, host) is None


def test_subtree_larger_query_is_never_contained():
    assert is_subarborescence(_code(subtree_host_1()), _code(vcpc_build_tree())) is None


def _star(leaf_colors):
    k = len(leaf_colors)
    return build_tree([(0, v) for v in range(1, k + 1)], dict(enumerate([0, *leaf_colors])))


@pytest.mark.parametrize("k", [2, 40], ids=["few-colors", "many-colors"])
def test_subtree_color_count_prefilter_rejects(k):
    # the query fits by size but needs k leaves of distinct colors 1..k,
    # and one host lacks color k
    query = _code(_star(range(1, k + 1)))
    short = _code(_star([*range(1, k), 1, 1]))
    result = subtree_search(query, short)
    assert (result.witness, result.candidates_examined) == (None, 0)
    assert subtree_search(query, _code(_star([*range(1, k + 1), 1]))).witness


def test_subtree_color_count_prefilter_counts_every_color():
    # same size and out-degree as the host, so only the color counts can
    # reject: a color the host lacks, and one copy of a color too many
    host = _code(_star([1, 2, 3, 3]))
    for leaves in ([1, 2, 3, 4], [1, 1, 2, 3]):
        result = subtree_search(_code(_star(leaves)), host)
        assert (result.witness, result.candidates_examined) == (None, 0)
    assert subtree_search(_code(_star([3, 1, 3])), host).witness


def test_subtree_color_prefilter_verdicts_match_oracle_on_many_colors():
    # with 40 colors most pairs fail the prefilter; a subtree of each host
    # is among the queries, so some pairs pass it
    rng = random.Random(73)
    queries = random_trees(5, 40, 40, seed=72)
    passed = 0
    for host in random_trees(14, 40, 40, seed=71):
        keep = subtree_vertices(host, rng.randrange(host.n))
        inside = build_tree(
            [(u, v) for u in keep for v in host.children[u]],
            {v: host.colors[v] for v in keep},
        )
        for query in [*queries, inside]:
            result = subtree_search(_code(query), _code(host))
            assert (result.witness is not None) == has_embedding(query, host)
            passed += result.candidates_examined > 0
    assert passed >= 40


def test_subtree_color_count_prefilter_is_linear():
    # 4,000 distinct colors: a count pass per color would take about 0.3 s
    query = _code(_star(range(1, 4001)))
    host = _code(_star([*range(1, 4000), 1, 1]))
    start = time.perf_counter()
    result = subtree_search(query, host)
    assert (result.witness, result.candidates_examined) == (None, 0)
    assert time.perf_counter() - start < 0.05


def test_distinct_color_star_keeps_verdict_and_witness():
    # 2,000 leaves of distinct colors in a star with one leaf more: each
    # query leaf meets only the host leaves of its color, so pairing the
    # children is linear (all-pairs pairing took over a second)
    k = 2000
    query = _code(_star(range(1, k + 1)))
    host = _code(_star([*range(1, k + 1), 1]))
    start = time.perf_counter()
    result = subtree_search(query, host)
    assert time.perf_counter() - start < 0.5
    assert result.witness == (0, *range(2, k + 2))
    assert result.candidates_examined == 1


def _witness_is_sound(query_code, host_tree, witness):
    """Materialize the matched edges and check the induced embedding."""
    host_code, trace = encode_canonical(host_tree)
    matched = {
        (trace.parent_of[i], trace.pruned[i]) for i in witness[:-1]
    }
    image = {j: trace.pruned[witness[j]] for j in range(query_code.n)}
    if len(set(image.values())) != query_code.n:
        return False
    query_tree = decode(query_code)
    _, qtrace = encode_canonical(query_tree)
    step_of = {v: i for i, v in enumerate(qtrace.pruned)}
    for i in range(query_code.n - 1):
        child, parent = qtrace.pruned[i], qtrace.parent_of[i]
        if (image[step_of[parent]], image[i]) not in matched:
            return False
    for j in range(query_code.n):
        if host_tree.colors[image[j]] != query_code.colors[j]:
            return False
    return True


def test_subtree_agrees_with_ordered_oracle_and_is_sound():
    trees = random_trees(8, 120, 4, seed=34)
    import colored_prufer.corpus as corpus_mod

    classes = corpus_mod.partition_by_isomorphism(trees)
    reps = [decode(c.representative) for c in classes]
    codes = [c.representative for c in classes]
    for a in range(len(classes)):
        for b in range(len(classes)):
            if a == b or codes[a].n > codes[b].n:
                continue
            witness = is_subarborescence(codes[a], codes[b])
            assert (witness is not None) == has_embedding(reps[a], reps[b], ordered=False)
            if witness is not None:
                assert _witness_is_sound(codes[a], reps[b], witness)
                maps = enumerate_embeddings(reps[a], reps[b], ordered=False)
                _, trace_b = encode_canonical(reps[b])
                _, trace_a = encode_canonical(reps[a])
                psi = {
                    trace_a.pruned[j]: trace_b.pruned[witness[j]]
                    for j in range(codes[a].n)
                }
                assert psi in maps


def test_subtree_transitive_on_random_triples():
    trees = random_trees(7, 90, 2, seed=35)
    codes = sorted({_code(t) for t in trees}, key=lambda c: c.n)
    hits = 0
    for a, b, c in itertools.combinations(codes, 3):
        if is_subarborescence(a, b) is not None and is_subarborescence(b, c) is not None:
            hits += 1
            assert is_subarborescence(a, c) is not None
    assert hits > 0


def test_candidate_cap_argument_is_ignored():
    host = _code(build_tree([(0, i) for i in range(1, 9)], {v: 0 for v in range(9)}))
    query = _code(build_tree([(0, 1), (0, 2)], {0: 0, 1: 0, 2: 0}))
    assert subtree_search(query, host, 1) == subtree_search(query, host)
    assert subtree_search(query, host).witness is not None


# --- undirected extension -----------------------------------------------------------


def test_undirected_single_vertex_embeds_on_color_match():
    single = build_tree([], {0: 1})
    host = subtree_host_1()
    assert undirected_subtree(single, host)
    assert not undirected_subtree(build_tree([], {0: 42}), host)


def test_undirected_reflexive_and_size_bound():
    t = subtree_host_2()
    assert undirected_subtree(t, t)
    assert not undirected_subtree(t, vcpc_build_tree())


def test_undirected_detects_cross_root_embedding():
    # query equals host minus its root: embeds undirected, also directed here
    host = vcpc_build_tree()
    query = build_tree([(2, 3), (2, 4)], {2: 0, 3: 1, 4: 3})
    assert undirected_subtree(query, host)


def _reroot(tree, new_root):
    """The same undirected colored tree, oriented away from ``new_root``."""
    adjacency = neighbors(tree)
    seen = {new_root}
    stack = [new_root]
    edges = []
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                edges.append((u, v))
                stack.append(v)
    return build_tree(edges, {v: tree.colors[v] for v in range(tree.n)})


def test_undirected_agrees_with_brute_force():
    trees = random_trees(6, 40, 2, seed=36)

    def brute_undirected(tq, t):
        # try every rooting of both trees with the directed oracle
        for rq in range(tq.n):
            for rt in range(t.n):
                if has_embedding(_reroot(tq, rq), _reroot(t, rt)):
                    return True
        return False

    checked = positive = 0
    for tq, t in itertools.combinations(trees, 2):
        if tq.n > t.n:
            tq, t = t, tq
        checked += 1
        expected = brute_undirected(tq, t)
        assert undirected_subtree(tq, t) == expected
        positive += expected
    assert checked > 100 and positive > 5


def test_ordered_unordered_divergence_is_one_sided():
    query, host = divergent_pair()
    assert has_embedding(query, host, ordered=False)
    assert not has_embedding(query, host, ordered=True)
    witness = is_subarborescence(_code(query), _code(host))
    assert witness is not None and _witness_is_sound(_code(query), host, witness)


# --- exact decider at sizes where ordered inclusion diverges ----------------------


def test_exact_decider_matches_unordered_oracle_where_ordered_misses():
    # these seeds hold 10 of the 19 pairs of random_trees(10, 60, 2, 0..39)
    # that ordered inclusion (the ordered oracle) misses
    checked = ordered_misses = 0
    for seed in (0, 2, 3, 4, 14, 17):
        trees = random_trees(10, 60, 2, seed)
        codes = [_code(t) for t in trees]
        for i, j in itertools.permutations(range(len(trees)), 2):
            if trees[i].n >= trees[j].n:
                continue
            checked += 1
            expected = has_embedding(trees[i], trees[j], ordered=False)
            witness = is_subarborescence(codes[i], codes[j])
            assert (witness is not None) == expected, (seed, i, j)
            if witness is not None:
                assert _witness_is_sound(codes[i], trees[j], witness)
            ordered_misses += expected and not has_embedding(trees[i], trees[j], ordered=True)
    assert checked > 8000 and ordered_misses == 10


def _join(root_color, parts):
    """A root of ``root_color`` over one copy of each tree in ``parts``."""
    edges, colors = [], {0: root_color}
    for part in parts:
        base = len(colors)
        edges.append((0, base + part.root))
        edges.extend((base + u, base + v) for u in range(part.n) for v in part.children[u])
        colors.update({base + v: c for v, c in enumerate(part.colors)})
    return build_tree(edges, colors)


def _repeats(copies, piece_seed, root_color):
    """A root over ``copies`` equal copies of one small random subtree and
    one other small subtree, so siblings repeat at the root and below."""
    piece, other = random_trees(4, 2, 2, seed=piece_seed)
    return _join(root_color, [piece] * copies + [other])


def test_undirected_matches_all_rootings_oracle_on_repeated_siblings():
    hosts = [_repeats(k, seed, seed % 2) for k in (2, 3) for seed in range(6)]
    hosts += [_star([0] * 9), _star([0] * 6 + [1] * 2)]
    queries = random_trees(6, 40, 2, seed=37) + [_star([0] * k) for k in (3, 6, 9)]
    queries += [_repeats(2, seed, 0) for seed in range(3)]
    # a query side equal to a host's down side: one piece under a root of
    # the color of the hosts' roots over copies of that piece
    queries += [_join(0, [random_trees(4, 2, 2, seed=seed)[0]]) for seed in (0, 2, 4)]
    # sizes allow it, but the star host has two leaves of color 1, not three
    queries.append(_star([1] * 3))
    # down sides at color-0 parents exist (the 5 below the 0), but only the
    # up side 1, 2, 3 takes the query's side 1, 2
    hosts.append(_colored_path([3, 2, 1, 0, 5]))
    queries.append(_colored_path([0, 1, 2]))
    checked = positive = 0
    for host in hosts:
        rootings = [_reroot(host, r) for r in range(host.n)]
        for query in queries:
            if query.n > host.n:
                continue
            expected = any(has_embedding(query, rooted) for rooted in rootings)
            assert undirected_subtree(query, host) == expected
            checked += 1
            positive += expected
    assert checked > 400 and positive > 100


def test_undirected_matches_all_rootings_oracle_at_order_nine():
    checked = 0
    for seed in range(15):
        trees = random_trees(9, 40, 2, seed)
        rootings = [[_reroot(t, r) for r in range(t.n)] for t in trees]
        for i, j in itertools.permutations(range(len(trees)), 2):
            if trees[i].n > trees[j].n:
                continue
            checked += 1
            expected = any(has_embedding(trees[i], host) for host in rootings[j])
            assert undirected_subtree(trees[i], trees[j]) == expected, (seed, i, j)
    assert checked > 13000


def _broom(legs, length):
    """Monochrome spider: ``legs`` paths of ``length`` vertices under a root."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges.extend((v, v + 1) for v in range(first, first + length - 1))
    return build_tree(edges, {v: 0 for v in range(1 + legs * length)})


def _path(n):
    return build_tree([(v, v + 1) for v in range(n - 1)], {v: 0 for v in range(n)})


def test_broom_in_broom_decided_without_cap():
    query, host = _broom(6, 2), _broom(12, 3)
    start = time.perf_counter()
    witness = is_subarborescence(_code(query), _code(host))
    elapsed = time.perf_counter() - start
    assert witness is not None and _witness_is_sound(_code(query), host, witness)
    assert elapsed < 0.5
    assert is_subarborescence(_code(_broom(3, 3)), _code(_broom(5, 2))) is None


def test_long_path_in_longer_path_with_witness():
    query, host = _path(1200), _path(1500)
    witness = is_subarborescence(_code(query), _code(host))
    assert witness is not None and _witness_is_sound(_code(query), host, witness)
    assert is_subarborescence(_code(host), _code(query)) is None
    assert undirected_subtree(query, host)


def _colored_path(colors):
    """Path rooted at vertex 0, colored top-down by ``colors``."""
    n = len(colors)
    return build_tree([(v, v + 1) for v in range(n - 1)], dict(enumerate(colors)))


def test_two_colored_long_paths_match_the_substring_closed_form():
    # distinct subtree ids all along both paths, so can_map decides them
    # pair by pair instead of the equal-id shortcut deciding at once
    rng = random.Random(62)
    host_colors = [rng.randrange(2) for _ in range(1500)]
    start = rng.randrange(1500 - 900 + 1)
    planted = host_colors[start : start + 900]
    queries = [planted, planted[::-1], [rng.randrange(2) for _ in range(900)]]
    host = _colored_path(host_colors)
    text = "".join(map(str, host_colors))
    verdicts = []
    for colors in queries:
        query = _colored_path(colors)
        word = "".join(map(str, colors))
        witness = is_subarborescence(_code(query), _code(host))
        assert (witness is not None) == (word in text)
        if witness is not None:
            assert _witness_is_sound(_code(query), host, witness)
        undirected = undirected_subtree(query, host)
        assert undirected == (word in text or word[::-1] in text)
        verdicts.append((witness is not None, undirected))
    assert verdicts[0] == (True, True) and verdicts[-1] == (False, False)


def _alternating(n, first):
    return _colored_path([(first + v) % 2 for v in range(n)])


def test_long_alternating_path_in_shifted_one_with_witness():
    # both long unary chains have distinct ids, and no query id equals a
    # host id, so no equal-id shortcut decides any pair along them
    host = _alternating(1500, 1)
    query = _alternating(1200, 0)
    witness = is_subarborescence(_code(query), _code(host))
    assert witness is not None and _witness_is_sound(_code(query), host, witness)
    assert all(b == a + 1 for a, b in zip(witness, witness[1:]))
    assert undirected_subtree(query, host)
    # as large as the host and alternating 0, 1: it fits only read backwards
    same = _alternating(1500, 0)
    assert is_subarborescence(_code(same), _code(host)) is None
    assert undirected_subtree(same, host)
    for q, h in ((30, 40), (40, 40)):
        small, large = _alternating(q, 0), _alternating(h, 1)
        found = is_subarborescence(_code(small), _code(large)) is not None
        assert found == has_embedding(small, large) == (q < h)


def test_edges_rows_and_pending_pairs_on_a_hand_built_table():
    table = SubtreeTable()
    leaf0 = table._new((0, ()))
    leaf1 = table._new((1, ()))
    path2 = table._new((0, (leaf0,)))
    path3 = table._new((0, (path2,)))
    cherry = table._new((0, (leaf0, leaf0)))
    mixed = table._new((0, (leaf1,)))
    broom = table._new((0, (leaf0, path2)))
    table._record(path2, cherry, True)
    table._record(path2, mixed, False)
    qs = [path2, cherry, leaf1, path2]
    hs = [path3, cherry, leaf1, path2, cherry, mixed, path3, broom]
    rows, pending = table._edges(qs, hs)
    # known pairs in host order, equal ids included, every position of a
    # repeated host id; no decided-negative pair, no other color, and
    # cherry onto path3 (too few children) or path2 (too small) in neither
    assert rows == [[1, 3, 4], [1, 4], [2], [1, 3, 4]]
    assert sorted(pending) == sorted([(path2, path3), (path2, broom), (cherry, broom)])
    assert len(pending) == len(set(pending))
    assert table.can_map(path2, path3) and table.can_map(cherry, broom)
    rows, pending = table._edges(qs, hs)
    assert rows[0] == [0, 1, 3, 4, 6] and rows[1] == [1, 4, 7]
    assert pending == [(path2, broom)]  # no call has needed it yet


def test_sweep_memo_is_exact_and_linear_in_the_relation():
    pieces = [_colored_path(colors) for colors in ([1], [1, 1], [1, 1, 1], [2], [1, 2])]
    corpora = [
        random_trees(12, 160, 3, seed=57),
        random_trees(10, 120, 1, seed=58),  # one color
        # repeated children: a two-child query with one child twice
        [_broom(legs, length) for legs in range(1, 5) for length in range(1, 4)]
        + [_star(colors) for colors in ([1, 1], [1, 1, 1], [1, 2, 1], [2, 1, 1, 2])]
        + [_repeats(k, seed, 0) for k in (2, 3) for seed in range(4)],
        # two query children whose rows may share one host position
        [
            _join(0, parts)
            for k in (2, 3)
            for parts in itertools.combinations_with_replacement(pieces, k)
        ],
        # long unary chains, alone and under a branch
        [_path(n) for n in (1, 2, 40, 80)]
        + [_colored_path([k % 3 // 2 for k in range(60)]), _broom(2, 30), _broom(3, 20)],
    ]
    for trees in corpora:
        codes = [_code(t) for t in trees]
        table, fresh = SubtreeTable(), SubtreeTable()
        for code in codes:
            table.intern_code(code)
            fresh.intern_code(code)
        assert fresh.kids == table.kids
        assert table.sweep() is None
        ids = range(len(table.kids))
        pairs = {(q, h) for h in ids for q in ids if fresh.can_map(q, h)}
        assert {(q, h) for h in ids for q in table._yes[h]} == pairs
        assert sum(map(len, table._yes)) == len(pairs)


def test_contained_is_every_id_that_maps_anywhere_in_the_tree():
    codes = [_code(t) for t in random_trees(12, 160, 3, seed=57)]
    table, fresh = SubtreeTable(), SubtreeTable()
    trees = [table.intern_code(code) for code in codes]
    for code in codes:
        fresh.intern_code(code)
    table.sweep()
    ids = range(len(table.kids))
    for tree in trees:
        brute = {q for q in ids if any(fresh.can_map(q, h) for h in tree.ids)}
        assert table.contained(set(tree.ids)) == brute


def test_codes_and_edge_sides_share_one_key_space():
    """A code's prune steps and a tree's rerooted sides intern to the same
    ids, and each id's size row is its vertex count, whichever made it.
    The up rule along the path to a leaf's parent gives that leaf the id
    the full up pass gives it."""
    trees = [t for c in (1, 2, 3) for t in random_trees(10, 60, c, seed=60 + c)]
    for tree, code_first in itertools.product(trees + [_path(1500), _broom(6, 40)], (True, False)):
        table = SubtreeTable()
        if code_first:
            rooted = table.intern_code(_code(tree))
        order = tree.bfs_order()
        down = table.intern_tree(tree, order)
        up = table.intern_up(tree, down, order)
        if not code_first:
            rooted = table.intern_code(_code(tree))
        assert rooted.ids[-1] == down[tree.root]
        parent = tree.parent_map()
        for leaf in (v for v in range(tree.n) if v != tree.root and not tree.children[v]):
            path = [parent[leaf]]
            while path[-1] != tree.root:
                path.append(parent[path[-1]])
            assert table.intern_up(tree, down, path[::-1])[leaf] == up[leaf]
        rows = (table.color, table.kids, table.size, table._yes, table._no)
        assert len(set(map(len, rows))) == 1
        for i, kids in enumerate(table.kids):
            assert table.size[i] == 1 + sum(table.size[k] for k in kids)
            assert table._ids[(table.color[i], kids)] == i


def test_witness_refuses_a_pair_that_does_not_map():
    table = SubtreeTable()
    edge = table.intern_code(_code(build_tree([(0, 1)], {0: 1, 1: 1})))
    vertex = table.intern_code(_code(build_tree([], {0: 1})))
    table.sweep()
    assert table.witness(vertex, edge) == (0,)  # the leaf, pruned first
    with pytest.raises(ValueError, match="maps onto no host subtree"):
        table.witness(edge, vertex)


def _generator_cover_left(adj, n_right):
    """Reference for _cover_left's visiting order: the same greedy phase and
    Kuhn search, each step a ``next`` over a filtering generator."""
    owner = [-1] * n_right
    unmatched = []
    for i, row in enumerate(adj):
        j = next((j for j in row if owner[j] < 0), -1)
        if j < 0:
            unmatched.append(i)
        else:
            owner[j] = i
    for start in unmatched:
        seen = [False] * n_right
        lefts = [start]
        todo = [iter(adj[start])]
        via = []
        while True:
            j = next((j for j in todo[-1] if not seen[j]), -1)
            if j < 0:
                lefts.pop()
                todo.pop()
                if not lefts:
                    return None
                via.pop()
                continue
            seen[j] = True
            if owner[j] < 0:
                break
            via.append(j)
            lefts.append(owner[j])
            todo.append(iter(adj[owner[j]]))
        owner[j] = lefts[-1]
        for right, left in zip(via, lefts):
            owner[right] = left
    return owner


def test_cover_left_matches_brute_force_and_generator_reference():
    rng = random.Random(61)
    covered = 0
    for _ in range(2000):
        n_left, n_right = rng.randint(0, 6), rng.randint(0, 7)
        # rows may be empty and may repeat a right vertex
        adj = [
            [rng.randrange(n_right) for _ in range(rng.randint(0, n_right + 2))] if n_right else []
            for _ in range(n_left)
        ]
        rows = [set(row) for row in adj]
        exists = any(
            all(pick[i] in rows[i] for i in range(n_left))
            for pick in itertools.permutations(range(n_right), n_left)
        )
        owner = _cover_left(adj, n_right)
        assert (owner is not None) == exists
        assert owner == _generator_cover_left(adj, n_right)
        if owner is not None:
            covered += 1
            assert len(owner) == n_right
            assert sorted(left for left in owner if left >= 0) == list(range(n_left))
            assert all(j in rows[left] for j, left in enumerate(owner) if left >= 0)
    assert 500 < covered < 1500
