"""Encoding, decoding, and classical Prüfer sequences.

Cross-checks: the numeric parents row equals the classical sequence of
the rank-labeled tree with an auxiliary vertex grafted above the root,
and matches the plain classical sequence as a multiset (the plain
sequences themselves can disagree in order once the root becomes an
undirected leaf mid-run, as on directed paths).
"""

import heapq
import random
from collections import Counter

import pytest

from colored_prufer import (
    CanonicalOrder,
    Vcpc,
    build_tree,
    canonical_order,
    canonicalize,
    classical_prufer,
    decode,
    encode,
    encode_canonical,
    prufer_to_edges,
    validate_code,
)
from colored_prufer.errors import InvalidCode, OrderMismatch, TooSmall
from colored_prufer.oracle import random_trees

from golden import (
    AUTOMORPHIC_COLORS,
    AUTOMORPHIC_PARENTS,
    CLASSICAL_EDGES,
    CLASSICAL_SEQUENCE,
    SUBTREE_HOST_1_COLORS,
    SUBTREE_HOST_1_PARENTS,
    SUBTREE_HOST_2_COLORS,
    SUBTREE_HOST_2_PARENTS,
    SUBTREE_QUERY_3_COLORS,
    SUBTREE_QUERY_3_PARENTS,
    VCPC_BUILD_COLORS,
    VCPC_BUILD_PARENTS,
    automorphic_tree,
    classical_tree,
    subtree_host_1,
    subtree_host_2,
    subtree_query_3,
    vcpc_build_tree,
)


def test_encode_five_vertex_golden_tree():
    code, trace = encode_canonical(vcpc_build_tree())
    assert code.parents == VCPC_BUILD_PARENTS
    assert code.colors == VCPC_BUILD_COLORS
    assert trace.pruned[-1] == vcpc_build_tree().root


def test_encode_automorphic_labelings_identical():
    code_a, _ = encode_canonical(automorphic_tree())
    code_b, _ = encode_canonical(automorphic_tree(mirrored=True))
    assert code_a.parents == AUTOMORPHIC_PARENTS
    assert code_a.colors == AUTOMORPHIC_COLORS
    assert code_a == code_b


def test_encode_subtree_golden_trees():
    c1, _ = encode_canonical(subtree_host_1())
    assert (c1.parents, c1.colors) == (SUBTREE_HOST_1_PARENTS, SUBTREE_HOST_1_COLORS)
    c2, _ = encode_canonical(subtree_host_2())
    assert (c2.parents, c2.colors) == (SUBTREE_HOST_2_PARENTS, SUBTREE_HOST_2_COLORS)
    c3, _ = encode_canonical(subtree_query_3())
    assert (c3.parents, c3.colors) == (SUBTREE_QUERY_3_PARENTS, SUBTREE_QUERY_3_COLORS)


def test_encode_single_vertex():
    code, trace = encode_canonical(build_tree([], {0: 2}))
    assert code.parents == (None,)
    assert code.colors == (2,)
    assert trace.pruned == (0,)
    assert trace.parent_of == ()


def test_encode_three_vertex_star_by_definition():
    # red root over red and blue children; blue sorts first
    code, _ = encode_canonical(build_tree([(0, 1), (0, 2)], {0: 1, 1: 1, 2: 0}))
    assert code.parents == (0, 0, None)
    assert code.colors == (0, 1, 1)


def test_encode_rejects_bad_order():
    t = vcpc_build_tree()
    with pytest.raises(OrderMismatch):
        encode(t, CanonicalOrder(phi=(0, 0, 1, 2, 3), inverse=(0, 1, 2, 3, 4)))
    good = canonical_order(t)
    with pytest.raises(OrderMismatch):
        encode(t, CanonicalOrder(phi=good.phi, inverse=tuple(reversed(good.inverse))))


def test_vcpc_invariants_on_random_trees():
    for t in random_trees(10, 80, 4, seed=21):
        code, trace = encode_canonical(t)
        validate_code(code)
        n = t.n
        assert code.parents[n - 1] is None
        assert code.parents.count(None) == 1
        assert code.colors[n - 1] == t.colors[t.root]
        if n >= 2:
            assert code.parents[n - 2] == 0
        # trace consistency
        assert sorted(trace.pruned) == list(range(n))
        order = canonical_order(t)
        for i in range(n - 1):
            assert code.parents[i] == order.phi[trace.parent_of[i]]


def _broom(legs, length, colors=1):
    edges, color = [], {0: 0}
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges.extend((v, v + 1) for v in range(first, first + length - 1))
        color.update((v, (leg + v) % colors) for v in range(first, first + length))
    return build_tree(edges, color)


def _one_traversal_cases():
    for m in range(1, 41):
        for c in range(1, 5):
            yield from random_trees(m, 6, c, seed=100 * m + c)
    yield build_tree([(v, v + 1) for v in range(4999)], {v: 0 for v in range(5000)})
    yield build_tree([(0, v) for v in range(1, 3001)], {v: v % 2 for v in range(3001)})
    for legs, length, colors in ((6, 2, 1), (12, 3, 1), (40, 1, 1), (7, 5, 3)):
        yield _broom(legs, length, colors)
    # caterpillar: a spine of 300 with 0-3 legs per vertex
    edges = [(v, v + 1) for v in range(299)]
    edges += [(v, 300 + 3 * v + k) for v in range(300) for k in range(v % 4)]
    vertices = {v for e in edges for v in e}
    yield build_tree(edges, {v: v % 3 for v in vertices})


def test_encode_canonical_is_encode_under_canonical_order():
    # encode_canonical reads code and trace off one traversal; encode
    # prunes under the supplied order
    for t in _one_traversal_cases():
        assert encode_canonical(t) == encode(t, canonical_order(t))


def test_encode_invariant_under_relabeling():
    rng = random.Random(22)
    for t in random_trees(9, 40, 3, seed=23):
        reference, _ = encode_canonical(t)
        perm = list(range(t.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u in range(t.n) for v in t.children[u]]
        rng.shuffle(edges)
        relabeled = build_tree(edges, {perm[v]: t.colors[v] for v in range(t.n)})
        code, _ = encode_canonical(relabeled)
        assert code == reference


def test_encode_invariant_under_stored_children_order():
    from dataclasses import replace

    for t in random_trees(9, 30, 3, seed=27):
        reference, _ = encode_canonical(t)
        reversed_children = tuple(tuple(reversed(kids)) for kids in t.children)
        shuffled = replace(t, children=reversed_children)
        code, _ = encode_canonical(shuffled)
        assert code == reference


# --- decode -------------------------------------------------------------------


def test_decode_five_vertex_golden_tree():
    code = Vcpc(parents=VCPC_BUILD_PARENTS, colors=VCPC_BUILD_COLORS, n=5)
    assert decode(code) == canonicalize(vcpc_build_tree())


def test_decode_single_vertex():
    tree = decode(Vcpc(parents=(None,), colors=(7,), n=1))
    assert (tree.n, tree.colors) == (1, (7,))


def test_decode_encode_roundtrip():
    for t in random_trees(12, 200, 7, seed=24):
        code, _ = encode_canonical(t)
        assert decode(code, strict=True) == canonicalize(t)


def test_decode_rejects_invalid_codes():
    with pytest.raises(InvalidCode):
        decode(Vcpc(parents=(0, None), colors=(1,), n=2))  # row lengths
    with pytest.raises(InvalidCode):
        decode(Vcpc(parents=(None, 0, None), colors=(0, 0, 0), n=3))  # misplaced
    with pytest.raises(InvalidCode):
        decode(Vcpc(parents=(5, 0, None), colors=(0, 0, 0), n=3))  # out of range
    with pytest.raises(InvalidCode):
        decode(Vcpc(parents=(0, 1, None), colors=(0, 0, 0), n=3))  # last parent != 0
    with pytest.raises(InvalidCode):
        decode(Vcpc(parents=(0, 0), colors=(0, 0), n=2))  # no sentinel


def test_code_rejects_json_booleans_as_integers():
    assert Vcpc.from_json({"parents": [0, None], "colors": [1, 0], "n": 2}).n == 2
    with pytest.raises(InvalidCode):
        Vcpc.from_json({"parents": [False, None], "colors": [1, 0], "n": 2})
    with pytest.raises(InvalidCode):
        Vcpc.from_json({"parents": [0, None], "colors": [True, 0], "n": 2})
    for n in (True, 1.9, "1", 2.0):
        with pytest.raises(InvalidCode, match="n must be an integer"):
            Vcpc.from_json({"parents": [0, None], "colors": [1, 0], "n": n})


def test_decode_strict_rejects_noncanonical_code():
    # structure decodes, but rank 1 would have to carry the smaller color
    code = Vcpc(parents=(0, 0, None), colors=(1, 0, 1), n=3)
    tree = decode(code)
    assert tree.n == 3
    with pytest.raises(InvalidCode):
        decode(code, strict=True)


# --- classical sequences --------------------------------------------------------


def test_classical_golden_sequence_and_inversion():
    assert classical_prufer(classical_tree()) == CLASSICAL_SEQUENCE
    attach, _, last = prufer_to_edges(CLASSICAL_SEQUENCE, 7)
    rebuilt = {frozenset(e) for e in attach} | {frozenset(last)}
    assert rebuilt == CLASSICAL_EDGES


def test_classical_orientation_independent():
    rerooted = build_tree(
        [(6, 4), (4, 0), (4, 1), (4, 2), (4, 5), (1, 3)], {v: 0 for v in range(7)}
    )
    assert classical_prufer(rerooted) == CLASSICAL_SEQUENCE


def test_classical_star_and_path():
    star = build_tree([(0, 1), (0, 2), (0, 3), (0, 4)], {v: 0 for v in range(5)})
    assert classical_prufer(star) == [0, 0, 0]
    path = build_tree([(0, 1), (1, 2)], {v: 0 for v in range(3)})
    assert classical_prufer(path) == [1]


def test_classical_too_small():
    with pytest.raises(TooSmall):
        classical_prufer(build_tree([], {0: 0}))


def test_classical_relabeling_argument():
    path = build_tree([(0, 1), (1, 2)], {v: 0 for v in range(3)})
    assert classical_prufer(path, labels=[2, 1, 0]) == [1]
    assert classical_prufer(path, labels=[1, 0, 2]) == [0]


def test_parents_row_equals_classical_of_root_augmented_tree():
    for t in random_trees(10, 120, 4, seed=25):
        if t.n < 2:
            continue
        canonical = canonicalize(t)
        code, _ = encode_canonical(canonical)
        grafted = build_tree(
            [(canonical.n, 0)]
            + [(u, v) for u in range(canonical.n) for v in canonical.children[u]],
            {**{v: canonical.colors[v] for v in range(canonical.n)}, canonical.n: 0},
        )
        assert tuple(classical_prufer(grafted)) + (None,) == code.parents


def test_parents_prefix_matches_classical_as_multiset():
    for t in random_trees(10, 120, 4, seed=26):
        if t.n < 3:
            continue
        canonical = canonicalize(t)
        code, _ = encode_canonical(canonical)
        prefix = list(code.parents[: t.n - 2])
        assert Counter(prefix) == Counter(classical_prufer(canonical))


def test_prufer_to_edges_validates():
    with pytest.raises(InvalidCode):
        prufer_to_edges([0, 1], 3)  # wrong length
    with pytest.raises(InvalidCode):
        prufer_to_edges([9], 3)  # out of range
    with pytest.raises(InvalidCode):
        prufer_to_edges([True, False], 4)  # booleans are not labels


# --- heap references for the linear scans -------------------------------------


def _heap_encode(tree, order):
    """(parents row, pruned vertices) by popping the least eligible rank."""
    parent = tree.parent_map()
    left = [len(kids) for kids in tree.children]
    heap = [order.phi[v] for v in range(tree.n) if not left[v] and v != tree.root]
    heapq.heapify(heap)
    parents, pruned = [], []
    for _ in range(tree.n - 1):
        v = order.inverse[heapq.heappop(heap)]
        u = parent[v]
        parents.append(order.phi[u])
        pruned.append(v)
        left[u] -= 1
        if not left[u] and u != tree.root:
            heapq.heappush(heap, order.phi[u])
    return parents + [None], pruned + [tree.root]


def _heap_prufer_to_edges(sequence, n_labels):
    remaining = Counter(sequence)
    heap = [x for x in range(n_labels) if not remaining[x]]
    heapq.heapify(heap)
    edges = []
    for a in sequence:
        edges.append((a, heapq.heappop(heap)))
        remaining[a] -= 1
        if not remaining[a]:
            heapq.heappush(heap, a)
    return edges, [leaf for _, leaf in edges], (heapq.heappop(heap), heapq.heappop(heap))


def test_linear_encode_matches_heap_reference_under_random_orders():
    rng = random.Random(31)
    for t in random_trees(14, 150, 3, seed=32):
        inverse = list(range(t.n))
        rng.shuffle(inverse)  # a rank bijection, mostly not a preorder
        phi = [0] * t.n
        for rank, v in enumerate(inverse):
            phi[v] = rank
        order = CanonicalOrder(phi=tuple(phi), inverse=tuple(inverse))
        code, trace = encode(t, order)
        parents, pruned = _heap_encode(t, order)
        assert list(code.parents) == parents
        assert list(trace.pruned) == pruned
        assert list(code.colors) == [t.colors[v] for v in pruned]


def test_prufer_to_edges_matches_heap_reference():
    rng = random.Random(33)
    cases = [([], 2), ([0], 3), ([2], 3), ([1], 3), ([3, 3], 4), ([0, 3], 4)]
    for _ in range(400):
        n_labels = rng.randint(2, 12)
        cases.append(([rng.randrange(n_labels) for _ in range(n_labels - 2)], n_labels))
        # sequences that lean on the top label
        top = [rng.choice((n_labels - 1, rng.randrange(n_labels))) for _ in range(n_labels - 2)]
        cases.append((top, n_labels))
    assert len(cases) == 806
    for sequence, n_labels in cases:
        result = prufer_to_edges(sequence, n_labels)
        assert result == _heap_prufer_to_edges(sequence, n_labels)
        # the top label is never consumed, so decode needs no check for it
        assert all(leaf < n_labels - 1 for leaf in result[1])
