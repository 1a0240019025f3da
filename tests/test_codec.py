"""Encoding, decoding, and classical Prüfer sequences.

Cross-checks: the numeric parents row equals the classical sequence of
the rank-labeled tree with an auxiliary vertex grafted above the root,
and matches the plain classical sequence as a multiset (the plain
sequences themselves can disagree in order once the root becomes an
undirected leaf mid-run, as on directed paths).
"""

import heapq
import random
import time
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
    prune_labels,
    validate_code,
)
from colored_prufer.canonical import is_canonically_labeled, sorted_siblings
from colored_prufer.codec import _prune_scan
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
    neighbors,
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
    path = build_tree([(0, 1), (1, 2)], {v: 0 for v in range(3)})
    with pytest.raises(OrderMismatch):  # True == 1, but booleans are not ranks
        encode(path, CanonicalOrder(phi=(0, True, 2), inverse=(0, 1, 2)))
    # parents would be (0, 1, None), ending in the root's rank 1, not 0
    with pytest.raises(OrderMismatch, match="order must rank the root 0"):
        encode(path, CanonicalOrder(phi=(1, 0, 2), inverse=(1, 0, 2)))


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


@pytest.mark.parametrize(
    "parents, colors, n",
    [
        ((5, None), (0, 0), 2),
        ((None, 0, None), (0, 0, 0), 3),
        ((0, None), (0, 0), 5),
        ((0, None), (-1, "x"), 2),
        ((0, None), (0, 0), 2.0),
        ((0, None), (0, 0), "2"),
    ],
    ids=["out-of-range", "interior-sentinel", "row-lengths", "bad-colors", "float-n", "str-n"],
)
def test_invalid_code_raises_at_construction(parents, colors, n):
    with pytest.raises(InvalidCode):
        Vcpc(parents=parents, colors=colors, n=n)


def test_replace_checks_the_code_too():
    from dataclasses import replace

    code = Vcpc(parents=(0, None), colors=(0, 0), n=2)
    with pytest.raises(InvalidCode):
        replace(code, n=3)
    with pytest.raises(InvalidCode):
        replace(code, colors=(0, True))


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


def _rank_order(inverse):
    phi = [0] * len(inverse)
    for rank, v in enumerate(inverse):
        phi[v] = rank
    return CanonicalOrder(phi=tuple(phi), inverse=tuple(inverse))


def _random_dfs_order(tree, rng):
    """A depth-first preorder visiting children in random order."""
    inverse, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        inverse.append(v)
        kids = list(tree.children[v])
        rng.shuffle(kids)
        stack += kids
    return _rank_order(inverse)


def _random_root_first_order(tree, rng):
    """The root at rank 0, every other vertex at a random rank."""
    rest = [v for v in range(tree.n) if v != tree.root]
    rng.shuffle(rest)
    return _rank_order([tree.root, *rest])


def test_prune_labels_are_the_ranks_of_the_pruned_vertices():
    # the inverse scan reads back, step by step, the rank of the vertex
    # the encoder pruned, under the canonical order and under random
    # root-first orders, most of which are no depth-first preorder
    rng = random.Random(43)
    for t in _one_traversal_cases():
        orders = [_random_root_first_order(t, rng) for _ in range(3)]
        for order in (canonical_order(t), *orders):
            code, trace = encode(t, order)
            assert prune_labels(code) == [order.phi[v] for v in trace.pruned]


def test_decode_strict_accepts_exactly_the_codes_that_re_encode_to_themselves():
    # Random DFS orders break sibling order, random root-first orders
    # break the preorder; the re-encode is the reference verdict.
    rng = random.Random(41)
    verdicts = Counter()
    for colors in (1, 2, 3):
        for t in random_trees(16, 250, colors, seed=40 + colors):
            codes = [encode_canonical(t)[0]]
            for make_order in (_random_dfs_order, _random_root_first_order):
                codes += [encode(t, make_order(t, rng))[0] for _ in range(3)]
            for code in codes:
                expected = encode_canonical(decode(code))[0] == code
                try:
                    accepted = decode(code, strict=True) == decode(code)
                except InvalidCode as exc:
                    assert str(exc) == "code does not re-encode to itself"
                    accepted = False
                assert accepted is expected
                verdicts[expected, code.n > 3] += 1
    # both verdicts occur, also on codes of more than 3 vertices
    assert min(verdicts[True, True], verdicts[False, True]) > 500


def test_decode_strict_rejects_ids_off_the_preorder_with_ordered_colors():
    # Every sibling pair is in color order, but vertex 4 does not start
    # where the subtree of its elder sibling 2 ends (the root's child 3
    # does there), so the ids are no preorder.
    code = Vcpc(parents=(1, 0, 1, 0, None), colors=(0, 1, 1, 0, 1), n=5)
    tree = decode(code)
    assert tree.children == ((1, 3), (2, 4), (), (), ())
    assert tree.colors == (1, 0, 0, 1, 1)
    assert encode_canonical(tree)[0] != code
    with pytest.raises(InvalidCode, match="^code does not re-encode to itself$"):
        decode(code, strict=True)


def _spider(lengths):
    """Monochrome root with one leg of each length."""
    edges, first = [], 1
    for length in lengths:
        edges.append((0, first))
        edges.extend((v, v + 1) for v in range(first, first + length - 1))
        first += length
    return build_tree(edges, {v: 0 for v in range(first)})


def _comb(spine, gadget=3):
    """Monochrome spine with a gadget sibling under every spine vertex: a
    vertex over ``gadget`` leaves.  For ``gadget`` >= 3 the spine's child
    colors sort before the gadget's, so the long spine goes first."""
    edges = [(v, v + 1) for v in range(spine - 1)]
    n = spine
    for v in range(spine):
        edges.append((v, n))
        edges.extend((n, n + 1 + k) for k in range(gadget))
        n += 1 + gadget
    return build_tree(edges, {v: 0 for v in range(n)})


def _complete_binary_with_moved_leaf(depth, rng):
    n = 2**depth - 1
    leaf = rng.randrange(n // 2, n)
    edges = [((v - 1) // 2, v) for v in range(1, n) if v != leaf]
    edges.append((rng.randrange(leaf), leaf))
    return build_tree(edges, {v: 0 for v in range(n)})


def _window_pairs(tree):
    """Adjacent stored siblings that get past the color and leaf steps of
    the strict check, and how many of those tie on their first rows."""
    children, colors = tree.children, tree.colors
    reached = tied = 0
    for kids in children:
        for a, b in zip(kids, kids[1:]):
            if colors[a] == colors[b] and children[a] and children[b]:
                reached += 1
                row = tuple(colors[c] for c in children[a])
                tied += row == tuple(colors[c] for c in children[b])
    return reached, tied


def _caterpillar_tree(spine, rng):
    """Monochrome spine with zero to three legs of one or two vertices
    under each spine vertex."""
    edges = [(v, v + 1) for v in range(spine - 1)]
    n = spine
    for v in range(spine):
        for _ in range(rng.randrange(4)):
            edges.append((v, n))
            if rng.randrange(2):
                edges.append((n, n + 1))
                n += 1
            n += 1
    return build_tree(edges, {v: 0 for v in range(n)})


def _one_set_shuffled_order(tree, rng):
    """The canonical DFS order, but with the children of one random
    vertex visited in random order."""
    visit = dict(enumerate(sorted_siblings(tree)))
    v = rng.choice([v for v, kids in visit.items() if len(kids) > 1])
    visit[v] = rng.sample(visit[v], len(visit[v]))
    return _dfs_order_visiting(tree, visit)


def test_decode_strict_window_step_agrees_with_re_encode():
    # DFS orders keep the preorder and break sibling order, all over the
    # tree or at one vertex, so on monochrome shapes the verdict comes
    # from the descriptor comparison.
    rng = random.Random(43)
    shapes = [_spider(rng.sample(range(1, 14), rng.randrange(2, 7))) for _ in range(40)]
    shapes += [_comb(rng.randrange(2, 12), rng.randrange(1, 5)) for _ in range(30)]
    shapes += [_caterpillar_tree(rng.randrange(3, 30), rng) for _ in range(30)]
    shapes += [_complete_binary_with_moved_leaf(rng.randrange(3, 7), rng) for _ in range(30)]
    verdicts, reached, tied = Counter(), Counter(), Counter()
    for t in shapes:
        for make_order in (_random_dfs_order, _one_set_shuffled_order) * 3:
            code = encode(t, make_order(t, rng))[0]
            expected = encode_canonical(decode(code))[0] == code
            try:
                accepted = decode(code, strict=True) == decode(code)
            except InvalidCode as exc:
                assert str(exc) == "code does not re-encode to itself"
                accepted = False
            assert accepted is expected
            verdicts[expected] += 1
            pairs, ties = _window_pairs(decode(code))
            reached[expected] += pairs
            tied[expected] += ties
    # Both verdicts occur often.  An accepted code passed every pair of
    # its tree, so over a thousand pairs got past the color and leaf
    # steps, and hundreds tied on their first rows and went on to the
    # wider windows; the rejected codes carry more such pairs.
    assert min(verdicts.values()) > 200
    assert min(reached.values()) > 1000 and min(tied.values()) > 500


def _stored_order_code(edges):
    """The code of the monochrome tree whose ids are its preorder over
    children in ascending id order: decoding it restores those ids."""
    n = len(edges) + 1
    tree = build_tree(edges, {v: 0 for v in range(n)})
    code = encode(tree, _rank_order(range(n)))[0]
    assert decode(code) == tree
    return code


def _strict_verdict(code):
    try:
        decode(code, strict=True)
    except InvalidCode:
        return False
    return True


def _chain(first, length):
    """Edges of a path of ``length`` vertices from id ``first``."""
    return [(v, v + 1) for v in range(first, first + length - 1)]


def test_decode_strict_window_past_the_last_siblings_subtree():
    # Under vertex 1: a (ids 2..6, a leaf and a 3-path) before b (ids
    # 7..9, two leaves).  Their first rows tie, and the window of a's
    # length at b runs past b's subtree: past the last id, or into a
    # 3-leaf star that sorts after vertex 1 under the root.
    a = [(2, 3), (2, 4), *_chain(4, 3)]
    b = [(7, 8), (7, 9)]
    b_first = [(2, 3), (2, 4), (5, 6), (5, 7), *_chain(7, 3)]
    for tail in ([], [(0, 10), (10, 11), (10, 12), (10, 13)]):
        code = _stored_order_code([(0, 1), (1, 2), (1, 7), *a, *b, *tail])
        assert _window_pairs(decode(code)) == (1 + len(tail) // 4, 1)
        assert _strict_verdict(code) is False
        assert encode_canonical(decode(code))[0] != code
        code = _stored_order_code([(0, 1), (1, 2), (1, 5), *b_first, *tail])
        assert _strict_verdict(code) is True
        assert encode_canonical(decode(code))[0] == code
    # A 9-path before a 7-vertex path that forks at its fifth vertex: the
    # rows tie up to the fork, where the 9-path's (0,) goes first, and the
    # window of the 9-path's length runs 2 past the last id.
    fork = [*_chain(10, 5), (14, 15), (14, 16)]
    code = _stored_order_code([(0, 1), *_chain(1, 9), (0, 10), *fork])
    assert _strict_verdict(code) is True
    assert encode_canonical(decode(code))[0] == code
    fork = [*_chain(1, 5), (5, 6), (5, 7)]
    code = _stored_order_code([(0, 1), *fork, (0, 8), *_chain(8, 9)])
    assert _strict_verdict(code) is False
    assert encode_canonical(decode(code))[0] != code


def _dfs_order_visiting(tree, visit):
    """The depth-first preorder visiting the children of each vertex in
    ``visit`` in the given order, and the others in stored order."""
    inverse, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        inverse.append(v)
        stack += reversed(visit.get(v, tree.children[v]))
    return _rank_order(inverse)


def test_decode_strict_accepts_identical_siblings_in_either_stored_order():
    # The root over a 2-path, two copies of a 4-vertex subtree and a
    # 3-leaf star.  The copies tie through their last row; a DFS visiting
    # either copy first gives the canonical code, which strict accepts.
    edges = [(0, 1), (1, 2), (0, 11), (11, 12), (11, 13), (11, 14)]
    for top in (3, 7):
        edges += [(0, top), (top, top + 1), (top + 1, top + 2), (top, top + 3)]
    tree = build_tree(edges, {v: 0 for v in range(15)})
    codes = {
        encode(tree, _dfs_order_visiting(tree, {0: (1, *twins, 11), 3: (6, 4), 7: (10, 8)}))[0]
        for twins in ((3, 7), (7, 3))
    }
    assert codes == {encode_canonical(tree)[0]}
    (code,) = codes
    assert _window_pairs(decode(code)) == (3, 1)
    assert decode(code, strict=True) == decode(code)


def test_strict_check_is_near_linear_on_a_long_comb():
    # A naive check slicing the long spine's whole descriptor at every
    # spine vertex is quadratic here: about 30 times the sort's time.
    tree = decode(encode_canonical(_comb(12000))[0])
    assert tree.n == 60000

    def fastest(check):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            check(tree)
            best = min(best, time.perf_counter() - start)
        return best

    assert is_canonically_labeled(tree)
    assert fastest(is_canonically_labeled) <= 3 * fastest(sorted_siblings)


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
    with pytest.raises(OrderMismatch):
        classical_prufer(path, labels=[True, 0, 2])  # booleans are not labels


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


def _heap_classical(tree, labels):
    """The classical sequence by popping the least-labeled leaf."""
    adjacency = neighbors(tree)
    by_label = {labels[v]: v for v in range(tree.n)}
    heap = [labels[v] for v in range(tree.n) if len(adjacency[v]) == 1]
    heapq.heapify(heap)
    out = []
    for _ in range(tree.n - 2):
        leaf = by_label[heapq.heappop(heap)]
        (neighbor,) = adjacency[leaf]
        out.append(labels[neighbor])
        adjacency[neighbor].discard(leaf)
        if len(adjacency[neighbor]) == 1:
            heapq.heappush(heap, labels[neighbor])
    return out


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
    # the prune scan under any rank bijection; encode under those that
    # rank the root 0, the only ones it accepts
    rng = random.Random(31)
    for t in random_trees(14, 150, 3, seed=32):
        inverse = list(range(t.n))
        rng.shuffle(inverse)  # a rank bijection, mostly not a preorder
        order = _rank_order(inverse)
        parent = t.parent_map()
        left = [len(t.children[v]) for v in order.inverse]
        pruned = _prune_scan(parent, order.phi, order.inverse, left, t.n - 1)
        parents, heap_pruned = _heap_encode(t, order)
        assert [order.phi[parent[v]] for v in pruned] + [None] == parents
        assert pruned + [t.root] == heap_pruned

        order = _random_root_first_order(t, rng)
        code, trace = encode(t, order)
        parents, pruned = _heap_encode(t, order)
        assert list(code.parents) == parents
        assert list(trace.pruned) == pruned
        assert list(code.colors) == [t.colors[v] for v in pruned]


def test_classical_matches_heap_reference_under_random_labels():
    rng = random.Random(34)
    for t in random_trees(14, 200, 1, seed=35):
        if t.n < 2:
            continue
        labels = list(range(t.n))
        rng.shuffle(labels)
        assert classical_prufer(t, labels) == _heap_classical(t, labels)
        assert classical_prufer(t) == _heap_classical(t, range(t.n))


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
