"""Corpus partition, subtree poset, and the most-common-structure query."""

import itertools
import random
from dataclasses import replace

import pytest

from colored_prufer import (
    brute_canonical,
    build_tree,
    decode,
    encode_canonical,
    has_embedding,
    is_subarborescence,
    most_representative,
    partition_by_isomorphism,
    poset_pairs,
    random_trees,
    subtree_search,
)
from colored_prufer.errors import NoEligibleClass
from colored_prufer.matching import SubtreeTable

from golden import automorphic_tree, subtree_host_1, vcpc_build_tree


def _below(classes):
    """The poset as a dict: witness per ``(below, above)`` pair."""
    return {(a, b): w for a, b, w in poset_pairs(classes)}


def test_partition_groups_relabelings():
    corpus = [automorphic_tree(), automorphic_tree(mirrored=True)]
    classes = partition_by_isomorphism(corpus)
    assert len(classes) == 1
    assert classes[0].size == 2
    assert classes[0].member_ids == ("0", "1")


def test_partition_single_tree():
    classes = partition_by_isomorphism([vcpc_build_tree()])
    assert len(classes) == 1 and classes[0].size == 1


def test_partition_matches_brute_grouping():
    trees = random_trees(8, 400, 3, seed=51)
    classes = partition_by_isomorphism(trees)
    by_key: dict = {}
    for position, t in enumerate(trees):
        by_key.setdefault(brute_canonical(t), []).append(t.tree_id or str(position))
    assert len(classes) == len(by_key)
    assert sorted(sorted(c.member_ids) for c in classes) == sorted(
        sorted(v) for v in by_key.values()
    )
    # members of one class share the exact code; distinct classes differ
    for cls in classes:
        ids = set(cls.member_ids)
        members = [t for t in trees if t.tree_id in ids]
        for t in members:
            assert encode_canonical(t)[0] == cls.representative


def test_poset_golden_edge_and_reflexivity():
    classes = partition_by_isomorphism([vcpc_build_tree(), subtree_host_1()])
    below = _below(classes)
    assert (0, 1) in below
    assert (0, 0) in below and (1, 1) in below
    assert (1, 0) not in below
    assert below[(0, 1)] == (2, 5, 6, 8, 9)


def test_poset_matches_pairwise_checks_and_order_invariance():
    trees = random_trees(7, 150, 3, seed=52)
    classes = partition_by_isomorphism(trees)

    reps = {c.class_id: c.representative for c in classes}
    expected = set()
    for a, b in itertools.product(reps, repeat=2):
        if a == b:
            expected.add((a, a))
        elif reps[a].n <= reps[b].n:
            if is_subarborescence(reps[a], reps[b]) is not None:
                expected.add((a, b))
    assert _below(classes).keys() == expected

    shuffled = classes[:]
    random.Random(0).shuffle(shuffled)
    assert _below(shuffled).keys() == expected


def test_poset_matches_unordered_oracle():
    trees = random_trees(7, 120, 3, seed=53)
    classes = partition_by_isomorphism(trees)
    below = _below(classes)
    rep_tree = {c.class_id: decode(c.representative) for c in classes}
    size = {c.class_id: c.representative.n for c in classes}
    for a, b in itertools.product(rep_tree, repeat=2):
        if a == b or size[a] > size[b]:
            continue
        assert ((a, b) in below) == has_embedding(
            rep_tree[a], rep_tree[b], ordered=False
        )


def test_poset_pairs_stream_in_class_id_order():
    classes = partition_by_isomorphism(random_trees(7, 150, 3, seed=52))
    below = _below(classes)
    ids = list(range(len(classes)))
    random.Random(1).shuffle(ids)
    relabeled = [replace(cls, class_id=ids[cls.class_id]) for cls in classes]
    random.Random(2).shuffle(relabeled)
    pairs = list(poset_pairs(relabeled))
    keys = [(a, b) for a, b, _ in pairs]
    assert keys == sorted(set(keys))
    assert {(a, b): w for a, b, w in pairs} == {
        (ids[a], ids[b]): w for (a, b), w in below.items()
    }


def test_duplicate_representatives_are_both_found():
    trees = random_trees(7, 150, 3, seed=52)
    classes = partition_by_isomorphism(trees)
    below = _below(classes)
    new = len(classes)
    for k in (0, 1, 2, len(classes) - 1):
        twin = replace(classes[k], class_id=new, size=5)
        # every pair naming k holds for its twin as well, with k's witness
        expected = {}
        for (a, b), witness in below.items():
            for a2 in (a, new) if a == k else (a,):
                for b2 in (b, new) if b == k else (b,):
                    expected[(a2, b2)] = witness
        assert _below(classes + [twin]) == expected
        # most-common reads trees: a relabeled copy of k's first tree under
        # another id joins k's class instead of making a twin class
        first = trees[[t.tree_id for t in trees].index(classes[k].member_ids[0])]
        copy = _relabelings(first, random.Random(k))[0]
        sizes = {cls.class_id: cls.size + (cls.class_id == k) for cls in classes}
        for max_order in (1, 3, 7):
            counts = {a: 0 for a in sizes if classes[a].representative.n <= max_order}
            for a, b in below:
                if a in counts:
                    counts[a] += sizes[b]
            top = max(counts.values())
            best, count = most_representative(trees + [copy], max_order)
            assert (best.class_id, count) == (min(a for a, v in counts.items() if v == top), top)
            assert best.size == sizes[best.class_id]
            if best.class_id == k:
                assert best.member_ids == classes[k].member_ids + (copy.tree_id,)
    # the same tree under two ids is one class of size 2
    tree = vcpc_build_tree()
    copy = _relabelings(replace(tree, tree_id="a"), random.Random(0))[0]
    best, count = most_representative([replace(tree, tree_id="b"), copy], max_order=5)
    assert (best.class_id, best.member_ids, best.size, count) == (0, ("b", copy.tree_id), 2, 2)


def test_poset_witnesses_along_a_chain_of_nested_stars():
    # every star lies below every larger one, so each pair but the
    # adjacent ones is also implied along the chain
    def star(k):
        return build_tree([(0, i) for i in range(1, k + 1)], {v: 0 for v in range(k + 1)})

    trees = [star(k) for k in range(1, 6)]
    classes = partition_by_isomorphism(trees)
    reps = {c.class_id: c.representative for c in classes}
    for a, b, witness in poset_pairs(classes):
        assert len(witness) == reps[a].n
        assert list(witness) == sorted(witness)
        assert [reps[b].colors[i] for i in witness] == list(reps[a].colors)


def test_poset_closure_is_transitive():
    trees = random_trees(6, 120, 2, seed=54)
    classes = partition_by_isomorphism(trees)
    relation = _below(classes).keys()
    for a, b in relation:
        for c, d in relation:
            if b == c:
                assert (a, d) in relation


def _searched_relation(classes):
    """Reflexive pairs plus every pair where a search finds a witness."""
    reps = {c.class_id: c.representative for c in classes}
    return {
        (a, b)
        for a, b in itertools.product(reps, repeat=2)
        if a == b or subtree_search(reps[a], reps[b]).witness is not None
    }


def _assert_witnesses_keep_colors(classes, below):
    reps = {c.class_id: c.representative for c in classes}
    for (a, b), witness in below.items():
        assert len(set(witness)) == reps[a].n
        assert [reps[b].colors[i] for i in witness] == list(reps[a].colors)


def test_poset_sweep_is_sound_and_complete_on_three_colors():
    classes = partition_by_isomorphism(random_trees(12, 160, 3, seed=57))
    below = _below(classes)
    assert below.keys() == _searched_relation(classes)
    _assert_witnesses_keep_colors(classes, below)


def test_poset_sweep_keeps_repeated_children_apart():
    # colors: the query needs two disjoint copies of the path 1 -> 2; host
    # A has one vertex of color 1 with two children of color 2 (the two
    # paths share their top), host B has two separate copies
    query = build_tree([(0, 1), (1, 2), (0, 3), (3, 4)], {0: 0, 1: 1, 2: 2, 3: 1, 4: 2})
    host_a = build_tree(
        [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5)], {0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3}
    )
    host_b = build_tree(
        [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)], {0: 0, 1: 1, 2: 2, 3: 2, 4: 1, 5: 2}
    )
    twins = build_tree([(0, 1), (0, 2)], {0: 0, 1: 1, 2: 1})
    one_twin = build_tree([(0, 1), (0, 2), (0, 3)], {0: 0, 1: 1, 2: 2, 3: 2})
    classes = partition_by_isomorphism([query, host_a, host_b, twins, one_twin])
    below = _below(classes)
    relation = below.keys()
    assert (0, 1) not in relation and (0, 2) in relation
    assert (3, 4) not in relation and (3, 1) not in relation and (3, 2) in relation
    assert relation == _searched_relation(classes)
    _assert_witnesses_keep_colors(classes, below)


def test_poset_sweep_on_unary_chains_and_below_the_root():
    def path(colors):
        return build_tree([(v, v + 1) for v in range(len(colors) - 1)], dict(enumerate(colors)))

    # [1, 0] and [0, 0, 1] fit only below the host roots; the rest nest
    trees = [path([0] * k) for k in range(1, 6)]
    trees += [path([1, 0]), path([0, 1, 0]), path([0, 0, 1]), path([0, 0, 0, 1])]
    trees.append(build_tree([(0, 1), (1, 2), (1, 3)], {0: 5, 1: 1, 2: 0, 3: 2}))
    classes = partition_by_isomorphism(trees)
    below = _below(classes)
    relation = below.keys()
    assert {(0, 4), (1, 4), (5, 6), (7, 8), (5, 9)} <= relation
    assert (5, 0) not in relation and (7, 6) not in relation
    assert relation == _searched_relation(classes)
    _assert_witnesses_keep_colors(classes, below)


def test_one_shot_stream_gives_the_list_results():
    # the CLI hands both functions its parse generator, which can be read once
    trees = random_trees(8, 200, 3, seed=59)
    trees = [replace(t, tree_id=None) if k % 3 == 0 else t for k, t in enumerate(trees)]
    assert partition_by_isomorphism(iter(trees)) == partition_by_isomorphism(trees)
    for max_order in (1, 4, 8):
        streamed = most_representative((t for t in trees), max_order)
        assert streamed == most_representative(trees, max_order)


def test_most_representative_two_paths():
    # path of three same-colored vertices and its two-vertex sub-path
    p3 = build_tree([(0, 1), (1, 2)], {0: 7, 1: 7, 2: 7})
    p2 = build_tree([(0, 1)], {0: 7, 1: 7})
    best, count = most_representative([p3, p2], max_order=5)
    assert best.representative.n == 2
    assert count == 2
    # order bound 2 leaves the short path as the only eligible class
    best2, count2 = most_representative([p3, p2], max_order=2)
    assert (best2.representative.n, count2) == (2, 2)


def test_most_representative_single_class():
    best, count = most_representative([vcpc_build_tree(), vcpc_build_tree()], max_order=20)
    assert best.class_id == 0
    assert count == 2


def test_most_representative_counts_match_exhaustive():
    trees = random_trees(6, 60, 2, seed=56)
    classes = partition_by_isomorphism(trees)
    best, count = most_representative(trees, max_order=6)
    reps = {c.class_id: c.representative for c in classes}
    sizes = {c.class_id: c.size for c in classes}

    def exhaustive(a):
        total = 0
        for b in reps:
            if a == b:
                total += sizes[a]
            elif reps[a].n <= reps[b].n and is_subarborescence(reps[a], reps[b]):
                total += sizes[b]
        return total

    assert count == exhaustive(best.class_id)
    assert count == max(exhaustive(c.class_id) for c in classes)
    # monotone: anything below another class is at least as common
    for a, b, _ in poset_pairs(classes):
        if a != b:
            assert exhaustive(a) >= exhaustive(b)


def test_most_representative_counts_larger_winners_like_the_oracle():
    # no tree of order 1 or 2, so no single vertex or edge can win
    trees = [t for t in random_trees(8, 160, 3, seed=58) if t.n >= 3]
    classes = partition_by_isomorphism(trees)
    counts = {
        c.class_id: sum(has_embedding(decode(c.representative), t, ordered=False) for t in trees)
        for c in classes
    }
    for max_order in range(3, 9):
        best, count = most_representative(trees, max_order)
        eligible = {k: v for k, v in counts.items() if classes[k].representative.n <= max_order}
        top = max(eligible.values())
        assert (best.class_id, count) == (min(k for k, v in eligible.items() if v == top), top)
        assert best.representative.n >= 3


def test_most_representative_tie_goes_to_smaller_class_id():
    star = build_tree([(0, 1), (0, 2), (0, 3)], {0: 0, 1: 5, 2: 5, 3: 5})
    path = build_tree([(0, 1), (1, 2)], {0: 1, 1: 2, 2: 3})
    mono = build_tree([(0, 1), (1, 2)], {0: 4, 1: 4, 2: 4})
    # both three-vertex paths hang below one root, so each is in two trees
    both = build_tree(
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)],
        {0: 7, 1: 1, 2: 2, 3: 3, 4: 4, 5: 4, 6: 4},
    )
    for first, second in ((path, mono), (mono, path)):
        for max_order in (3, 4, 7):
            best, count = most_representative([star, first, second, both], max_order)
            assert (best.class_id, count) == (1, 2)
            assert best.representative == encode_canonical(first)[0]


def test_most_representative_tie_ignores_list_order():
    # a tie goes to the class whose first tree comes first, whichever that is
    one, two = build_tree([], {0: 1}, tree_id="one"), build_tree([], {0: 2}, tree_id="two")
    for order in ([one, two], [two, one]):
        best, count = most_representative(order, max_order=1)
        assert (best.class_id, best.member_ids, count) == (0, (order[0].tree_id,), 1)
    trees = random_trees(6, 200, 2, seed=59)
    for seed in range(3):
        shuffled = trees[:]
        random.Random(seed).shuffle(shuffled)
        classes, counts = _poset_counts(shuffled)
        for max_order in range(1, 7):
            best, count = most_representative(shuffled, max_order)
            assert (best, count) == _expected_winner(classes, counts, max_order)


def test_most_representative_no_eligible_class():
    with pytest.raises(NoEligibleClass):
        most_representative([vcpc_build_tree()], max_order=4)
    with pytest.raises(NoEligibleClass, match="the corpus has no trees"):
        most_representative([], max_order=4)


def _relabelings(tree, rng):
    """Copies of a tree that store it differently: its vertex ids permuted,
    its ids shifted by 7, and its siblings in other orders; each copy's id
    names the way it was made."""
    edges = [(p, c) for p in range(tree.n) for c in tree.children[p]]
    name = tree.tree_id or "tree"
    perm = list(range(tree.n))
    rng.shuffle(perm)
    permuted = build_tree(
        [(perm[p], perm[c]) for p, c in edges],
        {perm[v]: color for v, color in enumerate(tree.colors)},
        tree_id=f"{name}:permuted",
    )
    shifted = build_tree(
        [(p + 7, c + 7) for p, c in edges],
        {v + 7: color for v, color in enumerate(tree.colors)},
        tree_id=f"{name}:shifted",
    )
    reordered = replace(
        tree,
        children=tuple(tuple(rng.sample(kids, len(kids))) for kids in tree.children),
        tree_id=f"{name}:reordered",
    )
    return [permuted, shifted, reordered]


def test_root_ids_partition_a_corpus_as_codes_do():
    rng = random.Random(61)
    for m, c, seed in ((1, 2, 61), (4, 1, 62), (6, 2, 63), (9, 3, 64), (12, 2, 65), (20, 4, 66)):
        trees = random_trees(m, 60, c, seed=seed)
        corpus = trees + [copy for tree in trees for copy in _relabelings(tree, rng)]
        rng.shuffle(corpus)
        # some trees carry no id, so their members are their positions
        corpus = [replace(t, tree_id=None) if rng.random() < 0.2 else t for t in corpus]
        table = SubtreeTable()
        groups: dict = {}
        for position, tree in enumerate(corpus):
            root = table.intern_tree(tree)[tree.root]
            member = tree.tree_id if tree.tree_id is not None else str(position)
            groups.setdefault(root, []).append(member)
        classes = partition_by_isomorphism(corpus)
        assert [tuple(members) for members in groups.values()] == [
            cls.member_ids for cls in classes
        ]
        # each class's root id is the root id of its code's prune-step tree
        assert list(groups) == [table.intern_code(cls.representative).ids[-1] for cls in classes]


def _poset_counts(trees):
    """The classes of a corpus and, per class, the number of trees that
    contain it, summed over the poset's pairs."""
    classes = partition_by_isomorphism(trees)
    counts = [0] * len(classes)
    for a, b, _ in poset_pairs(classes):
        counts[a] += classes[b].size
    return classes, counts


def _expected_winner(classes, counts, max_order):
    eligible = [cls.class_id for cls in classes if cls.representative.n <= max_order]
    top = max(counts[a] for a in eligible)
    return classes[min(a for a in eligible if counts[a] == top)], top


def test_most_representative_matches_counts_over_the_poset():
    def vertex(color, name):
        return build_tree([], {0: color}, tree_id=name)

    corpora = [
        random_trees(m, n, c, seed=seed)
        for m, n, c, seed in ((3, 40, 2, 71), (5, 80, 1, 72), (7, 120, 3, 73), (10, 90, 2, 74))
    ]
    # single-vertex trees alone: every class ties at its own size
    corpora.append([vertex(color, f"v{k}") for k, color in enumerate([2, 0, 2, 1, 0, 1])])
    # single vertices beside larger trees, and tied pairs of paths
    corpora.append(
        [vertex(3, "lone")]
        + [build_tree([(0, 1), (1, 2)], {0: a, 1: b, 2: a}, tree_id=f"p{a}{b}") for a, b in
           ((0, 1), (1, 0), (0, 1), (1, 0))]
        + random_trees(6, 30, 2, seed=75)
    )
    # no tree of order 1, so order bound 1 has no eligible class
    corpora.append([t for t in random_trees(6, 60, 2, seed=76) if t.n > 1])
    for trees in corpora:
        classes, counts = _poset_counts(trees)
        for max_order in range(1, max(t.n for t in trees) + 1):
            if all(cls.representative.n > max_order for cls in classes):
                with pytest.raises(NoEligibleClass):
                    most_representative(trees, max_order)
                continue
            assert most_representative(trees, max_order) == _expected_winner(
                classes, counts, max_order
            )
