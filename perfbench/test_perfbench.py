"""Self-tests of the benchmark: generators, references and checks.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
The package under test serves only as a second opinion here.
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from colored_prufer import (  # noqa: E402
    brute_canonical,
    build_tree,
    decode,
    encode_canonical,
    full_ld_array,
    has_embedding,
    is_subarborescence,
)


def package_tree(tree: gen.Tree):
    return build_tree(
        [(p, v) for v, p in enumerate(tree.parent) if p is not None],
        dict(enumerate(tree.colors)),
    )


def rerooted(tree: gen.Tree, root: int) -> gen.Tree:
    """The same colored tree rooted at ``root`` (labels 0 and root swap)."""

    def swap(v: int) -> int:
        return root if v == 0 else 0 if v == root else v

    edges = [(swap(p), swap(v)) for v, p in enumerate(tree.parent) if p is not None]
    return gen.from_undirected(tree.n, edges, [tree.colors[swap(v)] for v in range(tree.n)])


@pytest.mark.parametrize(
    "make",
    [
        lambda s: workloads.bulk_batches(s)[0],
        workloads.deep_batches,
        workloads.poset_corpus,
        lambda s: [(q["query"], q["host"]) for q in workloads.focus_queries(s)],
    ],
)
def test_generators_repeat_for_one_seed_and_differ_across_seeds(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_shape_generators():
    rng = random.Random(0)
    assert gen.path(4).parent == (None, 0, 1, 2)
    assert gen.spider(3, 2).n == 7 and gen.spider(3, 2).children()[0] == [1, 3, 5]
    assert gen.spider(5, 1).children()[0] == [1, 2, 3, 4, 5]
    for tree in (gen.caterpillar(rng, 50, 2), gen.deep_random(rng, 50, 2), gen.random_tree(rng, 50, 3)):
        assert tree.n == 50 and tree.parent[0] is None
        assert all(p is not None and p < tree.n for p in tree.parent[1:])
        package_tree(tree)  # validates: one root, no cycle


# Host: root (color 0) with a child of color 1 and a child of color 2.
# Canonical ranks follow (color, descriptor); the code prunes rank 1, then
# rank 2, then the root.
STAR_HOST = ((0, 0, None), (1, 2, 0))
# Host: the path 0 (color 0) -> 1 (color 1) -> 2 (color 2).
PATH_HOST = ((1, 0, None), (2, 1, 0))
# Query: root (color 0) with one child of color 2.
QUERY = ((0, None), (2, 0))


def test_hand_made_codes_are_the_package_codes():
    star = build_tree([(0, 1), (0, 2)], {0: 0, 1: 1, 2: 2})
    path = build_tree([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2})
    query = build_tree([(0, 1)], {0: 0, 1: 2})
    for tree, (parents, colors) in ((star, STAR_HOST), (path, PATH_HOST), (query, QUERY)):
        code, _ = encode_canonical(tree)
        assert code.parents == parents and code.colors == colors


def test_witness_validator_accepts_valid_witness():
    assert ref.witness_ok(QUERY, STAR_HOST, (1, 2))


@pytest.mark.parametrize(
    "host, witness",
    [
        (STAR_HOST, (0, 2)),  # the child lands on a vertex of color 1
        (STAR_HOST, (1, 1)),  # not injective
        (STAR_HOST, (1,)),  # too short
        (STAR_HOST, (1, 3)),  # out of range
        (PATH_HOST, (0, 2)),  # colors match, but the image is no edge
    ],
)
def test_witness_validator_rejects_invalid_witnesses(host, witness):
    assert not ref.witness_ok(QUERY, host, witness)


def test_witness_validator_accepts_package_witnesses():
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        small = package_tree(gen.random_tree(rng, rng.randint(1, 6), 2))
        large = package_tree(gen.random_tree(rng, rng.randint(6, 14), 2))
        qc, hc = encode_canonical(small)[0], encode_canonical(large)[0]
        witness = is_subarborescence(qc, hc)
        if witness is not None:
            checked += 1
            assert ref.witness_ok((qc.parents, qc.colors), (hc.parents, hc.colors), witness)
    assert checked > 50


@pytest.mark.parametrize("k1, l1, k2, l2", [(k1, l1, k2, l2) for k1 in (1, 2, 3) for l1 in (1, 2, 3) for k2 in (1, 3, 4) for l2 in (1, 2, 3)])
def test_spider_closed_form(k1, l1, k2, l2):
    small, large = gen.spider(k1, l1), gen.spider(k2, l2)
    interner = ref.Interner()
    expected = ref.spider_in_spider(k1, l1, k2, l2)
    assert interner.contains(interner.key(small), interner.vertex_ids(large)) == expected
    assert has_embedding(package_tree(small), package_tree(large), ordered=False) == expected


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 7) for b in range(1, 7)])
def test_path_closed_form(a, b):
    interner = ref.Interner()
    expected = ref.path_in_path(a, b)
    assert interner.contains(interner.key(gen.path(a)), interner.vertex_ids(gen.path(b))) == expected
    assert has_embedding(package_tree(gen.path(a)), package_tree(gen.path(b)), ordered=False) == expected


def test_containment_reference_matches_backtracking_oracle():
    rng = random.Random(11)
    interner = ref.Interner()
    outcomes = set()
    for _ in range(400):
        small = gen.random_tree(rng, rng.randint(1, 7), 2)
        large = gen.random_tree(rng, rng.randint(4, 12), 2)
        got = interner.contains(interner.key(small), interner.vertex_ids(large))
        assert got == has_embedding(package_tree(small), package_tree(large), ordered=False)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_undirected_reference_matches_all_rootings_oracle():
    rng = random.Random(12)
    interner = ref.Interner()
    for _ in range(60):
        small = gen.random_tree(rng, rng.randint(1, 5), 2)
        large = gen.random_tree(rng, rng.randint(3, 9), 2)
        expected = any(
            has_embedding(package_tree(small), package_tree(rerooted(large, r)), ordered=False)
            for r in range(large.n)
        )
        assert ref.undirected_contains(interner, small, large) == expected


def test_keys_group_like_brute_canonical():
    trees = gen.random_corpus(2, 400, 6, 2)
    interner = ref.Interner()
    ours = [interner.key(t) for t in trees]
    theirs = [brute_canonical(package_tree(t)) for t in trees]
    for i in range(len(trees)):
        for j in range(i):
            assert (ours[i] == ours[j]) == (theirs[i] == theirs[j])


def test_code_and_descriptor_decoders_round_trip():
    interner = ref.Interner()
    rng = random.Random(3)
    for tree in [gen.random_tree(rng, rng.randint(1, 20), 3) for _ in range(100)] + [gen.path(30)]:
        key = interner.key(tree)
        code, _ = encode_canonical(package_tree(tree))
        decoded, pruned = ref.code_steps(code.parents, code.colors)
        assert interner.key(decoded) == key
        assert decoded == gen.Tree(decode(code).parent_map(), decode(code).colors)
        assert pruned[-1] == 0 and sorted(pruned) == list(range(tree.n))
        assert interner.key(ref.descriptor_tree(full_ld_array(package_tree(tree)))) == key


def test_code_decoder_rejects_malformed_rows():
    for parents, colors in [((0, 0), (1, 1)), ((5, None), (1, 1)), ((1, 0, None, None), (0, 0, 0, 0))]:
        with pytest.raises(ValueError):
            ref.code_steps(parents, colors)


def test_tally_counts_failures_and_unsound_results_apart():
    tally = checks.Tally()
    tally.verdict(True, True)
    tally.verdict(False, True)
    tally.verdict(True, False)
    tally.verdict(False, None)
    tally.op("RecursionError")
    assert tally.attempted == 5
    assert tally.failed == {"false negative": 1, "unreferenced": 1, "RecursionError": 1}
    assert tally.unsound == {"false positive": 1}
    assert tally.checks == {"false_negatives": 1, "false_positives": 1, "bad_witnesses": 0, "unreferenced": 1}
