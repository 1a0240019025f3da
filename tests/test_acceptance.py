"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines inline.  Containment verdicts conform to the unordered backtracking
oracle.
"""

import itertools
import json
import time

from colored_prufer import (
    brute_canonical,
    canonicalize,
    classical_prufer,
    code_adjacent,
    decode,
    encode_canonical,
    full_ld_array,
    has_embedding,
    is_subarborescence,
    most_representative,
    partition_by_isomorphism,
    poset_pairs,
    prufer_to_edges,
    random_trees,
    reconstruct,
)
from colored_prufer.cli import main

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
    incident_host,
    incident_query,
    subtree_host_1,
    subtree_host_2,
    subtree_query_3,
    vcpc_build_tree,
)


def _verdict(number: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_1_golden_codes():
    start = time.perf_counter()
    expected = [
        (vcpc_build_tree(), VCPC_BUILD_PARENTS, VCPC_BUILD_COLORS),
        (automorphic_tree(), AUTOMORPHIC_PARENTS, AUTOMORPHIC_COLORS),
        (automorphic_tree(mirrored=True), AUTOMORPHIC_PARENTS, AUTOMORPHIC_COLORS),
        (subtree_host_1(), SUBTREE_HOST_1_PARENTS, SUBTREE_HOST_1_COLORS),
        (subtree_host_2(), SUBTREE_HOST_2_PARENTS, SUBTREE_HOST_2_COLORS),
        (subtree_query_3(), SUBTREE_QUERY_3_PARENTS, SUBTREE_QUERY_3_COLORS),
    ]
    for tree, parents, colors in expected:
        code, _ = encode_canonical(tree)
        assert code.parents == parents
        assert code.colors == colors
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _verdict(1, elapsed, f"{len(expected)} golden codes reproduced exactly")


def test_criterion_2_classical_sequence_and_inversion():
    start = time.perf_counter()
    assert classical_prufer(classical_tree()) == CLASSICAL_SEQUENCE
    attach, _, last = prufer_to_edges(CLASSICAL_SEQUENCE, 7)
    rebuilt = {frozenset(e) for e in attach} | {frozenset(last)}
    assert rebuilt == CLASSICAL_EDGES
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _verdict(2, elapsed, "sequence [4,4,1,4,4] and its inversion match")


def test_criterion_3_subtree_verdicts():
    start = time.perf_counter()
    query, _ = encode_canonical(vcpc_build_tree())
    host1, _ = encode_canonical(subtree_host_1())
    host2, _ = encode_canonical(subtree_host_2())
    query3, _ = encode_canonical(subtree_query_3())
    mot_query, _ = encode_canonical(incident_query())
    mot_host, _ = encode_canonical(incident_host())
    assert is_subarborescence(query, host1) is not None
    assert is_subarborescence(query, host2) is not None
    assert is_subarborescence(query3, host2) is None
    assert is_subarborescence(mot_query, mot_host) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _verdict(3, elapsed, "two witnesses found, two rejections confirmed")


def test_criterion_4_isomorphism_partition_matches_oracle():
    start = time.perf_counter()
    trees = random_trees(12, 1000, 7, seed=4242)
    classes = partition_by_isomorphism(trees)
    grouped: dict = {}
    for position, tree in enumerate(trees):
        grouped.setdefault(brute_canonical(tree), []).append(
            tree.tree_id or str(position)
        )
    code_partition = sorted(sorted(c.member_ids) for c in classes)
    oracle_partition = sorted(sorted(v) for v in grouped.values())
    assert code_partition == oracle_partition
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _verdict(4, elapsed, f"{len(classes)} classes identical in both partitions")


def test_criterion_5_round_trips():
    start = time.perf_counter()
    trees = random_trees(12, 1000, 7, seed=5252)
    for tree in trees:
        canonical = canonicalize(tree)
        code, _ = encode_canonical(tree)
        assert decode(code) == canonical
        rebuilt = reconstruct(full_ld_array(tree))
        assert rebuilt == canonical
        assert brute_canonical(rebuilt) == brute_canonical(tree)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _verdict(5, elapsed, "1000 decode and reconstruct round trips exact")


def test_criterion_6_adjacency_recovery():
    start = time.perf_counter()
    trees = random_trees(12, 500, 7, seed=6262)
    pairs_checked = 0
    for tree in trees:
        code, trace = encode_canonical(tree)
        n = tree.n
        step = {v: i for i, v in enumerate(trace.pruned)}
        edges = {(step[trace.parent_of[i]], i) for i in range(n - 1)}
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                pairs_checked += 1
                assert code_adjacent(code, i, j) == ((j, i) in edges)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _verdict(6, elapsed, f"{pairs_checked} index pairs agree with the prune trace")


def test_criterion_7_subtree_poset_matches_unordered_oracle():
    start = time.perf_counter()
    trees = random_trees(8, 200, 4, seed=7272)
    classes = partition_by_isomorphism(trees)
    relation = {(a, b) for a, b, _ in poset_pairs(classes)}

    rep_tree = {c.class_id: decode(c.representative) for c in classes}
    size = {c.class_id: c.representative.n for c in classes}
    checked = 0
    for a, b in itertools.product(rep_tree, repeat=2):
        if a == b or size[a] > size[b]:
            continue
        checked += 1
        expected = has_embedding(rep_tree[a], rep_tree[b], ordered=False)
        assert ((a, b) in relation) == expected, (a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _verdict(7, elapsed, f"{checked} poset verdicts equal the unordered oracle")


def test_criterion_8_benchmark_verdict_matrices(capsys):
    start = time.perf_counter()
    exit_code = main(["bench", "--m", "8", "--n", "1000", "--c", "4", "--seed", "8282"])
    out = capsys.readouterr().out
    assert exit_code == 0
    report = json.loads(out)
    assert report["partitions_equal"] is True
    assert report["posets_equal"] is True
    # the oracle decides every pair of a smaller class below a larger one
    assert report["oracle"]["pairs_checked"] == 209_023
    assert "pairs_skipped" not in report["oracle"]
    assert report["vcpc"]["poset_s"] > 0 and report["oracle"]["poset_s"] > 0
    ratio = report["oracle"]["poset_s"] / report["vcpc"]["poset_s"]
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        elapsed,
        f"identical matrices over {report['class_count']} classes; "
        f"informational poset time ratio {ratio:.2f}",
    )


def test_criterion_9_most_representative_matches_exhaustive_count():
    start = time.perf_counter()
    trees = random_trees(8, 50, 3, seed=9292)
    best, count = most_representative(trees, max_order=20)
    classes = partition_by_isomorphism(trees)

    rep_tree = {c.class_id: decode(c.representative) for c in classes}

    def oracle_count(class_id: int) -> int:
        return sum(
            1 for t in trees if has_embedding(rep_tree[class_id], t, ordered=False)
        )

    counts = {c.class_id: oracle_count(c.class_id) for c in classes}
    assert count == counts[best.class_id]
    assert count == max(counts.values())
    winners = [cid for cid, c in counts.items() if c == count]
    assert best.class_id == min(winners)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _verdict(
        9,
        elapsed,
        f"most common structure contains {count} of {len(trees)} trees, "
        "matching the exhaustive count",
    )
