"""Tree construction, validation and the JSONL corpus format."""

import io
import json
import random

import pytest

from colored_prufer import (
    build_tree,
    leaves,
    load_color_table,
    parse_corpus,
    tree_to_json,
    write_corpus,
)
from colored_prufer.errors import (
    CycleDetected,
    DisconnectedVertex,
    DuplicateEdge,
    MissingColor,
    MultipleRoots,
    ParseError,
    ValidationError,
)
from colored_prufer.oracle import random_trees


def test_build_infers_root_and_normalizes():
    t = build_tree([(7, 3), (7, 9)], {7: 2, 3: 2, 9: 0})
    assert t.n == 3
    assert t.source_ids == (3, 7, 9)
    assert t.root == 1  # original id 7
    assert t.colors == (2, 2, 0)
    assert t.children[1] == (0, 2)


def test_build_single_vertex():
    t = build_tree([], {0: 5})
    assert (t.n, t.root, t.colors) == (1, 0, (5,))
    assert leaves(t) == {0}


def _build_error(edges, colors, root=None):
    """Class and message of the error ``build_tree`` raises for the input."""
    with pytest.raises(Exception) as err:
        build_tree(edges, colors, root=root)
    return type(err.value), str(err.value)


def test_build_cycle_detected():
    assert _build_error([(0, 1), (1, 0)], {0: 0, 1: 0}) == (
        CycleDetected,
        "no vertex has in-degree 0; the edges contain a cycle",
    )
    assert _build_error([(0, 0)], {0: 0}) == (CycleDetected, "self-loop on vertex 0")
    assert _build_error([(0, 1), (1, 1)], {0: 0, 1: 0}) == (
        CycleDetected,
        "self-loop on vertex 1",
    )
    # cycle hanging off a valid root
    assert _build_error([(0, 1), (2, 3), (3, 2)], {v: 0 for v in range(4)}) == (
        CycleDetected,
        "vertex 2 is not reachable from the root",
    )


def test_build_multiple_roots():
    assert _build_error([(0, 1), (2, 3)], {v: 0 for v in range(4)}) == (
        MultipleRoots,
        "vertices [0, 2] all have in-degree 0",
    )
    assert _build_error([(0, 1)], {0: 0, 1: 0}, root=1) == (
        MultipleRoots,
        "declared root 1 differs from inferred root 0",
    )


def test_build_disconnected_vertex():
    assert _build_error([(0, 1)], {0: 0, 1: 0, 5: 1}) == (
        DisconnectedVertex,
        "vertex 5 has no incident edges",
    )
    assert _build_error([], {}) == (
        DisconnectedVertex,
        "empty tree: no vertices supplied",
    )


def test_build_missing_color():
    assert _build_error([(0, 1), (0, 2)], {0: 0, 1: 1}) == (
        MissingColor,
        "vertex 2 has no color",
    )
    assert _build_error([(0, 1), (0, 2)], {0: 0, 1: -1, 2: -2}) == (
        MissingColor,
        "vertex 1 has negative color -1",
    )


def test_build_duplicate_edge_and_double_parent():
    assert _build_error([(0, 1), (0, 1)], {0: 0, 1: 0}) == (
        DuplicateEdge,
        "edge (0, 1) appears twice",
    )
    assert _build_error([(0, 1), (0, 2), (0, 1)], {0: 0, 1: 0, 2: 0}) == (
        DuplicateEdge,
        "edge (0, 1) appears twice",
    )
    assert _build_error([(0, 2), (1, 2)], {0: 0, 1: 0, 2: 0}) == (
        DuplicateEdge,
        "vertex 2 has two in-edges (0, 2) and (1, 2)",
    )


@pytest.mark.parametrize(
    "edges, colors, root, expected",
    [
        # edge faults are reported in edge-list order
        ([(0, 1), (0, 1), (2, 2)], {0: 0, 1: 0, 2: 0}, None,
         (DuplicateEdge, "edge (0, 1) appears twice")),
        ([(2, 2), (0, 1), (0, 1)], {0: 0, 1: 0, 2: 0}, None,
         (CycleDetected, "self-loop on vertex 2")),
        # a second parent names the first in-edge as it was spelled
        ([(0, 1), (2, 1.0)], {0: 0, 1: 0, 2: 0}, None,
         (DuplicateEdge, "vertex 1.0 has two in-edges (0, 1) and (2, 1.0)")),
        ([(0, 1.0), (2, 1)], {0: 0, 1: 0, 2: 0}, None,
         (DuplicateEdge, "vertex 1 has two in-edges (0, 1.0) and (2, 1)")),
        # an isolated vertex comes before the root count, smallest id first
        ([(0, 1), (2, 3)], dict.fromkeys([0, 1, 2, 3, 9, 7], 0), None,
         (DisconnectedVertex, "vertex 7 has no incident edges")),
        # the root count comes before colors
        ([(0, 1), (2, 3)], {0: 0}, None,
         (MultipleRoots, "vertices [0, 2] all have in-degree 0")),
        # the declared root comes before reachability
        ([(0, 1), (2, 3), (3, 2)], {v: 0 for v in range(4)}, 2,
         (MultipleRoots, "declared root 2 differs from inferred root 0")),
        # reachability comes before colors
        ([(0, 1), (2, 3), (3, 2)], {0: 0}, None,
         (CycleDetected, "vertex 2 is not reachable from the root")),
        # a missing color comes before a negative one, wherever they sit
        ([(0, 1), (0, 2)], {0: -1, 1: 0}, None,
         (MissingColor, "vertex 2 has no color")),
        # every color is coerced with int() before any is checked for sign
        ([(0, 1)], {0: "x", 1: -1}, None,
         (ValueError, "invalid literal for int() with base 10: 'x'")),
    ],
    ids=[
        "duplicate-before-self-loop",
        "self-loop-before-duplicate",
        "second-parent-int-then-float",
        "second-parent-float-then-int",
        "isolated-before-multiple-roots",
        "multiple-roots-before-missing-color",
        "declared-root-before-unreachable",
        "unreachable-before-missing-color",
        "missing-before-negative-color",
        "coercion-before-negative-color",
    ],
)
def test_build_check_order_on_several_faults(edges, colors, root, expected):
    assert _build_error(edges, colors, root=root) == expected


def test_build_shifted_ids_and_shuffled_edges_match_dense_build():
    rng = random.Random(11)
    for t in random_trees(12, 40, 3, seed=5):
        edges = [(u, v) for u in range(t.n) for v in t.children[u]]
        colors = dict(enumerate(t.colors))
        dense = build_tree(edges, colors)
        rng.shuffle(edges)
        shifted = build_tree(
            [(u + 1000, v + 1000) for u, v in edges],
            {v + 1000: c for v, c in colors.items()},
        )
        for built in (dense, shifted, build_tree(edges, colors)):
            assert (built.n, built.root, built.children, built.colors) == (
                t.n, t.root, t.children, t.colors,
            )
        assert dense.source_ids == tuple(range(t.n))
        assert shifted.source_ids == tuple(range(1000, 1000 + t.n))


def test_build_coerces_colors_and_ids_to_int():
    t = build_tree([(0, 1)], {0: 2.0, 1: True})
    assert t.colors == (2, 1)
    assert [type(c) for c in t.colors] == [int, int]
    # ids equal to 0..n-1 but not of type int still come out as ints
    for edges, colors in [([(0.0, 1.0)], {0: 0, 1: 0}), ([(0, 1)], {False: 0, True: 0})]:
        t = build_tree(edges, colors)
        assert (t.root, t.children) == (0, ((1,), ()))
        assert {type(v) for v in (t.root, *t.children[0])} == {int}


def test_build_edge_order_independent():
    edges = [(0, 1), (0, 2), (2, 3), (2, 4)]
    colors = {0: 2, 1: 0, 2: 0, 3: 1, 4: 3}
    reference = build_tree(edges, colors)
    rng = random.Random(3)
    for _ in range(10):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        assert build_tree(shuffled, colors) == reference


def test_leaves_shapes():
    path = build_tree([(0, 1), (1, 2)], {0: 0, 1: 0, 2: 0})
    assert leaves(path) == {2}
    star = build_tree([(0, 1), (0, 2), (0, 3)], {v: 0 for v in range(4)})
    assert leaves(star) == {1, 2, 3}


def test_structural_invariants_on_random_trees():
    for t in random_trees(9, 60, 3, seed=2):
        parent = t.parent_map()
        assert parent[t.root] is None
        assert sum(1 for p in parent if p is not None) == t.n - 1
        assert len(t.bfs_order()) == t.n
        assert leaves(t)
        # undirected leaves are the pruning leaves plus, when it has a
        # single child, the root (which is never eligible for pruning)
        undirected_leaf = {
            v for v in range(t.n) if len(t.undirected_adjacency()[v]) <= 1
        }
        expected = leaves(t) | ({t.root} if len(t.children[t.root]) == 1 else set())
        assert undirected_leaf == expected


# --- corpus format ---------------------------------------------------------


def test_parse_corpus_roundtrip():
    trees = random_trees(6, 8, 3, seed=4)
    buffer = io.StringIO()
    write_corpus(trees, buffer)
    parsed = parse_corpus(io.StringIO(buffer.getvalue()))
    assert parsed == trees
    assert [p.tree_id for p in parsed] == [t.tree_id for t in trees]


def test_parse_corpus_single_line_and_empty():
    line = json.dumps({"id": "a", "edges": [[0, 1]], "colors": {"0": 1, "1": 2}})
    assert len(parse_corpus(io.StringIO(line + "\n"))) == 1
    assert parse_corpus(io.StringIO("")) == []


def test_parse_corpus_missing_colors_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_corpus(io.StringIO('{"edges": [[0, 1]]}\n'))
    assert err.value.line == 1


@pytest.mark.parametrize(
    "colors, keys",
    [
        ({"0": 1, "1": 2, " 1": 3}, "'1' and ' 1'"),
        ({"0": 1, "01": 2, "1": 3}, "'01' and '1'"),
    ],
    ids=["space", "leading-zero"],
)
def test_parse_corpus_rejects_two_color_keys_for_one_vertex(colors, keys):
    good = json.dumps({"edges": [[0, 1]], "colors": {"0": 1, "1": 2}})
    bad = json.dumps({"edges": [[0, 1]], "colors": colors})
    with pytest.raises(ParseError) as err:
        parse_corpus(io.StringIO(f"{good}\n{bad}\n"))
    assert err.value.line == 2
    assert str(err.value) == f"line 2: vertex 1 has two color keys {keys}"


def test_parse_corpus_validation_error_carries_line_and_cause():
    lines = [
        json.dumps({"edges": [[0, 1]], "colors": {"0": 1, "1": 2}}),
        json.dumps({"edges": [[0, 1], [1, 0]], "colors": {"0": 1, "1": 2}}),
    ]
    with pytest.raises(ValidationError) as err:
        parse_corpus(io.StringIO("\n".join(lines)))
    assert err.value.line == 2
    assert isinstance(err.value.cause, CycleDetected)


def test_parse_corpus_color_table():
    line = json.dumps(
        {"edges": [[0, 1]], "colors": {"0": "blue", "1": "red"}}
    )
    [t] = parse_corpus(io.StringIO(line), color_table={"blue": 0, "red": 2})
    assert t.colors == (0, 2)
    with pytest.raises(ParseError):
        parse_corpus(io.StringIO(line), color_table={"blue": 0})


@pytest.mark.parametrize(
    "obj",
    [
        {"edges": [[0, True]], "colors": {"0": 0, "1": 0}},
        {"edges": [[0, 1]], "colors": {"0": 0, "1": False}},
        {"root": False, "edges": [[0, 1]], "colors": {"0": 0, "1": 0}},
    ],
    ids=["edge", "color", "root"],
)
def test_parse_corpus_rejects_json_booleans_as_integers(obj):
    with pytest.raises(ParseError):
        parse_corpus(io.StringIO(json.dumps(obj)))


def test_load_color_table_rejects_booleans_and_bad_json():
    assert load_color_table(io.StringIO('{"blue": 0}')) == {"blue": 0}
    for text in ('{"blue": true}', '{"blue": -1}', "[0]", "{nope"):
        with pytest.raises(ParseError):
            load_color_table(io.StringIO(text))


def test_parse_corpus_bytes_and_root_check():
    obj = {"root": 0, "edges": [[0, 1]], "colors": {"0": 1, "1": 1}}
    raw = (json.dumps(obj) + "\n").encode()
    [t] = parse_corpus(io.BytesIO(raw))
    assert t.root == 0
    obj["root"] = 1
    with pytest.raises(ValidationError):
        parse_corpus(io.StringIO(json.dumps(obj)))


def test_tree_json_shape():
    t = build_tree([(0, 1)], {0: 0, 1: 1}, tree_id="x")
    obj = tree_to_json(t)
    assert obj == {"id": "x", "root": 0, "edges": [[0, 1]], "colors": {"0": 0, "1": 1}}
