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


def test_build_cycle_detected():
    with pytest.raises(CycleDetected):
        build_tree([(0, 1), (1, 0)], {0: 0, 1: 0})
    with pytest.raises(CycleDetected):
        build_tree([(0, 0)], {0: 0})
    # cycle hanging off a valid root
    with pytest.raises(CycleDetected):
        build_tree([(0, 1), (2, 3), (3, 2)], {v: 0 for v in range(4)})


def test_build_multiple_roots():
    with pytest.raises(MultipleRoots):
        build_tree([(0, 1), (2, 3)], {v: 0 for v in range(4)})
    with pytest.raises(MultipleRoots):
        build_tree([(0, 1)], {0: 0, 1: 0}, root=1)


def test_build_disconnected_vertex():
    with pytest.raises(DisconnectedVertex):
        build_tree([(0, 1)], {0: 0, 1: 0, 5: 1})


def test_build_missing_color():
    with pytest.raises(MissingColor):
        build_tree([(0, 1), (0, 2)], {0: 0, 1: 1})


def test_build_duplicate_edge_and_double_parent():
    with pytest.raises(DuplicateEdge):
        build_tree([(0, 1), (0, 1)], {0: 0, 1: 0})
    with pytest.raises(DuplicateEdge):
        build_tree([(0, 2), (1, 2)], {0: 0, 1: 0, 2: 0})


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
