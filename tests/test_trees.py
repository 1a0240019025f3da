"""Tree construction, validation and the JSONL corpus format."""

import io
import json
import random
import re
from dataclasses import replace

import pytest

from colored_prufer import (
    build_tree,
    iter_corpus,
    load_color_table,
    tree_to_json,
    write_corpus,
)
from colored_prufer.trees import json_line, tree_line
from colored_prufer.errors import (
    ColoredPruferError,
    CycleDetected,
    DisconnectedVertex,
    DuplicateEdge,
    MissingColor,
    MultipleRoots,
    ParseError,
    ValidationError,
)
from colored_prufer.oracle import random_trees

from golden import neighbors


def test_build_infers_root_and_normalizes():
    t = build_tree([(7, 3), (7, 9)], {7: 2, 3: 2, 9: 0})
    assert t.n == 3
    assert t.source_ids == (3, 7, 9)
    assert t.root == 1  # original id 7
    assert t.colors == (2, 2, 0)
    assert t.children[1] == (0, 2)


def test_build_single_vertex():
    t = build_tree([], {0: 5})
    assert (t.n, t.root, t.colors, t.children) == (1, 0, (5,), ((),))


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
    assert build_tree(iter(edges), colors) == reference  # any iterable of edges


def test_structural_invariants_on_random_trees():
    for t in random_trees(9, 60, 3, seed=2):
        parent = t.parent_map()
        assert parent[t.root] is None
        assert sum(1 for p in parent if p is not None) == t.n - 1
        assert len(t.bfs_order()) == t.n
        pruning_leaf = {v for v in range(t.n) if not t.children[v]}
        assert pruning_leaf
        # undirected leaves are the pruning leaves plus, when it has a
        # single child, the root (which is never eligible for pruning)
        undirected_leaf = {v for v, adjacent in enumerate(neighbors(t)) if len(adjacent) <= 1}
        expected = pruning_leaf | ({t.root} if len(t.children[t.root]) == 1 else set())
        assert undirected_leaf == expected


# --- corpus format ---------------------------------------------------------


def test_parse_corpus_roundtrip():
    trees = random_trees(6, 8, 3, seed=4)
    buffer = io.StringIO()
    write_corpus(trees, buffer)
    parsed = list(iter_corpus(io.StringIO(buffer.getvalue())))
    assert parsed == trees
    assert [p.tree_id for p in parsed] == [t.tree_id for t in trees]


def test_parse_corpus_single_line_and_empty():
    line = json.dumps({"id": "a", "edges": [[0, 1]], "colors": {"0": 1, "1": 2}})
    assert len(list(iter_corpus(io.StringIO(line + "\n")))) == 1
    assert list(iter_corpus(io.StringIO(""))) == []


def test_parse_corpus_missing_colors_is_parse_error():
    with pytest.raises(ParseError) as err:
        list(iter_corpus(io.StringIO('{"edges": [[0, 1]]}\n')))
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
        list(iter_corpus(io.StringIO(f"{good}\n{bad}\n")))
    assert err.value.line == 2
    assert str(err.value) == f"line 2: vertex 1 has two color keys {keys}"


def test_parse_corpus_validation_error_carries_line_and_cause():
    lines = [
        json.dumps({"edges": [[0, 1]], "colors": {"0": 1, "1": 2}}),
        json.dumps({"edges": [[0, 1], [1, 0]], "colors": {"0": 1, "1": 2}}),
    ]
    with pytest.raises(ValidationError) as err:
        list(iter_corpus(io.StringIO("\n".join(lines))))
    assert err.value.line == 2
    assert isinstance(err.value.cause, CycleDetected)


def test_parse_corpus_color_table():
    line = json.dumps(
        {"edges": [[0, 1]], "colors": {"0": "blue", "1": "red"}}
    )
    [t] = iter_corpus(io.StringIO(line), color_table={"blue": 0, "red": 2})
    assert t.colors == (0, 2)
    with pytest.raises(ParseError):
        list(iter_corpus(io.StringIO(line), color_table={"blue": 0}))


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
        list(iter_corpus(io.StringIO(json.dumps(obj))))


def test_load_color_table_rejects_booleans_and_bad_json():
    assert load_color_table('{"blue": 0}') == load_color_table(b'{"blue": 0}') == {"blue": 0}
    for text in ('{"blue": true}', '{"blue": -1}', "[0]", "{nope"):
        with pytest.raises(ParseError):
            load_color_table(text)
    with pytest.raises(ParseError, match=r"^line 2: not valid UTF-8 \("):
        load_color_table(b'{"blue": 0,\n"r\xffed": 1}')


def test_parse_corpus_bytes_and_root_check():
    obj = {"root": 0, "edges": [[0, 1]], "colors": {"0": 1, "1": 1}}
    raw = (json.dumps(obj) + "\n").encode()
    [t] = iter_corpus(io.BytesIO(raw))
    assert t.root == 0
    obj["root"] = 1
    with pytest.raises(ValidationError):
        list(iter_corpus(io.StringIO(json.dumps(obj))))
    # a line that is not UTF-8 is a parse error at its number
    with pytest.raises(ParseError, match=r"^line 2: not valid UTF-8 \("):
        list(iter_corpus(io.BytesIO(raw + b"\xff" + raw)))


def test_tree_json_shape():
    t = build_tree([(0, 1)], {0: 0, 1: 1}, tree_id="x")
    obj = tree_to_json(t)
    assert obj == {"id": "x", "root": 0, "edges": [[0, 1]], "colors": {"0": 0, "1": 1}}


@pytest.mark.parametrize(
    "tree_id", ["", "t0", 'say "hi"', "back\\slash\\", "é ☃ 𝄞", "tab\tnew\nline\u0000"]
)
def test_tree_line_is_the_json_line_of_the_tree(tree_id):
    single = build_tree([], {0: 7}, tree_id=tree_id)  # no edges
    # two-digit vertex ids, and a color past 64 bits
    wide = build_tree(
        [(v // 3, v) for v in range(1, 40)],
        {v: 10**20 if v == 17 else v % 4 for v in range(40)},
        tree_id=tree_id,
    )
    for tree in [single, wide, *random_trees(14, 20, 3, seed=5)]:
        tree = replace(tree, tree_id=tree_id)
        assert tree_line(tree, tree_id) == json_line(tree_to_json(tree)) + "\n"


# --- the corpus reader and build_tree: one scan for every id ---------------


def _line_variants(tree, rng):
    """Corpus objects of one tree, each with the ``build_tree`` arguments
    that describe it: ids permuted within 0..n-1, color keys shuffled, ids
    shifted by 1000, edges shuffled, and no ``root`` or no ``id`` (an empty
    ``id`` is read as none)."""
    perm = list(range(tree.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(tree.n) for v in tree.children[u]]
    colors = {perm[v]: c for v, c in enumerate(tree.colors)}
    root = perm[tree.root]
    for shift in (0, 1000):
        for shuffle_keys, shuffle_edges, keys in [
            (False, False, ("id", "root")),
            (True, False, ("id", "root")),
            (False, True, ("id",)),
            (True, True, ("root",)),
            (False, False, ("blank-id",)),
        ]:
            es = [(u + shift, v + shift) for u, v in edges]
            if shuffle_edges:
                rng.shuffle(es)
            vs = sorted(colors)
            if shuffle_keys:
                rng.shuffle(vs)
            obj = {"edges": [list(e) for e in es], "colors": {str(v + shift): colors[v] for v in vs}}
            args = {"edges": es, "colors": {v + shift: colors[v] for v in vs}}
            if "root" in keys:
                obj["root"] = args["root"] = root + shift
            if "id" in keys:
                obj["id"] = args["tree_id"] = tree.tree_id
            if "blank-id" in keys:
                obj["id"] = ""
            yield obj, args


def _fields(tree):
    return (tree.n, tree.root, tree.children, tree.colors, tree.tree_id, tree.source_ids)


def test_iter_corpus_matches_build_tree_on_random_corpora():
    rng = random.Random(19)
    single = build_tree([], {0: 3}, tree_id="single")
    for trees in (random_trees(14, 60, 3, seed=8), random_trees(40, 15, 2, seed=9), [single]):
        objs, expected = [], []
        for tree in trees:
            for obj, args in _line_variants(tree, rng):
                objs.append(obj)
                expected.append(build_tree(**args))
        text = "".join(json.dumps(obj) + "\n" for obj in objs)
        assert [_fields(t) for t in iter_corpus(io.StringIO(text))] == [
            _fields(t) for t in expected
        ]


def test_iter_corpus_indexes_ids_0_to_n_minus_1_without_relabeling(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the ids were relabeled")

    rng = random.Random(6)
    trees = random_trees(12, 30, 3, seed=6)
    lines = []
    for tree in trees:
        obj = tree_to_json(tree)
        keys = list(obj["colors"])
        rng.shuffle(keys)
        obj["colors"] = {key: obj["colors"][key] for key in keys}
        lines.append(json.dumps(obj))
    monkeypatch.setattr("colored_prufer.trees._relabel", fail)
    assert [_fields(t) for t in iter_corpus(lines)] == [_fields(t) for t in trees]
    edges = [(u, v) for u in range(trees[0].n) for v in trees[0].children[u]]
    assert build_tree(edges, dict(enumerate(trees[0].colors))) == trees[0]
    # shifted ids go through the relabel step, which this test has disabled
    shifted = json.dumps({"edges": [[1, 2]], "colors": {"1": 0, "2": 0}})
    with pytest.raises(AssertionError, match="relabeled"):
        list(iter_corpus(io.StringIO(shifted)))


def _mutate(obj, ids, rng):
    """Apply one random fault-prone edit to a corpus object whose tree has
    the vertex ids ``ids``: drop an edge, repeat one, insert a self-loop,
    move an edge's parent, drop a color, or add a color for an id that no
    edge names."""
    edges, colors = obj["edges"], obj["colors"]
    edits = ["self-loop", "drop-color", "add-color"]
    if edges:
        edits += ["drop-edge", "repeat-edge", "move-parent"]
    edit = rng.choice(edits)
    if edit == "self-loop":
        v = rng.choice(ids)
        edges.insert(rng.randrange(len(edges) + 1), [v, v])
    elif edit == "drop-color":
        colors.pop(str(rng.choice(ids)), None)
    elif edit == "add-color":
        colors[str(ids[-1] + 1 + rng.randrange(3))] = rng.randrange(2)
    elif edit == "drop-edge":
        del edges[rng.randrange(len(edges))]
    elif edit == "repeat-edge":
        edges.insert(rng.randrange(len(edges) + 1), list(rng.choice(edges)))
    else:
        i = rng.randrange(len(edges))
        edges[i] = [rng.choice(ids), edges[i][1]]


def test_iter_corpus_matches_build_tree_on_random_faults():
    rng = random.Random(4)
    outcomes = []
    for tree in random_trees(12, 400, 2, seed=4):
        for shift in (0, 1000):
            obj = {
                "id": tree.tree_id,
                "root": tree.root + shift,
                "edges": [[u + shift, v + shift] for u in range(tree.n) for v in tree.children[u]],
                "colors": {str(v + shift): c for v, c in enumerate(tree.colors)},
            }
            for _ in range(rng.randint(1, 2)):
                _mutate(obj, range(shift, shift + tree.n), rng)
            args = (
                [tuple(e) for e in obj["edges"]],
                {int(v): c for v, c in obj["colors"].items()},
                obj["root"],
                obj["id"],
            )
            try:
                expected = build_tree(*args)
            except ColoredPruferError as exc:
                with pytest.raises(ValidationError) as err:
                    list(iter_corpus([json.dumps(obj)]))
                cause = err.value.cause
                assert (type(cause), str(cause)) == (type(exc), str(exc)), obj
                outcomes.append(type(exc).__name__)
            else:
                [parsed] = iter_corpus([json.dumps(obj)])
                assert _fields(parsed) == _fields(expected), obj
                outcomes.append("tree")
    # every fault the edits can make shows up, and so do trees
    assert set(outcomes) == {
        "tree", "CycleDetected", "DisconnectedVertex", "DuplicateEdge",
        "MissingColor", "MultipleRoots",
    }


_C3 = {"0": 0, "1": 1, "2": 2}
_C4 = {"0": 0, "1": 1, "2": 2, "3": 3}


@pytest.mark.parametrize(
    "obj, error, cause, message",
    [
        ({"edges": [[0, True]], "colors": {"0": 0, "1": 0}},
         ParseError, None, "bad edge entry [0, True]"),
        ({"edges": [[0, 1]], "colors": {"0": 0, "1": False}},
         ParseError, None, "bad color False for vertex 1"),
        ({"root": True, "edges": [[0, 1]], "colors": {"0": 0, "1": 0}},
         ParseError, None, '"root" must be an integer'),
        ({"edges": [[0, 1], [0, 3]], "colors": _C3},
         ValidationError, DisconnectedVertex, "vertex 2 has no incident edges"),
        ({"edges": [[0, 1], [1, 2], [2, 3]], "colors": _C3},
         ValidationError, MissingColor, "vertex 3 has no color"),
        ({"edges": [[0, 1], [3, 2]], "colors": _C3},
         ValidationError, MultipleRoots, "vertices [0, 3] all have in-degree 0"),
        ({"edges": [[0, 1], [-2, 2]], "colors": _C3},
         ValidationError, MultipleRoots, "vertices [-2, 0] all have in-degree 0"),
        ({"edges": [[0, 1], [1, -1]], "colors": _C3},
         ValidationError, DisconnectedVertex, "vertex 2 has no incident edges"),
        ({"edges": [[0, 1], [1, 2], [2, 0]], "colors": _C3},
         ValidationError, CycleDetected,
         "no vertex has in-degree 0; the edges contain a cycle"),
        ({"edges": [[0, 1], [0, 2], [1, 2]], "colors": _C3},
         ValidationError, DuplicateEdge, "vertex 2 has two in-edges (0, 2) and (1, 2)"),
        ({"edges": [[0, 1], [2, 2]], "colors": _C3},
         ValidationError, CycleDetected, "self-loop on vertex 2"),
        ({"edges": [[0, 1], [0, 2], [0, 1]], "colors": _C3},
         ValidationError, DuplicateEdge, "edge (0, 1) appears twice"),
        ({"edges": [[0, 1], [0, 1]], "colors": _C3},
         ValidationError, DuplicateEdge, "edge (0, 1) appears twice"),
        ({"edges": [[0, 2], [1, 2]], "colors": _C3},
         ValidationError, DuplicateEdge, "vertex 2 has two in-edges (0, 2) and (1, 2)"),
        ({"edges": [[1, 2], [0, 2]], "colors": _C3},
         ValidationError, DuplicateEdge, "vertex 2 has two in-edges (1, 2) and (0, 2)"),
        ({"edges": [[0, 1], [0, 2], [1, 2]], "colors": _C4},
         ValidationError, DuplicateEdge, "vertex 2 has two in-edges (0, 2) and (1, 2)"),
        ({"edges": [[0, 1], [2, 3]], "colors": _C4},
         ValidationError, MultipleRoots, "vertices [0, 2] all have in-degree 0"),
        ({"edges": [[0, 1], [2, 3], [3, 2]], "colors": _C4},
         ValidationError, CycleDetected, "vertex 2 is not reachable from the root"),
        ({"root": 1, "edges": [[0, 1], [0, 2]], "colors": _C3},
         ValidationError, MultipleRoots, "declared root 1 differs from inferred root 0"),
        ({"edges": [[0, 1]], "colors": {"0": 1, "1": 2, " 1": 3}},
         ParseError, None, "vertex 1 has two color keys '1' and ' 1'"),
        ({"edges": [[0, 1]], "colors": {"0": 1, "01": 2, "1": 3}},
         ParseError, None, "vertex 1 has two color keys '01' and '1'"),
        ({"edges": [[0, 1]], "colors": {"0": 0, "1": -1}},
         ParseError, None, "bad color -1 for vertex 1"),
        ({"edges": [[0, 1]]}, ParseError, None, 'missing "colors" key'),
        ({}, ParseError, None, 'missing "colors" key'),
    ],
    ids=[
        "bool-edge",
        "bool-color",
        "bool-root",
        "endpoint-out-of-range",
        "endpoint-without-color",
        "parent-out-of-range",
        "negative-parent",
        "negative-child",
        "edge-too-many-cycle",
        "edge-too-many-second-parent",
        "self-loop",
        "edge-twice",
        "edge-twice-within-count",
        "second-parent",
        "second-parent-reversed",
        "second-parent-within-count",
        "two-roots",
        "unreachable-cycle",
        "declared-root",
        "space-key",
        "leading-zero-key",
        "negative-color",
        "missing-colors",
        "empty-object",
    ],
)
def test_iter_corpus_fault_table(obj, error, cause, message):
    good = json.dumps({"id": "ok", "edges": [[0, 1]], "colors": {"0": 0, "1": 1}})
    with pytest.raises(ColoredPruferError) as err:
        list(iter_corpus(io.StringIO(f"{good}\n{json.dumps(obj)}\n")))
    assert type(err.value) is error
    assert err.value.line == 2
    assert type(getattr(err.value, "cause", None)) is (cause or type(None))
    assert str(err.value) == f"line 2: {message}"


# the rows of the table above, read from its mark so that they are written once
_FAULT_TABLE = test_iter_corpus_fault_table.pytestmark[0]


def _shift_ids(message):
    """``message`` with every vertex id in it shifted by 1000; the literal
    "in-degree 0" is not an id."""
    parts = message.split("in-degree 0")
    parts = [re.sub(r"-?\d+", lambda m: str(int(m.group()) + 1000), p) for p in parts]
    return "in-degree 0".join(parts)


@pytest.mark.parametrize(
    "obj, error, cause, message",
    [row for row in _FAULT_TABLE.args[1] if row[1] is ValidationError],
    ids=[
        name
        for name, row in zip(_FAULT_TABLE.kwargs["ids"], _FAULT_TABLE.args[1])
        if row[1] is ValidationError
    ],
)
def test_iter_corpus_fault_table_on_shifted_ids(obj, error, cause, message):
    shifted = {
        "edges": [[p + 1000, c + 1000] for p, c in obj["edges"]],
        "colors": {str(int(v) + 1000): c for v, c in obj["colors"].items()},
    }
    if "root" in obj:
        shifted["root"] = obj["root"] + 1000
    good = json.dumps({"id": "ok", "edges": [[0, 1]], "colors": {"0": 0, "1": 1}})
    with pytest.raises(ColoredPruferError) as err:
        list(iter_corpus(io.StringIO(f"{good}\n{json.dumps(shifted)}\n")))
    assert type(err.value) is error
    assert err.value.line == 2
    assert type(err.value.cause) is cause
    assert str(err.value) == f"line 2: {_shift_ids(message)}"
