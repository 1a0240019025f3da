"""Command-line surface: JSONL streams, exit codes, pipe composition."""

import io
import json
import subprocess
import sys

import pytest

from colored_prufer import tree_to_json, write_corpus
from colored_prufer.cli import main

from golden import (
    subtree_host_1,
    subtree_host_2,
    subtree_query_3,
    vcpc_build_tree,
)


def run_cli(args, stdin_text="", capsys=None, monkeypatch=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_text(trees) -> str:
    buffer = io.StringIO()
    write_corpus(trees, buffer)
    return buffer.getvalue()


@pytest.fixture
def cli(capsys, monkeypatch):
    def invoke(args, stdin_text=""):
        return run_cli(args, stdin_text, capsys=capsys, monkeypatch=monkeypatch)

    return invoke


def test_canon_single_vertex_and_golden_tree(cli):
    text = corpus_text([vcpc_build_tree()])
    code, out, _ = cli(["canon"], '{"edges": [], "colors": {"0": 6}}\n')
    assert code == 0
    assert json.loads(out) == [[6], []]
    code, out, _ = cli(["canon"], text)
    assert json.loads(out) == [[2], [0, 0], [], [1, 3], [], []]


def test_canon_empty_input(cli):
    code, out, _ = cli(["canon"], "")
    assert code == 0 and out == ""


def test_canon_bad_input_exit_2(cli):
    code, _, err = cli(["canon"], "{nope\n")
    assert code == 2 and "error" in err


def test_encode_golden_tree(cli):
    code, out, _ = cli(["encode"], corpus_text([vcpc_build_tree()]))
    assert code == 0
    assert json.loads(out) == {
        "parents": [0, 2, 2, 0, None],
        "colors": [0, 1, 3, 0, 2],
        "n": 5,
    }


def test_encode_decode_pipeline_byte_stable(cli):
    gen_code, corpus, _ = cli(["gen", "--m", "6", "--n", "25", "--c", "3", "--seed", "1"])
    assert gen_code == 0
    _, encoded, _ = cli(["encode"], corpus)
    _, decoded, _ = cli(["decode"], encoded)
    _, reencoded, _ = cli(["decode", "--strict"], encoded)
    assert decoded == reencoded
    _, encoded_again, _ = cli(["encode"], decoded)
    assert encoded_again == encoded


def test_decode_corrupted_sentinel_exit_2(cli):
    bad = json.dumps({"parents": [None, 0, None], "colors": [0, 0, 0], "n": 3})
    code, _, err = cli(["decode"], bad + "\n")
    assert code == 2 and "error" in err


def test_gen_deterministic(cli):
    _, first, _ = cli(["gen", "--m", "5", "--n", "10", "--c", "2", "--seed", "3"])
    _, second, _ = cli(["gen", "--m", "5", "--n", "10", "--c", "2", "--seed", "3"])
    assert first == second


def test_iso_classes_two_copies(cli):
    tree = vcpc_build_tree()
    text = corpus_text([tree, tree])
    code, out, _ = cli(["iso-classes"], text)
    assert code == 0
    [record] = [json.loads(line) for line in out.splitlines()]
    assert record["size"] == 2 and record["class_id"] == 0


def test_poset_golden_edge(cli):
    text = corpus_text([vcpc_build_tree(), subtree_host_1()])
    code, out, _ = cli(["poset"], text)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    trailer = records[-1]
    assert trailer == {"unknown_pairs": []}
    edges = {(r["below"], r["above"]) for r in records[:-1]}
    assert edges == {(0, 0), (1, 1), (0, 1)}


def test_poset_strict_with_unknown_pairs_exit_3(cli):
    wide = '{"edges": %s, "colors": %s}\n' % (
        json.dumps([[0, i] for i in range(1, 10)]),
        json.dumps({str(v): 0 for v in range(10)}),
    )
    small = '{"edges": [[0, 1], [0, 2]], "colors": {"0": 0, "1": 0, "2": 0}}\n'
    code, out, _ = cli(["poset", "--strict-poset", "--cap", "2"], small + wide)
    assert code == 3
    trailer = json.loads(out.splitlines()[-1])
    assert trailer["unknown_pairs"] == [[0, 1]]


def test_most_common_and_empty_result(cli):
    p3 = '{"edges": [[0,1],[1,2]], "colors": {"0":7,"1":7,"2":7}}\n'
    p2 = '{"edges": [[0,1]], "colors": {"0":7,"1":7}}\n'
    code, out, _ = cli(["most-common"], p3 + p2)
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 2 and record["code"]["n"] == 2
    code, _, err = cli(["most-common", "--max-order", "1"], p3 + p2)
    assert code == 4 and "error" in err


def test_subtree_files(cli, tmp_path):
    query = tmp_path / "query.jsonl"
    host = tmp_path / "host.jsonl"
    query.write_text(json.dumps(tree_to_json(vcpc_build_tree())) + "\n")
    host.write_text(json.dumps(tree_to_json(subtree_host_1())) + "\n")
    code, out, _ = cli(["subtree", str(query), str(host)])
    assert code == 0
    record = json.loads(out)
    assert record["is_subtree"] is True
    assert record["witness"] == [2, 5, 6, 8, 9]
    assert record["candidates_examined"] >= 1

    code, out, _ = cli(["subtree", str(host), str(query)])
    assert json.loads(out)["is_subtree"] is False

    host.write_text("")
    assert cli(["subtree", str(query), str(host)])[0] == 2


def test_subtree_undirected_files(cli, tmp_path):
    # golden pair: not a sub-arborescence, yet an undirected subtree
    query = tmp_path / "q.jsonl"
    host = tmp_path / "h.jsonl"
    query.write_text(json.dumps(tree_to_json(subtree_query_3())) + "\n")
    host.write_text(json.dumps(tree_to_json(subtree_host_2())) + "\n")
    code, out, _ = cli(["subtree", str(query), str(host)])
    assert code == 0
    assert json.loads(out)["is_subtree"] is False
    code, out, _ = cli(["subtree-undirected", str(query), str(host)])
    assert code == 0
    assert json.loads(out) == {"is_subtree": True}


def test_bench_small_report(cli):
    code, out, _ = cli(
        ["bench", "--m", "5", "--n", "40", "--c", "3", "--seed", "2"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["partitions_equal"] is True
    assert report["posets_equal"] is True
    assert report["vcpc"]["relation_size"] == report["oracle"]["relation_size"]
    assert report["class_count"] >= 1


def test_bench_deterministic(cli):
    args = ["bench", "--m", "4", "--n", "25", "--c", "2", "--seed", "8"]
    _, first, _ = cli(args)
    _, second, _ = cli(args)
    a, b = json.loads(first), json.loads(second)
    for key in ("class_count", "partitions_equal", "posets_equal"):
        assert a[key] == b[key]
    assert a["vcpc"]["relation_size"] == b["vcpc"]["relation_size"]


def test_color_table_flag(cli, tmp_path):
    table = tmp_path / "colors.json"
    table.write_text('{"blue": 0, "red": 2}')
    line = '{"edges": [[0,1]], "colors": {"0": "red", "1": "blue"}}\n'
    code, out, _ = cli(["encode", "-", "--color-table", str(table)], line)
    assert code == 0
    assert json.loads(out)["colors"] == [0, 2]


def test_json_booleans_exit_2(cli, tmp_path):
    code, _, err = cli(["encode"], '{"edges": [[0,1]], "colors": {"0": 0, "1": true}}\n')
    assert code == 2 and "error" in err
    bad = json.dumps({"parents": [False, None], "colors": [0, 0], "n": 2})
    code, _, err = cli(["decode"], bad + "\n")
    assert code == 2 and "error" in err
    table = tmp_path / "colors.json"
    table.write_text('{"blue": true}')
    line = '{"edges": [], "colors": {"0": "blue"}}\n'
    code, _, err = cli(["encode", "-", "--color-table", str(table)], line)
    assert code == 2 and "error" in err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "colored_prufer", "gen", "--m", "2", "--n", "1",
         "--c", "1", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["colors"]
