"""Command-line surface: JSONL streams, exit codes, pipe composition."""

import hashlib
import io
import json
import re
import subprocess
import sys

import pytest

from colored_prufer import Vcpc, subtree_search, tree_to_json, write_corpus
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


def test_decode_bad_second_line_names_its_line(cli):
    good = json.dumps({"parents": [0, None], "colors": [0, 1], "n": 2})
    bad = json.dumps({"parents": [0, 0], "colors": [0, 0], "n": 2})
    code, _, err = cli(["decode"], f"{good}\n{bad}\n")
    assert code == 2
    assert err == "error: line 2: terminal sentinel missing from the parents row\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("[0, null]", "expected a JSON object"),
        ('{"parents": 5, "colors": [0], "n": 1}', "parents must be an array"),
        ('{"parents": "ab", "colors": [0, 0], "n": 2}', "parents must be an array"),
        ('{"parents": [null], "colors": "a", "n": 1}', "colors must be an array"),
    ],
    ids=["array", "number", "string", "colors-string"],
)
def test_decode_wrong_json_types_name_the_field_and_line(cli, line, message):
    good = json.dumps({"parents": [0, None], "colors": [0, 1], "n": 2})
    code, out, err = cli(["decode"], f"{good}\n{line}\n")
    assert code == 2 and out.count("\n") == 1
    assert err == f"error: line 2: bad code object: {message}\n"


def test_encode_two_color_keys_for_one_vertex_exit_2(cli):
    good = json.dumps({"edges": [[0, 1]], "colors": {"0": 1, "1": 2}})
    bad = json.dumps({"edges": [[0, 1]], "colors": {"0": 1, "1": 2, " 1": 3}})
    code, out, err = cli(["encode"], f"{good}\n{bad}\n")
    assert code == 2
    assert err == "error: line 2: vertex 1 has two color keys '1' and ' 1'\n"


def test_decode_strict_non_canonical_second_line_names_its_line(cli):
    canonical = json.dumps({"parents": [0, 0, None], "colors": [1, 2, 0], "n": 3})
    swapped = json.dumps({"parents": [0, 0, None], "colors": [2, 1, 0], "n": 3})
    assert cli(["decode", "--strict"], f"{canonical}\n{canonical}\n")[0] == 0
    code, _, err = cli(["decode", "--strict"], f"{canonical}\n\n{swapped}\n")
    assert code == 2
    assert err == "error: line 3: code does not re-encode to itself\n"


# sha256 of each command's output on ``gen --m 30 --n 2000 --c 4 --seed 7``;
# any change to parsing, canonical order or encoding that moves a byte fails.
INGEST_DIGESTS = {
    "gen": "35cbbdaddf06faa1a7d054476af7c95872ae73454d6900da04ea89e92b58cc9d",
    "encode": "3d10bc33ebc83e9d1e09e15645262701ee2c79fbc7577cba10d79af51787a161",
    "canon": "59f9be4f7debe8c5eefc56b097e6806206add43f325c92295c771dc704b96666",
    "iso-classes": "65fad071a2be3ee07b2fdabaa0eb056509cacd6045b2247db88d382b2f8feda6",
    "decode --strict": "42cd752012c4fb81f8f08d3026073e78b19a6ee98aac0986582e1330f749f959",
}


def test_ingest_outputs_match_golden_digests(cli):
    _, corpus, _ = cli(["gen", "--m", "30", "--n", "2000", "--c", "4", "--seed", "7"])
    _, codes, _ = cli(["encode"], corpus)
    outputs = {
        "gen": corpus,
        "encode": codes,
        "canon": cli(["canon"], corpus)[1],
        "iso-classes": cli(["iso-classes"], corpus)[1],
        "decode --strict": cli(["decode", "--strict"], codes)[1],
    }
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()}
    assert digests == INGEST_DIGESTS


# sha256 of ``poset`` and ``most-common --max-order 6`` on two ``gen`` corpora;
# relation pairs, their order and every witness are pinned byte for byte.
POSET_DIGESTS = {
    ("12 500 2 0", "poset"):
        "19eb8ca5b97213581448d9095cff5a5e122d2e24472db4c0ef25266577590572",
    ("12 500 2 0", "most-common"):
        "4df9342722c56a41129e2171954f88a58c319cc6ecbf34475a71b6aae44fd377",
    ("30 300 4 7", "poset"):
        "8e978d5f331af5150ca3b3e717aada6ebcd4216ed61fd13323f7e966b2f5e9d6",
    ("30 300 4 7", "most-common"):
        "34285478ea89323b602a772891051f335df5e085372e0db4a06f92b4c7d550b2",
}

# sha256 of the poset output with every line cut at ',"witness"': the
# relation and its order, which do not depend on how witnesses are found
POSET_PAIR_DIGESTS = {
    "12 500 2 0": "1eacb9b831c79b55ac9b39e23f7b12f54118e83b27f445ca436485f1ae55571e",
    "30 300 4 7": "1505a469a6dac2b09b0dafe43c6d751d487e23bfbcd21b0c843fc46cbf97e625",
}


def test_poset_outputs_match_golden_digests(cli):
    digests = {}
    for spec in ("12 500 2 0", "30 300 4 7"):
        m, n, c, seed = spec.split()
        _, corpus, _ = cli(["gen", "--m", m, "--n", n, "--c", c, "--seed", seed])
        for command in (["poset"], ["most-common", "--max-order", "6"]):
            out = cli(command, corpus)[1]
            digests[(spec, command[0])] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == POSET_DIGESTS


@pytest.mark.parametrize("spec", sorted(POSET_PAIR_DIGESTS))
def test_poset_pairs_keep_their_order_and_witnesses_match_subtree(cli, spec):
    m, n, c, seed = spec.split()
    _, corpus, _ = cli(["gen", "--m", m, "--n", n, "--c", c, "--seed", seed])
    out = cli(["poset"], corpus)[1]
    pairs = re.sub(r',"witness".*', "", out)
    assert hashlib.sha256(pairs.encode()).hexdigest() == POSET_PAIR_DIGESTS[spec]
    reps = [
        Vcpc.from_json(json.loads(line)["code"])
        for line in cli(["iso-classes"], corpus)[1].splitlines()
    ]
    for line in out.splitlines()[:-1]:
        record = json.loads(line)
        a, b = record["below"], record["above"]
        if a != b:
            # the witness `colored-prufer subtree` prints for the two representatives
            assert tuple(record["witness"]) == subtree_search(reps[a], reps[b]).witness


def test_most_common_never_builds_the_poset(cli, monkeypatch):
    from colored_prufer import corpus
    from colored_prufer.matching import SubtreeTable

    def refuse(*args, **kwargs):
        raise AssertionError("most-common must count from the sweep alone")

    monkeypatch.setattr(corpus, "subtree_poset", refuse)
    monkeypatch.setattr(SubtreeTable, "witness", refuse)
    for spec in ("12 500 2 0", "30 300 4 7"):
        m, n, c, seed = spec.split()
        _, text, _ = cli(["gen", "--m", m, "--n", n, "--c", c, "--seed", seed])
        out = cli(["most-common", "--max-order", "6"], text)[1]
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == POSET_DIGESTS[(spec, "most-common")]


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


@pytest.mark.parametrize(
    "args",
    [
        ["poset", "--cap", "2"],
        ["poset", "--strict-poset"],
        ["most-common", "--cap", "2"],
        ["subtree", "q", "h", "--cap", "2"],
        ["subtree-undirected", "q", "h", "--cap", "2"],
        ["bench", "--m", "2", "--n", "1", "--c", "1", "--cap", "2"],
    ],
)
def test_removed_cap_flags_are_usage_errors(cli, args):
    with pytest.raises(SystemExit) as exc:
        cli(args)
    assert exc.value.code == 2


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
    assert "pairs_skipped" not in report["oracle"]


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
    good = json.dumps({"parents": [0, None], "colors": [1, 0], "n": 2})
    for n in (True, 1.9, "1", 2.0):
        line = json.dumps({"parents": [0, None], "colors": [1, 0], "n": n})
        code, _, err = cli(["decode"], good + "\n" + line + "\n")
        assert code == 2 and err.startswith("error: line 2: ")
    table = tmp_path / "colors.json"
    table.write_text('{"blue": true}')
    line = '{"edges": [], "colors": {"0": "blue"}}\n'
    code, _, err = cli(["encode", "-", "--color-table", str(table)], line)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("command, paths", [("encode", 1), ("decode", 1), ("subtree", 2)])
def test_non_utf8_input_exit_2(cli, tmp_path, command, paths):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'\xff\xfe{"edges": [], "colors": {"0": 1}}\n')
    code, out, err = cli([command] + [str(bad)] * paths)
    assert code == 2 and out == ""
    assert err.startswith("error: input is not valid UTF-8") and err.count("\n") == 1


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "command, where",
    [("encode", "input"), ("encode", "color-table"), ("decode", "input")],
)
def test_deeply_nested_json_exit_2(cli, tmp_path, command, where):
    path = tmp_path / "deep.json"
    path.write_text(DEEP + "\n")
    if where == "color-table":
        args = [command, "-", "--color-table", str(path)]
        stdin = '{"edges": [], "colors": {"0": 1}}\n'
    else:
        args, stdin = [command, str(path)], ""
    code, out, err = cli(args, stdin)
    assert code == 2 and out == ""
    assert err == "error: line 1: JSON nested too deeply\n"


def test_poset_workers_accepted_and_ignored(cli):
    text = corpus_text([vcpc_build_tree(), subtree_host_1(), subtree_host_2()])
    _, expected, _ = cli(["poset"], text)
    assert cli(["poset", "--workers", "3"], text)[1] == expected
    with pytest.raises(SystemExit) as exc:
        cli(["poset", "--workers", "0"], text)
    assert exc.value.code == 2


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "colored_prufer", "gen", "--m", "2", "--n", "1",
         "--c", "1", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["colors"]
