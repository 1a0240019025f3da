"""Batch command-line surface over JSONL streams.

Commands read trees (or codes) one JSON object per line from a path or
stdin and write one JSON object per line to stdout, :data:`BATCH` lines
at a time.  Every input is read as bytes by :func:`_input_lines` and
decoded as UTF-8 line by line in :mod:`colored_prufer.trees`, so after
any input error, a byte that is not UTF-8 included, every line before
the bad one has been written.  Exit codes: 0 success, 2 input error,
4 empty query result.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
import time
from contextlib import nullcontext
from itertools import chain, islice
from typing import Iterable, Iterator

from . import corpus as corpus_mod
from . import oracle
from .canonical import full_ld_array
from .codec import Vcpc, decode, encode_canonical
from .errors import ColoredPruferError, InvalidCode, NoEligibleClass
from .matching import subtree_search, undirected_subtree
from .trees import (
    ColoredArborescence,
    iter_corpus,
    iter_json_lines,
    json_line,
    load_color_table,
    tree_line,
    write_corpus,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 4

# Lines read, computed and written at a time: parsing a batch before using
# it runs about 10 % faster than switching between the two per small tree.
BATCH = 256


def _emit(obj) -> None:
    sys.stdout.write(json_line(obj) + "\n")


def _input_lines(path: str) -> Iterator[bytes]:
    """The lines of the file at ``path``, or of stdin for ``-``, as bytes
    without their ends.  Lines end where text mode ends them: at LF, CRLF
    and a lone CR."""
    with nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fp:
        # each LF-ended chunk, split at the CRs it may hold
        yield from chain.from_iterable(map(bytes.splitlines, fp))


def _batches(items: Iterable) -> Iterator[list]:
    """The items in order, in lists of up to :data:`BATCH`.  When reading
    raises, the items read before the fault come first as a list of their
    own, so the caller can write every line before the bad one."""
    items = iter(items)
    while True:
        batch = []
        try:
            batch.extend(islice(items, BATCH))  # keeps what it read if it raises
        except Exception:
            if batch:
                yield batch
            raise
        if not batch:
            return
        yield batch


def _read_trees(args) -> Iterator[list[ColoredArborescence]]:
    """The input's trees in batches."""
    path = args.color_table
    table = load_color_table(b"\n".join(_input_lines(path))) if path else None
    yield from _batches(iter_corpus(_input_lines(args.input), table))


def _each_tree(args) -> Iterator[ColoredArborescence]:
    """The input's trees one by one, read in batches."""
    return chain.from_iterable(_read_trees(args))


def _read_single_tree(path: str) -> ColoredArborescence:
    trees = list(iter_corpus(_input_lines(path)))
    if len(trees) != 1:
        raise InvalidCode(f"{path}: expected exactly one tree, found {len(trees)}")
    return trees[0]


# --- commands ------------------------------------------------------------


def cmd_canon(args) -> int:
    write = sys.stdout.write
    for batch in _read_trees(args):
        # tuples encode as arrays
        write("".join([json_line(full_ld_array(tree)) + "\n" for tree in batch]))
    return EXIT_OK


def cmd_encode(args) -> int:
    write = sys.stdout.write
    for batch in _read_trees(args):
        write("".join([json_line(encode_canonical(tree)[0].to_json()) + "\n" for tree in batch]))
    return EXIT_OK


def cmd_decode(args) -> int:
    position = 0
    for batch in _batches(iter_json_lines(_input_lines(args.input))):
        lines = []
        try:
            for line_no, parsed in batch:
                try:
                    tree = decode(Vcpc.from_json(parsed), strict=args.strict)
                except InvalidCode as exc:
                    raise InvalidCode(f"line {line_no}: {exc}") from exc
                lines.append(tree_line(tree, f"t{position}"))
                position += 1
        finally:  # the lines decoded before a faulty code are written too
            sys.stdout.write("".join(lines))
    return EXIT_OK


def cmd_iso_classes(args) -> int:
    classes = corpus_mod.partition_by_isomorphism(_each_tree(args))
    for cls in classes:
        _emit(
            {
                "class_id": cls.class_id,
                "code": cls.representative.to_json(),
                "members": list(cls.member_ids),
                "size": cls.size,
            }
        )
    return EXIT_OK


def cmd_poset(args) -> int:
    classes = corpus_mod.partition_by_isomorphism(_each_tree(args))
    # Every field is an int, so the preformatted line is the JSON encoding.
    write = sys.stdout.write
    for a, b, witness in corpus_mod.poset_pairs(classes):
        write('{"below":%d,"above":%d,"witness":[%s]}\n' % (a, b, ",".join(map(str, witness))))
    # The sweep leaves no pair undecided; the trailer stays part of the output format.
    _emit({"unknown_pairs": []})
    return EXIT_OK


def cmd_most_common(args) -> int:
    try:
        best, count = corpus_mod.most_representative(_each_tree(args), args.max_order)
    except NoEligibleClass as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    _emit(
        {
            "class_id": best.class_id,
            "code": best.representative.to_json(),
            "size": best.size,
            "count": count,
        }
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    params = oracle.GenParams(m=args.m, N=args.n, C=args.c, seed=args.seed)
    write_corpus(oracle.random_corpus(params), sys.stdout)
    return EXIT_OK


def cmd_subtree(args) -> int:
    small, large = map(_read_single_tree, (args.query, args.host))
    result = subtree_search(encode_canonical(small)[0], encode_canonical(large)[0])
    _emit(
        {
            "is_subtree": result.witness is not None,
            "witness": list(result.witness) if result.witness else None,
            "candidates_examined": result.candidates_examined,
        }
    )
    return EXIT_OK


def cmd_subtree_undirected(args) -> int:
    small, large = map(_read_single_tree, (args.query, args.host))
    _emit({"is_subtree": undirected_subtree(small, large)})
    return EXIT_OK


def cmd_bench(args) -> int:
    params = oracle.GenParams(m=args.m, N=args.n, C=args.c, seed=args.seed)
    trees = oracle.random_corpus(params)
    report = {"params": {"m": args.m, "N": args.n, "C": args.c, "seed": args.seed}}

    t0 = time.perf_counter()
    classes = corpus_mod.partition_by_isomorphism(trees)
    t1 = time.perf_counter()
    code_relation = {(a, b) for a, b, _ in corpus_mod.poset_pairs(classes)}
    t2 = time.perf_counter()

    oracle_classes: dict[tuple, list[int]] = {}
    for position, tree in enumerate(trees):
        oracle_classes.setdefault(oracle.brute_canonical(tree), []).append(position)
    t3 = time.perf_counter()

    rep_tree = {cls.class_id: decode(cls.representative) for cls in classes}
    ids = sorted(rep_tree)
    oracle_relation = {(a, a) for a in ids}
    pairs_checked = 0
    for a in ids:
        for b in ids:
            if rep_tree[a].n < rep_tree[b].n:
                pairs_checked += 1
                if oracle.has_embedding(rep_tree[a], rep_tree[b], ordered=False):
                    oracle_relation.add((a, b))
    t4 = time.perf_counter()

    vcpc_members = sorted(sorted(cls.member_ids) for cls in classes)
    oracle_members = sorted(
        sorted(corpus_mod.member_name(trees[i], i) for i in group)
        for group in oracle_classes.values()
    )

    report["vcpc"] = {
        "partition_s": round(t1 - t0, 4),
        "poset_s": round(t2 - t1, 4),
        "relation_size": len(code_relation),
    }
    report["oracle"] = {
        "partition_s": round(t3 - t2, 4),
        "poset_s": round(t4 - t3, 4),
        "relation_size": len(oracle_relation),
        "pairs_checked": pairs_checked,
    }
    report["class_count"] = len(classes)
    report["partitions_equal"] = vcpc_members == oracle_members
    report["posets_equal"] = code_relation == oracle_relation
    _emit(report)
    return EXIT_OK


# --- argument parsing ------------------------------------------------------


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "input", nargs="?", default="-", help="JSONL path, or - for stdin"
    )
    parser.add_argument(
        "--color-table",
        help="JSON file mapping color names to integers, for named colors",
    )


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and then shared: parsing does
    not change it."""
    parser = argparse.ArgumentParser(
        prog="colored-prufer",
        description="Canonical codes for vertex-colored arborescences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="full canonical descriptor per tree")
    _add_input(p)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("encode", help="canonical code per tree")
    _add_input(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="tree per code")
    p.add_argument("input", nargs="?", default="-", help="JSONL path, or - for stdin")
    p.add_argument("--strict", action="store_true", help="reject codes that are not canonical")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("iso-classes", help="isomorphism classes of a corpus")
    _add_input(p)
    p.set_defaults(func=cmd_iso_classes)

    p = sub.add_parser("poset", help="subtree partial order between classes")
    _add_input(p)
    p.add_argument("--workers", type=_positive, default=1, help="accepted and ignored")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("most-common", help="structure contained in most trees")
    _add_input(p)
    p.add_argument("--max-order", type=_positive, default=20)
    p.set_defaults(func=cmd_most_common)

    p = sub.add_parser("gen", help="seeded random corpus")
    p.add_argument("--m", type=_positive, required=True, help="max vertex count")
    p.add_argument("--n", type=_positive, required=True, help="number of trees")
    p.add_argument("--c", type=_positive, required=True, help="color count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("subtree", help="is tree A a sub-arborescence of tree B")
    p.add_argument("query", help="JSONL path, or - for stdin")
    p.add_argument("host", help="JSONL path, or - for stdin")
    p.set_defaults(func=cmd_subtree)

    p = sub.add_parser(
        "subtree-undirected", help="is tree A an undirected subtree of tree B"
    )
    p.add_argument("query", help="JSONL path, or - for stdin")
    p.add_argument("host", help="JSONL path, or - for stdin")
    p.set_defaults(func=cmd_subtree_undirected)

    p = sub.add_parser("bench", help="compare code path against oracle path")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--c", type=_positive, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    # No command leaves reference cycles (tests/test_cli.py runs each with
    # the collector off), so the cyclic collector is paused for the
    # command; the caller's setting is restored on exit.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ColoredPruferError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
