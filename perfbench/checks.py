"""Checks of the package's outputs against the reference answers.

Every operation is counted as attempted.  A wrong verdict the package can
still be excused for (a false negative, a capped or failed call) counts as
failed; an unsound result (a false positive, a bad witness, a wrong
partition or round trip) also makes the run incorrect.
"""

from __future__ import annotations

import json
from pathlib import Path

import reference as ref
from measure import MOST_COMMON_MAX_ORDER


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.unsound: dict[str, int] = {}
        self.checks = {"false_negatives": 0, "false_positives": 0, "bad_witnesses": 0, "unreferenced": 0}

    def op(self, failure: str | None = None, unsound: str | None = None) -> None:
        self.attempted += 1
        if failure:
            self.failed[failure] = self.failed.get(failure, 0) + 1
        if unsound:
            self.unsound[unsound] = self.unsound.get(unsound, 0) + 1

    def verdict(self, got: bool, expected: bool | None) -> None:
        if expected is None:
            self.checks["unreferenced"] += 1
            self.op("unreferenced")
        elif got and not expected:
            self.checks["false_positives"] += 1
            self.op(unsound="false positive")
        elif expected and not got:
            self.checks["false_negatives"] += 1
            self.op("false negative")
        else:
            self.op()


def read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def same_tree(interner: ref.Interner, make, expected: int) -> bool:
    try:
        return interner.key(make()) == expected
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def failed_command(errors: dict, name: str, operations: int, tally: Tally) -> bool:
    """Count every operation of a command that failed as failed."""
    if name not in errors:
        return False
    for _ in range(operations):
        tally.op(errors[name])
    return True


def check_ingest(work: Path, refs: list, interner: ref.Interner, tally: Tally, errors: dict) -> None:
    for k, keys in enumerate(refs):
        for name, make in (
            (f"ingest{k}.codes", lambda o: ref.code_steps(o["parents"], o["colors"])[0]),
            (f"ingest{k}.canon", ref.descriptor_tree),
            (f"ingest{k}.decoded", ref.tree_from_json),
        ):
            if failed_command(errors, name, len(keys), tally):
                continue
            outputs = read_jsonl(work / name)
            if len(outputs) != len(keys):
                tally.op(unsound=f"{name} output count")
                continue
            for out, key in zip(outputs, keys):
                ok = same_tree(interner, lambda: make(out), key)
                tally.op(unsound=None if ok else f"{name} round trip")
        if failed_command(errors, f"ingest{k}.iso", len(keys), tally):
            continue
        # Partition: each tree lands in exactly one class, and the classes
        # are exactly the groups of equal reference keys.
        class_of = {}
        for cls in read_jsonl(work / f"ingest{k}.iso"):
            for member in cls["members"]:
                class_of[member] = cls["class_id"]
        by_class: dict = {}
        for i, key in enumerate(keys):
            by_class.setdefault(class_of.get(f"t{i}"), set()).add(key)
        key_classes: dict = {}
        for i, key in enumerate(keys):
            key_classes.setdefault(key, set()).add(class_of.get(f"t{i}"))
        for i, key in enumerate(keys):
            c = class_of.get(f"t{i}")
            ok = c is not None and len(by_class[c]) == 1 and len(key_classes[key]) == 1
            tally.op(unsound=None if ok else "partition mismatch")


def check_poset(work: Path, refs: dict, interner: ref.Interner, tally: Tally, errors: dict) -> dict:
    classes, below = refs["classes"], refs["below"]
    size = interner.size
    pairs = [
        (a, b)
        for a in range(len(classes))
        for b in range(len(classes))
        if size[classes[a]] < size[classes[b]]
    ]
    counts = {"pairs_total": len(pairs), "relation_pairs": 0, "unknown_pairs": 0}
    if not failed_command(errors, "most_common.out", 1, tally):
        check_most_common(work, refs, interner, tally)
    if failed_command(errors, "poset.out", len(pairs), tally):
        return counts
    codes = {c["class_id"]: (c["code"]["parents"], c["code"]["colors"]) for c in read_jsonl(work / "poset.classes")}
    rep_ok = len(codes) == len(classes) and all(
        same_tree(interner, lambda: ref.code_steps(*codes[c])[0], key) for c, key in enumerate(classes)
    )
    if not rep_ok:
        tally.op(unsound="partition mismatch")
    lines = read_jsonl(work / "poset.out")
    unknown = {tuple(p) for p in lines[-1]["unknown_pairs"]}
    found = {}
    for line in lines[:-1]:
        a, b = line["below"], line["above"]
        if a != b:
            found[(a, b)] = line["witness"]
    for (a, b), witness in found.items():
        if not rep_ok or not ref.witness_ok(codes[a], codes[b], witness):
            tally.checks["bad_witnesses"] += 1
            tally.op(unsound="bad witness")
    for pair in pairs:
        if pair in unknown:
            tally.op("capped")
        else:
            tally.verdict(pair in found, pair in below)
    for pair in found:
        if size[classes[pair[0]]] >= size[classes[pair[1]]]:
            tally.checks["false_positives"] += 1
            tally.op(unsound="false positive")
    return dict(counts, relation_pairs=len(found), unknown_pairs=len(unknown))


def check_most_common(work: Path, refs: dict, interner: ref.Interner, tally: Tally) -> None:
    """The count must equal the best exhaustive support over the reference relation."""
    classes, below, size = refs["classes"], refs["below"], interner.size
    support = [
        refs["sizes"][a] + sum(refs["sizes"][b] for b in range(len(classes)) if (a, b) in below)
        for a in range(len(classes))
    ]
    eligible = [a for a in range(len(classes)) if size[classes[a]] <= MOST_COMMON_MAX_ORDER]
    best = max(support[a] for a in eligible)
    answer = read_jsonl(work / "most_common.out")[0]
    if answer["count"] > support[answer["class_id"]]:
        tally.checks["false_positives"] += 1
        tally.op(unsound="most-common overcount")
    elif answer["count"] < best:
        tally.op("most-common undercount")
    else:
        tally.op()


def check_queries(work: Path, queries: list, interner: ref.Interner, tally: Tally) -> None:
    outcomes = json.loads((work / "queries.out").read_text(encoding="utf-8"))
    if len(outcomes) != len(queries):
        tally.op(unsound="query output count")
        return
    for q, out in zip(queries, outcomes):
        if "error" in out:
            tally.op(out["error"])
        else:
            witness = out["witness"]
            if witness and not (
                ref.witness_ok(out["query_code"], out["host_code"], witness)
                and same_tree(interner, lambda: ref.code_steps(*out["query_code"])[0], interner.key(q["query"]))
                and same_tree(interner, lambda: ref.code_steps(*out["host_code"])[0], interner.key(q["host"]))
            ):
                tally.checks["bad_witnesses"] += 1
                tally.op(unsound="bad witness")
            else:
                tally.verdict(bool(witness), q["expected"])
        if q["undirected"]:
            if "undirected_error" in out:
                tally.op(out["undirected_error"])
            else:
                tally.verdict(out["undirected"], q["expected_undirected"])
