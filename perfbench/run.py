"""Layered benchmark of the colored-prufer package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  The benchmark generates its inputs from
the seed, computes reference answers without the package, measures the
package in fresh interpreters (``measure.py``), checks every output
against the references (``checks.py``) and prints one JSON object as its
last line.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, from one traced
cycle compared against one untraced cycle.  ``--workload all`` runs every
workload both ways and prints the metrics only.

Times are scaled to a reference machine speed.  The host this benchmark
was built on runs the same code up to a quarter faster or slower from one
minute to the next, and every timing moves together.  So ``measure.py``
times a fixed integer loop (``measure.calibration``) before every timed
command and query chunk, and each reported time is the measured time
multiplied by ``CALIBRATION_REF_S`` over the median loop time within
``GAUGE_WINDOW_S`` of the call: the time the call would take on a machine
where the loop takes exactly ``CALIBRATION_REF_S``.  The
human-readable lines before the JSON also give the raw wall-clock medians
and the run's median speed.

Every workload (``workloads.py``) runs every part: ingest (``encode``,
``canon``, ``iso-classes``, ``decode --strict``), poset (``poset``,
``most-common``) and queries (directed and undirected containment).  The
workload decides which part gets the large input and most of the time;
the other parts run a small probe input, so every metric exists on every
workload.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Tally, check_ingest, check_poset, check_queries, read_jsonl
from workloads import WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 4
DEADLINE_S = 170
# The calibration loop's usual time on the machine the baseline was
# measured on (perfbench/baseline.json).
CALIBRATION_REF_S = 0.006
GAUGE_WINDOW_S = 2.5


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# --- measuring ---------------------------------------------------------------


def spawn(plan: dict, work: Path, label: str, deadline: float) -> dict:
    """Run ``measure.py`` in a fresh interpreter and return its result."""
    plan_path = work / f"{label}.plan.json"
    result_path = work / f"{label}.result.json"
    plan = dict(plan, spawned_at=time.monotonic())
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run(
        [sys.executable, str(HERE / "measure.py"), str(plan_path), str(result_path)],
        check=True,
        env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Scale:
    """Scales a run's times to the reference speed, by the calibration
    loop times measured near each call."""

    def __init__(self, gauges: list[list[float]]):
        self.at = [g[0] for g in gauges]
        self.seconds = [g[1] for g in gauges]
        self.slowdown = statistics.median(self.seconds) / CALIBRATION_REF_S

    def __call__(self, seconds: float, start: float) -> float:
        lo = bisect.bisect_left(self.at, start - GAUGE_WINDOW_S)
        hi = bisect.bisect_right(self.at, start + GAUGE_WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return seconds * CALIBRATION_REF_S / statistics.median(near)


def end_to_end(result: dict, vertices: list[int], setups: list[list[float]]) -> dict:
    scale = Scale(result["gauges"])
    samples = {
        label: [scale(*s) for s in values]
        for label, values in result["samples"].items()
        if label != "ingest_batch"
    }
    batches = result["samples"]["ingest_batch"]

    def throughput(label: str) -> float:
        """Vertices of all batches over the sum of each batch's median time.

        Batches differ in shape (ingest-deep), and a run may stop partway
        through a cycle, so each batch counts once whatever its runs."""
        times: dict[int, list[float]] = {}
        for k, t in zip(batches, samples[label]):
            times.setdefault(k, []).append(t)
        return sum(vertices) / sum(statistics.median(times[k]) for k in range(len(vertices)))

    return {
        "encode_vertices_per_s": throughput("encode"),
        "canon_vertices_per_s": throughput("canon"),
        "iso_classes_vertices_per_s": throughput("iso"),
        "decode_strict_vertices_per_s": throughput("decode"),
        "poset_s": statistics.median(samples["poset"]),
        "most_common_s": statistics.median(samples["most_common"]),
        "subtree_p50_ms": 1e3 * percentile(samples["subtree"], 0.50),
        "subtree_p99_ms": 1e3 * percentile(samples["subtree"], 0.99),
        "undirected_p50_ms": 1e3 * percentile(samples["undirected"], 0.50),
        "undirected_p99_ms": 1e3 * percentile(samples["undirected"], 0.99),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(s * CALIBRATION_REF_S / gauge for s, gauge in setups),
    }


def raw_summary(result: dict) -> str:
    """Median wall-clock seconds per timed label, and the run's machine speed."""
    medians = ", ".join(
        f"{k} {statistics.median(s[0] for s in v):.4g}"
        for k, v in result["samples"].items()
        if k != "ingest_batch" and v
    )
    speed = 1 / Scale(result["gauges"]).slowdown
    return f"raw median seconds: {medians}; machine at {speed:.3f} of reference speed"


def per_layer(traced: dict, untraced: dict, tally: Tally, poset_counts: dict, classes: int) -> dict:
    """Layer times (scaled by the traced run's median speed) and counters."""
    spans = traced["spans"]
    slow = Scale(traced["gauges"]).slowdown
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start) / slow
        own[name] = own.get(name, 0.0) + (end - start) / slow
    for name, start, end, parent in spans:
        if parent >= 0:
            own[spans[parent][0]] -= (end - start) / slow
    counts = traced["counts"]
    examined = counts.get("matching.candidates_examined", 0)
    hits, misses = traced["leaf_cache"]
    cli_self = sum(v for k, v in own.items() if k.startswith("cli."))
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "colored_prufer").glob("*.py")
    )
    return {
        "trees.parse_s": total.get("trees.parse", 0.0),
        "trees.vertices_per_s": counts.get("trees.vertices", 0) / max(total.get("trees.parse", 0.0), 1e-9),
        "canonical.order_s": total.get("canonical.order", 0.0),
        "canonical.full_ld_s": total.get("canonical.full_ld", 0.0),
        "canonical.path_scaling_4k_over_1k": traced["path_scaling"],
        "codec.encode_s": total.get("codec.encode", 0.0),
        "codec.decode_s": own.get("codec.decode_strict", 0.0) + own.get("codec.decode", 0.0),
        "codec.decode_strict_s": total.get("codec.decode_strict", 0.0),
        "corpus.partition_s": total.get("corpus.partition", 0.0),
        "corpus.classes": classes,
        "corpus.poset_s": total.get("corpus.poset", 0.0),
        "corpus.pairs_total": poset_counts["pairs_total"],
        "corpus.relation_pairs": poset_counts["relation_pairs"],
        "corpus.unknown_pairs": poset_counts["unknown_pairs"],
        "matching.subtree_search_s": total.get("matching.subtree_search", 0.0),
        "matching.candidates_examined": examined,
        "matching.witness_per_candidate": counts.get("matching.witnesses", 0) / max(examined, 1),
        "matching.capped": counts.get("matching.capped", 0),
        "matching.recursion_errors": counts.get("matching.recursion_errors", 0),
        "matching.undirected_s": total.get("matching.undirected", 0.0),
        "matching.leaf_cache_hit_ratio": hits / max(hits + misses, 1),
        "check.false_negatives": tally.checks["false_negatives"],
        "check.false_positives": tally.checks["false_positives"],
        "check.bad_witnesses": tally.checks["bad_witnesses"],
        "check.unreferenced": tally.checks["unreferenced"],
        "cli.self_s": cli_self,
        "failed_share": sum(tally.failed.values()) / tally.attempted,
        "query.samples": len(traced["samples"]["subtree"]) + len(traced["samples"]["undirected"]),
        "tracing.overhead_share": (traced["elapsed"] / slow) / (untraced["elapsed"] / Scale(untraced["gauges"]).slowdown) - 1.0,
        "repo.src_lines": src_lines,
    }


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        plan, refs, interner, vertices = prepare(name, seed, work)
        plan.update(
            src=str(SRC), workdir=str(work), seconds=seconds, trace=False, setup_only=True, single_cycle=trace
        )
        setups = [spawn(plan, work, f"setup{k}", deadline)["setup_s"] for k in range(SETUP_PROBES - 1)]
        untraced = spawn(dict(plan, setup_only=False), work, "untraced", deadline)
        setups.append(untraced["setup_s"])
        measured = untraced
        if trace:
            measured = spawn(dict(plan, setup_only=False, trace=True), work, "traced", deadline)

        tally = Tally()
        check_ingest(work, refs["ingest"], interner, tally, measured["errors"])
        poset_counts = check_poset(work, refs["poset"], interner, tally, measured["errors"])
        check_queries(work, refs["queries"], interner, tally)
        classes = sum(len(read_jsonl(work / f"ingest{k}.iso")) for k in range(len(vertices)))
        if trace:
            metrics = per_layer(measured, untraced, tally, poset_counts, classes)
            units = declared_units("per_layer")
        else:
            metrics = end_to_end(measured, vertices, setups)
            units = declared_units("end_to_end")
        if set(metrics) != set(units):
            raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are not declared as measured")
        samples = {label: len(measured["samples"][label]) for label in ("subtree", "undirected")}
        print(f"workload {name} seed {seed}: {samples['subtree']} subtree and "
              f"{samples['undirected']} undirected query samples; "
              f"failures {tally.failed or 'none'}; unsound {tally.unsound or 'none'}")
        print(raw_summary(measured))
        for key, value in metrics.items():
            print(f"  {key} = {value:.6g} {units[key]}")
        return {
            "correct": not tally.unsound,
            "attempted": tally.attempted,
            "failed": sum(tally.failed.values()),
            "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "colored_prufer" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in WORKLOADS:
            for trace in (False, True):
                run(name, args.seed, args.seconds, trace)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
