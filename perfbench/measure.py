"""Timed calls into the package, run in a fresh interpreter by ``run.py``.

Usage: ``python3 measure.py PLAN.json RESULT.json``.  The plan names the
input files, the checkout's ``src`` directory to import the package from,
the time budget, how often each part repeats and whether to trace.  Corpus
commands go through ``colored_prufer.cli.main`` with stdout captured;
queries go through the library calls a caller makes.  The outputs of each
unit's first run are written next to the inputs for the reference checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

QUERY_CAP = 10**5
MOST_COMMON_MAX_ORDER = 6


def calibration() -> float:
    """Seconds taken by a fixed integer loop, a gauge of the machine's
    current speed.  It allocates no containers, so the garbage collector
    and the state of the package under test do not change its time."""
    start = time.perf_counter()
    x = 0
    for i in range(60000):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - start


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.on = True

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)


def instrument(tracer: Tracer, cp) -> None:
    """Put spans around the public functions of each layer, at the module
    attributes through which the package's own callers look them up."""
    cli, codec, corpus, matching = cp.cli, cp.codec, cp.corpus, cp.matching

    iter_corpus = cli.iter_corpus

    def traced_iter_corpus(*args, **kwargs):
        trees = iter_corpus(*args, **kwargs)
        while True:
            tree = tracer.call("trees.parse", next, trees, None)
            if tree is None:
                return
            tracer.count("trees.vertices", tree.n)
            yield tree

    decode = cli.decode

    def traced_decode(code, strict=False):
        name = "codec.decode_strict" if strict else "codec.decode"
        return tracer.call(name, decode, code, strict=strict)

    search = matching.subtree_search

    def traced_search(pq, p, candidate_cap=matching.DEFAULT_CANDIDATE_CAP):
        try:
            result = tracer.call("matching.subtree_search", search, pq, p, candidate_cap)
        except cp.errors.CandidateExplosion:
            tracer.count("matching.capped")
            tracer.count("matching.candidates_examined", candidate_cap)
            raise
        except RecursionError:
            tracer.count("matching.recursion_errors")
            raise
        tracer.count("matching.candidates_examined", result.candidates_examined)
        tracer.count("matching.witnesses", result.witness is not None)
        return result

    cli.iter_corpus = traced_iter_corpus
    cli.decode = traced_decode
    cli.full_ld_array = tracer.wrap("canonical.full_ld", cli.full_ld_array)
    codec.canonical_order = tracer.wrap("canonical.order", codec.canonical_order)
    codec.encode = tracer.wrap("codec.encode", codec.encode)
    corpus.partition_by_isomorphism = tracer.wrap(
        "corpus.partition", corpus.partition_by_isomorphism
    )
    corpus.subtree_poset = tracer.wrap("corpus.poset", corpus.subtree_poset)
    corpus.most_representative = tracer.wrap(
        "corpus.most_common", corpus.most_representative
    )
    corpus.subtree_search = traced_search
    matching.subtree_search = traced_search
    matching.undirected_subtree = tracer.wrap(
        "matching.undirected", matching.undirected_subtree
    )


def load_queries(cp, path: str) -> list:
    records = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            obj = json.loads(line)
            pair = [
                cp.trees.build_tree(
                    [tuple(e) for e in obj[side]["edges"]],
                    {int(v): c for v, c in obj[side]["colors"].items()},
                )
                for side in ("query", "host")
            ]
            records.append((obj["undirected"], pair[0], pair[1]))
    return records


class Runner:
    """Runs the plan's units in an interleaved schedule.

    One cycle runs every ingest batch, the poset corpus and every query
    chunk, each as often as the plan repeats that part, spread evenly over
    the cycle so that every metric samples the whole run.  Cycles repeat
    until the time budget is spent, stopping between units; a traced run
    does one cycle.
    """

    def __init__(self, plan: dict, cp, queries: list, tracer: Tracer | None):
        self.plan = plan
        self.cp = cp
        self.records = queries
        self.tracer = tracer
        self.work = Path(plan["workdir"])
        # Per label, [seconds, start] of every timed call, start on the
        # perf_counter clock; "ingest_batch" holds the batch of each ingest unit.
        self.samples: dict[str, list] = {
            label: []
            for label in (
                "ingest_batch", "encode", "canon", "iso", "decode",
                "poset", "most_common", "subtree", "undirected",
            )
        }
        self.kept: set = set()
        self.outcomes: list = [None] * len(queries)
        self.leaf_cache = [0, 0]
        self.errors: dict[str, str] = {}
        self.gauges: list[list[float]] = []

    def gauge(self) -> None:
        """Record ``[time, calibration seconds]``: the machine's speed now."""
        self.gauges.append([time.perf_counter(), calibration()])

    def schedule(self) -> list[tuple]:
        repeat = self.plan["repeat"]
        groups = [
            [("ingest", k) for k in range(len(self.plan["ingest"]))] * repeat["ingest"],
            [("poset", 0)] * repeat["poset"],
            [("queries", j) for j in range(self.plan["query_chunks"])] * repeat["queries"],
        ]
        placed = [((i + 0.5) / len(g), n, unit) for n, g in enumerate(groups) for i, unit in enumerate(g)]
        return [unit for _, _, unit in sorted(placed)]

    def run(self) -> None:
        deadline = time.perf_counter() + self.plan["seconds"]
        cycle = self.schedule()
        first = True
        while first or (time.perf_counter() < deadline and not self.plan["single_cycle"]):
            for kind, index in cycle:
                if not first and time.perf_counter() >= deadline:
                    break
                getattr(self, kind)(index)
            first = False
        self.gauge()
        (self.work / "queries.out").write_text(json.dumps(self.outcomes), encoding="utf-8")

    def keep(self, name: str) -> str | None:
        """The output file name the first time a unit runs, else None."""
        if name in self.kept:
            return None
        self.kept.add(name)
        return name

    def command(self, label: str, argv: list[str], keep: str | None) -> None:
        """Run one CLI command, record its wall time and keep its stdout.

        A command that raises or exits nonzero is recorded as failed, with
        the reason, under the name its output would have been kept as.
        """
        out = io.StringIO()
        self.gauge()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    status = self.cp.cli.main(argv)
                else:
                    status = self.tracer.call("cli." + label, self.cp.cli.main, argv)
            except (RecursionError, self.cp.errors.ColoredPruferError) as exc:
                status = f"{type(exc).__name__}: {exc}"[:120]
            elapsed = time.perf_counter() - start
        if status != 0 and keep is not None:
            self.errors[keep] = status if isinstance(status, str) else f"exit status {status}"
        if keep is not None:
            (self.work / keep).write_text(out.getvalue(), encoding="utf-8")
        self.samples[label].append([elapsed, start])

    def ingest(self, k: int) -> None:
        batch = self.plan["ingest"][k]
        codes = f"ingest{k}.codes"
        self.samples["ingest_batch"].append(k)
        self.command("encode", ["encode", batch], codes)
        self.command("canon", ["canon", batch], self.keep(f"ingest{k}.canon"))
        self.command("iso", ["iso-classes", batch], self.keep(f"ingest{k}.iso"))
        self.command(
            "decode", ["decode", "--strict", str(self.work / codes)], self.keep(f"ingest{k}.decoded")
        )

    def poset(self, _: int) -> None:
        path = self.plan["poset"]
        self.command("poset", ["poset", path, "--workers", "1"], self.keep("poset.out"))
        self.command(
            "most_common",
            ["most-common", path, "--max-order", str(MOST_COMMON_MAX_ORDER)],
            self.keep("most_common.out"),
        )
        if self.keep("poset.classes"):
            # Class codes for checking witnesses; neither timed nor traced.
            if self.tracer is not None:
                self.tracer.on = False
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.cp.cli.main(["iso-classes", path])
            (self.work / "poset.classes").write_text(out.getvalue(), encoding="utf-8")
            if self.tracer is not None:
                self.tracer.on = True

    def queries(self, j: int) -> None:
        cp = self.cp
        matching, errors = cp.matching, cp.errors
        chunks = self.plan["query_chunks"]
        # Every pass over the query list starts with the package's
        # leaf-rooting cache empty, so that repeated passes see the same hits.
        cache = getattr(matching, "leaf_rooted_codes", None)
        if j == 0 and hasattr(cache, "cache_clear"):
            cache.cache_clear()
        self.gauge()
        for index in range(j, len(self.records), chunks):
            undirected, small, large = self.records[index]
            outcome: dict = {}
            start = time.perf_counter()
            try:
                code_small, _ = cp.codec.encode_canonical(small)
                code_large, _ = cp.codec.encode_canonical(large)
                result = matching.subtree_search(code_small, code_large, QUERY_CAP)
                outcome["witness"] = result.witness and list(result.witness)
            except (RecursionError, errors.ColoredPruferError) as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"[:120]
            self.samples["subtree"].append([time.perf_counter() - start, start])
            if undirected:
                start = time.perf_counter()
                try:
                    outcome["undirected"] = matching.undirected_subtree(small, large, QUERY_CAP)
                except (RecursionError, errors.ColoredPruferError) as exc:
                    outcome["undirected_error"] = f"{type(exc).__name__}: {exc}"[:120]
                self.samples["undirected"].append([time.perf_counter() - start, start])
            if self.outcomes[index] is None:
                if outcome.get("witness"):
                    outcome["query_code"] = [list(code_small.parents), list(code_small.colors)]
                    outcome["host_code"] = [list(code_large.parents), list(code_large.colors)]
                self.outcomes[index] = outcome
        if j == chunks - 1 and not any(self.leaf_cache) and hasattr(cache, "cache_info"):
            info = cache.cache_info()
            self.leaf_cache = [info.hits, info.misses]


def path_scaling(cp) -> float:
    """Median canonical-order time on a 4,000-vertex path over a 1,000-vertex one."""
    medians = []
    for n in (1000, 4000):
        tree = cp.trees.build_tree([(v, v + 1) for v in range(n - 1)], {v: 0 for v in range(n)})
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            cp.canonical.canonical_order(tree)
            runs.append(time.perf_counter() - start)
        medians.append(sorted(runs)[1])
    return medians[1] / medians[0]


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import colored_prufer as cp
    import colored_prufer.cli  # noqa: F401  (not imported by the package itself)

    if Path(cp.__file__).resolve().parent.parent != Path(plan["src"]).resolve():
        raise SystemExit(f"imported {cp.__file__}, not the checkout's package")
    queries = load_queries(cp, plan["queries"])
    result = {"setup_s": [time.monotonic() - plan["spawned_at"], calibration()]}
    if not plan["setup_only"]:
        tracer = Tracer() if plan["trace"] else None
        if tracer is not None:
            instrument(tracer, cp)
        runner = Runner(plan, cp, queries, tracer)
        start = time.perf_counter()
        runner.run()
        result["elapsed"] = time.perf_counter() - start
        result["samples"] = runner.samples
        result["gauges"] = runner.gauges
        result["errors"] = runner.errors
        result["leaf_cache"] = runner.leaf_cache
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
            result["path_scaling"] = path_scaling(cp)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
