"""The benchmark's workloads: seeded inputs and their reference answers.

A workload gives each part (ingest, poset, queries) an input and says how
often the part repeats in one cycle of the schedule (see measure.Runner).
The part a workload is chosen for gets a seeded input; the other parts run
small probe inputs made from a fixed seed, so that on that workload their
metrics move with the program and the machine, not with the seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import gen
import reference as ref
from gen import Tree

PROBE_SEED = 0


def bulk_batches(seed: int) -> list[list[Tree]]:
    """About 20k uniform random trees of order at most 30 in 4 colors, in 20 batches."""
    corpus = gen.random_corpus(seed, 20000, 30, 4)
    return [corpus[k::20] for k in range(20)]


def deep_batches(seed: int) -> list[list[Tree]]:
    """Paths, caterpillars and deep random trees of 1,000, 2,500 and 3,500
    vertices, in one and in two colors: one batch per shape and color count."""
    rng = random.Random(f"deep:{seed}")
    batches = []
    for n_colors in (1, 2):
        for shape in ("path", "caterpillar", "deep"):
            batch = []
            for n in (1000, 2500, 3500):
                if shape == "path":
                    batch.append(gen.path(n, [rng.randrange(n_colors) for _ in range(n)]))
                elif shape == "caterpillar":
                    batch.append(gen.caterpillar(rng, n, n_colors))
                else:
                    batch.append(gen.deep_random(rng, n, n_colors))
            batches.append(batch)
    return batches


def probe_batches(_seed: int) -> list[list[Tree]]:
    corpus = gen.random_corpus(PROBE_SEED, 1500, 30, 4)
    return [corpus[k::3] for k in range(3)]


def poset_corpus(seed: int) -> list[Tree]:
    """400 random trees in 2 colors, orders spread evenly over 1..12."""
    rng = random.Random(f"poset:{seed}")
    return [gen.random_tree(rng, 1 + k % 12, 2) for k in range(400)]


def probe_poset_corpus(_seed: int) -> list[Tree]:
    return gen.random_corpus(PROBE_SEED, 150, 10, 2)


def random_queries(seed: int, count: int, hosts: int) -> list[dict]:
    """Small-in-medium pairs, directed and undirected: query orders cycle
    through 1..8 and host orders through 1..20, two colors, each query on
    a host drawn from the pool.  Cycling the orders, rather than drawing
    them, keeps the latency percentiles from moving with the seed; a pool
    of more than 512 hosts overflows the package's leaf-rooting cache, so
    the cache both hits and misses."""
    rng = random.Random(f"queries:{seed}:{count}:{hosts}")
    pool = [gen.random_tree(rng, 1 + h % 20, 2) for h in range(hosts)]
    return [
        {"query": gen.random_tree(rng, 1 + k % 8, 2), "host": rng.choice(pool), "undirected": True}
        for k in range(count)
    ]


# Monochrome spiders (brooms; legs x leg length) and wide stars, directed
# only: candidate enumeration explodes on them, up to the cap.
ADVERSARIAL_SPIDERS = [
    ((3, 2), (6, 3)), ((2, 3), (4, 4)), ((4, 2), (8, 3)), ((5, 2), (10, 3)),
    ((3, 3), (5, 2)), ((20, 1), (40, 1)), ((60, 1), (120, 1)), ((40, 1), (30, 1)),
]
# Monochrome paths of 1,200 vertices and a few more in paths 300 longer,
# directed and undirected: canonicalization is quadratic and matching
# recurses once per query vertex.  Slower than any random query, they set
# the p99 latencies.  Their sizes differ by one vertex only, so that the
# percentile rests on many samples of nearly one query rather than on which
# of several sizes straddles it, while every host still misses the
# package's leaf-rooting cache.
ADVERSARIAL_PATHS = [(1200 + i, 1500 + i) for i in range(12)]


def spider_queries() -> list[dict]:
    return [
        {
            "query": gen.spider(*small),
            "host": gen.spider(*large),
            "undirected": False,
            "expected": ref.spider_in_spider(*small, *large),
        }
        for small, large in ADVERSARIAL_SPIDERS
    ]


def path_queries(paths) -> list[dict]:
    return [
        {
            "query": gen.path(a),
            "host": gen.path(b),
            "undirected": True,
            "expected": ref.path_in_path(a, b),
            "expected_undirected": ref.path_in_path(a, b),
        }
        for a, b in paths
    ]


def focus_queries(seed: int) -> list[dict]:
    return random_queries(seed, 800, 600) + spider_queries() + path_queries(ADVERSARIAL_PATHS)


def probe_queries(_seed: int) -> list[dict]:
    return random_queries(PROBE_SEED, 150, 100) + path_queries(ADVERSARIAL_PATHS[:3])


# Each part: (input maker, repeats per cycle); queries also give their chunk count.
WORKLOADS = {
    "ingest-bulk": dict(
        ingest=(bulk_batches, 1), poset=(probe_poset_corpus, 4), queries=(probe_queries, 3, 2)
    ),
    "ingest-deep": dict(
        ingest=(deep_batches, 1), poset=(probe_poset_corpus, 4), queries=(probe_queries, 2, 2)
    ),
    "poset": dict(
        ingest=(probe_batches, 2), poset=(poset_corpus, 1), queries=(probe_queries, 2, 2)
    ),
    "query": dict(
        ingest=(probe_batches, 2), poset=(probe_poset_corpus, 4), queries=(focus_queries, 1, 10)
    ),
}


# --- inputs and references ---------------------------------------------------


def write_lines(path: Path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def prepare(name: str, seed: int, work: Path):
    """Write the workload's inputs and compute the references."""
    spec = WORKLOADS[name]
    interner = ref.Interner()
    batches = spec["ingest"][0](seed)
    ingest_paths = [
        write_lines(work / f"ingest{k}.jsonl", (gen.to_json_line(t, f"t{i}") for i, t in enumerate(batch)))
        for k, batch in enumerate(batches)
    ]
    ingest_ref = [[interner.key(t) for t in batch] for batch in batches]

    poset_trees = spec["poset"][0](seed)
    poset_path = write_lines(
        work / "poset.jsonl", (gen.to_json_line(t, f"p{i}") for i, t in enumerate(poset_trees))
    )
    keys = [interner.key(t) for t in poset_trees]
    classes = list(dict.fromkeys(keys))
    host_ids = {}
    for t, k in zip(poset_trees, keys):
        if k not in host_ids:
            host_ids[k] = interner.vertex_ids(t)
    below = {
        (a, b)
        for a, ka in enumerate(classes)
        for b, kb in enumerate(classes)
        if interner.size[ka] < interner.size[kb] and interner.contains(ka, host_ids[kb])
    }
    members = Counter(keys)
    poset_ref = {"classes": classes, "sizes": [members[k] for k in classes], "below": below}

    queries = spec["queries"][0](seed)
    for q in queries:
        if "expected" not in q:
            q["expected"] = interner.contains(interner.key(q["query"]), interner.vertex_ids(q["host"]))
        if q["undirected"] and "expected_undirected" not in q:
            q["expected_undirected"] = ref.undirected_contains(interner, q["query"], q["host"])
    query_path = write_lines(
        work / "queries.jsonl",
        (
            json.dumps(
                {
                    "query": gen.to_json(q["query"], ""),
                    "host": gen.to_json(q["host"], ""),
                    "undirected": q["undirected"],
                }
            )
            for q in queries
        ),
    )
    plan = {
        "ingest": ingest_paths,
        "poset": poset_path,
        "queries": query_path,
        "query_chunks": spec["queries"][2],
        "repeat": {part: spec[part][1] for part in ("ingest", "poset", "queries")},
    }
    refs = {"ingest": ingest_ref, "poset": poset_ref, "queries": queries}
    vertices = [sum(t.n for t in batch) for batch in batches]
    return plan, refs, interner, vertices
