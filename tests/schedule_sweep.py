"""Byte-identity sweep of the brute-force planner.

Prints one line per record, `<sha256> <label>`, where the hash covers the
schedule text (or None) that brute_force_schedule_search returns, or,
for a CLI record, the exit code, stdout and stderr of `plan --brute-force`
and of `verify --oracle` on its schedule, and the schedule file. Run one
copy of it against the src of each of two commits and compare the
outputs; a planner change that keeps every schedule prints the same 1778
lines:

    PYTHONPATH=src python3 tests/schedule_sweep.py > change.txt
    PYTHONPATH=../parent/src python3 tests/schedule_sweep.py > parent.txt

pytest does not collect this file (its name has no test_ prefix). It
needs networkx, and it imports the plan workload of this checkout's
benchmarks/ for the benchmark's 48 seeded targets. Its inputs are built
here, not by the test helpers, so they stay fixed while the tests change.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
import tempfile
import time
from pathlib import Path

import networkx as nx

from pbsgraph import cli
from pbsgraph.graphs import Graph
from pbsgraph.planner import brute_force_schedule_search, plan_tree_protocol, schedule_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from benchmarks.workloads import Plan  # noqa: E402

NET6 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
STAR4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K33 = Graph.from_edges(6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)])
# the square with a pendant on each corner
SQUARE = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)])
FLAGS = {(False, False): "", (True, False): " --allow-intra",
         (False, True): " --allow-hadamard", (True, True): " --allow-intra --allow-hadamard"}


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _relabelled(graph: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(graph.num_vertices), graph.num_vertices)
    return Graph.from_edges(graph.num_vertices,
                            [(perm[u], perm[v]) for u, v in graph.sorted_edges()])


def _trees(n: int):
    for g in nx.nonisomorphic_trees(n):
        relabel = {v: i for i, v in enumerate(sorted(g.nodes))}
        yield Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in g.edges])


def _labelled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def _random_graph(rng: random.Random, n: int) -> Graph:
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < 0.4])


def search_cases():
    """(label, target, allow_intra, allow_hadamard, max_gates) for the 1586
    search records."""
    rng = random.Random(1778)
    for n in range(2, 9):
        for tree in _trees(n):
            yield "tree", tree, False, False, None
            for _ in range(2):
                yield "relabelled tree", _relabelled(tree, rng), False, False, None
    for n in range(2, 7):
        for tree in _trees(n):
            yield "tree", tree, True, False, None
    for cap in (2, 3, 4):
        for tree in _trees(8):
            yield "tree", tree, False, False, cap
    for _ in range(6):
        yield "protocol tree", _relabelled(plan_tree_protocol(2).target, rng), False, False, None
    for cap in (None, 0, 1, 2, 4):
        for flags in FLAGS:
            for graph in _labelled_graphs(4):
                yield "4-vertex graph", graph, *flags, cap
    for cap in range(6):
        yield "net6", NET6, True, False, cap
        yield "star-4", STAR4, True, False, cap
    for _ in range(12):
        yield "net6", _relabelled(NET6, rng), True, False, None
    for flags in ((True, False), (False, True), (True, True)):
        yield "K3,3", K33, *flags, None
    yield "C4", C4, False, True, None
    yield "C4", C4, True, True, 4
    for _ in range(40):
        yield "random", _random_graph(rng, 6), True, False, None
    for _ in range(6):
        yield "random", _random_graph(rng, 6), False, True, None
    yield "matching", Graph.from_edges(6, [(0, 5), (1, 4), (2, 3)]), False, True, None
    yield "square with pendants", SQUARE, True, False, None


def main() -> int:
    started = time.perf_counter()
    records = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(1, 5):
            workdir = Path(tmp) / f"seed{seed}"
            workdir.mkdir()
            workload = Plan(seed, workdir)
            workload.generate()
            for i, target in enumerate(workload.targets):
                calls, text = workload.op(cli, i)
                outputs = [(c.code, c.stdout, c.stderr) for c in calls]
                digest = _digest(repr(outputs).replace(str(workdir), "<workdir>"), text)
                print(digest, f"cli seed {seed} target {i} {target.kind}")
                records += 1
    for label, target, intra, hadamard, cap in search_cases():
        sched = brute_force_schedule_search(target, allow_intra=intra, allow_hadamard=hadamard,
                                            max_gates=cap)
        digest = _digest(None if sched is None else schedule_text(sched))
        print(digest, f"{label} {target.sorted_edges()}{FLAGS[intra, hadamard]} --max-gates {cap}")
        records += 1
    print(f"{records} records in {time.perf_counter() - started:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
