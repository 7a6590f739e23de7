"""Byte-identity sweep of the brute-force and exact join planners.

Prints one line per record, `<sha256> <label>`, where the hash covers the
schedule text (or None) that brute_force_schedule_search or
plan_join_sequence returns, or, for a CLI record, the exit code, stdout
and stderr of `plan --brute-force` and of `verify --oracle` on its
schedule, and the schedule file. A verify record hashes what `verify`
(with `--oracle` up to 16 qubits) prints for a schedule, and the
probability and generators, in order, that execute_schedule returns.
Run one copy of it against the src of each of two commits and compare
the outputs; a planner or executor change that keeps every schedule and
every executed group prints the same 4155 lines:

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
from pbsgraph.planner import (
    CreatePair,
    Hadamard,
    PbsGate,
    Schedule,
    brute_force_schedule_search,
    execute_schedule,
    parse_schedule,
    plan_join_sequence,
    plan_tree_protocol,
    schedule_text,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from benchmarks.workloads import Plan, invoke  # noqa: E402

NET6 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
STAR4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K33 = Graph.from_edges(6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)])
# the square with a pendant on each corner
SQUARE = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)])
# two disjoint triangles, and a 6-vertex forest of a star and an edge
TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
FOREST2 = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
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


def _forests(rng: random.Random):
    """Disjoint unions of k = 2 and k = 3 trees of at least two vertices
    each, on 4, 6 and 8 vertices, each relabelled at random: 21 forests."""
    for n in (4, 6, 8):
        for k in (2, 3):
            for sizes in itertools.combinations_with_replacement(range(2, n - 1), k):
                if sum(sizes) != n:
                    continue
                for trees in itertools.product(*(list(_trees(size)) for size in sizes)):
                    edges, offset = [], 0
                    for tree in trees:
                        edges += [(u + offset, v + offset) for u, v in tree.sorted_edges()]
                        offset += tree.num_vertices
                    yield _relabelled(Graph.from_edges(n, edges), rng)


def search_cases():
    """(label, target, allow_intra, allow_hadamard, max_gates) for the 1812
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
    # the gate-count bound tight, or targets of more than one component
    yield "square with pendants", SQUARE, True, False, 4
    yield "two triangles", TRIANGLES, True, False, None
    for cap in (None, 0, 1, 2):
        yield "two-component forest", FOREST2, True, False, cap
    for cap in (None, 2, 3):
        yield "net6", NET6, True, True, cap
    # forests of more than one component at every cap up to n/2, and net6
    # relabellings at caps around their 3 gates
    for forest in _forests(rng):
        for cap in range(forest.num_vertices // 2 + 1):
            yield "forest", forest, False, False, cap
    for _ in range(4):
        net6 = _relabelled(NET6, rng)
        for cap in (2, 3, 4):
            yield "net6", net6, True, False, cap
    # the 106 ten-vertex trees, past the default cap of 8 qubits
    for tree in _trees(10):
        yield "ten-vertex tree", tree, False, False, None


def join_cases():
    """(label, tree) for the 2069 plan_join_sequence records: every tree
    of an even order from 2 to 12 vertices (odd orders return None before
    any planning), each with two seeded relabellings; a reachable
    1000-vertex caterpillar, the pairs (2k, 2k + 1) joined by
    PBS 2k + 1, 2k + 2, whose decomposition nests 499 deep; and the
    64-vertex star, whose hub has 63 branches."""
    rng = random.Random(2069)
    for n in range(2, 13, 2):
        for tree in _trees(n):
            yield "tree", tree
            for _ in range(2):
                yield "relabelled tree", _relabelled(tree, rng)
    k = 500
    yield "1000-vertex caterpillar", Graph.from_edges(
        2 * k, [(0, 1)] + [(2 * j - 1, 2 * j) for j in range(1, k)]
        + [(2 * j - 1, 2 * j + 1) for j in range(1, k)])
    yield "64-vertex star", Graph.from_edges(64, [(0, v) for v in range(1, 64)])


def _relabelled_schedule(sched: Schedule, rng: random.Random) -> Schedule:
    """The schedule with its qubit ids replaced by seeded distinct ids in
    shuffled order."""
    ids = sorted(sched.qubit_ids())
    relabel = dict(zip(ids, rng.sample(range(1, 16 * len(ids)), len(ids))))
    lines = [" ".join([op, *(str(relabel[int(q)]) for q in qubits)])
             for op, *qubits in map(str.split, schedule_text(sched).splitlines())]
    return parse_schedule("\n".join(lines) + "\n")


def _mixed_schedule(rng: random.Random, pairs: int) -> Schedule:
    """Seeded pairs created between gates, PBS gates between any two
    live qubits (within one cluster about as often as the clusters make
    it) and bare Hadamards, on seeded distinct ids in shuffled order."""
    ids = rng.sample(range(8 * pairs), 2 * pairs)
    instructions = [CreatePair(ids[0], ids[1])]
    live = 2
    while live < 2 * pairs or rng.random() < 0.6:
        roll = rng.random()
        if live < 2 * pairs and roll < 0.35:
            instructions.append(CreatePair(ids[live], ids[live + 1]))
            live += 2
        elif roll < 0.5:
            instructions.append(Hadamard(ids[rng.randrange(live)]))
        else:
            i1, i2 = rng.sample(ids[:live], 2)
            instructions.append(PbsGate(i1, i2))
    return Schedule(tuple(instructions))


def verify_cases():
    """(label, schedule) for the 82 verify records: plan_tree_protocol(1..8)
    with seeded ids (4 to 512 qubits), then 74 seeded mixed schedules of 2
    to 256 pairs."""
    rng = random.Random(2828)
    for m in range(1, 9):
        yield f"protocol m={m}", _relabelled_schedule(plan_tree_protocol(m), rng)
    for pairs, count in ((2, 20), (3, 20), (4, 10), (8, 10), (16, 6), (64, 4), (128, 2), (256, 2)):
        for _ in range(count):
            yield f"mixed {pairs} pairs", _mixed_schedule(rng, pairs)


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
        sched = brute_force_schedule_search(target, max_qubits=10, allow_intra=intra,
                                            allow_hadamard=hadamard, max_gates=cap)
        digest = _digest(None if sched is None else schedule_text(sched))
        print(digest, f"{label} {target.sorted_edges()}{FLAGS[intra, hadamard]} --max-gates {cap}")
        records += 1
    for label, tree in join_cases():
        sched = plan_join_sequence(tree)
        digest = _digest(None if sched is None else schedule_text(sched))
        edges = tree.sorted_edges() if tree.num_vertices <= 12 else ""
        print(digest, f"join {label} {edges}".rstrip())
        records += 1
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, sched) in enumerate(verify_cases()):
            path = Path(tmp) / f"verify{k}.sched"
            path.write_text(schedule_text(sched), encoding="utf-8")
            argv = ["verify", str(path)] + (["--oracle"] if len(sched.qubit_ids()) <= 16 else [])
            call = invoke(cli, argv)
            prob, group, _graph = execute_schedule(sched)
            digest = _digest(call.code, call.stdout, call.stderr, prob,
                             [str(g) for g in group.generators])
            print(digest, f"verify {label} {len(sched.instructions)} instructions")
            records += 1
    print(f"{records} records in {time.perf_counter() - started:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
