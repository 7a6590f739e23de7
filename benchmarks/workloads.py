"""Workloads of the pbsgraph benchmark: seeded inputs, the op a run
repeats, and the checks on every op's output.

Each workload builds its inputs from the benchmark seed alone; the
program sees only the generated files and flags. Ops call
``pbsgraph.cli.main`` in-process through the module attribute, so the
tracer's wrapper is the one called while it is installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

# Simulate op seeds are seed * 2**OP_BITS + op index. The Monte Carlo
# keys its Philox streams with a 64-bit seed, so the benchmark seed must
# stay below 2**(64 - OP_BITS) and a run makes at most 2**OP_BITS ops.
OP_BITS = 20
MAX_OPS = 1 << OP_BITS
SEED_LIMIT = 1 << (64 - OP_BITS)

# Pooled Monte Carlo estimates must fall inside z=4 Wilson intervals of
# the closed forms: wide enough that a correct engine drawing different
# variates is not flagged by chance.
WILSON_Z = 4.0
ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str


def invoke(cli, argv: list[str]) -> Call:
    """One in-process ``pbsgraph`` command with its output captured. A
    command that raises is recorded as exit code -1 with its traceback,
    so the run goes on and the op counts as failed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
    return Call(tuple(argv), code, out.getvalue(), err.getvalue())


class Workload:
    """One workload. ``generate`` writes the seeded inputs and is timed
    as set-up; ``prepare`` computes what the checks expect and is not.
    ``op`` returns everything the program produced, which the checks
    read and the determinism checks compare byte for byte."""

    name = ""
    why = ""
    min_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def op(self, cli, i: int) -> tuple:
        raise NotImplementedError

    def check(self, i: int, output: tuple) -> list[str]:
        raise NotImplementedError

    def check_pooled(self, outputs: list[tuple]) -> list[str]:
        return []

    def determinism(self, cli, reference: tuple) -> list[str]:
        """Extra determinism checks against op 0's output."""
        return []

    def source_pulses(self, outputs: list[tuple]) -> int:
        return 0

    def size(self) -> dict:
        raise NotImplementedError


class Simulate(Workload):
    name = "simulate"
    why = ("pulse-level Monte Carlo at the ROADMAP operating point: level-0 pulses are "
           "95% of the work, so montecarlo dominates and the stabilizer layers do none")
    # A trial's pulse count is random. 24 trials per op even out an op's
    # work, so latency_tail_s (the 11th-largest of about 80 ops) moves
    # less from seed to seed than with a few trials and hundreds of ops.
    M, ETA_S, ETA_D, TRIALS = 4, 0.1, 0.7, 24

    def argv(self, i: int, threads: int = 1) -> list[str]:
        return [
            "simulate", "--m", str(self.M), "--eta-s", str(self.ETA_S),
            "--eta-d", str(self.ETA_D), "--trials", str(self.TRIALS),
            "--seed", str(self.op_seed(i)), "--no-timestamp", "--threads", str(threads),
        ]

    def op_seed(self, i: int) -> int:
        return (self.seed << OP_BITS) + i

    def op(self, cli, i: int) -> tuple:
        return (invoke(cli, self.argv(i)),)

    def check(self, i: int, output: tuple) -> list[str]:
        (call,) = output
        if call.code != 0:
            return [f"exit {call.code}: {call.stderr.strip()}"]
        try:
            doc = json.loads(call.stdout)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        problems = []
        if doc.get("trials") != self.TRIALS:
            problems.append(f"trials {doc.get('trials')} != {self.TRIALS}")
        if doc.get("partial") is not False:
            problems.append("result is partial")
        if doc.get("seed") != self.op_seed(i):
            problems.append(f"seed {doc.get('seed')} != {self.op_seed(i)}")
        if len(doc.get("per_level", ())) != self.M:
            problems.append(f"{len(doc.get('per_level', ()))} levels, expected {self.M}")
        return problems

    def check_pooled(self, outputs: list[tuple]) -> list[str]:
        from pbsgraph import montecarlo, scaling

        pooled = [[0, 0, 0] for _ in range(self.M)]
        for (call,) in outputs:
            for row, level in zip(pooled, json.loads(call.stdout)["per_level"]):
                row[0] += level["attempts"]
                row[1] += level["acceptances"]
                row[2] += round(level["a_hat"] * level["acceptances"])
        problems = []
        for level, (attempts, acceptances, good) in enumerate(pooled):
            if level == 0:
                p = scaling.base_success_prob(self.ETA_S, self.ETA_D)
            else:
                a_prev = scaling.a_closed_form(level - 1, self.ETA_D)
                p = scaling.connection_success_prob(a_prev, self.ETA_D)
            a = scaling.a_closed_form(level, self.ETA_D)
            for what, hits, n, expected in (("p", acceptances, attempts, p),
                                            ("a", good, acceptances, a)):
                lo, hi = montecarlo.wilson_interval(hits, n, z=WILSON_Z)
                # Wilson's bound at hits == n is 1 only up to rounding.
                if not lo - 1e-12 <= expected <= hi + 1e-12:
                    problems.append(
                        f"level {level}: pooled {what}_hat {hits}/{n} outside the z={WILSON_Z:g} "
                        f"interval [{lo:.6g}, {hi:.6g}] of {expected:.6g}"
                    )
        return problems

    def determinism(self, cli, reference: tuple) -> list[str]:
        # 2 workers, never more: the reference machine has 2 CPUs.
        two = invoke(cli, self.argv(0, threads=2))
        if (two.code, two.stdout, two.stderr) != (reference[0].code, reference[0].stdout,
                                                 reference[0].stderr):
            return ["simulate with --threads 2 differs from --threads 1"]
        return []

    def source_pulses(self, outputs: list[tuple]) -> int:
        return sum(json.loads(call.stdout)["per_level"][0]["attempts"] for (call,) in outputs)

    def size(self) -> dict:
        pairs = 1 << (self.M - 1)
        return {"qubits": 1 << self.M, "pairs": pairs, "gates": pairs - 1,
                "note": f"simulate --m {self.M}: ProtocolParams(m={self.M}), "
                        f"{self.M - 1} connection levels, {self.TRIALS} trials per op"}


class Verify(Workload):
    name = "verify"
    why = ("tableau execution of the 64-qubit protocol schedule: about a hundred large "
           "StabilizerGroup constructions per op and no Monte Carlo")
    M = 5

    def generate(self) -> None:
        from pbsgraph import planner

        self.sched = planner.plan_tree_protocol(self.M)
        ids = sorted(self.sched.qubit_ids())
        # Seeded distinct ids in shuffled order, so execute_schedule has
        # to re-index the final group.
        new_ids = random.Random(self.seed).sample(range(1, 16 * len(ids)), len(ids))
        self.relabel = dict(zip(ids, new_ids))
        lines = []
        for line in planner.schedule_text(self.sched).splitlines():
            op, *qubits = line.split()
            lines.append(" ".join([op, *(str(self.relabel[int(q)]) for q in qubits)]))
        self.path = self.workdir / "protocol.sched"
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def prepare(self) -> None:
        sched = self.sched
        ids = sorted(sched.qubit_ids())
        rank = {q: i for i, q in enumerate(sorted(self.relabel.values()))}
        # Target vertex k is the k-th smallest original id.
        vertex = [rank[self.relabel[q]] for q in ids]
        self.expected_edges = {tuple(sorted((vertex[u], vertex[v]))) for u, v in sched.target.edges}
        self.expected_header = (f"instructions: {len(sched.instructions)} "
                                f"({sched.pair_count()} pairs, {sched.gate_count()} gates)")
        self.expected_prob = 0.5 ** sched.gate_count()

    def op(self, cli, i: int) -> tuple:
        return (invoke(cli, ["verify", str(self.path)]),)

    def check(self, i: int, output: tuple) -> list[str]:
        (call,) = output
        if call.code != 0:
            return [f"exit {call.code}: {call.stderr.strip()}"]
        lines = call.stdout.splitlines()
        if len(lines) != 3:
            return [f"expected 3 output lines, got {len(lines)}"]
        problems = []
        if lines[0] != self.expected_header:
            problems.append(f"{lines[0]!r} != {self.expected_header!r}")
        prob = _field(lines[1], "probability: ", float)
        if prob != self.expected_prob:
            problems.append(f"probability {prob!r} != 0.5**{self.sched.gate_count()}")
        if _graph_edges(lines[2], len(self.relabel)) != self.expected_edges:
            problems.append("graph differs from the permuted protocol target")
        return problems

    def size(self) -> dict:
        return {"qubits": 2 << self.M, "pairs": 1 << self.M, "gates": (1 << self.M) - 1,
                "note": f"plan --protocol --m {self.M}, qubit ids permuted by the seed"}


NET6_EDGES = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5))
# The kinds of the seeded targets, cycled by the ops. Random 8-vertex
# trees are join-reachable about 2% of the time, so one slot is a
# relabelled 8-qubit protocol tree (reachable by construction): every
# run then exercises a found forest schedule and its 8-qubit Fock
# oracle. The pattern repeats with fresh draws, PLAN_REPEATS times, so
# that a run averages over many targets rather than the same eight:
# search cost depends on the labelling.
PLAN_KINDS = ("tree", "net6", "tree", "net6", "protocol-tree", "net6", "tree", "net6")
PLAN_REPEATS = 6


@dataclass
class Target:
    kind: str
    graph: object
    path: Path
    out: Path
    expect_found: bool = True


class Plan(Workload):
    name = "plan"
    why = ("brute-force search over 6-8 qubit targets with a Fock oracle check: many "
           "small groups and canonical_form calls, the opposite use of the layers to verify")
    min_ops = len(PLAN_KINDS)  # every kind at least once per run

    def generate(self) -> None:
        from pbsgraph import graphs, planner

        rng = random.Random(self.seed)
        self.targets = []
        for k, kind in enumerate(PLAN_KINDS * PLAN_REPEATS):
            if kind == "tree":
                graph = _prufer_tree([rng.randrange(8) for _ in range(6)])
            else:
                base = (graphs.Graph.from_edges(6, NET6_EDGES) if kind == "net6"
                        else planner.plan_tree_protocol(2).target)
                perm = rng.sample(range(base.num_vertices), base.num_vertices)
                graph = graphs.Graph.from_edges(
                    base.num_vertices, [(perm[u], perm[v]) for u, v in base.edges])
            path = self.workdir / f"target{k}.txt"
            path.write_text(graphs.edge_list_text(graph), encoding="utf-8")
            self.targets.append(Target(kind, graph, path, self.workdir / f"target{k}.sched"))

    def prepare(self) -> None:
        from pbsgraph import planner

        for target in self.targets:
            if target.kind != "net6":
                target.expect_found = planner.plan_join_sequence(target.graph) is not None

    def op(self, cli, i: int) -> tuple:
        target = self.targets[i % len(self.targets)]
        argv = ["plan", str(target.path), "--brute-force", "--out", str(target.out)]
        if target.kind == "net6":
            argv.insert(3, "--allow-intra")
        calls = [invoke(cli, argv)]
        if calls[0].code != 0:
            return tuple(calls), None
        calls.append(invoke(cli, ["verify", str(target.out), "--oracle"]))
        return tuple(calls), target.out.read_text(encoding="utf-8")

    def check(self, i: int, output: tuple) -> list[str]:
        target = self.targets[i % len(self.targets)]
        calls, _schedule = output
        plan = calls[0]
        if not target.expect_found:
            if plan.code != 4:
                return [f"{target.kind}: plan exit {plan.code}, expected 4 (unreachable)"]
            return []
        if plan.code != 0:
            return [f"{target.kind}: plan exit {plan.code}: {plan.stderr.strip()}"]
        n = target.graph.num_vertices
        gates = 3 if target.kind == "net6" else n // 2 - 1
        problems = []
        verdict = f"found by search: {n // 2} pairs, {gates} gates"
        if plan.stdout.splitlines()[0] != verdict:
            problems.append(f"{plan.stdout.splitlines()[0]!r} != {verdict!r}")
        verify = calls[1]
        lines = verify.stdout.splitlines()
        if verify.code != 0 or len(lines) != 5:
            return problems + [f"verify --oracle exit {verify.code}, {len(lines)} lines"]
        prob = _field(lines[1], "probability: ", float)
        oracle_prob = _field(lines[3], "oracle probability: ", float)
        fidelity = _field(lines[4], "oracle fidelity: ", float)
        if not math.isclose(prob, oracle_prob, rel_tol=ORACLE_TOL, abs_tol=0.0):
            problems.append(f"oracle probability {oracle_prob!r} != tableau {prob!r}")
        if not fidelity >= 1.0 - ORACLE_TOL:
            problems.append(f"oracle fidelity {fidelity!r}")
        if _graph_edges(lines[2], n) != set(target.graph.edges):
            problems.append("verified graph differs from the target")
        return problems

    def size(self) -> dict:
        return {"qubits": 8, "pairs": 4, "gates": 3,
                "note": "8-vertex trees (4 pairs, 3 gates); net6 targets have 6 qubits, "
                        "3 pairs, 3 gates"}


WORKLOADS = {cls.name: cls for cls in (Simulate, Verify, Plan)}


def _field(line: str, prefix: str, cast):
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {line!r}")
    return cast(line[len(prefix):])


def _graph_edges(line: str, n: int) -> set[tuple[int, int]] | None:
    """Edges of a ``graph: N vertices; edges: u-v ...`` line, or None
    when the line names another vertex count or no graph."""
    head, _, edges = line.partition("; edges: ")
    if head != f"graph: {n} vertices":
        return None
    if edges == "(none)":
        return set()
    return {tuple(sorted(map(int, edge.split("-")))) for edge in edges.split()}


def _prufer_tree(sequence: list[int]):
    """The labelled tree on len(sequence) + 2 vertices with this Prüfer
    sequence."""
    from pbsgraph.graphs import Graph

    n = len(sequence) + 2
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    for v in sequence:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [v for v in range(n) if degree[v] == 1]
    edges.append((u, w))
    return Graph.from_edges(n, edges)
