"""Benchmark of the pbsgraph CLI: simulate, verify and plan workloads.

    python3 benchmarks/run.py --workload {simulate,verify,plan} --seed N \
        --seconds S --trace {0,1}

One closed-loop client calls ``pbsgraph.cli.main`` in-process, starting
the next op as soon as the previous one returns, for S seconds. Every
op's output is checked after the loop. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
Their timings are scaled to the machine's speed, which ``speed.py``
measures during the ops; the raw timings are printed before the result.
``--trace 1`` runs the ops untraced for S/2 seconds, then replays the
same ops with the per-layer wrappers of ``tracing.py`` installed, and
reports the per-layer metrics and the tracing overhead. See README.md
for the workloads, the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing
from workloads import MAX_OPS, SEED_LIMIT, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# Set-up runs once in this process and this many more times in fresh
# child processes; setup_s is the median.
SETUP_PROBES = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Self-test of the traced run: each of these records at least one call
# on its workload.
COVERED = {
    "simulate": [tracing.LEVEL0, tracing.CONNECT, "montecarlo.run_campaign",
                 tracing.SCALING, tracing.ROOT],
    "verify": ["pauli.StabilizerGroup", "pauli.canonical_form", "pauli.measure_zz_postselect",
               "pauli.apply_hadamard", "graphs.apply_pbs_gate", "graphs.stabilizers_to_graph",
               "planner.execute_schedule", "planner.plan_tree_protocol",
               "planner.parse_schedule", "planner.validate_schedule", tracing.ROOT],
    "plan": ["pauli.StabilizerGroup", "pauli.canonical_form", "pauli.measure_zz_postselect",
             "graphs.apply_pbs_gate", "graphs.graph_to_stabilizers", "graphs.parse_edge_list",
             "planner.brute_force_schedule_search", "planner.execute_schedule_fock",
             "planner.parse_schedule", "fock.apply_pbs", "fock.apply_hwp_hadamard",
             "fock.postselect_single_photon", "fock.qubit_statevector_from_stabilizers",
             "fock.fidelity", "fock.tensor", "fock.make_bell_pair", tracing.ROOT],
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: time one set-up in this fresh process and print it.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < SEED_LIMIT:
        parser.error(f"--seed must be in [0, 2**{SEED_LIMIT.bit_length() - 1}): simulate op "
                     f"seeds are seed * {MAX_OPS} + op index and must stay below 2**64")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def timed_setup(args: argparse.Namespace, workdir: Path):
    """Import pbsgraph and generate the workload's seeded inputs; the
    time of both is the set-up time. Returns (time, workload, cli
    module)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pbsgraph.cli

    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.generate()
    return time.perf_counter() - start, workload, pbsgraph.cli


def setup_probe(args: argparse.Namespace) -> float:
    """Time one set-up in a fresh child process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def setup_samples(args: argparse.Namespace, workdir: Path, probes: int):
    """Time the set-up in this process and in `probes` fresh child
    processes, with numpy's import timed before and after each. Returns
    (set-up times, the same scaled to the machine's speed, workload, cli
    module)."""
    imports = [speed.import_time()]
    setup, workload, cli = timed_setup(args, workdir)
    setups = [setup]
    imports.append(speed.import_time())
    for _ in range(probes):
        setups.append(setup_probe(args))
        imports.append(speed.import_time())
    return setups, speed.scale_setups(setups, imports), workload, cli


def closed_loop(workload, cli, seconds: float):
    """Run ops 0, 1, ... back to back until `seconds` have passed and at
    least the workload's min_ops are done. Returns outputs, per-op
    latencies, and the latencies scaled to the machine's speed."""
    outputs = []
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        while len(outputs) < MAX_OPS and (
            len(outputs) < workload.min_ops or time.perf_counter() - start < seconds
        ):
            outputs.append(sampler.measure(lambda: workload.op(cli, len(outputs))))
    return outputs, sampler.elapsed, sampler.scaled()


def check_ops(workload, outputs: list[tuple]) -> dict[int, list[str]]:
    """Problems per failed op, including run-level checks (the pooled
    Monte Carlo estimates), whose failure fails every op they pool."""
    failures = {}
    for i, output in enumerate(outputs):
        try:
            problems = workload.check(i, output)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures[i] = problems
    passed = [out for i, out in enumerate(outputs) if i not in failures]
    pooled = workload.check_pooled(passed) if passed else []
    if pooled:
        for i in range(len(outputs)):
            failures.setdefault(i, []).extend(pooled)
    return failures


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10
    ops beyond it; the maximum when there are 10 ops or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def traced_replay(args, workload, cli, outputs: list[tuple], untraced: float, workdir: Path):
    """Replay ops 0..len(outputs)-1 with the tracer installed and run the
    tracer's self-tests. `untraced` is the raw time of the same ops
    without the tracer. Returns (tracer, overhead, problems)."""
    from pbsgraph import graphs, scaling

    tracer = tracing.Tracer()
    problems = []
    tracer.install()
    try:
        unwrapped = tracer.binding_sites(wrapped=False)
        if unwrapped:
            problems.append(f"binding sites left unwrapped: {unwrapped}")
        # Traced set-up on a separate instance, so the measured one keeps
        # its prepared expectations.
        setup_dir = workdir / "traced-setup"
        setup_dir.mkdir()
        tracer.op = "setup"
        with tracer.setup():
            WORKLOADS[args.workload](args.seed, setup_dir).generate()
        replayed = []
        start = time.perf_counter()
        for i in range(len(outputs)):
            tracer.op = i
            replayed.append(workload.op(cli, i))
        traced = time.perf_counter() - start
        # Self-test: the benchmark's own checks and direct calls made
        # outside an op are not traced.
        before = tracer.snapshot()
        check_ops(workload, replayed)
        graphs.graph_to_stabilizers(graphs.parse_edge_list("vertices 2\n0 1\n"))
        scaling.a_closed_form(1, 0.5)
        if tracer.snapshot() != before:
            problems.append("calls made outside an op were traced")
    finally:
        tracer.uninstall()
    leftover = tracer.binding_sites(wrapped=True)
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")
    differing = [i for i, (a, b) in enumerate(zip(outputs, replayed)) if a != b]
    if differing:
        problems.append(f"traced outputs differ from untraced ones at ops {differing[:10]}")
    missing = [key for key in COVERED[args.workload] if tracer.stats[key].count == 0]
    if missing:
        problems.append(f"per-layer metrics with no recorded call: {missing}")
    return tracer, traced / untraced - 1.0, problems


def layer_metrics(tracer: tracing.Tracer, overhead: float, pulses_per_s: float,
                  error_rate: float) -> dict[str, tuple[float, str]]:
    stats = tracer.stats
    metrics: dict[str, tuple[float, str]] = {}

    def timing(key: str, *fields: str) -> None:
        for field in fields:
            metrics[f"{key}.{field}"] = (getattr(stats[key], field),
                                         "count" if field == "count" else "s")

    def ratio(name: str, hits: int, total: int) -> None:
        metrics[name] = (hits / total if total else 0.0, "fraction")

    level0, connect = stats[tracing.LEVEL0], stats[tracing.CONNECT]
    timing(tracing.LEVEL0, "count", "self_s")
    metrics["montecarlo.level0.attempts"] = (level0.total, "count")
    ratio("montecarlo.level0.accept_ratio", level0.count, level0.total)
    timing(tracing.CONNECT, "count", "self_s")
    metrics["montecarlo.connect.attempts"] = (connect.total, "count")
    ratio("montecarlo.connect.accept_ratio", connect.count, connect.total)
    ratio("montecarlo.connect.good_ratio", connect.hits, connect.count)
    timing("montecarlo.run_campaign", "busy_s")
    group = stats["pauli.StabilizerGroup"]
    timing("pauli.StabilizerGroup", "count", "self_s")
    metrics["pauli.StabilizerGroup.mean_qubits"] = (
        group.total / group.count if group.count else 0.0, "qubits")
    timing("pauli.canonical_form", "count", "self_s")
    for key in ("pauli.measure_zz_postselect", "pauli.apply_hadamard", "graphs.apply_pbs_gate",
                "graphs.stabilizers_to_graph", "graphs.graph_to_stabilizers",
                "graphs.parse_edge_list", "planner.execute_schedule",
                "planner.execute_schedule_fock", "planner.plan_tree_protocol",
                "planner.parse_schedule", "planner.validate_schedule"):
        timing(key, "count", "busy_s", "self_s")
    search = stats["planner.brute_force_schedule_search"]
    timing("planner.brute_force_schedule_search", "count", "self_s")
    ratio("planner.brute_force_schedule_search.found_ratio", search.hits, search.count)
    for key in ("fock.apply_pbs", "fock.apply_hwp_hadamard", "fock.postselect_single_photon",
                "fock.qubit_statevector_from_stabilizers", "fock.fidelity", "fock.tensor",
                "fock.make_bell_pair", tracing.SCALING):
        timing(key, "count", "self_s")
    timing(tracing.ROOT, "count", "busy_s", "self_s")
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    metrics["source_pulses_per_s"] = (pulses_per_s, "pulses/s")
    metrics["error_rate"] = (error_rate, "fraction")
    return metrics


def run_record(args, workload, ops: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pbsgraph").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "size": workload.size(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args: argparse.Namespace, workdir: Path) -> int:
    setups, scaled_setups, workload, cli = setup_samples(
        args, workdir, 0 if args.trace else SETUP_PROBES)
    workload.prepare()
    warm = workload.op(cli, 0)
    outputs, latencies, scaled = closed_loop(
        workload, cli, args.seconds / 2 if args.trace else args.seconds)
    failures = check_ops(workload, outputs)

    run_problems = []
    if warm != outputs[0]:
        run_problems.append("op 0 repeated gave different output")
    run_problems += workload.determinism(cli, outputs[0])
    if args.trace:
        tracer, overhead, trace_problems = traced_replay(
            args, workload, cli, outputs, sum(latencies), workdir)
        run_problems += trace_problems
    if run_problems:
        failures.setdefault(0, []).extend(run_problems)

    n = len(outputs)
    passed = [out for i, out in enumerate(outputs) if i not in failures]
    pulses_per_s = workload.source_pulses(passed) / sum(scaled)
    error_rate = len(failures) / n
    record = run_record(args, workload, n)
    print("record " + json.dumps(record, sort_keys=True))
    for i, problems in sorted(failures.items())[:20]:
        print(f"FAIL op {i}: " + "; ".join(problems))

    if args.trace:
        metrics = layer_metrics(tracer, overhead, pulses_per_s, error_rate)
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        spans = [dict(zip(("id", "parent", "op", "name", "start", "end"), span))
                 for span in tracer.spans]
        spans_path.write_text(json.dumps({"record": record, "spans": spans}) + "\n",
                              encoding="utf-8")
        print(f"spans: {len(spans)} written to {spans_path.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"{name:<52} {value:.6g} {unit}")
    else:
        tail, percentile = tail_latency(scaled)
        metrics = {
            "setup_s": statistics.median(scaled_setups),
            "throughput_ops_per_s": n / sum(scaled),
            "latency_p50_s": statistics.median(scaled),
            "latency_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
        notes = {
            "setup_s": f"median of {len(setups)} set-ups; raw {statistics.median(setups):.6g} s",
            "throughput_ops_per_s": f"raw {n / sum(latencies):.6g} ops/s",
            "latency_p50_s": f"raw {statistics.median(latencies):.6g} s",
            "latency_tail_s": f"p{percentile:.1f} of {n} ops; "
                              f"raw {tail_latency(latencies)[0]:.6g} s",
        }
        if args.workload == "simulate":
            metrics["source_pulses_per_s"] = (pulses_per_s, "pulses/s")
        metrics["error_rate"] = (error_rate, "fraction")
        notes["error_rate"] = f"{len(failures)} of {n} ops"
        for name, (value, unit) in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:<22} {value:.6g} {unit}{note}")
        # source_pulses_per_s and error_rate are printed above but left out
        # of the result line, whose metrics are the same nonzero set on
        # every workload; error_rate is failed / attempted there.
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}

    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pbsgraph" / "__init__.py").is_file():
        print(f"error: no pbsgraph sources at {SRC / 'pbsgraph'}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_probe:
            print(repr(timed_setup(args, workdir)[0]))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
