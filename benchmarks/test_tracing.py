"""Self-tests of the benchmark: tracer coverage and restoration, the
exclusion of calls made outside an op, argument validation, and the
metric list in BENCHMARK.json.

    python3 -m pytest benchmarks/test_tracing.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import pbsgraph.cli as cli  # noqa: E402
from pbsgraph import fock, graphs, montecarlo, planner, scaling  # noqa: E402


def test_every_binding_site_is_wrapped_and_restored():
    originals = {
        "cli.run_campaign": cli.run_campaign,
        "cli.execute_schedule": cli.execute_schedule,
        "planner.apply_pbs_gate": planner.apply_pbs_gate,
        "planner.graph_to_stabilizers": planner.graph_to_stabilizers,
        "planner.tensor": planner.tensor,
        "montecarlo.a_closed_form": montecarlo.a_closed_form,
        "StabilizerGroup.__init__": planner.StabilizerGroup.__init__,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.binding_sites(wrapped=False) == []
        assert cli.run_campaign is not originals["cli.run_campaign"]
        assert planner.apply_pbs_gate is graphs.apply_pbs_gate
        assert planner.tensor is fock.tensor
        assert montecarlo.a_closed_form is scaling.a_closed_form
    finally:
        tracer.uninstall()
    assert tracer.binding_sites(wrapped=True) == []
    assert cli.run_campaign is originals["cli.run_campaign"]
    assert cli.execute_schedule is originals["cli.execute_schedule"]
    assert planner.apply_pbs_gate is originals["planner.apply_pbs_gate"]
    assert planner.graph_to_stabilizers is originals["planner.graph_to_stabilizers"]
    assert planner.tensor is originals["planner.tensor"]
    assert montecarlo.a_closed_form is originals["montecarlo.a_closed_form"]
    assert planner.StabilizerGroup.__init__ is originals["StabilizerGroup.__init__"]


def test_only_calls_under_an_op_are_counted(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("vertices 2\n0 1\n", encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        before = tracer.snapshot()
        graphs.graph_to_stabilizers(graphs.parse_edge_list(path.read_text()))
        scaling.a_closed_form(2, 0.5)
        assert tracer.snapshot() == before
        assert cli.main(["plan", str(path), "--brute-force", "--out", str(tmp_path / "s")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.stats["cli.main"].count == 1
    assert tracer.stats["graphs.parse_edge_list"].count == 1
    assert tracer.stats["planner.brute_force_schedule_search"].hits == 1
    assert [span[3] for span in tracer.spans][-1] == "cli.main"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_replay_covers_the_listed_metrics(name, tmp_path):
    """A short traced run: every per-layer metric listed for the workload
    records a call, traced outputs equal untraced ones, and the checks'
    own calls are not traced."""
    args = run.parse_args(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", "1"])
    workload = WORKLOADS[name](args.seed, tmp_path)
    workload.generate()
    workload.prepare()
    outputs, latencies, _scaled = run.closed_loop(workload, cli, 0.0)
    assert run.check_ops(workload, outputs) == {}
    tracer, _overhead, problems = run.traced_replay(args, workload, cli, outputs, sum(latencies),
                                                    tmp_path)
    assert problems == []
    assert all(tracer.stats[key].count > 0 for key in run.COVERED[name])


@pytest.mark.parametrize("argv", [
    ["--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0"],
    ["--workload", "simulate", "--seed", str(1 << 44), "--seconds", "1", "--trace", "0"],
    ["--workload", "simulate", "--seed", "-1", "--seconds", "1", "--trace", "0"],
    ["--workload", "simulate", "--seed", "1", "--seconds", "0", "--trace", "0"],
])
def test_bad_arguments_exit_nonzero(argv):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(argv)
    assert exc.value.code == 2


def test_largest_seed_gives_valid_op_seeds():
    args = run.parse_args(["--workload", "simulate", "--seed", str((1 << 44) - 1),
                           "--seconds", "1", "--trace", "0"])
    workload = WORKLOADS["simulate"](args.seed, None)
    assert workload.op_seed(run.MAX_OPS - 1) == (1 << 64) - 1


def test_tail_latency_leaves_ten_ops_beyond():
    value, percentile = run.tail_latency([float(v) for v in range(1, 41)])
    assert (value, percentile) == (30.0, 75.0)
    assert run.tail_latency([1.0, 2.0]) == (2.0, 100.0)


def test_sampler_scales_each_call_by_the_passes_during_and_around_it():
    ref = speed.REFERENCE_PASS_S
    sampler = speed.Sampler()
    with sampler:
        begin = time.perf_counter()
        sampler.measure(lambda: sum(i * i for i in range(1_000_000)))
        wall = time.perf_counter() - begin
    # The timer fired during the call, and its passes are not in the call's time.
    first, last = sampler._windows[0]
    assert (first, len(sampler.passes)) == (speed.NEIGHBOURS, last + speed.NEIGHBOURS)
    assert last > first
    assert sampler.elapsed[0] < wall
    # Call 0 had pass 2 timed during it, call 1 none; each also takes two
    # passes on each side. The slow last pass is outside call 0's window
    # and the median leaves it out for call 1.
    sampler.passes = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 9 * ref]
    sampler.elapsed = [0.1, 0.1]
    sampler._windows = [(2, 3), (5, 5)]
    assert sampler.scaled() == pytest.approx([0.1, 0.05])


def test_each_setup_is_scaled_by_the_imports_timed_around_it():
    ref = speed.REFERENCE_IMPORT_S
    scaled = speed.scale_setups([0.3, 0.3], [ref, 3 * ref, 5 * ref])
    assert scaled == pytest.approx([0.15, 0.075])
    assert 0 < speed.import_time() < 60


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = run.layer_metrics(tracing.Tracer(), 0.0, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_value, unit) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
