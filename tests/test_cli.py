"""End-to-end tests of the command line interface via main(argv)."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbsgraph
from pbsgraph.cli import main
from pbsgraph.graphs import Graph, edge_list_text
from pbsgraph.planner import CreatePair, PbsGate, Schedule, execute_schedule, parse_schedule

STAR4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
NET6 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def _write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(edge_list_text(graph))
    return str(path)


def test_analyze_headline_numbers(capsys):
    assert main(["analyze", "--m", "7", "--eta-s", "0.01", "--eta-d", "0.7",
                 "--rep-rate-hz", "80e6"]) == 0
    out = capsys.readouterr().out
    assert "m=7 n=128" in out
    assert "T_exact/t0  = 681888605.175" in out
    assert "T_approx/t0 = 178336026.261" in out
    assert "T_approx = 2.2292 s at t0 = 1.25e-08 s" in out


def test_analyze_naive_mode(capsys):
    assert main(["analyze", "--naive", "--n", "128", "--eta-s", "0.01",
                 "--eta-d", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "log10(T/t0) = 166.792" in out


def test_analyze_trivial_point(capsys):
    assert main(["analyze", "--m", "1", "--eta-s", "1", "--eta-d", "1"]) == 0
    out = capsys.readouterr().out
    assert "T_exact/t0  = 1 " in out


def test_analyze_csv(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    assert main(["analyze", "--m", "3", "--eta-s", "0.5", "--eta-d", "0.5",
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "m,n,a_m,p_m,T_exact_over_t0,T_approx_over_t0,naive_log10_T_over_t0"
    assert len(lines) == 4
    assert f"wrote {csv_path} (3 rows)" in capsys.readouterr().out


def test_analyze_usage_errors(capsys):
    assert main(["analyze", "--eta-s", "0.5", "--eta-d", "0.5"]) == 2
    assert "needs --m" in capsys.readouterr().err
    assert main(["analyze", "--m", "3", "--eta-s", "0", "--eta-d", "0.5"]) == 2
    assert "eta_s" in capsys.readouterr().err


def test_simulate_writes_deterministic_json(tmp_path, capsys):
    args = ["simulate", "--m", "2", "--eta-s", "0.5", "--eta-d", "0.8",
            "--trials", "40", "--seed", "9", "--no-timestamp"]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.json"), "--threads", "2"]) == 0
    capsys.readouterr()
    doc_a = (tmp_path / "a.json").read_bytes()
    doc_b = (tmp_path / "b.json").read_bytes()
    assert doc_a == doc_b
    doc = json.loads(doc_a)
    assert doc["trials"] == 40
    assert doc["params"]["m"] == 2
    assert "timestamp" not in doc


def test_simulate_rejects_thread_counts_above_cap_without_starting_workers(monkeypatch, capsys):
    import pbsgraph.montecarlo as montecarlo

    def no_pool(*args, **kwargs):
        pytest.fail("a process pool was started")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    args = ["simulate", "--m", "2", "--eta-s", "0.5", "--eta-d", "0.8", "--trials", "4"]
    for threads in (montecarlo._MAX_THREADS + 1, 10**6):
        assert main(args + ["--threads", str(threads)]) == 2
        assert f"threads must be in [1, {montecarlo._MAX_THREADS}]" in capsys.readouterr().err


def test_simulate_rejects_out_of_range_seeds_without_starting_workers(monkeypatch, capsys):
    import pbsgraph.montecarlo as montecarlo

    def no_pool(*args, **kwargs):
        pytest.fail("a process pool was started")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    args = ["simulate", "--m", "2", "--eta-s", "0.5", "--eta-d", "0.8", "--trials", "4",
            "--threads", "2"]
    for seed in (-1, 2**64):
        assert main(args + ["--seed", str(seed)]) == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err


def test_cli_import_loads_neither_multiprocessing_nor_statistics():
    """The process pool and statistics.median are imported on first use,
    so a fresh interpreter importing the CLI, as every plan or verify run
    does, loads neither module."""
    src = str(Path(pbsgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, pbsgraph.cli; "
             "print(sorted(m for m in ('multiprocessing', 'statistics', 'concurrent.futures') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_simulate_pool_has_no_more_workers_than_chunks(monkeypatch, tmp_path, capsys):
    """At the thread cap the pool is sized by the work, and the JSON is
    the same as a serial run's. The pool runs in-process here."""
    import pbsgraph.montecarlo as montecarlo

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
    args = ["simulate", "--m", "2", "--eta-s", "0.5", "--eta-d", "0.8",
            "--trials", "10", "--seed", "9", "--no-timestamp"]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.json"),
                        "--threads", str(montecarlo._MAX_THREADS)]) == 0
    capsys.readouterr()
    assert sizes == [10]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_simulate_stdout_includes_timestamp_by_default(capsys):
    assert main(["simulate", "--m", "1", "--eta-s", "0.9", "--eta-d", "0.9",
                 "--trials", "5", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "timestamp" in doc


def test_simulate_budget_returns_partial_code(tmp_path, capsys):
    code = main(["simulate", "--m", "3", "--eta-s", "0.1", "--eta-d", "0.7",
                 "--trials", "1000000", "--seed", "2", "--max-seconds", "0.2",
                 "--no-timestamp", "--out", str(tmp_path / "partial.json")])
    assert code == 3
    assert "partial" in capsys.readouterr().err
    doc = json.loads((tmp_path / "partial.json").read_text())
    assert doc["partial"] is True
    assert doc["trials"] < 1000000


def test_simulate_rejects_bad_budgets_before_running(monkeypatch, capsys):
    import pbsgraph.montecarlo as montecarlo

    def no_trials(*args, **kwargs):
        pytest.fail("a trial ran")

    monkeypatch.setattr(montecarlo, "_run_trial_range", no_trials)
    args = ["simulate", "--m", "2", "--eta-s", "0.5", "--eta-d", "0.8", "--trials", "4"]
    for budget in ("nan", "inf", "0", "-1"):
        assert main(args + ["--max-seconds", budget]) == 2
        captured = capsys.readouterr()
        assert "max_seconds must be finite and positive" in captured.err
        assert captured.out == ""


def test_simulate_and_analyze_bound_levels_at_the_boundary(monkeypatch, capsys):
    """Levels above each command's cap exit 2 before any trial runs; the
    caps themselves are accepted (simulate with its trials stubbed out)."""
    import pbsgraph.cli as cli
    import pbsgraph.montecarlo as montecarlo

    ran = []

    def no_trials(args):
        ran.append(args)
        return [], [1], [1]

    monkeypatch.setattr(montecarlo, "_run_trial_range", no_trials)
    sim = ["simulate", "--eta-s", "0.5", "--eta-d", "0.8", "--trials", "1", "--no-timestamp"]
    assert main(sim + ["--m", str(cli._MAX_SIMULATE_LEVELS)]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["m"] == cli._MAX_SIMULATE_LEVELS
    for m in (cli._MAX_SIMULATE_LEVELS + 1, 10**6):
        assert main(sim + ["--m", str(m)]) == 2
        assert f"--m must be at most {cli._MAX_SIMULATE_LEVELS}, got {m}" in capsys.readouterr().err
    assert len(ran) == 1

    analyze = ["analyze", "--eta-s", "0.5", "--eta-d", "0.8", "--rep-rate-hz", "1e6"]
    assert main(analyze + ["--m", str(cli._MAX_ANALYZE_LEVELS)]) == 0
    out = capsys.readouterr().out
    assert "T_exact/t0  = 10^157238\n" in out and "T_approx/t0 = 10^157237\n" in out
    for m in (cli._MAX_ANALYZE_LEVELS + 1, 10**6):
        assert main(analyze + ["--m", str(m)]) == 2
        assert f"--m must be at most {cli._MAX_ANALYZE_LEVELS}, got {m}" in capsys.readouterr().err


def test_simulate_marks_analytics_as_ideal_detector_only(capsys):
    args = ["simulate", "--m", "1", "--eta-s", "0.5", "--eta-d", "0.8",
            "--trials", "5", "--seed", "1", "--no-timestamp"]
    for extra, matches in (([], True), (["--dark", "0.05"], False),
                           (["--number-resolving"], False), (["--policy", "kept"], False)):
        assert main(args + extra) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analytic"]["matches_simulated_detector"] is matches


def test_simulate_dark_counts_contaminate_base_level(capsys):
    assert main(["simulate", "--m", "1", "--eta-s", "0.1", "--eta-d", "0.7",
                 "--trials", "300", "--seed", "4", "--dark", "1e-2",
                 "--no-timestamp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["models"]["dark_count_prob"] == 0.01
    assert doc["per_level"][0]["a_hat"] < 0.95


def test_plan_star_then_verify_round_trip(tmp_path, capsys):
    star = _write_graph(tmp_path, "star4.txt", STAR4)
    out = tmp_path / "star4.sched"
    assert main(["plan", star, "--out", str(out)]) == 0
    assert "reachable: 2 pairs, 1 gates" in capsys.readouterr().out
    sched = parse_schedule(out.read_text())
    assert sched.pair_count() == 2 and sched.gate_count() == 1

    assert main(["verify", str(out), "--oracle"]) == 0
    report = capsys.readouterr().out
    assert "probability: 0.5" in report
    assert "graph: 4 vertices" in report
    assert "oracle fidelity: 1.000000000000" in report


def _oracle_report(capsys, sched_path) -> dict[str, str]:
    assert main(["verify", str(sched_path), "--oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return dict(line.split(": ", 1) for line in lines if ": " in line)


def test_oracle_reaches_sixteen_qubits(tmp_path, capsys):
    """The m=3 protocol schedule (16 qubits) and a 12-qubit schedule from
    the join planner: the oracle reads the tableau's probability and
    fidelity 1."""
    protocol = tmp_path / "m3.sched"
    assert main(["plan", "--protocol", "--m", "3", "--out", str(protocol)]) == 0
    # 12-vertex caterpillar: pairs (2k+1, 2k+2), each joined to the next
    pairs = [(2 * k, 2 * k + 1) for k in range(6)]
    spine = [(2 * k + 1, 2 * k + 2) for k in range(5)]
    graph = execute_schedule(Schedule(tuple(
        [CreatePair(*p) for p in pairs] + [PbsGate(*e) for e in spine])))[2]
    target = _write_graph(tmp_path, "caterpillar12.txt", graph)
    joined = tmp_path / "caterpillar12.sched"
    assert main(["plan", target, "--out", str(joined)]) == 0
    capsys.readouterr()
    for path, qubits in ((protocol, 16), (joined, 12)):
        report = _oracle_report(capsys, path)
        assert report["graph"].startswith(f"{qubits} vertices")
        assert report["oracle probability"] == report["probability"]
        assert report["oracle fidelity"] == "1.000000000000"


def test_oracle_skips_past_its_cap_without_running(tmp_path, capsys, monkeypatch):
    """A 32-qubit schedule is over the cap: verify says so and never calls
    the dense executor or the bridge."""
    import pbsgraph.cli as cli

    def refuse(*args):
        raise AssertionError("oracle ran past its cap")

    monkeypatch.setattr(cli, "execute_schedule_fock", refuse)
    monkeypatch.setattr(cli, "qubit_statevector_from_stabilizers", refuse)
    sched = tmp_path / "m4.sched"
    assert main(["plan", "--protocol", "--m", "4", "--out", str(sched)]) == 0
    capsys.readouterr()
    assert cli.MAX_DENSE_QUBITS == 16
    report = _oracle_report(capsys, sched)
    assert report["oracle"] == "skipped (32 qubits exceeds the 16-qubit cap)"


def test_plan_unreachable_target(tmp_path, capsys):
    path4 = _write_graph(tmp_path, "path4.txt", PATH4)
    assert main(["plan", path4]) == 4
    assert "unreachable" in capsys.readouterr().err


def test_plan_brute_force_finds_loop_demo(tmp_path, capsys):
    net = _write_graph(tmp_path, "net6.txt", NET6)
    assert main(["plan", net, "--brute-force", "--allow-intra"]) == 0
    out = capsys.readouterr().out
    # the exact schedule pins the search's expansion order
    assert out == (
        "# found by search: 3 pairs, 3 gates\n"
        "PAIR 0 1\nPAIR 2 3\nPAIR 4 5\n"
        "PBS 0 2\nPBS 1 4\nPBS 2 5\n"
    )
    assert parse_schedule(out).gate_count() == 3

    assert main(["plan", net, "--brute-force"]) == 4
    assert "no schedule found" in capsys.readouterr().err

    assert main(["plan", net, "--brute-force", "--max-gates", "-3"]) == 2
    assert "max_gates must be non-negative" in capsys.readouterr().err


def test_plan_protocol_mode_with_dot_export(tmp_path, capsys):
    dot = tmp_path / "target.dot"
    sched_path = tmp_path / "proto.sched"
    assert main(["plan", "--protocol", "--m", "2", "--out", str(sched_path),
                 "--dot", str(dot)]) == 0
    capsys.readouterr()
    text = dot.read_text()
    assert text.startswith("graph G {")
    sched = parse_schedule(sched_path.read_text())
    assert sched.pair_count() == 4 and sched.gate_count() == 3
    assert main(["verify", str(sched_path)]) == 0
    assert "probability: 0.125" in capsys.readouterr().out


def test_plan_usage_errors(tmp_path, capsys):
    assert main(["plan"]) == 2
    capsys.readouterr()
    assert main(["plan", "--protocol"]) == 2
    capsys.readouterr()
    assert main(["plan", str(tmp_path / "missing.txt")]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert main(["plan", str(bad)]) == 2


def test_plan_protocol_rejects_levels_above_cap_before_building(monkeypatch, capsys):
    import pbsgraph.planner as planner

    def no_pairs(*args):
        pytest.fail("the schedule was built")

    monkeypatch.setattr(planner, "CreatePair", no_pairs)
    for m in (planner._MAX_PROTOCOL_LEVELS + 1, 10**6):
        assert main(["plan", "--protocol", "--m", str(m)]) == 2
        assert f"m must be in [1, {planner._MAX_PROTOCOL_LEVELS}]" in capsys.readouterr().err


def test_verify_rejects_malformed_schedule(tmp_path, capsys):
    bad = tmp_path / "bad.sched"
    bad.write_text("PBS 0 1\n")
    assert main(["verify", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_validates_the_schedule_once(monkeypatch, tmp_path, capsys):
    import pbsgraph.planner as planner

    path = tmp_path / "p.sched"
    path.write_text(planner.schedule_text(planner.plan_tree_protocol(3)))
    calls = []
    original = planner.validate_schedule

    def counting(sched):
        calls.append(sched)
        original(sched)

    monkeypatch.setattr(planner, "validate_schedule", counting)
    assert main(["verify", str(path)]) == 0
    assert "probability: 0.0078125" in capsys.readouterr().out
    assert len(calls) == 1


def test_verify_empty_schedule(tmp_path, capsys):
    empty = tmp_path / "empty.sched"
    empty.write_text("# nothing yet\n")
    assert main(["verify", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "instructions: 0" in out
    assert "probability: 1.0" in out


def test_config_file_supplies_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# shared operating point\nm = 2\neta_s = 0.5\neta_d = 0.8\n"
        "trials = 30\nseed = 7\nno_timestamp = true\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert main(["simulate", "--m", "2", "--eta-s", "0.5", "--eta-d", "0.8",
                 "--trials", "30", "--seed", "7", "--no-timestamp"]) == 0
    from_flags = capsys.readouterr().out
    assert from_config == from_flags

    assert main(["simulate", "--config", str(cfg), "--seed", "8"]) == 0
    overridden = capsys.readouterr().out
    assert overridden != from_config
    assert json.loads(overridden)["seed"] == 8


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m = 2\nwarp_speed = 9\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_values_take_each_flags_type(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sim.cfg"
    base = "m = 2\neta_s = 0.5\neta_d = 0.8\ntrials = 5\nno-timestamp = yes\n"
    cfg.write_text(base + "policy = kept\nout = res.json\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert "wrote res.json" in capsys.readouterr().out
    assert json.loads((tmp_path / "res.json").read_text())["params"]["policy"] == "kept"

    cfg.write_text(base + "no_timestamp = off\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert "timestamp" in json.loads(capsys.readouterr().out)

    for bad, message in (("trials = 2.5", "invalid int value: '2.5'"),
                         ("m = 2.0", "invalid int value: '2.0'"),
                         ("eta-s = true", "invalid float value: 'true'"),
                         ("no_timestamp = maybe", "expected true/yes/on or false/no/off")):
        cfg.write_text(base + bad + "\n")
        try:
            code = main(["simulate", "--config", str(cfg)])
        except SystemExit as exc:  # argparse rejects a value it cannot convert
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err


def test_calls_leave_no_cyclic_garbage_or_config_defaults(tmp_path, capsys):
    # Cyclic garbage from each call makes in-process callers stall in
    # full collections; a --config call must not leave its defaults behind.
    sched = tmp_path / "two.sched"
    sched.write_text("PAIR 0 1\nPAIR 2 3\nPBS 1 2\n")
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("oracle = yes\n")
    assert main(["verify", str(sched), "--config", str(cfg)]) == 0
    assert "oracle fidelity" in capsys.readouterr().out
    assert main(["verify", str(sched)]) == 0
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        assert main(["verify", str(sched)]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert "oracle" not in capsys.readouterr().out


def test_analyze_t0_seconds_overrides_rep_rate(capsys):
    assert main(["analyze", "--m", "1", "--eta-s", "1", "--eta-d", "1",
                 "--rep-rate-hz", "1e6", "--t0-seconds", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "at t0 = 2 s" in out


def test_analyze_rejects_non_finite_pulse_timing(tmp_path, capsys):
    """nan, inf and -inf for --rep-rate-hz and --t0-seconds exit 2 with
    the messages of a non-positive value, as flags and from --config."""
    analyze = ["analyze", "--m", "3", "--eta-s", "0.1", "--eta-d", "0.7"]
    cfg = tmp_path / "timing.cfg"
    for flag, message in (("rep-rate-hz", "repetition rate must be positive"),
                          ("t0-seconds", "t0 must be positive")):
        for value in ("nan", "inf", "-inf"):
            assert main(analyze + [f"--{flag}={value}"]) == 2
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == ""
            cfg.write_text(f"{flag} = {value}\n")
            assert main(analyze + ["--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == ""


def _analyze_with_timing(tmp_path, capsys, timing):
    """analyze at m=3 with the given timing flags, once on the command line
    and once through --config: [(exit code, stdout, stderr)] for each."""
    analyze = ["analyze", "--m", "3", "--eta-s", "0.1", "--eta-d", "0.7"]
    cfg = tmp_path / "timing.cfg"
    cfg.write_text("".join(f"{flag} = {value}\n" for flag, value in timing))
    runs = []
    for argv in (analyze + [f"--{flag}={value}" for flag, value in timing],
                 analyze + ["--config", str(cfg)]):
        code = main(argv)
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    return runs


def test_analyze_checks_every_timing_flag_and_the_period_a_rate_gives(tmp_path, capsys):
    """A bad flag fails even when the other one sets t0, and a rate whose
    period overflows (1/1e-320 is inf) fails too, with its own message."""
    for timing, message in (
        ((("rep-rate-hz", "1e-320"),), "repetition rate too small: period overflows"),
        ((("rep-rate-hz", "-5"), ("t0-seconds", "1e-9")), "repetition rate must be positive"),
        ((("rep-rate-hz", "1e-320"), ("t0-seconds", "1e-9")),
         "repetition rate too small: period overflows"),
        ((("rep-rate-hz", "1e6"), ("t0-seconds", "0")), "t0 must be positive"),
    ):
        for code, out, err in _analyze_with_timing(tmp_path, capsys, timing):
            assert code == 2 and message in err and out == ""


def test_analyze_prints_an_overflowing_time_as_a_power_of_ten(tmp_path, capsys):
    """T_exact/t0 and t0 are finite but their product is not: the time is
    printed as 10^(log10 T/t0 + log10 t0), as the T_exact/t0 line does."""
    for code, out, err in _analyze_with_timing(tmp_path, capsys, (("t0-seconds", "1e307"),)):
        assert code == 0 and err == ""
        assert "T_exact  = 10^309.439 s at t0 = 1e+307 s" in out
        assert "T_approx = 10^308.961 s at t0 = 1e+307 s" in out
        assert "inf" not in out
