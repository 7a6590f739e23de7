"""Acceptance suite: one test per release criterion.

Run `pytest tests/test_acceptance.py -v` to get exactly one pass/fail
line per criterion. Each test also prints the measured numbers it
checked, visible with -s or on failure.

The statistical criteria (8, 9) use fixed seeds and pre-sized campaigns
so they are deterministic; the Monte Carlo is thread-invariant by
construction (criterion 11), so they may use worker processes freely.
"""

import json
import math
import random

import networkx as nx
import pytest

from pbsgraph.cli import main as cli_main
from pbsgraph.fock import (
    FockState,
    ModeLabel,
    fidelity,
    make_bell_pair,
    qubit_statevector_from_stabilizers,
    tensor,
)
from pbsgraph.graphs import (
    Graph,
    apply_pbs_gate,
    graph_to_stabilizers,
    pbs_join_graphs,
)
from pbsgraph.montecarlo import (
    DetectorModel,
    SourceModel,
    run_campaign,
    wilson_interval,
)
from pbsgraph.planner import (
    CreatePair,
    PbsGate,
    Schedule,
    brute_force_schedule_search,
    execute_schedule,
    execute_schedule_fock,
    plan_join_sequence,
    validate_schedule,
)
from pbsgraph.scaling import (
    ProtocolParams,
    a_closed_form,
    a_recursion_step,
    base_success_prob,
    connection_success_prob,
    naive_time_log10,
    total_time_approx,
    total_time_exact,
)


def test_criterion_01_headline_time_scale():
    """Approximate pulse count at n=128, eta_s=0.01, eta_d=0.7 lands on
    the headline magnitude, about two seconds at 80 MHz."""
    pulses = total_time_approx(128, 0.01, 0.7)
    assert 1.7e8 <= pulses <= 1.9e8
    seconds = pulses / 80e6
    assert 1.0 <= seconds <= 3.0
    print(f"criterion 1: PASS (T/t0 = {pulses:.4g} pulses, {seconds:.3f} s at 80 MHz)")


def test_criterion_02_direct_generation_baseline():
    log10_t = naive_time_log10(128, 0.01, 0.7)
    assert 166.3 <= log10_t <= 167.3
    print(f"criterion 2: PASS (direct generation log10(T/t0) = {log10_t:.5f})")


def test_criterion_03_closed_form_equals_recursion():
    worst = 0.0
    for tenths in range(1, 11):
        eta_d = tenths / 10.0
        assert a_closed_form(0, eta_d) == 1.0
        a = 1.0
        for m in range(1, 21):
            a = a_recursion_step(a, eta_d)
            worst = max(worst, abs(a - a_closed_form(m, eta_d)))
    assert worst <= 1e-12
    print(f"criterion 3: PASS (max |closed form - recursion| = {worst:.3e})")


def test_criterion_04_fusion_projector_identity():
    """On the two-photon polarization subspace the PBS plus
    one-photon-per-port postselection acts as |HH><HH| + |VV><VV|."""
    modes = (ModeLabel(0, "H"), ModeLabel(0, "V"), ModeLabel(1, "H"), ModeLabel(1, "V"))
    basis = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]  # HH HV VH VV
    matrix = []
    for config in basis:
        state = FockState(modes, {config: 1.0 + 0j})
        prob, kept = state.apply_pbs(0, 1).postselect_single_photon([0, 1])
        if kept is None:
            column = [0j] * 4
        else:
            scale = math.sqrt(prob)
            column = [scale * kept.amplitudes.get(row, 0j) for row in basis]
        matrix.append(column)
    worst = 0.0
    for j in range(4):
        for i in range(4):
            expected = 1.0 if i == j and j in (0, 3) else 0.0
            worst = max(worst, abs(matrix[j][i] - expected))
    assert worst <= 1e-12

    pairs = tensor(make_bell_pair(0, 1), make_bell_pair(2, 3))
    prob, _ = pairs.apply_pbs(1, 2).postselect_single_photon([1, 2])
    assert abs(prob - 0.5) <= 1e-10
    print(f"criterion 4: PASS (projector error {worst:.1e}, Bell x Bell probability {prob!r})")


def test_criterion_05_star_reproduction():
    """Fusing two fresh pairs yields exactly the 4-qubit star state."""
    sched = Schedule((CreatePair(0, 1), CreatePair(2, 3), PbsGate(1, 2)))
    star = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    star_group = graph_to_stabilizers(star)

    prob, group, graph = execute_schedule(sched)
    assert prob == 0.5
    assert graph == star
    assert group.canonical_form() == star_group.canonical_form()

    fock_prob, fock_state = execute_schedule_fock(sched)
    assert fock_prob == pytest.approx(0.5, abs=1e-10)
    reference = qubit_statevector_from_stabilizers(star_group, [0, 1, 2, 3])
    fid = fidelity(fock_state, reference)
    assert fid >= 1.0 - 1e-9
    print(f"criterion 5: PASS (group equality exact, photonic fidelity {fid:.12f})")


def test_criterion_06_join_rule_property():
    """Tableau execution of an inter-graph fusion always matches the
    edge-rewrite prediction, at probability exactly 1/2."""
    rng = random.Random(600)
    checked = 0
    while checked < 500:
        n_a, n_b = rng.randrange(1, 7), rng.randrange(1, 7)
        a = Graph.from_edges(
            n_a, [(u, v) for u in range(n_a) for v in range(u + 1, n_a) if rng.random() < 0.4]
        )
        b = Graph.from_edges(
            n_b, [(u, v) for u in range(n_b) for v in range(u + 1, n_b) if rng.random() < 0.4]
        )
        i1, i2 = rng.randrange(n_a), rng.randrange(n_b)
        combined = graph_to_stabilizers(a.disjoint_union(b))
        prob, after = apply_pbs_gate(combined, i1, n_a + i2)
        assert prob == 0.5
        predicted = graph_to_stabilizers(pbs_join_graphs(a, i1, b, i2))
        assert after.canonical_form() == predicted.canonical_form()
        checked += 1
    print(f"criterion 6: PASS ({checked} random joins, all exact at probability 1/2)")


def _random_schedule(rng: random.Random) -> tuple[Schedule, int]:
    """A random valid schedule on <= 8 qubits with <= 4 fusion gates.

    Returns (schedule, number of intra-cluster gates), tracked with a
    union-find over the qubits as gates merge clusters.
    """
    num_pairs = rng.randrange(2, 5)
    instructions = [CreatePair(2 * k, 2 * k + 1) for k in range(num_pairs)]
    qubits = list(range(2 * num_pairs))
    parent = {q: q & ~1 for q in qubits}  # each pair roots at its even qubit

    def find(q: int) -> int:
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    intra = 0
    for _ in range(rng.randrange(1, 5)):
        i1, i2 = rng.sample(qubits, 2)
        if find(i1) == find(i2):
            intra += 1
        else:
            parent[find(i1)] = find(i2)
        instructions.append(PbsGate(i1, i2))
    sched = Schedule(tuple(instructions))
    validate_schedule(sched)
    return sched, intra


def test_criterion_07_photon_tableau_equivalence():
    """Random mixed inter/intra schedules: the photon-level execution
    reproduces the tableau state and cumulative probability."""
    rng = random.Random(700)
    checked = with_intra = with_inter = 0
    worst_fid_gap = worst_prob_gap = 0.0
    while checked < 50:
        sched, intra = _random_schedule(rng)
        prob, group, _ = execute_schedule(sched)
        if prob == 0.0:
            continue  # forced-impossible postselection; nothing to compare
        fock_prob, fock_state = execute_schedule_fock(sched)
        assert fock_state is not None
        worst_prob_gap = max(worst_prob_gap, abs(fock_prob - prob))
        assert abs(fock_prob - prob) <= 1e-9
        reference = qubit_statevector_from_stabilizers(group, sched.qubit_ids())
        fid = fidelity(fock_state, reference)
        worst_fid_gap = max(worst_fid_gap, 1.0 - fid)
        assert fid >= 1.0 - 1e-9
        checked += 1
        with_intra += intra > 0
        with_inter += sched.gate_count() > intra
    # the sample must genuinely exercise both gate kinds
    assert with_intra >= 10 and with_inter >= 10
    print(
        f"criterion 7: PASS ({checked} schedules, {with_intra} with intra-cluster and "
        f"{with_inter} with inter-cluster gates, max fidelity gap {worst_fid_gap:.2e}, "
        f"max probability gap {worst_prob_gap:.2e})"
    )


def test_criterion_08_monte_carlo_matches_analytics():
    """Event-level simulation agrees with the closed forms at every
    connection level, with at least 1e4 acceptances per level."""
    params = ProtocolParams(4, 0.1, 0.7)
    result = run_campaign(
        params, SourceModel(0.1), DetectorModel(0.7), trials=1400, seed=42, threads=4
    )
    analytic_p = [base_success_prob(0.1, 0.7)] + [
        connection_success_prob(a_closed_form(level - 1, 0.7), 0.7) for level in range(1, 4)
    ]
    analytic_a = [a_closed_form(level, 0.7) for level in range(4)]
    lines = []
    for row in result.per_level:
        assert row.acceptances >= 10_000, f"level {row.level} undersampled"
        lo, hi = wilson_interval(row.acceptances, row.attempts, z=3.0)
        assert lo <= analytic_p[row.level] <= hi, f"p at level {row.level}"
        lo, hi = wilson_interval(row.good, row.acceptances, z=3.0)
        assert lo <= analytic_a[row.level] <= hi, f"a at level {row.level}"
        lines.append(
            f"level {row.level}: p_hat={row.p_hat:.4f} vs {analytic_p[row.level]:.4f}, "
            f"a_hat={row.a_hat:.4f} vs {analytic_a[row.level]:.4f}, acc={row.acceptances}"
        )
    print("criterion 8: PASS (" + "; ".join(lines) + ")")


def test_criterion_09_monte_carlo_time_scale():
    """Geometric-mean pulses per confirmed state sit within a factor two
    of the expected-value product (which is itself approximate)."""
    params = ProtocolParams(3, 0.1, 0.7)
    result = run_campaign(
        params, SourceModel(0.1), DetectorModel(0.7), trials=800, seed=11, threads=4
    )
    geomean = math.exp(
        math.fsum(math.log(v) for v in result.total_pulses) / len(result.total_pulses)
    )
    exact = total_time_exact(params)
    ratio = geomean / exact
    assert 0.5 <= ratio <= 2.0
    print(
        f"criterion 9: PASS (geomean {geomean:.1f} pulses vs analytic {exact:.1f}, "
        f"ratio {ratio:.3f})"
    )


def test_criterion_10_planner_sound_and_complete():
    """Join planner verdict equals brute-force search on every tree with
    up to 8 vertices; path-4 certified unreachable; star-4 in one gate."""
    total = reachable = 0
    for n in range(2, 9):
        for tree in nx.nonisomorphic_trees(n):
            relabel = {v: i for i, v in enumerate(sorted(tree.nodes))}
            target = Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in tree.edges])
            planned = plan_join_sequence(target)
            brute = brute_force_schedule_search(target, allow_intra=False)
            assert (planned is None) == (brute is None), target.sorted_edges()
            total += 1
            if planned is None:
                continue
            reachable += 1
            assert brute.gate_count() == n // 2 - 1
            for sched in (planned, brute):
                prob, _, graph = execute_schedule(sched)
                assert graph == target
                assert prob == pytest.approx(0.5 ** sched.gate_count())

    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert plan_join_sequence(path4) is None
    assert brute_force_schedule_search(path4, allow_intra=False) is None

    star4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    star_plan = plan_join_sequence(star4)
    assert star_plan is not None and star_plan.gate_count() == 1
    print(
        f"criterion 10: PASS ({total} trees checked, {reachable} reachable, verdicts agree; "
        f"path-4 unreachable, star-4 in 1 gate)"
    )


def test_criterion_11_simulation_determinism(tmp_path):
    """Identical seeds give byte-identical JSON, whatever the thread count."""
    base = [
        "simulate", "--m", "2", "--eta-s", "0.5", "--eta-d", "0.8",
        "--trials", "50", "--seed", "7", "--no-timestamp",
    ]
    outputs = []
    for name, extra in [
        ("a.json", ["--threads", "1"]),
        ("b.json", ["--threads", "1"]),
        ("c.json", ["--threads", "3"]),
    ]:
        out = tmp_path / name
        assert cli_main(base + extra + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    doc = json.loads(outputs[0])
    assert doc["seed"] == 7 and doc["trials"] == 50
    print(
        f"criterion 11: PASS (three runs byte-identical, {len(outputs[0])} bytes, "
        f"threads 1/1/3)"
    )
