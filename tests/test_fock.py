"""Unit tests for the two-photon Fock space layer."""

import math
import random

import numpy as np
import pytest

from pbsgraph.fock import (
    _TOL,
    FockState,
    ModeLabel,
    _apply_pauli_to_vector,
    _dual_rail,
    fidelity,
    make_bell_pair,
    qubit_statevector_from_stabilizers,
    tensor,
)
from pbsgraph.graphs import Graph, graph_to_stabilizers
from pbsgraph.pauli import StabilizerGroup


def _two_port_state(amplitudes) -> FockState:
    modes = (ModeLabel(0, "H"), ModeLabel(0, "V"), ModeLabel(1, "H"), ModeLabel(1, "V"))
    return FockState(modes, dict(amplitudes))


def test_bell_pair_amplitudes():
    bell = make_bell_pair(0, 1)
    amps = bell.amplitudes
    assert set(amps) == {(1, 0, 1, 0), (0, 1, 0, 1)}
    for a in amps.values():
        assert a == pytest.approx(1 / math.sqrt(2))
    assert bell.norm_squared() == pytest.approx(1.0)


def test_pbs_transmits_h_and_swaps_v():
    h_in_a = _two_port_state({(1, 0, 0, 0): 1.0})
    assert h_in_a.apply_pbs(0, 1).amplitudes == {(1, 0, 0, 0): 1.0}
    v_in_a = _two_port_state({(0, 1, 0, 0): 1.0})
    assert v_in_a.apply_pbs(0, 1).amplitudes == {(0, 0, 0, 1): 1.0}
    # one V on each side swaps into itself
    both_v = _two_port_state({(0, 1, 0, 1): 1.0})
    assert both_v.apply_pbs(0, 1).amplitudes == {(0, 1, 0, 1): 1.0}
    # two V photons in one port travel together
    crossed = _two_port_state({(0, 2, 0, 0): 1.0})
    assert crossed.apply_pbs(0, 1).amplitudes == {(0, 0, 0, 2): 1.0}


def test_hwp_on_single_photon():
    h_only = _two_port_state({(1, 0, 0, 0): 1.0})
    out = h_only.apply_hwp_hadamard(0).amplitudes
    assert out[(1, 0, 0, 0)] == pytest.approx(1 / math.sqrt(2))
    assert out[(0, 1, 0, 0)] == pytest.approx(1 / math.sqrt(2))
    v_only = _two_port_state({(0, 1, 0, 0): 1.0})
    out = v_only.apply_hwp_hadamard(0).amplitudes
    assert out[(1, 0, 0, 0)] == pytest.approx(1 / math.sqrt(2))
    assert out[(0, 1, 0, 0)] == pytest.approx(-1 / math.sqrt(2))


def test_hwp_two_photon_interference():
    """|1,1> in one port turns into (|2,0> - |0,2>)/sqrt(2): the bosonic
    coincidence term cancels."""
    both = _two_port_state({(1, 1, 0, 0): 1.0})
    out = both.apply_hwp_hadamard(0).amplitudes
    assert set(out) == {(2, 0, 0, 0), (0, 2, 0, 0)}
    assert out[(2, 0, 0, 0)] == pytest.approx(1 / math.sqrt(2))
    assert out[(0, 2, 0, 0)] == pytest.approx(-1 / math.sqrt(2))
    assert both.apply_hwp_hadamard(0).apply_hwp_hadamard(0).amplitudes[(1, 1, 0, 0)] == pytest.approx(1.0)


def test_hwp_occupancy_overflow_raises():
    dense = _two_port_state({(2, 1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        dense.apply_hwp_hadamard(0)


_MODES = (ModeLabel(0, "H"), ModeLabel(0, "V"))
# Malformed states, each with the message validate() gives it.
_BAD_STATES = (
    (FockState((_MODES[1], _MODES[0]), {}), "modes must be sorted"),
    (FockState((_MODES[0], _MODES[0]), {}), "duplicate modes"),
    (FockState(_MODES, {(1,): 1.0}), "configuration length mismatch"),
    (FockState(_MODES, {(3, 0): 1.0}), r"occupancy outside 0\.\.2: \(3, 0\)"),
)


def test_state_validation():
    """Construction does not check; validate() does, and returns the
    state when it is well formed."""
    for state, message in _BAD_STATES:
        with pytest.raises(ValueError, match=message):
            state.validate()
    good = FockState(_MODES, {(1, 0): 1.0})
    assert good.validate() is good


def test_tensor_validates_both_inputs():
    """tensor is a trust boundary: a malformed state built directly fails
    there with validate()'s message, on either side."""
    pair = make_bell_pair(5, 6)
    for state, message in _BAD_STATES:
        for a, b in ((state, pair), (pair, state)):
            with pytest.raises(ValueError, match=message):
                tensor(a, b)


def test_postselect_single_photon():
    bell = make_bell_pair(0, 1)
    prob, kept = bell.postselect_single_photon([0, 1])
    assert prob == pytest.approx(1.0)
    assert fidelity(kept, bell) == pytest.approx(1.0)

    bunched = _two_port_state({(2, 0, 0, 0): 1.0})
    prob, kept = bunched.postselect_single_photon([0])
    assert prob == 0.0 and kept is None


def test_pbs_postselect_on_bell_pairs_gives_half():
    pairs = tensor(make_bell_pair(0, 1), make_bell_pair(2, 3))
    after = pairs.apply_pbs(1, 2)
    prob, kept = after.postselect_single_photon([1, 2])
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert kept.norm_squared() == pytest.approx(1.0)


def test_tensor_requires_disjoint_ports():
    with pytest.raises(ValueError):
        tensor(make_bell_pair(0, 1), make_bell_pair(1, 2))


def test_fidelity_edge_cases():
    bell = make_bell_pair(0, 1)
    hh = _two_port_state({(1, 0, 1, 0): 1.0})
    vv = _two_port_state({(0, 1, 0, 1): 1.0})
    assert fidelity(hh, vv) == pytest.approx(0.0)
    assert fidelity(bell, hh) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        fidelity(bell, make_bell_pair(0, 2))


def test_statevector_matches_bell_pair():
    """A stabilizer group converts to the same physical state the photonic
    source prepares, up to global phase."""
    group = StabilizerGroup.from_labels(["XX", "ZZ"])
    rebuilt = qubit_statevector_from_stabilizers(group, [0, 1])
    assert fidelity(rebuilt, make_bell_pair(0, 1)) == pytest.approx(1.0)


def test_statevector_matches_edge_graph_state():
    group = StabilizerGroup.from_labels(["XZ", "ZX"])
    rebuilt = qubit_statevector_from_stabilizers(group, [0, 1])
    source = make_bell_pair(0, 1).apply_hwp_hadamard(1)
    assert fidelity(rebuilt, source) == pytest.approx(1.0)


# ----- the dual-rail builder against the two builders it replaced -----


def _reference_state_from_photon_maps(modes, terms) -> FockState:
    """The former make_bell_pair builder: photons listed per term."""
    modes = tuple(sorted(modes))
    amplitudes = {}
    for photons, amp in terms.items():
        config = [0] * len(modes)
        for port, pol in photons:
            config[modes.index(ModeLabel(port, pol))] += 1
        amplitudes[tuple(config)] = amplitudes.get(tuple(config), 0j) + amp
    return FockState(modes, amplitudes).validate()


def _reference_bell_pair(port_a, port_b) -> FockState:
    modes = [ModeLabel(port_a, "H"), ModeLabel(port_a, "V"),
             ModeLabel(port_b, "H"), ModeLabel(port_b, "V")]
    r = 1 / math.sqrt(2)
    return _reference_state_from_photon_maps(modes, {
        ((port_a, "H"), (port_b, "H")): r,
        ((port_a, "V"), (port_b, "V")): r,
    })


def _reference_statevector_from_stabilizers(group, ports) -> FockState:
    """The former stabilizer bridge, with its own per-qubit config loop."""
    n = group.num_qubits
    dim = 1 << n
    vector = None
    for start in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[start] = 1.0
        for g in group.generators:
            v = (v + _apply_pauli_to_vector(g, v)) / 2
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-9:
            vector = v / nrm
            break
    modes = tuple(sorted(ModeLabel(p, pol) for p in ports for pol in ("H", "V")))
    positions = []
    for q in range(n):
        positions.append((modes.index(ModeLabel(ports[q], "H")),
                          modes.index(ModeLabel(ports[q], "V"))))
    amplitudes = {}
    for b in range(dim):
        amp = vector[b]
        if abs(amp) <= _TOL:
            continue
        config = [0] * len(modes)
        for q in range(n):
            ih, iv = positions[q]
            if b >> q & 1:
                config[iv] = 1
            else:
                config[ih] = 1
        amplitudes[tuple(config)] = complex(amp)
    return FockState(modes, amplitudes).validate()


def _same(a: FockState, b: FockState) -> None:
    """Equal modes and amplitudes, in the same insertion order."""
    assert a.modes == b.modes
    assert list(a.amplitudes.items()) == list(b.amplitudes.items())


def test_bell_pair_matches_the_photon_map_builder():
    rng = random.Random(16)
    for _ in range(60):
        port_a, port_b = rng.sample(range(-5, 40), 2)
        _same(make_bell_pair(port_a, port_b), _reference_bell_pair(port_a, port_b))


def test_dual_rail_builder_keeps_the_callers_order():
    """On seeded unsorted ports and a shuffled basis order, the builder
    matches the photon-map builder term for term."""
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(1, 6)
        ports = rng.sample(range(30), n)
        basis = rng.sample(range(1 << n), rng.randrange(1, (1 << n) + 1))
        terms = [(b, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for b in basis]
        photon_maps = {
            tuple((ports[q], "V" if b >> q & 1 else "H") for q in range(n)): amp
            for b, amp in terms
        }
        _same(_dual_rail(ports, terms), _reference_state_from_photon_maps(
            [ModeLabel(p, pol) for p in ports for pol in ("H", "V")], photon_maps))


def test_bridge_matches_the_per_qubit_loop():
    """Seeded graph states with seeded Hadamards, on unsorted ports."""
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randrange(1, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        group = graph_to_stabilizers(Graph.from_edges(n, edges))
        for q in rng.sample(range(n), rng.randrange(n + 1)):
            group = group.apply_hadamard(q)
        ports = rng.sample(range(40), n)
        _same(qubit_statevector_from_stabilizers(group, ports),
              _reference_statevector_from_stabilizers(group, ports))
