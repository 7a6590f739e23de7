"""Fock-space oracle for dual-rail polarization qubits.

FockState holds amplitudes over occupation-number configurations of a
list of (port, polarization) modes, at most two photons per mode, as a
sparse {occupation tuple: amplitude} dict. Its mode rules are the
transparent physics the stabilizer engine is checked against: the beam
splitter transmits H and swaps the two V mode operators with unit
amplitude (the convention here adds no reflection phase), a half-wave
plate mixes H and V of one port like a Hadamard, and postselection keeps
configurations with exactly one photon per listed port.

Qubit encoding: a single H photon in a port is |0>, a single V photon
is |1>. One builder, _dual_rail, makes every such FockState; _dual_rail_array
reads one back as a dense array. Between gates every port holds exactly
one photon, so the whole-schedule oracle (planner.execute_schedule_fock)
and the stabilizer bridge hold a state of n qubits as a numpy array of
shape (2,)*n, axis k the k-th smallest port and index 0 or 1 its H or V
photon, capped at MAX_DENSE_QUBITS (2**16 amplitudes, 1 MB).
FockState.validate() runs only where a state enters or leaves the
layer: tensor's inputs, the builder's result and _dual_rail_array's
input; mode operations keep valid states valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .pauli import StabilizerGroup, _canonical_rows_of

MAX_OCCUPANCY = 2
MAX_DENSE_QUBITS = 16
_TOL = 1e-15


class ModeLabel(NamedTuple):
    port: int
    pol: str  # "H" or "V"


@dataclass(frozen=True)
class FockState:
    """Amplitudes over occupation-number configurations of fixed modes.

    modes is sorted and distinct, and a configuration tuple holds one
    occupation number (0..2) per mode in that order; validate() checks it.
    """

    modes: tuple[ModeLabel, ...]
    amplitudes: dict[tuple[int, ...], complex]

    def validate(self) -> "FockState":
        """Raise ValueError unless the invariants above hold; return self."""
        if tuple(sorted(self.modes)) != self.modes:
            raise ValueError("modes must be sorted")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes")
        for config in self.amplitudes:
            if len(config) != len(self.modes):
                raise ValueError("configuration length mismatch")
            if any(not 0 <= occ <= MAX_OCCUPANCY for occ in config):
                raise ValueError(f"occupancy outside 0..{MAX_OCCUPANCY}: {config}")
        return self

    def mode_index(self, port: int, pol: str) -> int:
        return self.modes.index(ModeLabel(port, pol))

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def _pruned(self, amplitudes: dict[tuple[int, ...], complex]) -> "FockState":
        kept = {c: a for c, a in amplitudes.items() if abs(a) > _TOL}
        return FockState(self.modes, kept)

    # ----- mode transformations -----

    def apply_pbs(self, port_a: int, port_b: int) -> "FockState":
        """Polarizing beam splitter between two ports: H operators pass
        through, the two V mode operators swap (no extra phase). In the
        occupation basis this just permutes the two V occupancies."""
        ia = self.mode_index(port_a, "V")
        ib = self.mode_index(port_b, "V")
        out: dict[tuple[int, ...], complex] = {}
        for config, amp in self.amplitudes.items():
            swapped = list(config)
            swapped[ia], swapped[ib] = swapped[ib], swapped[ia]
            key = tuple(swapped)
            out[key] = out.get(key, 0j) + amp
        return self._pruned(out)

    def apply_hwp_hadamard(self, port: int) -> "FockState":
        """Half-wave plate on one port: H -> (H+V)/sqrt2, V -> (H-V)/sqrt2
        on the creation operators, expanded exactly in the number basis."""
        ih = self.mode_index(port, "H")
        iv = self.mode_index(port, "V")
        out: dict[tuple[int, ...], complex] = {}
        for config, amp in self.amplitudes.items():
            m, k = config[ih], config[iv]
            for (p, q), coeff in _hwp_terms(m, k):
                if p > MAX_OCCUPANCY or q > MAX_OCCUPANCY:
                    raise ValueError(
                        f"half-wave plate would need occupancy {max(p, q)} "
                        f"(> {MAX_OCCUPANCY}) from input ({m}, {k})"
                    )
                new = list(config)
                new[ih], new[iv] = p, q
                key = tuple(new)
                out[key] = out.get(key, 0j) + amp * coeff
        return self._pruned(out)

    # ----- measurement -----

    def postselect_single_photon(self, ports: Iterable[int]) -> tuple[float, "FockState | None"]:
        """Project onto exactly one photon (H or V) in every listed port.

        Returns (squared norm of the projected component, renormalized
        state), or (0.0, None) when nothing survives.
        """
        wanted = set(ports)
        pair_indices = []
        for port in sorted(wanted):
            pair_indices.append((self.mode_index(port, "H"), self.mode_index(port, "V")))
        kept: dict[tuple[int, ...], complex] = {}
        for config, amp in self.amplitudes.items():
            if all(config[ih] + config[iv] == 1 for ih, iv in pair_indices):
                kept[config] = amp
        prob = sum(abs(a) ** 2 for a in kept.values())
        if prob <= _TOL**2:
            return 0.0, None
        scale = 1.0 / math.sqrt(prob)
        return prob, self._pruned({c: a * scale for c, a in kept.items()})


def _hwp_terms(m: int, k: int) -> list[tuple[tuple[int, int], float]]:
    """Output (H, V) occupancies and coefficients for an input |m, k>."""
    total = m + k
    coeffs: dict[int, float] = {}
    for i in range(m + 1):
        for j in range(k + 1):
            p = i + j
            coeffs[p] = coeffs.get(p, 0.0) + (
                math.comb(m, i) * math.comb(k, j) * (-1) ** (k - j)
            )
    scale = 2 ** (-total / 2) / math.sqrt(math.factorial(m) * math.factorial(k))
    out = []
    for p, c in coeffs.items():
        if abs(c) < _TOL:
            continue
        q = total - p
        out.append(((p, q), c * scale * math.sqrt(math.factorial(p) * math.factorial(q))))
    return out


# ===== state constructors =====


def _dual_rail(ports: Sequence[int], basis_amplitudes: Iterable[tuple[int, complex]]) -> FockState:
    """Dual-rail state of qubits on ports: qubit q sits on port ports[q],
    bit q of a basis index b is one H photon (0) or one V photon (1).
    Modes are sorted; configurations keep the order of basis_amplitudes."""
    modes = tuple(sorted(ModeLabel(p, pol) for p in ports for pol in ("H", "V")))
    rails = [(modes.index(ModeLabel(p, "H")), modes.index(ModeLabel(p, "V"))) for p in ports]
    amplitudes: dict[tuple[int, ...], complex] = {}
    for b, amp in basis_amplitudes:
        config = [0] * len(modes)
        for q, (ih, iv) in enumerate(rails):
            config[iv if b >> q & 1 else ih] = 1
        amplitudes[tuple(config)] = amp
    return FockState(modes, amplitudes).validate()


def _dual_rail_array(state: FockState, ports: Sequence[int]) -> np.ndarray:
    """The dense array of a dual-rail state: axis k is port ports[k], index
    0 its H photon and 1 its V photon. Validates the state, and raises
    unless every configuration holds exactly one photon in each listed
    port and none elsewhere."""
    state.validate()
    rails = [(state.mode_index(p, "H"), state.mode_index(p, "V")) for p in ports]
    if 2 * len(rails) != len(state.modes):
        raise ValueError("ports must cover every mode")
    out = np.zeros((2,) * len(rails), dtype=complex)
    for config, amp in state.amplitudes.items():
        if any(config[ih] + config[iv] != 1 for ih, iv in rails):
            raise ValueError(f"not one photon per port: {config}")
        out[tuple(config[iv] for _, iv in rails)] = amp
    return out


def make_bell_pair(port_a: int, port_b: int) -> FockState:
    """(|H H> + |V V>)/sqrt2 across two ports (four modes)."""
    if port_a == port_b:
        raise ValueError("ports must differ")
    r = complex(1 / math.sqrt(2))
    return _dual_rail((port_a, port_b), ((0b00, r), (0b11, r)))


def tensor(a: FockState, b: FockState) -> FockState:
    """Combine two states on disjoint mode sets; both are validated."""
    a.validate()
    b.validate()
    if set(a.modes) & set(b.modes):
        raise ValueError("mode sets overlap")
    modes = tuple(sorted(a.modes + b.modes))
    pos_a = [modes.index(m) for m in a.modes]
    pos_b = [modes.index(m) for m in b.modes]
    amplitudes: dict[tuple[int, ...], complex] = {}
    for ca, aa in a.amplitudes.items():
        for cb, ab in b.amplitudes.items():
            config = [0] * len(modes)
            for pos, occ in zip(pos_a, ca):
                config[pos] = occ
            for pos, occ in zip(pos_b, cb):
                config[pos] = occ
            amplitudes[tuple(config)] = aa * ab
    return FockState(modes, amplitudes)


# ===== stabilizer bridge =====


def _apply_pauli_to_vector(pauli, vector: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """p|b> = i**(phase + #Y) * (-1)^{popcount(b & z)} |b xor x>, with
    indices the basis indices np.arange(len(vector)): entry c of the
    result is the term of b = c xor x."""
    signs = 1.0 - 2.0 * (np.bitwise_count(indices & pauli.z_bits) & 1)
    factor = 1j ** ((pauli.phase + (pauli.x_bits & pauli.z_bits).bit_count()) % 4)
    return (factor * signs * vector)[indices ^ pauli.x_bits]


def _norm_squared(array: np.ndarray) -> float:
    """Sum of |amplitude|^2 of a dense array by numpy's own reduction, not
    a BLAS dot product: on 2**14 or more amplitudes those wake OpenBLAS
    threads, which stalled for milliseconds per call on a busy 2-CPU
    machine. Exact for dyadic amplitudes, as the bridge's are."""
    return float(np.sum(array.real ** 2 + array.imag ** 2))


def _lowest_support_state(group: StabilizerGroup) -> int:
    """The lowest basis index b (bit q is qubit q) where the group's state
    has nonzero amplitude. The support is {b : z.b = s for every element
    (-1)**s Z^z of the Z-type subgroup}. The canonical rows with no X bit
    span that subgroup, each leading with its own lowest Z bit and no
    other row's leading bit, so setting every non-leading bit to 0 leaves
    each leading bit equal to its row's sign bit, and that b is the
    lowest solution."""
    n = group.num_qubits
    start = 0
    for row in _canonical_rows_of(group):
        if not row & ((1 << n) - 1):
            pivot = (row & -row).bit_length() - 1 - n
            start |= (row >> 2 * n) << pivot
    return start


def qubit_statevector_from_stabilizers(
    group: StabilizerGroup, ports: Sequence[int] | None = None
) -> np.ndarray:
    """Dense dual-rail array of the (unique) state a stabilizer group
    fixes, built by applying the projectors (1 + g)/2 to the lowest basis
    state in its support and normalizing.

    Qubit q sits on port ports[q] (default: port q), and axis k of the
    result, of shape (2,)*n, is the k-th smallest port; index 0 is one H
    photon (|0>), 1 one V photon (|1>). Capped at MAX_DENSE_QUBITS before
    any allocation; validates group.
    """
    n = group.num_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"statevector bridge capped at {MAX_DENSE_QUBITS} qubits")
    group.validate()
    if ports is None:
        ports = list(range(n))
    if len(ports) != n or len(set(ports)) != n:
        raise ValueError("need one distinct port per qubit")
    vector = np.zeros(1 << n, dtype=complex)
    vector[_lowest_support_state(group)] = 1.0
    indices = np.arange(1 << n)
    for g in group.generators:
        vector = (vector + _apply_pauli_to_vector(g, vector, indices)) / 2
    nrm = math.sqrt(_norm_squared(vector))
    if nrm <= 1e-9:
        raise AssertionError("projector annihilated the lowest support state")
    # reshaped, axis j is bit n-1-j, that is qubit n-1-j
    by_port = sorted(range(n), key=lambda q: ports[q])
    return np.ascontiguousarray((vector / nrm).reshape((2,) * n).transpose(
        [n - 1 - q for q in by_port]))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 of two dense dual-rail arrays, normalized by both norms.
    Shapes must match."""
    if a.shape != b.shape:
        raise ValueError("shapes differ")
    denom = _norm_squared(a) * _norm_squared(b)
    if denom <= 0:
        raise ValueError("zero-norm state")
    return float(abs(np.sum(a.conj() * b)) ** 2 / denom)
