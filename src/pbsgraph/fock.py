"""Small dense Fock-space oracle for dual-rail polarization qubits.

States live on a list of (port, polarization) modes with at most two
photons per mode, held as a sparse {occupation tuple: amplitude} dict.
This is the transparent reference implementation the stabilizer engine
is checked against: the beam splitter transmits H and swaps the two V
mode operators with unit amplitude (the convention here adds no
reflection phase), a half-wave plate mixes H and V of one port like a
Hadamard, and postselection keeps configurations with exactly one
photon per listed port.

Qubit encoding: a single H photon in a port is |0>, a single V photon
is |1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .pauli import StabilizerGroup

MAX_OCCUPANCY = 2
_TOL = 1e-15


class ModeLabel(NamedTuple):
    port: int
    pol: str  # "H" or "V"


@dataclass(frozen=True)
class FockState:
    """Amplitudes over occupation-number configurations of fixed modes.

    modes is always sorted; a configuration tuple holds one occupation
    number (0..2) per mode in that order.
    """

    modes: tuple[ModeLabel, ...]
    amplitudes: dict[tuple[int, ...], complex]

    def __post_init__(self) -> None:
        if tuple(sorted(self.modes)) != self.modes:
            raise ValueError("modes must be sorted")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes")
        for config in self.amplitudes:
            if len(config) != len(self.modes):
                raise ValueError("configuration length mismatch")
            if any(not 0 <= occ <= MAX_OCCUPANCY for occ in config):
                raise ValueError(f"occupancy outside 0..{MAX_OCCUPANCY}: {config}")

    def ports(self) -> tuple[int, ...]:
        return tuple(sorted({m.port for m in self.modes}))

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


def _state_from_photon_maps(
    modes: Sequence[ModeLabel], terms: dict[tuple[tuple[int, str], ...], complex]
) -> FockState:
    modes = tuple(sorted(modes))
    amplitudes: dict[tuple[int, ...], complex] = {}
    for photons, amp in terms.items():
        config = [0] * len(modes)
        for port, pol in photons:
            config[modes.index(ModeLabel(port, pol))] += 1
        amplitudes[tuple(config)] = amplitudes.get(tuple(config), 0j) + amp
    return FockState(modes, amplitudes)


def make_bell_pair(port_a: int, port_b: int) -> FockState:
    """(|H H> + |V V>)/sqrt2 across two ports (four modes)."""
    if port_a == port_b:
        raise ValueError("ports must differ")
    modes = [ModeLabel(port_a, "H"), ModeLabel(port_a, "V"),
             ModeLabel(port_b, "H"), ModeLabel(port_b, "V")]
    r = 1 / math.sqrt(2)
    return _state_from_photon_maps(modes, {
        ((port_a, "H"), (port_b, "H")): r,
        ((port_a, "V"), (port_b, "V")): r,
    })


def tensor(a: FockState, b: FockState) -> FockState:
    """Combine two states on disjoint mode sets."""
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


def _apply_pauli_to_vector(pauli, vector: np.ndarray) -> np.ndarray:
    """p|b> = i**(phase + #Y) * (-1)^{popcount(b & z)} |b xor x>."""
    n = pauli.num_qubits
    dim = 1 << n
    indices = np.arange(dim)
    signs = 1 - 2 * (np.bitwise_count(indices & pauli.z_bits).astype(np.int64) & 1)
    factor = 1j ** ((pauli.phase + (pauli.x_bits & pauli.z_bits).bit_count()) % 4)
    out = np.zeros(dim, dtype=complex)
    out[indices ^ pauli.x_bits] = factor * signs * vector
    return out


def qubit_statevector_from_stabilizers(
    group: StabilizerGroup, ports: Sequence[int] | None = None
) -> FockState:
    """Dual-rail Fock encoding of the (unique) state a stabilizer group
    fixes, built by applying the projectors (1 + g)/2 to a basis state.

    Qubit q maps to port ports[q] (default: port q); computational |0>
    is one H photon, |1> one V photon. Capped at 12 qubits; validates group.
    """
    n = group.num_qubits
    if n > 12:
        raise ValueError("statevector bridge capped at 12 qubits")
    group.validate()
    if ports is None:
        ports = list(range(n))
    if len(ports) != n or len(set(ports)) != n:
        raise ValueError("need one distinct port per qubit")
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
    if vector is None:
        raise AssertionError("projector annihilated every basis state")

    modes = tuple(sorted(ModeLabel(p, pol) for p in ports for pol in ("H", "V")))
    positions = []
    for q in range(n):
        positions.append((modes.index(ModeLabel(ports[q], "H")),
                          modes.index(ModeLabel(ports[q], "V"))))
    amplitudes: dict[tuple[int, ...], complex] = {}
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
    return FockState(modes, amplitudes)


def fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 normalized by both norms. Mode sets must match."""
    if a.modes != b.modes:
        # both are sorted, so equal sets mean equal tuples
        raise ValueError("mode sets differ")
    overlap = 0j
    for config, amp_b in b.amplitudes.items():
        amp_a = a.amplitudes.get(config)
        if amp_a is not None:
            overlap += amp_a.conjugate() * amp_b
    denom = a.norm_squared() * b.norm_squared()
    if denom <= 0:
        raise ValueError("zero-norm state")
    return abs(overlap) ** 2 / denom
