"""Pauli strings and stabilizer groups in binary-symplectic form.

A Pauli string on n qubits is stored as two n-bit masks (x_bits, z_bits)
plus a phase exponent k meaning i**k times the tensor product of single
qubit letters, where the letter on qubit j is I, X, Z or Y according to
the (x, z) bit pair (Y when both bits are set). Hermitian strings, which
include every stabilizer generator, have k in {0, 2}, i.e. sign +1 or -1.

Bit j of a mask is qubit j, so masks are plain Python ints and XOR,
AND and int.bit_count give the group algebra in O(words). The row
reduction, validation and measurement work on those ints directly (the
packed symplectic rows of Aaronson & Gottesman, quant-ph/0406196) and
build PauliString objects only for the rows they return.

A packed row is one int x | z << n | s << 2n for the Hermitian string of
sign (-1)**s. Rows of a stabilizer group commute, so their products stay
Hermitian and one sign bit carries the phase. The brute-force search in
planner runs on tuples of canonical packed rows through the private
kernels at the end of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {v: k for k, v in _LETTERS.items()}
_SIGN_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _product_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    """The power of i, mod 4, that the letter products add when (x1, z1)
    multiplies (x2, z2) from the left.

    Per-qubit phase bookkeeping for letter products, summed via popcounts.
    """
    return (
        (x1 & z1).bit_count() + (x2 & z2).bit_count()
        + 2 * (z1 & x2).bit_count() - ((x1 ^ x2) & (z1 ^ z2)).bit_count()
    ) % 4


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator i**phase * (letter_0 x ... x letter_{n-1})."""

    num_qubits: int
    x_bits: int
    z_bits: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        mask = (1 << self.num_qubits) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit mask exceeds qubit count")
        if not 0 <= self.phase < 4:
            object.__setattr__(self, "phase", self.phase % 4)

    # ----- constructors -----

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(num_qubits, 0, 0, 0)

    @classmethod
    def from_ops(cls, num_qubits: int, ops: dict[int, str], sign: int = 1) -> "PauliString":
        """Build from {qubit: letter}, e.g. from_ops(4, {0: "X", 1: "Z"}).

        sign is +1 or -1.
        """
        x = z = 0
        for q, letter in ops.items():
            if not 0 <= q < num_qubits:
                raise ValueError(f"qubit {q} out of range")
            xb, zb = _BITS[letter]
            x |= xb << q
            z |= zb << q
        return cls(num_qubits, x, z, 0 if sign == 1 else 2)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse "+XIZY" style labels, qubit 0 leftmost. Prefix may be
        +, -, +i, -i or absent (meaning +)."""
        phase = 0
        body = label
        for prefix, k in (("+i", 1), ("-i", 3), ("+", 0), ("-", 2)):
            if label.startswith(prefix):
                phase, body = k, label[len(prefix):]
                break
        x = z = 0
        for q, letter in enumerate(body):
            if letter not in _BITS:
                raise ValueError(f"bad Pauli letter {letter!r}")
            xb, zb = _BITS[letter]
            x |= xb << q
            z |= zb << q
        return cls(len(body), x, z, phase)

    # ----- basic queries -----

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    @property
    def sign(self) -> int:
        """+1 or -1 for Hermitian strings."""
        if not self.is_hermitian:
            raise ValueError("sign undefined for non-Hermitian string")
        return 1 if self.phase == 0 else -1

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    def support(self) -> tuple[int, ...]:
        bits = self.x_bits | self.z_bits
        return tuple(q for q in range(self.num_qubits) if bits >> q & 1)

    def letter(self, q: int) -> str:
        return _LETTERS[(self.x_bits >> q & 1, self.z_bits >> q & 1)]

    def __str__(self) -> str:
        body = "".join(self.letter(q) for q in range(self.num_qubits))
        return _SIGN_PREFIX[self.phase] + body

    # ----- algebra -----

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit counts differ")
        x1, z1, x2, z2 = self.x_bits, self.z_bits, other.x_bits, other.z_bits
        phase = self.phase + other.phase + _product_phase(x1, z1, x2, z2)
        return PauliString(self.num_qubits, x1 ^ x2, z1 ^ z2, phase % 4)

    def commutes_with(self, other: "PauliString") -> bool:
        """Symplectic inner product: even overlap count means commuting."""
        anti = (self.x_bits & other.z_bits).bit_count() + (self.z_bits & other.x_bits).bit_count()
        return anti % 2 == 0

    def conjugate_hadamard(self, q: int) -> "PauliString":
        """H on qubit q: X <-> Z there; a Y picks up a sign flip."""
        bit = 1 << q
        x, z = self.x_bits, self.z_bits
        new_x = (x & ~bit) | (bit if z & bit else 0)
        new_z = (z & ~bit) | (bit if x & bit else 0)
        phase = (self.phase + (2 if (x & z & bit) else 0)) % 4
        return PauliString(self.num_qubits, new_x, new_z, phase)


def _gf2_rank(rows: Iterable[int]) -> int:
    """Rank of bit-mask rows over GF(2): each row is reduced by the pivot
    kept for its leading bit until it vanishes or leads with a new bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return len(pivots)


@dataclass(frozen=True)
class StabilizerGroup:
    """A maximal stabilizer group: n independent commuting Hermitian
    generators with sign +1 or -1 on n qubits.

    Instances are immutable; operations return new groups and keep them
    valid (Aaronson & Gottesman, quant-ph/0406196), so validate() runs only
    in from_labels, execute_schedule and fock.qubit_statevector_from_stabilizers.
    """

    num_qubits: int
    generators: tuple[PauliString, ...]

    def validate(self) -> "StabilizerGroup":
        """Raise ValueError unless this is a stabilizer group; return it."""
        n = self.num_qubits
        gens = self.generators
        if len(gens) != n:
            raise ValueError(f"need exactly {n} generators, got {len(gens)}")
        for g in gens:
            if g.num_qubits != n:
                raise ValueError("generator qubit count mismatch")
            if not g.is_hermitian:
                raise ValueError(f"generator {g} is not Hermitian")
            if g.is_identity:
                raise ValueError("identity cannot be a generator")
        # Bit i of col_x[q] (col_z[q]) is generator i's X (Z) bit on qubit
        # q. Generator i's anticommutation row, bit j set when it
        # anticommutes with generator j, is then the XOR of col_z over its
        # X support and col_x over its Z support: O(total weight) in all.
        col_x, col_z = [0] * n, [0] * n
        for i, g in enumerate(gens):
            for q in bits(g.x_bits):
                col_x[q] |= 1 << i
            for q in bits(g.z_bits):
                col_z[q] |= 1 << i
        for i, g in enumerate(gens):
            anti = 0
            for q in bits(g.x_bits):
                anti ^= col_z[q]
            for q in bits(g.z_bits):
                anti ^= col_x[q]
            later = anti >> i + 1
            if later:
                j = i + (later & -later).bit_length()
                raise ValueError(f"generators {i} and {j} anticommute")
        # X bits high: a graph-state row then leads with its own vertex
        rows = [g.z_bits | g.x_bits << n for g in gens]
        if _gf2_rank(rows) != n:
            raise ValueError("generators are not independent")
        return self

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "StabilizerGroup":
        gens = tuple(PauliString.from_label(s) for s in labels)
        if not gens:
            raise ValueError("empty generator list")
        return cls(gens[0].num_qubits, gens).validate()

    def __iter__(self):
        return iter(self.generators)

    # ----- Clifford conjugation -----

    def apply_hadamard(self, q: int) -> "StabilizerGroup":
        if not 0 <= q < self.num_qubits:
            raise ValueError(f"qubit {q} out of range")
        bit = 1 << q  # generators without support on q are unchanged
        gens = [g.conjugate_hadamard(q) if (g.x_bits | g.z_bits) & bit else g for g in self.generators]
        return StabilizerGroup(self.num_qubits, tuple(gens))

    # ----- membership -----

    def _reduce(self, p: PauliString) -> int:
        """The Hermitian p, packed and reduced by the canonical rows: 0 when
        p is in the group, the sign bit alone when -p is, and a row with
        x or z bits left when neither is."""
        return _residual(_canonical_rows_of(self), _pack(p), self.num_qubits)

    def is_stabilized_by(self, p: PauliString) -> bool:
        """True iff p, with its sign, is an element of the group."""
        if p.num_qubits != self.num_qubits:
            raise ValueError("qubit counts differ")
        # every element of a stabilizer group is Hermitian
        return p.is_hermitian and self._reduce(p) == 0

    # ----- measurement -----

    def measure_zz_postselect(self, q1: int, q2: int) -> tuple[float, "StabilizerGroup | None"]:
        """Measure Z_q1 Z_q2 and keep the +1 outcome.

        Returns (probability, group after projection). Three cases:
        the observable anticommutes with some generator (probability 1/2),
        it is in the group with sign +1 (probability 1, state unchanged),
        or with sign -1 (probability 0; the postselection is impossible
        and None is returned for the state).
        """
        n = self.num_qubits
        if q1 == q2:
            raise ValueError("need two distinct qubits")
        for q in (q1, q2):
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range")
        observable = PauliString(n, 0, 1 << q1 | 1 << q2)
        # Z_q1 Z_q2 anticommutes with g iff g's X bits on q1 and q2 differ
        anti = [i for i, g in enumerate(self.generators) if (g.x_bits >> q1 ^ g.x_bits >> q2) & 1]
        if anti:
            first = anti[0]
            g = self.generators[first]
            new_gens = list(self.generators)
            for i in anti[1:]:
                new_gens[i] = new_gens[i] * g
            new_gens[first] = observable
            return 0.5, StabilizerGroup(n, tuple(new_gens))
        residual = self._reduce(observable)
        if residual not in (0, 1 << 2 * n):
            raise AssertionError("observable commutes with a maximal group but is not in it")
        if residual == 0:
            return 1.0, self
        return 0.0, None

    # ----- canonical form -----

    def canonical_form(self) -> "StabilizerGroup":
        """Unique reduced row echelon form over columns
        (x_0..x_{n-1}, z_0..z_{n-1}), signs carried by the row products.

        Two groups are equal as groups iff their canonical forms have
        identical generator tuples.
        """
        n = self.num_qubits
        packed = [_pack(g) for g in self.generators]
        # an untouched row comes back as its generator: cheaper than a new object
        given = dict(zip(packed, self.generators))
        rows = _canonical_rows(packed, n)
        return StabilizerGroup(n, tuple(given.get(row) or _unpack(row, n) for row in rows))

    def equals_group(self, other: "StabilizerGroup") -> bool:
        if self.num_qubits != other.num_qubits:
            return False
        return self.canonical_form().generators == other.canonical_form().generators


# ----- packed rows: the kernels behind canonical_form and the search -----


def _pack(g: PauliString) -> int:
    """The packed row x | z << n | s << 2n of a Hermitian string."""
    n = g.num_qubits
    return g.x_bits | g.z_bits << n | g.phase >> 1 << 2 * n


def _unpack(row: int, n: int) -> PauliString:
    mask = (1 << n) - 1
    return PauliString(n, row & mask, row >> n & mask, row >> 2 * n << 1)


def _packed_product(a: int, b: int, n: int) -> int:
    """a * b for packed rows that commute; the product is Hermitian, so
    the letter phase is 0 or 2 and flips the XOR of the sign bits."""
    mask = (1 << n) - 1
    phase = _product_phase(a & mask, a >> n & mask, b & mask, b >> n & mask)
    return a ^ b ^ phase >> 1 << 2 * n


def _canonical_rows(rows: Iterable[int], n: int) -> tuple[int, ...]:
    """The one row reduction: reduced row echelon form of commuting packed
    rows over columns (x_0..x_{n-1}, z_0..z_{n-1}), bit c being column c.

    Each pivot row clears its column everywhere else, including rows
    already pivoted, so the result is fully reduced, not just echelon:
    unique for the group, signs included. Rows come back in pivot order,
    each leading with its pivot (its lowest set bit); rows that reduce
    to zero are dropped.
    """
    rows = list(rows)
    m = len(rows)
    top = 0
    for col in range(2 * n):
        bit = 1 << col
        for found in range(top, m):
            if rows[found] & bit:
                break
        else:
            continue
        pivot = rows[found]
        rows[found] = rows[top]
        rows[top] = pivot
        for i in range(m):
            if i != top and rows[i] & bit:
                rows[i] = _packed_product(rows[i], pivot, n)
        top += 1
        if top == m:
            break
    return tuple(rows[:top])


def _canonical_rows_of(group: StabilizerGroup) -> tuple[int, ...]:
    """The group's canonical packed rows: canonical_form, packed."""
    return _canonical_rows(map(_pack, group.generators), group.num_qubits)


def _residual(canonical: tuple[int, ...], row: int, n: int) -> int:
    """A packed row reduced by canonical rows, each clearing its pivot: 0
    when the row is in their group, 1 << 2n when its negative is."""
    for pivot_row in canonical:
        if row & pivot_row & -pivot_row:
            row = _packed_product(row, pivot_row, n)
    return row


def _zz_postselect_rows(
    canonical: tuple[int, ...], n: int, q1: int, q2: int
) -> tuple[float, tuple[int, ...] | None]:
    """measure_zz_postselect on canonical packed rows: the probability of
    the +1 outcome of Z_q1 Z_q2 and the rows after keeping it (not
    canonical in general), or (0.0, None) when it is impossible."""
    observable = (1 << q1 | 1 << q2) << n
    # Z_q1 Z_q2 anticommutes with a row iff its X bits on q1 and q2 differ
    anti = [i for i, row in enumerate(canonical) if (row >> q1 ^ row >> q2) & 1]
    if not anti:
        if _residual(canonical, observable, n) == 0:
            return 1.0, canonical
        return 0.0, None
    first = anti[0]
    g = canonical[first]
    rows = list(canonical)
    for i in anti[1:]:
        rows[i] = _packed_product(rows[i], g, n)
    rows[first] = observable
    return 0.5, tuple(rows)


def _hadamard_rows(rows: Iterable[int], n: int, q: int) -> tuple[int, ...]:
    """apply_hadamard on packed rows: X and Z swap on qubit q, and a Y
    there picks up a sign flip."""
    x, z, sign = 1 << q, 1 << n + q, 1 << 2 * n
    out = []
    for row in rows:
        if row & x and row & z:
            row ^= sign
        elif row & (x | z):
            row ^= x | z
        out.append(row)
    return tuple(out)
