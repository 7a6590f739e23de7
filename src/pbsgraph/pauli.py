"""Pauli strings and stabilizer groups in binary-symplectic form.

A Pauli string on n qubits is stored as two n-bit masks (x_bits, z_bits)
plus a phase exponent k meaning i**k times the tensor product of single
qubit letters, where the letter on qubit j is I, X, Z or Y according to
the (x, z) bit pair (Y when both bits are set). Hermitian strings, which
include every stabilizer generator, have k in {0, 2}, i.e. sign +1 or -1.

Bit j of a mask is qubit j, so masks are plain Python ints and XOR,
AND and int.bit_count give the group algebra in O(words).

A StabilizerGroup holds packed rows (Aaronson & Gottesman,
quant-ph/0406196): one int x | z << n | s << 2n per Hermitian generator
of sign (-1)**s. Its rows commute, so their products stay Hermitian and
one sign bit carries the phase. Its gates, row reduction and validation
run the private row kernels at the end of this module, as the
brute-force search in planner does on tuples of canonical rows;
PauliStrings are built only when generators is read.
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


class StabilizerGroup:
    """A maximal stabilizer group: n independent commuting Hermitian
    generators with sign +1 or -1 on n qubits, held as n packed rows.

    generators is a view of the rows as PauliStrings, unpacked on first
    read. A group built from PauliStrings keeps them, so validate() still
    sees what a row cannot hold: a non-Hermitian phase or another qubit
    count. Groups are not changed once built; operations return new
    groups and keep them valid (Aaronson & Gottesman, quant-ph/0406196),
    so validate() runs only in from_labels, execute_schedule and
    fock.qubit_statevector_from_stabilizers.
    """

    __slots__ = ("num_qubits", "_rows", "_generators")

    def __init__(self, num_qubits: int, generators: Iterable[PauliString] = (), *,
                 _rows: tuple[int, ...] | None = None) -> None:
        self.num_qubits = num_qubits
        self._generators = None if _rows is not None else tuple(generators)
        self._rows = _rows if _rows is not None else tuple(map(_pack, self._generators))

    @property
    def generators(self) -> tuple[PauliString, ...]:
        if self._generators is None:
            self._generators = tuple(_unpack(row, self.num_qubits) for row in self._rows)
        return self._generators

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerGroup):
            return NotImplemented
        return (self.num_qubits, self.generators) == (other.num_qubits, other.generators)

    def __hash__(self) -> int:  # equal generators pack to equal rows
        return hash((self.num_qubits, self._rows))

    def __repr__(self) -> str:
        return f"StabilizerGroup(num_qubits={self.num_qubits}, generators={self.generators!r})"

    def validate(self) -> "StabilizerGroup":
        """Raise ValueError unless this is a stabilizer group; return it."""
        n, rows = self.num_qubits, self._rows
        if len(rows) != n:
            raise ValueError(f"need exactly {n} generators, got {len(rows)}")
        for g in self._generators or ():
            if g.num_qubits != n:
                raise ValueError("generator qubit count mismatch")
            if not g.is_hermitian:
                raise ValueError(f"generator {g} is not Hermitian")
            if g.is_identity:
                raise ValueError("identity cannot be a generator")
        full = (1 << 2 * n) - 1
        # Bit i of cols[c] is row i's bit c. Row i's anticommutation mask,
        # bit j set when it anticommutes with row j, is then the XOR of
        # the partner columns (x_q with z_q) over its support: O(total
        # weight) in all.
        cols = [0] * 2 * n
        for i, row in enumerate(rows):
            for c in bits(row & full):
                cols[c] |= 1 << i
        partner = cols[n:] + cols[:n]
        for i, row in enumerate(rows):
            anti = 0
            for c in bits(row & full):
                anti ^= partner[c]
            later = anti >> i + 1
            if later:
                j = i + (later & -later).bit_length()
                raise ValueError(f"generators {i} and {j} anticommute")
        # X bits high: a graph-state row then leads with its own vertex
        mask = (1 << n) - 1
        if _gf2_rank(row >> n & mask | (row & mask) << n for row in rows) != n:
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
        n = self.num_qubits
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range")
        return StabilizerGroup(n, _rows=_hadamard_rows(self._rows, n, q))

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
        prob, rows = _zz_postselect_rows(self._rows, n, q1, q2, canonical=False)
        return prob, None if rows is None else StabilizerGroup(n, _rows=rows)

    # ----- canonical form -----

    def canonical_form(self) -> "StabilizerGroup":
        """Unique reduced row echelon form over columns
        (x_0..x_{n-1}, z_0..z_{n-1}), signs carried by the row products.

        Two groups are equal as groups iff their canonical forms have
        identical generator tuples.
        """
        return StabilizerGroup(self.num_qubits, _rows=_canonical_rows_of(self))


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
    rows over columns (x_0..x_{n-1}, z_0..z_{n-1}), bit c being column c,
    unique for the group, signs included. Rows come back in pivot order,
    each leading with its pivot (its lowest set bit), which no other row
    has; rows that reduce to zero are dropped.

    It is an incremental Gauss-Jordan reduction that keeps the pivot rows
    found so far reduced. A new row times each pivot row whose pivot bit
    it has (row & pivot_mask) loses that bit and gains no pivot bit. If
    what is left is not zero, its lowest bit b is a new pivot, and each
    earlier pivot row p holding b is multiplied by it: that clears b,
    adds no pivot bit and keeps p lowest, as the new row has no bit below
    b > p. So the rows end as a reduced echelon basis of the group's x|z
    part, which is unique. Each is a group element, and a stabilizer
    group holds each Pauli with one sign only (it does not hold -I), so
    the signs are unique too.
    """
    full = (1 << 2 * n) - 1
    pivots: dict[int, int] = {}  # pivot bit -> its row
    pivot_mask = 0
    for row in rows:
        hit = row & pivot_mask
        while hit:
            low = hit & -hit
            row = _packed_product(row, pivots[low], n)
            hit ^= low
        if not row & full:
            continue
        low = row & -row
        for bit, pivot_row in pivots.items():
            if pivot_row & low:
                pivots[bit] = _packed_product(pivot_row, row, n)
        pivots[low] = row
        pivot_mask |= low
    return tuple(pivots[bit] for bit in sorted(pivots))


def _canonical_rows_of(group: StabilizerGroup) -> tuple[int, ...]:
    """The group's canonical packed rows: canonical_form's rows."""
    return _canonical_rows(group._rows, group.num_qubits)


def _residual(canonical: tuple[int, ...], row: int, n: int) -> int:
    """A packed row reduced by canonical rows, each clearing its pivot: 0
    when the row is in their group, 1 << 2n when its negative is."""
    for pivot_row in canonical:
        if row & pivot_row & -pivot_row:
            row = _packed_product(row, pivot_row, n)
    return row


def _zz_postselect_rows(
    rows: tuple[int, ...], n: int, q1: int, q2: int, canonical: bool = True
) -> tuple[float, tuple[int, ...] | None]:
    """measure_zz_postselect on packed rows, canonical unless told not:
    the probability of the +1 outcome of Z_q1 Z_q2 and the rows after
    keeping it (not canonical in general), or (0.0, None) when it is
    impossible. Other rows are reduced only if none anticommutes."""
    observable = (1 << q1 | 1 << q2) << n
    # Z_q1 Z_q2 anticommutes with a row iff its X bits on q1 and q2 differ
    anti = [i for i, row in enumerate(rows) if (row >> q1 ^ row >> q2) & 1]
    if not anti:
        reduced = rows if canonical else _canonical_rows(rows, n)
        if _residual(reduced, observable, n) == 0:
            return 1.0, rows
        return 0.0, None
    first = anti[0]
    g = rows[first]
    out = list(rows)
    for i in anti[1:]:
        out[i] = _packed_product(out[i], g, n)
    out[first] = observable
    return 0.5, tuple(out)


def _hadamard_rows(rows: Iterable[int], n: int, q: int) -> tuple[int, ...]:
    """apply_hadamard on packed rows: X and Z swap on qubit q, and a Y
    there picks up a sign flip."""
    xz, sign = 1 << q | 1 << n + q, 1 << 2 * n
    return tuple(row ^ sign if row & xz == xz else row ^ xz if row & xz else row
                 for row in rows)
