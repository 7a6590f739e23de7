"""Unit tests for Pauli strings and stabilizer groups."""

import random

import pytest

from pbsgraph.graphs import Graph, apply_pbs_gate, graph_to_stabilizers
from pbsgraph.pauli import (
    PauliString,
    StabilizerGroup,
    _canonical_rows_of,
    _gf2_rank,
    _hadamard_rows,
    _pack,
    _unpack,
    _zz_postselect_rows,
)


def test_single_qubit_multiplication_signs():
    X = PauliString.from_label("X")
    Y = PauliString.from_label("Y")
    Z = PauliString.from_label("Z")
    assert str(X * Z) == "-iY"
    assert str(Z * X) == "+iY"
    assert str(X * Y) == "+iZ"
    assert str(Y * X) == "-iZ"
    assert str(Y * Z) == "+iX"
    assert str(Z * Y) == "-iX"
    for p in (X, Y, Z):
        assert (p * p).is_identity
        assert (p * p).phase == 0


def test_label_round_trip():
    for label in ("+XIZ", "-YYX", "+iZXI", "-iIIY", "IXYZ"):
        p = PauliString.from_label(label)
        assert PauliString.from_label(str(p)) == p
    assert str(PauliString.from_label("XIZ")) == "+XIZ"


def test_from_ops_and_accessors():
    p = PauliString.from_ops(5, {0: "X", 2: "Y", 4: "Z"}, sign=-1)
    assert p.weight == 3
    assert p.support() == (0, 2, 4)
    assert p.letter(1) == "I"
    assert p.letter(2) == "Y"
    assert p.sign == -1
    assert str(p) == "-XIYIZ"
    with pytest.raises(ValueError, match="non-negative"):
        PauliString(-1, 0, 0)


def test_hermiticity():
    assert PauliString.from_label("XY").is_hermitian
    assert PauliString.from_label("-XY").is_hermitian
    X, Z = PauliString.from_label("X"), PauliString.from_label("Z")
    assert not (X * Z).is_hermitian


def test_multiplication_associative_and_commutation_phase():
    """Anticommuting strings differ by a phase of exactly -1 when swapped,
    commuting ones by +1; associativity holds with phases."""
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 6)
        ps = []
        for _ in range(3):
            ops = {q: rng.choice("XYZ") for q in range(n) if rng.random() < 0.6}
            ps.append(PauliString.from_ops(n, ops))
        a, b, c = ps
        assert (a * b) * c == a * (b * c)
        ab, ba = a * b, b * a
        assert ab.x_bits == ba.x_bits and ab.z_bits == ba.z_bits
        swap_phase = (ab.phase - ba.phase) % 4
        assert swap_phase == (0 if a.commutes_with(b) else 2)


def test_hadamard_conjugation():
    assert str(PauliString.from_label("X").conjugate_hadamard(0)) == "+Z"
    assert str(PauliString.from_label("Z").conjugate_hadamard(0)) == "+X"
    assert str(PauliString.from_label("Y").conjugate_hadamard(0)) == "-Y"
    p = PauliString.from_label("-iXYZ")
    assert str(p.conjugate_hadamard(2)) == "-iXYX"
    assert p.conjugate_hadamard(1).conjugate_hadamard(1) == p


def test_group_validation_rejects_bad_generators():
    with pytest.raises(ValueError):
        StabilizerGroup.from_labels(["XX", "ZI"])  # anticommuting
    with pytest.raises(ValueError):
        StabilizerGroup.from_labels(["XX", "XX"])  # dependent
    with pytest.raises(ValueError):
        StabilizerGroup.from_labels(["II", "XX"])  # identity generator
    with pytest.raises(ValueError):
        StabilizerGroup.from_labels(["iXX", "ZZ"])  # not Hermitian
    with pytest.raises(ValueError):
        StabilizerGroup.from_labels(["XX"])  # wrong generator count


def test_validate_rejects_bad_generators_built_directly():
    """The bare constructor does not check; validate() has the same
    teeth as from_labels, and the statevector bridge refuses bad groups."""
    from pbsgraph.fock import qubit_statevector_from_stabilizers

    # "+iXX", not "iXX": the latter fails in from_label as a bad letter
    for labels, reason in (
        (["XX", "ZI"], "anticommute"),
        (["XX", "XX"], "not independent"),
        (["II", "XX"], "identity"),
        (["+iXX", "ZZ"], "not Hermitian"),
        (["XX"], "need exactly 2"),
    ):
        group = StabilizerGroup(2, tuple(PauliString.from_label(s) for s in labels))
        with pytest.raises(ValueError, match=reason):
            group.validate()
    good = StabilizerGroup.from_labels(["XX", "ZZ"])
    assert good.validate() is good
    anticommuting = StabilizerGroup(2, (PauliString.from_label("XX"), PauliString.from_label("ZI")))
    with pytest.raises(ValueError, match="anticommute"):
        qubit_statevector_from_stabilizers(anticommuting)


def test_membership_with_signs():
    bell = StabilizerGroup.from_labels(["XX", "ZZ"])
    assert bell.is_stabilized_by(PauliString.from_label("-YY"))
    assert not bell.is_stabilized_by(PauliString.from_label("YY"))
    assert not bell.is_stabilized_by(PauliString.from_label("XZ"))
    assert bell.is_stabilized_by(PauliString.identity(2))


def test_canonical_form_is_generator_order_invariant():
    """The reduced form must depend only on the group, not on which
    generating set or ordering produced it."""
    rng = random.Random(123)
    for _ in range(200):
        n = rng.randrange(2, 6)
        base = _random_tree_state(rng, n)
        gens = list(base.generators)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                gens[i] = gens[i] * gens[j]
        rng.shuffle(gens)
        remixed = StabilizerGroup(n, tuple(gens))
        assert remixed.equals_group(base)
        assert remixed.canonical_form().generators == base.canonical_form().generators
        # the unchecked paths still produce genuine stabilizer groups
        base.validate()
        remixed.validate()
        remixed.canonical_form().validate()


def _random_tree_state(rng: random.Random, n: int) -> StabilizerGroup:
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return graph_to_stabilizers(Graph.from_edges(n, edges))


def test_equals_group_differs_on_signs():
    plus = StabilizerGroup.from_labels(["XX", "ZZ"])
    minus = StabilizerGroup.from_labels(["-XX", "ZZ"])
    assert not plus.equals_group(minus)
    assert plus.equals_group(StabilizerGroup.from_labels(["-YY", "ZZ"]))


def test_measure_zz_anticommuting_case():
    """A fresh edge state has no ZZ correlation: measuring it succeeds
    with probability 1/2 and the result contains +ZZ."""
    edge = StabilizerGroup.from_labels(["XZ", "ZX"])
    prob, after = edge.measure_zz_postselect(0, 1)
    assert prob == 0.5
    assert after.is_stabilized_by(PauliString.from_label("ZZ"))
    # the commuting combination survives
    assert after.is_stabilized_by(PauliString.from_label("YY"))
    for q1, q2 in ((0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            edge.measure_zz_postselect(q1, q2)


def test_measure_zz_deterministic_cases():
    plus = StabilizerGroup.from_labels(["ZZ", "XX"])
    prob, after = plus.measure_zz_postselect(0, 1)
    assert prob == 1.0
    assert after.equals_group(plus)

    minus = StabilizerGroup.from_labels(["-ZZ", "XX"])
    prob, after = minus.measure_zz_postselect(0, 1)
    assert prob == 0.0
    assert after is None


def test_measure_zz_on_larger_register():
    """Measuring inside a 3-qubit chain keeps untouched stabilizers."""
    chain = StabilizerGroup.from_labels(["XZI", "ZXZ", "IZX"])
    prob, after = chain.measure_zz_postselect(0, 1)
    assert prob == 0.5
    assert after.is_stabilized_by(PauliString.from_label("ZZI"))


def test_apply_hadamard_maps_edge_to_bell():
    edge = StabilizerGroup.from_labels(["XZ", "ZX"])
    bell = edge.apply_hadamard(1)
    assert bell.equals_group(StabilizerGroup.from_labels(["XX", "ZZ"]))
    assert edge.apply_hadamard(0).apply_hadamard(0).equals_group(edge)


# ----- reference kernel: PauliString row operations and pairwise checks -----


def _letter_product(a: str, b: str) -> tuple[str, int]:
    """a * b = i**k * c for single-qubit letters: XY = iZ, YX = -iZ, ..."""
    if a == "I" or b == "I":
        return (b if a == "I" else a), 0
    if a == b:
        return "I", 0
    c = ({"X", "Y", "Z"} - {a, b}).pop()
    return c, 1 if a + b in ("XY", "YZ", "ZX") else 3


def _reference_product(p: PauliString, q: PauliString) -> PauliString:
    """p * q qubit by qubit from the letter table, independent of the
    popcount phase formula that the kernel and PauliString share."""
    phase = p.phase + q.phase
    body = []
    for k in range(p.num_qubits):
        c, k_phase = _letter_product(p.letter(k), q.letter(k))
        body.append(c)
        phase += k_phase
    return PauliString.from_label(("+", "+i", "-", "-i")[phase % 4] + "".join(body))


def test_row_product_matches_letter_table():
    """The popcount phase formula, shared by PauliString * and the row
    reduction, against the letter-by-letter product."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 71)
        p, q = (PauliString(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4)) for _ in "pq")
        assert _reference_product(p, q) == p * q


def _reference_rows_with_pivots(group: StabilizerGroup) -> list[tuple[PauliString, int]]:
    """RREF by multiplying PauliString rows, one object per row operation."""
    n = group.num_qubits
    rows = list(group.generators)

    def packed(p: PauliString) -> int:
        return p.x_bits | (p.z_bits << n)

    pivots: list[int] = []
    pivot_row = 0
    for col in range(2 * n):
        found = None
        for i in range(pivot_row, len(rows)):
            if packed(rows[i]) >> col & 1:
                found = i
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        for i in range(len(rows)):
            if i != pivot_row and packed(rows[i]) >> col & 1:
                rows[i] = rows[i] * rows[pivot_row]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return list(zip(rows[: len(pivots)], pivots))


def _reference_gf2_rank(rows) -> int:
    """Rank by reducing each row against every pivot found so far."""
    rank = 0
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
            rank += 1
    return rank


def _reference_validate(group: StabilizerGroup) -> None:
    """validate() with the pairwise commutes_with loop."""
    n = group.num_qubits
    gens = group.generators
    if len(gens) != n:
        raise ValueError(f"need exactly {n} generators, got {len(gens)}")
    for g in gens:
        if g.num_qubits != n:
            raise ValueError("generator qubit count mismatch")
        if not g.is_hermitian:
            raise ValueError(f"generator {g} is not Hermitian")
        if g.is_identity:
            raise ValueError("identity cannot be a generator")
    for i in range(n):
        for j in range(i + 1, n):
            if not gens[i].commutes_with(gens[j]):
                raise ValueError(f"generators {i} and {j} anticommute")
    if _reference_gf2_rank(g.x_bits | (g.z_bits << n) for g in gens) != n:
        raise ValueError("generators are not independent")


def _random_graph_state(rng: random.Random, n: int) -> StabilizerGroup:
    density = rng.random()
    edges = [(i, j) for i in range(n) for j in range(i) if rng.random() < density / 2]
    return graph_to_stabilizers(Graph.from_edges(n, edges))


def _scrambled_group(rng: random.Random, n: int) -> StabilizerGroup:
    """A random graph state after random fusion gates, Hadamards, sign
    flips and generator-product remixes: any of these can leave graph
    form, and the remixes give rows of every phase pattern."""
    group = _random_graph_state(rng, n)
    for _ in range(rng.randrange(0, 2 * n + 1)):
        kind = rng.random()
        if kind < 0.4 and n >= 2:
            i1, i2 = rng.sample(range(n), 2)
            _prob, after = apply_pbs_gate(group, i1, i2)
            group = after or group
        elif kind < 0.7:
            group = group.apply_hadamard(rng.randrange(n))
        else:
            gens = list(group.generators)
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                gens[i] = gens[i] * gens[j]
            if rng.random() < 0.3:
                g = gens[j]
                gens[j] = PauliString(n, g.x_bits, g.z_bits, g.phase ^ 2)
            rng.shuffle(gens)
            group = StabilizerGroup(n, tuple(gens))
    return group


def _rows_with_pivots(group: StabilizerGroup) -> list[tuple[PauliString, int]]:
    """The packed reduction's rows as PauliStrings, each with its pivot:
    its lowest set bit."""
    n = group.num_qubits
    return [(_unpack(row, n), (row & -row).bit_length() - 1) for row in _canonical_rows_of(group)]


def test_int_row_kernel_matches_pauli_string_reference():
    """The int row reduction, validation and rank agree with the
    PauliString reference on seeded groups of 1 to 70 qubits: the same
    rows with the same phases, the same pivots, and the same rank on
    row sets with dependent rows mixed in."""
    rng = random.Random(2024)
    for _ in range(320):
        n = rng.randrange(1, 71)
        group = _scrambled_group(rng, n)
        assert _rows_with_pivots(group) == _reference_rows_with_pivots(group)
        assert group.validate() is group
        _reference_validate(group)
        rows = [g.x_bits | g.z_bits << n for g in group.generators]
        mixed = rng.sample(rows, rng.randrange(1, n + 1))
        for _ in range(rng.randrange(0, 4)):
            mixed.append(rng.choice(mixed) ^ rng.choice(mixed))
        rng.shuffle(mixed)
        assert _gf2_rank(mixed) == _reference_gf2_rank(mixed)


def test_validate_messages_match_pairwise_reference():
    """On seeded malformed groups, validate() reports what the pairwise
    reference reports: the lexicographically first anticommuting pair,
    or dependence."""
    rng = random.Random(99)
    seen = set()
    for _ in range(200):
        n = rng.randrange(2, 40)
        gens = list(_random_graph_state(rng, n).generators)
        if rng.random() < 0.6:
            # Z_a anticommutes with generator a of a graph state only, so
            # multiplying it into generator b plants exactly the pair (a, b).
            planted = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(1, 4))}
            for i, j in planted:
                a, b = (i, j) if rng.random() < 0.5 else (j, i)
                g = gens[b]
                gens[b] = PauliString(n, g.x_bits, g.z_bits ^ 1 << a, g.phase)
            expected = "generators {} and {} anticommute".format(*min(planted))
        else:
            i, j = rng.sample(range(n), 2)
            others = [k for k in range(n) if k not in (i, j)]
            gens[j] = gens[i] * gens[rng.choice(others)] if others and rng.random() < 0.5 else gens[i]
            expected = "generators are not independent"
        group = StabilizerGroup(n, tuple(gens))
        for q in rng.sample(range(n), rng.randrange(0, n + 1)):
            group = group.apply_hadamard(q)
        with pytest.raises(ValueError, match=f"^{expected}$"):
            _reference_validate(group)
        with pytest.raises(ValueError, match=f"^{expected}$"):
            group.validate()
        seen.add(expected.split()[-1])
    assert seen == {"anticommute", "independent"}


def test_packed_kernels_match_stabilizer_group_methods():
    """The brute-force search's packed kernels against the object path
    they replace there: on seeded scrambled groups, the reduction gives
    the reference's canonical rows, and for every qubit pair the packed
    Z x Z postselection gives measure_zz_postselect's probability,
    impossible outcome and generators, as the Hadamard does
    apply_hadamard's."""
    rng = random.Random(31)
    outcomes = {0.0: 0, 0.5: 0, 1.0: 0}
    for _ in range(120):
        n = rng.randrange(2, 10)
        group = _scrambled_group(rng, n)
        reference = StabilizerGroup(n, tuple(row for row, _ in _reference_rows_with_pivots(group)))
        canonical = _canonical_rows_of(group)
        assert canonical == tuple(map(_pack, reference.generators))
        for q1 in range(n):
            assert _hadamard_rows(canonical, n, q1) == tuple(
                map(_pack, reference.apply_hadamard(q1).generators))
            for q2 in range(n):
                if q1 == q2:
                    continue
                prob, after = reference.measure_zz_postselect(q1, q2)
                rows = None if after is None else tuple(map(_pack, after.generators))
                assert _zz_postselect_rows(canonical, n, q1, q2) == (prob, rows)
                outcomes[prob] += 1
    assert min(outcomes.values()) >= 20, outcomes
