"""Unit tests for Pauli strings and stabilizer groups."""

import random

import pytest

from pbsgraph.pauli import PauliString, StabilizerGroup


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
    from pbsgraph.graphs import Graph, graph_to_stabilizers

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
