"""Unit tests for graphs, graph states, and the fusion join rule."""

import random

import pytest

from pbsgraph.graphs import (
    Graph,
    apply_pbs_gate,
    edge_list_text,
    graph_to_stabilizers,
    parse_edge_list,
    join_adjacency,
    pbs_join_graphs,
    stabilizers_to_graph,
    to_dot,
)
from pbsgraph.pauli import PauliString, StabilizerGroup


def _random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _join_edges_reference(
    edges: frozenset[tuple[int, int]], i1: int, i2: int
) -> frozenset[tuple[int, int]]:
    """The join rule on a set of sorted (u, v) edges, edge by edge: the
    slow reference for join_adjacency."""
    joined = {(i1, i2) if i1 < i2 else (i2, i1)}
    for edge in edges:
        u, v = edge
        if u == i2:
            other = v
        elif v == i2:
            other = u
        else:
            joined.add(edge)
            continue
        if other != i1:
            joined.add((i1, other) if i1 < other else (other, i1))
    return frozenset(joined)


def test_graph_basics():
    g = Graph.from_edges(4, [(1, 0), (2, 3)])
    assert g.adj == (0b0010, 0b0001, 0b1000, 0b0100)
    assert g.edges == frozenset({(0, 1), (2, 3)})
    assert g.sorted_edges() == [(0, 1), (2, 3)]
    assert g.neighbors(0) == frozenset({1})
    assert g.degree(3) == 1
    assert g.has_edge(3, 2) and not g.has_edge(0, 2)
    assert g.components() == [frozenset({0, 1}), frozenset({2, 3})]
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    for adj, message in (
        ((0b10, 0b00), "missing"),  # asymmetric row
        ((0b01, 0b00), "self-loop"),
        ((0b100, 0b000), "outside"),  # bit at n
        ((0b10, 0b01, 0b00), "rows"),  # three rows for two vertices
    ):
        with pytest.raises(ValueError, match=message):
            Graph(2, adj)


def test_is_tree():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    forest = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert path.is_tree() and star.is_tree()
    assert not cycle.is_tree()
    assert not forest.is_tree()


def test_disjoint_union_offsets_second_graph():
    a = Graph.from_edges(2, [(0, 1)])
    b = Graph.from_edges(3, [(0, 2)])
    u = a.disjoint_union(b)
    assert u.num_vertices == 5
    assert u.sorted_edges() == [(0, 1), (2, 4)]


def test_graph_state_generators():
    star = Graph.from_edges(3, [(0, 1), (0, 2)])
    group = graph_to_stabilizers(star)
    expected = StabilizerGroup.from_labels(["XZZ", "ZXI", "ZIX"])
    assert group.equals_group(expected)


def test_stabilizers_to_graph_round_trip():
    rng = random.Random(31)
    for _ in range(120):
        g = _random_graph(rng, rng.randrange(1, 8))
        back = stabilizers_to_graph(graph_to_stabilizers(g))
        assert back == g


def test_stabilizers_to_graph_rejects_non_graph_states():
    bell = StabilizerGroup.from_labels(["XX", "ZZ"])
    assert stabilizers_to_graph(bell) is None
    signed = StabilizerGroup.from_labels(["-XZ", "ZX"])
    assert stabilizers_to_graph(signed) is None


def test_join_rule_star_growth():
    """Fusing the hub of a star with a fresh edge grows the star by one."""
    star3 = Graph.from_edges(3, [(0, 1), (0, 2)])
    edge = Graph.from_edges(2, [(0, 1)])
    joined = pbs_join_graphs(star3, 0, edge, 0)
    assert joined.sorted_edges() == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_join_rule_inherits_neighbors():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    joined = pbs_join_graphs(path3, 0, path3, 1)
    # vertex 0 picks up 4 (=old 1) plus old 1's neighbours 3 and 5;
    # 4 is left as a leaf on 0
    assert joined.num_vertices == 6
    assert joined.sorted_edges() == [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2)]


def test_join_adjacency_matches_edge_set_reference():
    """Masks and the edge-by-edge rule agree, with the endpoints in
    different components or in one."""
    rng = random.Random(8)
    same = 0
    for _ in range(300):
        g = _random_graph(rng, rng.randrange(2, 10), rng.random())
        i1, i2 = rng.sample(range(g.num_vertices), 2)
        same += any(i1 in c and i2 in c for c in g.components())
        joined = Graph(g.num_vertices, join_adjacency(g.adj, i1, i2))
        assert joined.edges == _join_edges_reference(g.edges, i1, i2)
    assert 50 < same < 250


def test_join_rule_matches_tableau():
    """The edge-rewrite prediction must agree with actually measuring
    Z Z and applying the Hadamard on the stabilizer side."""
    rng = random.Random(77)
    for _ in range(120):
        a = _random_graph(rng, rng.randrange(1, 5))
        b = _random_graph(rng, rng.randrange(1, 5))
        i1 = rng.randrange(a.num_vertices)
        i2 = rng.randrange(b.num_vertices)
        combined = graph_to_stabilizers(a.disjoint_union(b))
        prob, after = apply_pbs_gate(combined, i1, a.num_vertices + i2)
        assert prob == 0.5
        predicted = graph_to_stabilizers(pbs_join_graphs(a, i1, b, i2))
        assert after.equals_group(predicted)
        assert after.canonical_form() == predicted.canonical_form()


def test_apply_pbs_gate_deterministic_on_correlated_pair():
    """If the pair is already ZZ-correlated the measurement is free and
    only the Hadamard acts."""
    bell = StabilizerGroup.from_labels(["ZZ", "XX"])
    prob, after = apply_pbs_gate(bell, 0, 1)
    assert prob == 1.0
    assert after.equals_group(StabilizerGroup.from_labels(["ZX", "XZ"]))

    blocked = StabilizerGroup.from_labels(["-ZZ", "XX"])
    prob, after = apply_pbs_gate(blocked, 0, 1)
    assert prob == 0.0 and after is None


def test_edge_list_round_trip_and_errors():
    g = Graph.from_edges(5, [(0, 4), (1, 2)])
    assert parse_edge_list(edge_list_text(g)) == g
    text = "# a comment\nvertices 3\n0 1  # trailing comment\n\n1 2\n"
    assert parse_edge_list(text) == Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        parse_edge_list("0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("   \n# only comments\n")
    for text, line in (
        ("vertices 2\n0 3\n", "line 2"),  # out of range
        ("# header next\nvertices 2\n\n1 2\n", "line 4"),
        ("vertices 2\n0\n", "line 2"),
        ("vertices 3\n0 x\n", "line 2"),
        ("vertices 3\n0 1\n1 1\n", "line 3"),  # self-loop
    ):
        with pytest.raises(ValueError, match=line):
            parse_edge_list(text)


def test_edge_list_bounds_the_vertex_count():
    assert parse_edge_list("vertices 65536\n0 65535\n").degree(65535) == 1
    with pytest.raises(ValueError, match="exceeds 65536"):
        parse_edge_list("vertices 65537\n")


def test_to_dot_is_deterministic():
    g = Graph.from_edges(3, [(1, 2), (0, 1)])
    assert to_dot(g) == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"


def test_loop_targets_are_valid_inputs():
    """Cyclic targets must parse and convert; reachability is a separate
    question for the planner."""
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    group = graph_to_stabilizers(c4)
    assert stabilizers_to_graph(group) == c4
    assert group.is_stabilized_by(PauliString.from_label("XZIZ"))
