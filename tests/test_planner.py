"""Unit tests for schedules, the join planner, and the brute-force oracle."""

import contextlib
import functools
import gc
import itertools
import random
import sys
from typing import Iterator

import networkx as nx
import numpy as np
import pytest
from test_pauli import (
    _reference_apply_hadamard,
    _reference_canonical_form,
    _reference_measure_zz_postselect,
)

from pbsgraph import planner
from pbsgraph.fock import (
    MAX_DENSE_QUBITS,
    FockState,
    _dual_rail_array,
    fidelity,
    make_bell_pair,
    qubit_statevector_from_stabilizers,
    tensor,
)
from pbsgraph.graphs import (
    Graph,
    apply_pbs_gate,
    bits,
    component_masks,
    graph_to_stabilizers,
    join_adjacency,
    stabilizers_to_graph,
)
from pbsgraph.pauli import (
    PauliString,
    StabilizerGroup,
    _canonical_rows,
    _canonical_rows_of,
    _hadamard_rows,
    _unpack,
    _zz_postselect_rows,
)
from pbsgraph.planner import (
    _breadth_first,
    _graph_rows,
    _matchings,
    _pre_images,
    _reaching,
    CreatePair,
    Hadamard,
    Measure,
    PbsGate,
    Schedule,
    brute_force_schedule_search,
    execute_schedule,
    execute_schedule_fock,
    parse_schedule,
    plan_join_sequence,
    plan_tree_protocol,
    schedule_text,
    validate_schedule,
)

STAR4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
# triangle with a pendant vertex on each corner: the smallest loop target
# our gate set can actually reach
NET6 = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
# each even vertex joined to each odd one
K33 = Graph.from_edges(6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)])
# two disjoint triangles, and a 6-vertex forest of a star and an edge
TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
FOREST2 = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)])


def _relabelled(graph: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(graph.num_vertices), graph.num_vertices)
    return Graph.from_edges(graph.num_vertices, [(perm[u], perm[v]) for u, v in graph.sorted_edges()])


def _trees(n: int):
    for g in nx.nonisomorphic_trees(n):
        relabel = {v: i for i, v in enumerate(sorted(g.nodes))}
        yield Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in g.edges])


def measures_early(sched: Schedule) -> bool:
    """True when every measured qubit is retired as soon as possible: no
    gate of any kind sits between a qubit's last participating
    instruction (its pair creation, or a gate touching it) and its
    Measure. Other pair creations and measurements may intervene, since
    they commute with waiting."""
    last_touch: dict[int, int] = {}
    gate_positions: list[int] = []
    for idx, ins in enumerate(sched.instructions):
        if isinstance(ins, Measure):
            continue
        for q in ins.qubits:
            last_touch[q] = idx
        if not isinstance(ins, CreatePair):
            gate_positions.append(idx)
    for idx, ins in enumerate(sched.instructions):
        if not isinstance(ins, Measure):
            continue
        start = last_touch.get(ins.q, -1)
        if any(start < g < idx for g in gate_positions):
            return False
    return True


def test_protocol_single_level_instruction_stream():
    sched = plan_tree_protocol(1)
    assert sched.instructions == (
        CreatePair(1, 2),
        CreatePair(3, 4),
        Measure(1),
        Measure(4),
        PbsGate(2, 3),
        Measure(2),
        Measure(3),
    )
    assert sched.levels == 1


def test_protocol_schedules_are_wellformed_and_eager():
    for m in range(1, 5):
        sched = plan_tree_protocol(m)
        validate_schedule(sched)
        assert measures_early(sched)
        assert sched.pair_count() == 1 << m
        assert sched.gate_count() == (1 << m) - 1
        assert len(sched.qubit_ids()) == 1 << (m + 1)
        # every qubit leaves the register exactly once
        measured = [ins.q for ins in sched.instructions if isinstance(ins, Measure)]
        assert sorted(measured) == list(sched.qubit_ids())


def test_protocol_execution_matches_declared_target():
    for m in range(1, 4):
        sched = plan_tree_protocol(m)
        prob, group, graph = execute_schedule(sched)
        assert prob == pytest.approx(0.5 ** sched.gate_count())
        assert graph == sched.target
        assert sched.target.is_tree()
        assert sched.target.num_vertices == 1 << (m + 1)


def test_measures_early_detects_lazy_measurement():
    lazy = Schedule((
        CreatePair(0, 1),
        CreatePair(2, 3),
        PbsGate(1, 2),
        Measure(0),  # waited through the gate for no reason
        Measure(1),
        Measure(2),
        Measure(3),
    ))
    validate_schedule(lazy)
    assert not measures_early(lazy)


def test_join_planner_star_and_paths():
    star = plan_join_sequence(STAR4)
    assert star is not None
    assert star.pair_count() == 2 and star.gate_count() == 1
    prob, _, graph = execute_schedule(star)
    assert prob == 0.5 and graph == STAR4

    assert plan_join_sequence(PATH4) is None
    # 2400 vertices: deeper than the interpreter's recursion limit
    for n in (6, 2400):
        path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        assert plan_join_sequence(path) is None

    # A reachable 400-vertex caterpillar whose decomposition nests 199
    # deep: pairs (2k+1, 2k+2), each joined to the next by PBS 2k+2 2k+3.
    pairs = [CreatePair(2 * k + 1, 2 * k + 2) for k in range(200)]
    joins = [PbsGate(2 * k + 2, 2 * k + 3) for k in range(199)]
    caterpillar = execute_schedule(Schedule(tuple(pairs + joins)))[2]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        sched = plan_join_sequence(caterpillar)
    finally:
        sys.setrecursionlimit(limit)
    assert sched is not None and sched.gate_count() == 199
    assert execute_schedule(sched)[2] == caterpillar


def test_join_planner_edge_cases():
    edge = Graph.from_edges(2, [(0, 1)])
    sched = plan_join_sequence(edge)
    assert sched is not None and sched.gate_count() == 0
    prob, _, graph = execute_schedule(sched)
    assert prob == 1.0 and graph == edge

    odd = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert plan_join_sequence(odd) is None
    with pytest.raises(ValueError):
        plan_join_sequence(C4)
    with pytest.raises(ValueError):
        plan_join_sequence(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_join_planner_handles_large_stars():
    for n in (4, 6, 8, 10, 12):
        star = Graph.from_edges(n, [(0, v) for v in range(1, n)])
        sched = plan_join_sequence(star)
        assert sched is not None
        assert sched.gate_count() == n // 2 - 1
        prob, _, graph = execute_schedule(sched)
        assert prob == pytest.approx(0.5 ** sched.gate_count())
        assert graph == star


def test_join_planner_agrees_with_forest_oracle_on_six_vertices():
    for tree in _trees(6):
        planned = plan_join_sequence(tree)
        brute = brute_force_schedule_search(tree)
        assert (planned is None) == (brute is None), tree.sorted_edges()
        if planned is not None:
            assert execute_schedule(planned)[2] == tree
            assert execute_schedule(brute)[2] == tree
            assert brute.gate_count() == 2  # minimum for three pairs


def _subtrees_off(
    adj: tuple[int, ...], verts: int, support: int, leaf: int
) -> list[tuple[int, int]]:
    """Components of the tree minus `support`, excluding the bare leaf,
    ordered by least member. Each comes back as (member mask, bit of the
    root adjacent to support)."""
    rest = verts & ~(1 << support | 1 << leaf)
    return [(members, members & adj[support]) for members in component_masks(adj, rest)]


def _attach(
    adj: tuple[int, ...], hub: int, subtrees: list[tuple[int, int]]
) -> tuple[tuple[int, ...], int]:
    """Adjacency and vertex mask of hub plus the given subtrees, with each
    subtree's root connected to the hub. Each subtree meets the removed
    support vertex at its root only, so this is exact for both sides of
    the decomposition: the support keeps precisely its root edges, and
    the leaf acquires the roots it had before the join."""
    keep = roots = 0
    for members, root in subtrees:
        keep |= members
        roots |= root
    new_adj = list(adj)
    for v in bits(keep):
        new_adj[v] = adj[v] & keep
    for v in bits(roots):
        new_adj[v] |= 1 << hub
    new_adj[hub] = roots
    return tuple(new_adj), keep | 1 << hub


def _reference_splits(adj: tuple[int, ...], verts: int):
    """The decomposition of the last join that plan_join_sequence ran on
    its own before it shared _pre_images with the forest oracle, in its
    order. A join that produced the tree turned some current leaf (with
    neighbour support) into a leaf while support absorbed the leaf's old
    neighbours. Removing support splits the tree into subtrees, which
    divide into a group kept with support and a group re-rooted on the
    leaf, each side of even total order (an odd count of odd subtrees).
    Leaves come lowest first, and the groups as a mask counted in binary,
    bit i sending subtree i to the leaf. Yields (support, leaf, support
    side, leaf side), each side as (adj, verts)."""
    for leaf in bits(verts):
        if adj[leaf].bit_count() != 1:
            continue
        support = adj[leaf].bit_length() - 1
        subtrees = _subtrees_off(adj, verts, support, leaf)
        odd_flags = [members.bit_count() % 2 == 1 for members, _root in subtrees]
        for mask in range(1 << len(subtrees)):
            to_leaf_odd = sum(1 for i, odd in enumerate(odd_flags) if odd and mask >> i & 1)
            to_support_odd = sum(odd_flags) - to_leaf_odd
            if to_leaf_odd % 2 == 0 or to_support_odd % 2 == 0:
                continue
            support_side = [t for i, t in enumerate(subtrees) if not mask >> i & 1]
            leaf_side = [t for i, t in enumerate(subtrees) if mask >> i & 1]
            yield support, leaf, _attach(adj, support, support_side), _attach(adj, leaf, leaf_side)


def _all_even(adj: tuple[int, ...]) -> bool:
    """Whether every component of the graph on all of adj's vertices has
    an even number of vertices."""
    return all(c.bit_count() % 2 == 0 for c in component_masks(adj, (1 << len(adj)) - 1))


def test_pre_images_are_the_even_splits_of_the_join_decomposition():
    """On every tree of an even order from 2 to 10 vertices, and on two
    seeded relabellings of each, _pre_images gives the splits of the
    decomposition that plan_join_sequence used before it called
    _pre_images (_reference_splits), in the same order: the same (i1, i2),
    i2's side the leaf side's vertices, the rest the support side's, and
    the pre-image's rows equal to each side's rows on its vertices. As a
    set, they are the even splits of the all-subsets inverse."""
    rng = random.Random(27)
    trees = [tree for n in range(2, 11, 2) for tree in _trees(n)]
    trees += [_relabelled(tree, rng) for tree in trees for _ in range(2)]
    assert len(trees) == 3 * 138
    splits = 0
    for tree in trees:
        n = tree.num_vertices
        adj, verts = tree.adj, (1 << n) - 1
        got = list(_pre_images(adj, verts))
        expected = list(_reference_splits(adj, verts))
        assert [(i1, i2, verts & ~side, side) for i1, i2, _pre, side in got] == [
            (support, leaf, support_verts, leaf_verts)
            for support, leaf, (_a, support_verts), (_b, leaf_verts) in expected
        ], tree.sorted_edges()
        for (_i1, _i2, pre, _side), (_s, _l, *sides) in zip(got, expected):
            for side_adj, side_verts in sides:
                assert [pre[v] for v in bits(side_verts)] == [side_adj[v] for v in bits(side_verts)]
        assert sorted((i1, i2, pre) for i1, i2, pre, _side in got) == sorted(
            (i1, i2, pre) for i1, i2, pre in _reference_pre_images(adj, n) if _all_even(pre))
        splits += len(got)
    assert splits == 13296


def test_join_planner_verdict_is_membership_in_the_forward_sweep():
    """plan_join_sequence and the forest oracle share _pre_images, so the
    join planner's verdict is also checked against the unpruned forward
    sweep, which shares no code with either: on four seeded relabellings
    of each of the 23 eight-vertex trees, a schedule exists exactly when
    the sweep reaches the tree, and it builds the tree."""
    into = _forest_sweep(8)
    rng = random.Random(23)
    found = 0
    for tree in _trees(8):
        for _ in range(4):
            target = _relabelled(tree, rng)
            sched = plan_join_sequence(target)
            assert (sched is not None) == (target.adj in into), target.sorted_edges()
            if sched is not None:
                assert execute_schedule(sched)[2] == target
                found += 1
    assert found == 4 * 3


def test_brute_force_star_is_minimal():
    sched = brute_force_schedule_search(STAR4)
    assert sched is not None
    assert sched.gate_count() == 1
    prob, _, graph = execute_schedule(sched)
    assert prob == 0.5 and graph == STAR4


def test_brute_force_rejects_bad_inputs():
    # odd order is simply unbuildable, not a usage error
    assert brute_force_schedule_search(Graph.from_edges(3, [(0, 1), (1, 2)])) is None
    big = Graph.from_edges(10, [(0, v) for v in range(1, 10)])
    with pytest.raises(ValueError):
        brute_force_schedule_search(big)
    with pytest.raises(ValueError):
        brute_force_schedule_search(Graph(0))
    with pytest.raises(ValueError, match="non-negative"):
        brute_force_schedule_search(STAR4, max_gates=-1)


def test_loop_demo_net_graph():
    """The triangle-with-pendants graph needs one same-cluster gate: the
    forest search fails, the stabilizer search finds a three-gate plan
    whose tableau and photon-level executions both hit the target."""
    assert brute_force_schedule_search(NET6) is None
    sched = brute_force_schedule_search(NET6, allow_intra=True)
    assert sched is not None
    assert sched.gate_count() == 3
    prob, group, graph = execute_schedule(sched)
    assert prob == pytest.approx(0.125)
    assert graph == NET6

    fock_prob, fock_state = execute_schedule_fock(sched)
    assert fock_prob == pytest.approx(prob, abs=1e-9)
    reference = qubit_statevector_from_stabilizers(group, sched.qubit_ids())
    assert fidelity(fock_state, reference) == pytest.approx(1.0, abs=1e-9)


def test_four_cycle_stays_unreachable_even_with_intra_and_hadamards():
    assert brute_force_schedule_search(C4, allow_intra=True, allow_hadamard=True, max_gates=4) is None
    # a huge gate cap costs nothing: the search ends at the first depth
    # that reaches no new state
    assert brute_force_schedule_search(C4, allow_intra=True, max_gates=10**18) is None


def test_k33_needs_bare_hadamards():
    """K3,3 is a local-Clifford image of a joined tree: two inter-cluster
    gates and two bare Hadamards build it exactly, and intra-cluster
    gates alone cannot build it. max_gates caps search steps, and a bare
    Hadamard is a step, so this 2-gate schedule needs a cap of 4."""
    assert brute_force_schedule_search(K33, allow_intra=True) is None
    sched = brute_force_schedule_search(K33, allow_hadamard=True)
    assert sched is not None
    assert sched.instructions == (
        CreatePair(0, 1), CreatePair(2, 4), CreatePair(3, 5),
        PbsGate(0, 2), PbsGate(1, 3), Hadamard(0), Hadamard(1),
    )
    for cap in (2, 3):
        assert brute_force_schedule_search(K33, allow_hadamard=True, max_gates=cap) is None
    capped = brute_force_schedule_search(K33, allow_hadamard=True, max_gates=4)
    assert capped.instructions == sched.instructions
    prob, group, graph = execute_schedule(sched)
    assert prob == 0.25 and graph == K33
    fock_prob, fock_state = execute_schedule_fock(sched)
    assert fock_prob == pytest.approx(prob, abs=1e-9)
    reference = qubit_statevector_from_stabilizers(group, sched.qubit_ids())
    assert fidelity(fock_state, reference) == pytest.approx(1.0, abs=1e-9)


# ----- reference engines: the object-level stabilizer search and the
# forest search that tries every join at every depth -----


def _reference_roots(n: int, start):
    """Every root (matching, start(matching)), in the order of _matchings."""
    return ((m, start(m)) for m in _matchings(list(range(n))))


def _reference_forest_start(n: int):
    """The forest engine's root key: the validated graph of the pairs."""
    return lambda matching: Graph.from_edges(n, matching).adj


def _reference_stabilizer_start(n: int, track_parts: bool):
    """The stabilizer engine's root key: the canonical rows of the pairs'
    graph state, with each qubit's cluster mask when clusters are tracked."""
    def start(matching):
        pairs = Graph.from_edges(n, matching)
        parts = tuple(row | 1 << q for q, row in enumerate(pairs.adj)) if track_parts else ()
        return _canonical_rows_of(graph_to_stabilizers(pairs)), parts

    return start


def _reference_search(target: Graph, allow_intra: bool = False, allow_hadamard: bool = False,
                      max_gates: int | None = None) -> Schedule | None:
    """brute_force_schedule_search on the reference engines."""
    n = target.num_vertices
    if n % 2 == 1:
        return None
    if max_gates is None:
        max_gates = n // 2 + 1
    if allow_intra or allow_hadamard:
        return _reference_search_stabilizer(target, allow_intra, allow_hadamard, max_gates)
    return _reference_search_forest(target, max_gates)


def _reference_search_forest(target: Graph, max_gates: int) -> Schedule | None:
    """Every join at every depth up to max_gates, and never past n/2 - 1
    joins, when every forest is one tree."""
    n = target.num_vertices
    gates = [[PbsGate(i1, i2) for i2 in range(n)] for i1 in range(n)]
    everyone = (1 << n) - 1

    def expand(adj):
        outside = [0] * n
        for comp in component_masks(adj, everyone):
            for v in bits(comp):
                outside[v] = everyone & ~comp
        for i1 in range(n):
            for i2 in bits(outside[i1]):
                yield gates[i1][i2], join_adjacency(adj, i1, i2)

    return _reference_breadth_first(target, _reference_roots(n, _reference_forest_start(n)),
                                    expand, target.adj.__eq__, min(max_gates, n // 2 - 1))[0]


def _reference_search_stabilizer(target: Graph, allow_intra: bool, allow_hadamard: bool,
                                 max_gates: int) -> Schedule | None:
    """The search on StabilizerGroup objects, keyed by canonical_form."""
    n = target.num_vertices
    goal = graph_to_stabilizers(target).canonical_form()
    track_parts = not allow_intra

    def start(matching):
        pairs = Graph.from_edges(n, matching)
        parts = tuple(row | 1 << q for q, row in enumerate(pairs.adj)) if track_parts else ()
        return graph_to_stabilizers(pairs).canonical_form(), parts

    def expand(key):
        group, parts = key
        for i1 in range(n):
            for i2 in range(n):
                if i1 == i2 or track_parts and parts[i1] >> i2 & 1:
                    continue
                _prob, new_group = apply_pbs_gate(group, i1, i2)
                if new_group is None:
                    continue
                new_parts = parts
                if track_parts:
                    merged = parts[i1] | parts[i2]
                    new_parts = tuple(merged if merged >> q & 1 else p for q, p in enumerate(parts))
                yield PbsGate(i1, i2), (new_group.canonical_form(), new_parts)
        if allow_hadamard:
            for q in range(n):
                yield Hadamard(q), (group.apply_hadamard(q).canonical_form(), parts)

    return _reference_breadth_first(target, _reference_roots(n, start), expand,
                                    lambda key: key[0] == goal, max_gates)[0]


def _labelled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def _assert_same_schedules(cases, max_gates: int | None = None) -> int:
    """Run both search paths on (target, allow_intra, allow_hadamard)
    cases under one gate cap; return how many found a schedule."""
    found = 0
    for target, intra, hadamard in cases:
        sched = brute_force_schedule_search(target, allow_intra=intra, allow_hadamard=hadamard,
                                            max_gates=max_gates)
        reference = _reference_search(target, intra, hadamard, max_gates)
        assert (sched is None) == (reference is None), (target.sorted_edges(), intra, hadamard,
                                                        max_gates)
        if sched is not None:
            assert sched.instructions == reference.instructions
            found += 1
    return found


def test_forest_search_matches_unpruned_reference():
    """The greedy walk through the backward set finds the schedule of the
    unpruned breadth-first sweep: the 47 trees with 2 to 8 vertices,
    seeded relabellings of the 6-vertex ones, the protocol tree and
    seeded relabellings of it and of the three reachable 8-vertex trees,
    whose ties between roots and between joins the walk must break as
    the sweep does, and every labelled 4-vertex graph."""
    trees = [(tree, False, False) for n in range(2, 9) for tree in _trees(n)]
    assert len(trees) == 47
    assert _assert_same_schedules(trees) == 7
    rng = random.Random(8)
    relabelled = []
    for tree in _trees(6):
        for _ in range(4):
            perm = rng.sample(range(6), 6)
            graph = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in tree.sorted_edges()])
            relabelled.append((graph, False, False))
    assert _assert_same_schedules(relabelled) == 4 * 2  # two of the six trees are reachable
    protocol = plan_tree_protocol(2).target
    reachable = [tree for tree in _trees(8) if plan_join_sequence(tree) is not None]
    assert len(reachable) == 3
    rng = random.Random(88)
    relabelled = [(protocol, False, False)] + [(_relabelled(tree, rng), False, False)
                                               for tree in reachable + [protocol] for _ in range(4)]
    assert _assert_same_schedules(relabelled) == 17
    graphs4 = [(graph, False, False) for graph in _labelled_graphs(4)]
    assert _assert_same_schedules(graphs4) == 7  # the four stars and three matchings


def test_forest_engine_makes_no_breadth_first_call(monkeypatch):
    """The forest engine walks the backward set with no breadth-first
    search: with _breadth_first made to raise, the 47 trees of 2 to 8
    vertices still get their verdicts, and the 7 reachable ones build
    their targets."""
    def raising(*args):
        raise AssertionError("the forest engine called _breadth_first")

    monkeypatch.setattr(planner, "_breadth_first", raising)
    trees = [tree for n in range(2, 9) for tree in _trees(n)]
    found = [(tree, brute_force_schedule_search(tree)) for tree in trees]
    assert len(found) == 47
    reached = [(tree, sched) for tree, sched in found if sched is not None]
    assert len(reached) == 7
    for tree, sched in reached:
        assert execute_schedule(sched)[2] == tree


def test_forest_engine_rejects_cycles_and_odd_components_before_the_walk(monkeypatch):
    """The pairs are even trees and a join merges two trees into one, so
    no join sequence builds a cycle or an odd component. The forest
    engine returns None for such a target without a _pre_images call: on
    every labelled 4-vertex graph that is not a forest of even trees, on
    6- and 8-vertex forests with odd components, and on net6 and two
    triangles. Every forest of even trees that needs a join is walked."""
    pre_images = planner._pre_images
    walked = []
    odd = [Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
           Graph.from_edges(8, [(0, 1), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7)]),
           Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (6, 7)]), NET6, TRIANGLES]
    counts = {"rejected": 0, "walked": 0}
    for target in list(_labelled_graphs(4)) + odd:
        n = target.num_vertices
        even_forest = len(target.edges) == n - len(target.components()) and _all_even(target.adj)
        walked.clear()
        with monkeypatch.context() as patch:
            patch.setattr(planner, "_pre_images",
                          lambda *args: walked.append(args) or pre_images(*args))
            sched = brute_force_schedule_search(target)
        if not even_forest:
            assert sched is None and walked == [], target.sorted_edges()
            counts["rejected"] += 1
        else:
            assert bool(walked) == (len(target.components()) < n // 2), target.sorted_edges()
            counts["walked"] += bool(walked)
    assert counts == {"rejected": 64 - 19 + 5, "walked": 16}


def test_forest_search_depth_counts_target_components():
    """A target of k components takes n/2 - k joins, so the forest engine
    finds it at that gate cap: the star plus a lone edge at 1, a 4-vertex
    perfect matching at 0 (both were None when the depth was n/2 - 1).
    Every 6-vertex forest of 2 or 3 components with even parts, and every
    labelled 4-vertex graph, agrees with the unpruned sweep at every cap
    from 0 to n/2."""
    sched = brute_force_schedule_search(FOREST2, max_gates=1)
    assert sched is not None and sched.gate_count() == 1
    assert execute_schedule(sched)[2] == FOREST2
    matching = Graph.from_edges(4, [(0, 3), (1, 2)])
    assert brute_force_schedule_search(matching, max_gates=0).instructions == (
        CreatePair(0, 3), CreatePair(1, 2))
    rng = random.Random(42)
    forests = [Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]), FOREST2,
               Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])]
    forests = [(_relabelled(forest, rng), False, False) for forest in forests for _ in range(3)]
    found = [_assert_same_schedules(forests, cap) for cap in range(4)]
    assert found == [3, 6, 6, 6]  # path-4 plus an edge is unreachable
    graphs4 = [(graph, False, False) for graph in _labelled_graphs(4)]
    assert [_assert_same_schedules(graphs4, cap) for cap in range(3)] == [3, 7, 7]


def test_stabilizer_search_matches_object_reference():
    """The search on packed rows returns the object-level search's
    schedules: seeded relabellings of net6 with intra gates, every
    labelled 4-vertex graph under the three other flag combinations,
    K3,3 with Hadamards, a perfect matching with Hadamards, and seeded
    random 6-vertex graphs with intra gates at a 3-gate cap; then net6 and
    star-4 with intra gates under every gate cap from 0 to 5."""
    rng = random.Random(6)
    cases = []
    for _ in range(3):
        perm = rng.sample(range(6), 6)
        relabelled = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in NET6.sorted_edges()])
        cases.append((relabelled, True, False))
    for intra, hadamard in ((False, True), (True, False), (True, True)):
        cases += [(graph, intra, hadamard) for graph in _labelled_graphs(4)]
    cases.append((K33, False, True))
    cases.append((Graph.from_edges(6, [(0, 5), (1, 4), (2, 3)]), False, True))
    assert _assert_same_schedules(cases) == 3 + 3 * 7 + 1 + 1
    # Both are unreachable, and the object-level reference expands every
    # state to the cap, so they run at 3 gates, not the default.
    pairs = list(itertools.combinations(range(6), 2))
    random6 = [(Graph.from_edges(6, [e for e in pairs if rng.random() < 0.4]), True, False)
               for _ in range(2)]
    assert _assert_same_schedules(random6, 3) == 0
    found = [_assert_same_schedules([(NET6, True, False), (STAR4, True, False)], cap)
             for cap in range(6)]
    assert found == [0, 1, 1, 2, 2, 2]


# ----- goal-directed pruning: the forest engine's backward set and the
# stabilizer engine's finishing steps -----


def _reference_pre_images(adj: tuple[int, ...],
                          n: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Every (i1, i2, E) with join_adjacency(E, i1, i2) equal to the
    forest adj and i1, i2 in different components of E. A join leaves i2
    a leaf of i1 and hands i1 the neighbours of i2, so inverting it picks
    a leaf i2 of adj and gives back to i2 any subset of i1's other
    neighbours: 2^(deg - 1) pre-images per leaf, the empty subset and the
    full one included."""
    for i2 in range(n):
        if adj[i2].bit_count() != 1:
            continue
        i1 = adj[i2].bit_length() - 1
        b1, b2 = 1 << i1, 1 << i2
        others = adj[i1] & ~b2
        taken = others
        while True:
            pre = list(adj)
            for w in bits(taken):
                pre[w] = pre[w] & ~b1 | b2
            pre[i1] = others & ~taken
            pre[i2] = taken
            yield i1, i2, tuple(pre)
            if not taken:
                break
            taken = taken - 1 & others


def _reference_reaching(target: tuple[int, ...], n: int, joins: int, isolating: bool = True
                        ) -> tuple[set[tuple[int, ...]], set[tuple[int, ...]]]:
    """The backward walk by _reference_pre_images, `joins` joins back
    from the target, and its last layer: every pre-image of every forest,
    or, without isolating, those that leave neither i1 nor i2 alone (the
    forest engine's walk before it dropped odd components)."""
    reaching = layer = {target}
    for _ in range(joins):
        layer = {pre for adj in layer for i1, i2, pre in _reference_pre_images(adj, n)
                 if isolating or pre[i1] and pre[i2]}
        reaching = reaching | layer
    return reaching, layer


@functools.cache
def _forest_sweep(n: int) -> dict[tuple[int, ...], set[tuple[int, int, tuple[int, ...]]]]:
    """The unpruned forward sweep over forests from the pairs on n
    vertices, each forest joined across every pair of its components,
    depth by depth: every forest it reaches, with each (i1, i2, E) that
    joins into it."""
    everyone = (1 << n) - 1
    layer = {Graph.from_edges(n, m).adj for m in _matchings(list(range(n)))}
    into: dict = {}
    for _ in range(n // 2 - 1):
        next_layer = set()
        for adj in layer:
            comps = component_masks(adj, everyone)
            for i1, i2 in itertools.permutations(range(n), 2):
                if not any(c >> i1 & 1 and c >> i2 & 1 for c in comps):
                    joined = join_adjacency(adj, i1, i2)
                    into.setdefault(joined, set()).add((i1, i2, adj))
                    next_layer.add(joined)
        layer = next_layer
    return into


def _separated(adj: tuple[int, ...], i1: int, i2: int) -> bool:
    return not any(c >> i1 & 1 and c >> i2 & 1
                   for c in component_masks(adj, (1 << len(adj)) - 1))


def test_pre_images_invert_the_join():
    """The all-subsets _reference_pre_images is the exact inverse of a
    join across components, on every labelled 4-vertex forest, against
    the inverse found by joining every labelled graph; _pre_images is
    that inverse restricted to even splits, on every such forest whose
    components are all even, with side the component of i2. On 8-vertex
    trees the unpruned forward sweep reaches no forest with an odd
    component, and every edge of it into the backward set starts at one
    of the pre-images of each inverse, which join back from separate
    components. _reaching's forests are the reference walk's forests whose
    components are all even; its last layer is the set's forests farthest
    from the target; and every forest but the target has a join across its
    components that lands in the set, which the greedy walk of the forest
    engine takes. The reference walk without isolating forests has
    17,934 such joins, and each forest of _reaching has the same joins."""
    graphs = [g.adj for g in _labelled_graphs(4)]
    inverse: dict[tuple, list] = {}
    for adj in graphs:
        for i1, i2 in itertools.permutations(range(4), 2):
            if _separated(adj, i1, i2):
                inverse.setdefault(join_adjacency(adj, i1, i2), []).append((i1, i2, adj))
    forests = [adj for adj in graphs
               if sum(map(int.bit_count, adj)) == 2 * (4 - len(component_masks(adj, 15)))]
    assert len(forests) == 38
    for adj in forests:
        assert sorted(_reference_pre_images(adj, 4)) == sorted(inverse.get(adj, [])), adj
    even = [adj for adj in forests if _all_even(adj)]
    assert len(even) == 16 + 3  # the labelled trees and the perfect matchings
    for adj in even:
        pre = list(_pre_images(adj, 15))
        assert sorted((i1, i2, before) for i1, i2, before, _side in pre) == sorted(
            (i1, i2, before) for i1, i2, before in inverse.get(adj, []) if _all_even(before)), adj
        for _i1, i2, before, side in pre:
            assert side in component_masks(before, 15) and side >> i2 & 1

    rng = random.Random(10)
    protocol = plan_tree_protocol(2).target
    trees = [protocol] * 4 + rng.sample(list(_trees(8)), 8)
    into = _forest_sweep(8)
    assert sum(map(len, into.values())) == 5040 + 33600 + 82432
    assert all(_all_even(forest) for forest in into)
    reached = 0
    edge_count = 0
    for target in [protocol] + [_relabelled(tree, rng) for tree in trees[1:]]:
        walk, _walk_last = _reference_reaching(target.adj, 8, 3)
        reaching, last_layer = _reaching(target.adj, 8, 3)
        assert reaching == {forest for forest in walk if _all_even(forest)}
        assert len(set(last_layer)) == len(last_layer)
        assert set(last_layer) == {forest for forest in reaching
                                   if len(component_masks(forest, 255)) == 4}
        unisolated = {forest for forest in walk if all(forest)}
        for forest in unisolated:
            # every join across components into the set: none from the
            # target, at least one from every other forest
            comp = {v: c for c in component_masks(forest, 255) for v in bits(c)}
            pairs = [(i1, i2) for i1, i2 in itertools.permutations(range(8), 2)
                     if comp[i1] != comp[i2]]
            edges = [(i1, i2) for i1, i2 in pairs if join_adjacency(forest, i1, i2) in unisolated]
            assert bool(edges) == (forest != target.adj), (target.sorted_edges(), forest)
            edge_count += len(edges)
            if forest in reaching:
                assert edges == [(i1, i2) for i1, i2 in pairs
                                 if join_adjacency(forest, i1, i2) in reaching]
        for forest in walk:
            pre = list(_reference_pre_images(forest, 8))
            leaves = [i2 for i2, row in enumerate(forest) if row.bit_count() == 1]
            assert len(set(pre)) == len(pre) == sum(
                1 << forest[forest[i2].bit_length() - 1].bit_count() - 1 for i2 in leaves)
            for i1, i2, before in pre:
                assert _separated(before, i1, i2) and join_adjacency(before, i1, i2) == forest
            assert into.get(forest, set()) <= set(pre)
            if forest in reaching:
                even_pre = [(i1, i2, before) for i1, i2, before, _side in _pre_images(forest, 255)]
                for i1, i2, before in even_pre:
                    assert _separated(before, i1, i2) and join_adjacency(before, i1, i2) == forest
                assert into.get(forest, set()) <= set(even_pre)
        reached += target.adj in into
    assert reached == 4 + 3  # the protocol tree four times, and three sampled trees
    assert edge_count == 17934


def _first_reached(n: int) -> dict[tuple[int, ...], tuple[int, PbsGate | None]]:
    """The unpruned breadth-first sweep with intra-cluster gates on n
    qubits, in the engine's order, up to the default n/2 + 1 gates: each
    state it reaches, as canonical packed rows, with the gate count and
    last gate of the path that first reached it."""
    first = {}
    frontier = []
    for matching in _matchings(list(range(n))):
        rows = _canonical_rows_of(graph_to_stabilizers(Graph.from_edges(n, matching)))
        first[rows] = (0, None)
        frontier.append(rows)
    for depth in range(1, n // 2 + 2):
        next_frontier = []
        for rows in frontier:
            for i1, i2 in itertools.permutations(range(n), 2):
                _prob, measured = _zz_postselect_rows(rows, n, i1, i2)
                if measured is not None:
                    new_rows = _canonical_rows(_hadamard_rows(measured, n, i2), n)
                    if new_rows not in first:
                        first[new_rows] = (depth, PbsGate(i1, i2))
                        next_frontier.append(new_rows)
        frontier = next_frontier
    return first


def test_only_gates_onto_target_leaves_finish_a_schedule():
    """A gate (i1, i2) leaves +Z_i1 X_i2, which a graph state holds only
    when i2 is a leaf of i1. With intra-cluster gates alone, the unpruned
    sweep reaches no leafless graph, every graph it reaches with a gate
    was last reached by such a leaf gate, and the search agrees with it on
    every labelled 4-vertex graph and on seeded 6-vertex graphs, found at
    or below the gate cap or unreachable."""
    rng = random.Random(12)
    counts = {"leafless": 0, "found": 0, "found below cap": 0, "unreachable with a leaf": 0}
    for n in (4, 6):
        first = _first_reached(n)
        reached_graphs = []
        everyone = (1 << n) - 1
        for rows, (depth, last) in first.items():
            # graph form: row i is +X_i times Z on the neighbours of i
            if any(row & everyone != 1 << i or row >> n + i & 1 or row >> 2 * n
                   for i, row in enumerate(rows)):
                continue
            graph = Graph(n, tuple(row >> n for row in rows))
            reached_graphs.append(graph)
            if depth:
                assert graph.adj[last.i2] == 1 << last.i1, (graph.sorted_edges(), last)
        pairs = list(itertools.combinations(range(n), 2))
        if n == 4:
            targets = list(_labelled_graphs(4))
        else:
            targets = rng.sample(sorted(reached_graphs, key=Graph.sorted_edges), 6)
            targets += [Graph.from_edges(6, [e for e in pairs if rng.random() < 0.4]) for _ in range(6)]
        for target in targets:
            leaves = [i2 for i2, row in enumerate(target.adj) if row.bit_count() == 1]
            entry = first.get(_canonical_rows_of(graph_to_stabilizers(target)))
            sched = brute_force_schedule_search(target, allow_intra=True)
            counts["leafless"] += not leaves
            if entry is None:
                assert sched is None
                counts["unreachable with a leaf"] += bool(leaves)
                continue
            assert leaves
            depth, last = entry
            assert sched.gate_count() == depth
            if depth:
                assert sched.instructions[-1] == last
            counts["found"] += 1
            counts["found below cap"] += depth < n // 2 + 1
    assert counts == {"leafless": 16, "found": 13, "found below cap": 12, "unreachable with a leaf": 47}


def test_leafless_targets_make_no_gate_attempt(monkeypatch):
    """Without bare Hadamards a leafless target can only be a root, so
    K3,3 and C4 under --allow-intra try no gate at all. Nor does a
    perfect matching, the last root, since the roots are scanned only
    once all are checked. net6 stops its last expansion at the first
    state that finishes, well short of the 5514 attempts of expanding
    that depth in full."""
    attempts = []
    postselect = planner._zz_postselect_rows

    def counting(*args):
        attempts.append(args[2:])
        return postselect(*args)

    monkeypatch.setattr(planner, "_zz_postselect_rows", counting)
    for target in (K33, C4):
        assert brute_force_schedule_search(target, allow_intra=True) is None
    matching = Graph.from_edges(4, [(0, 3), (1, 2)])
    assert brute_force_schedule_search(matching, allow_intra=True).gate_count() == 0
    assert attempts == []
    assert brute_force_schedule_search(NET6, allow_intra=True) is not None
    assert 0 < len(attempts) < 5514 // 2


def test_cap_below_the_gate_bound_makes_no_gate_attempt(monkeypatch):
    """A gate cap below the stabilizer engine's lower bound on the gates
    returns None at once: net6 under --allow-intra needs 3 gates, so at
    a cap of 2 it tries no gate on the tableau and starts no search."""
    attempts, searches = [], []
    postselect, breadth_first = planner._zz_postselect_rows, planner._breadth_first
    monkeypatch.setattr(planner, "_zz_postselect_rows",
                        lambda *args: attempts.append(args[2:]) or postselect(*args))
    monkeypatch.setattr(planner, "_breadth_first",
                        lambda *args: searches.append(args[4:]) or breadth_first(*args))
    assert brute_force_schedule_search(NET6, allow_intra=True, max_gates=2) is None
    assert attempts == [] and searches == []
    assert brute_force_schedule_search(NET6, allow_intra=True, max_gates=3) is not None
    assert len(attempts) == 6 and len(searches) == 1


def _merged(parts: tuple[int, ...], i1: int, i2: int) -> tuple[int, ...]:
    """Cluster masks after a gate joins the clusters of i1 and i2."""
    joined = parts[i1] | parts[i2]
    return tuple(joined if joined >> q & 1 else p for q, p in enumerate(parts))


def _reference_finish(target: Graph, allow_intra: bool, allow_hadamard: bool):
    """The stabilizer engine's finishing scan as construct and compare:
    build the successor of each gate onto a target leaf, then of each
    Hadamard, and keep those that are the goal, as (step, key)."""
    n = target.num_vertices
    goal = _canonical_rows_of(graph_to_stabilizers(target))
    finishing = sorted((row.bit_length() - 1, i2)
                       for i2, row in enumerate(target.adj) if row.bit_count() == 1)

    def finish(key):
        rows, parts = key
        for i1, i2 in finishing:
            if not allow_intra and parts[i1] >> i2 & 1:
                continue
            _prob, measured = _zz_postselect_rows(rows, n, i1, i2)
            if measured is None:
                continue
            new_parts = parts if allow_intra else _merged(parts, i1, i2)
            if _canonical_rows(_hadamard_rows(measured, n, i2), n) == goal:
                yield PbsGate(i1, i2), (goal, new_parts)
        if allow_hadamard:
            for q in range(n):
                if _canonical_rows(_hadamard_rows(rows, n, q), n) == goal:
                    yield Hadamard(q), (goal, parts)

    return finish


def _engine_finish(monkeypatch, target: Graph, allow_intra: bool, allow_hadamard: bool,
                   max_gates: int | None = None):
    """Run the stabilizer search on target and return its finish, every
    key that the roots and expand yield (each key the search adds to
    seen, apart from a goal that finish reaches), in order of first
    appearance, and the keys that the search scanned with finish."""
    run = {"found": {}, "scanned": []}
    breadth_first = planner._breadth_first

    def recording(target, roots, expand, is_goal, max_gates, finish=None, min_gates=0):
        run["finish"] = finish

        def found(steps):
            for step, key in steps:
                run["found"].setdefault(key, None)
                yield step, key

        def scanning(key):
            run["scanned"].append(key)
            return finish(key)

        return breadth_first(target, found(roots), lambda key: found(expand(key)), is_goal,
                             max_gates, scanning, min_gates)

    with monkeypatch.context() as patch:
        patch.setattr(planner, "_breadth_first", recording)
        brute_force_schedule_search(target, allow_intra=allow_intra, allow_hadamard=allow_hadamard,
                                    max_gates=max_gates)
    return run["finish"], list(run["found"]), run["scanned"]


def _postselected(rows: tuple[int, ...], n: int, i1: int, i2: int) -> tuple[int, ...]:
    """The canonical rows after a gate that is possible."""
    _prob, measured = _zz_postselect_rows(rows, n, i1, i2)
    return _canonical_rows(_hadamard_rows(measured, n, i2), n)


def test_membership_finish_matches_construct_and_compare(monkeypatch):
    """The engine's finishing scan tests goal membership without building
    successors; it yields what building and comparing yields on every
    state the search scans: net6 and star-4 with intra gates, star-4 and
    path-4 with Hadamards alone (cluster masks tracked), and seeded random
    6-vertex graphs with both flags at a cap of 3 gates (all unreachable,
    about 1300 states each). Random states rarely finish and hold
    no impossible gate, so states are also built on purpose: one gate
    short of the goal, holding -Z_i1 Z_i2, with no row anticommuting with
    Z_i1 Z_i2, and one where two Hadamards finish and the lower q leads."""
    rng = random.Random(15)
    pairs = list(itertools.combinations(range(6), 2))
    cases = [(NET6, True, False, None), (STAR4, True, False, None), (STAR4, False, True, None),
             (PATH4, False, True, None)]
    cases += [(Graph.from_edges(6, [e for e in pairs if rng.random() < 0.4]), True, True, 3)
              for _ in range(6)]
    checked = scanned = finishing = finishing_scanned = impossible = 0
    for target, intra, hadamard, cap in cases:
        finish, keys, scanned_keys = _engine_finish(monkeypatch, target, intra, hadamard, cap)
        assert set(scanned_keys) <= set(keys)
        reference = _reference_finish(target, intra, hadamard)
        leaves = [(row.bit_length() - 1, i2)
                  for i2, row in enumerate(target.adj) if row.bit_count() == 1]
        for key in keys:
            expected = list(reference(key))
            assert list(finish(key)) == expected, (target.sorted_edges(), key)
            finishing += bool(expected)
            finishing_scanned += bool(expected) and key in scanned_keys
            impossible += sum(_zz_postselect_rows(key[0], target.num_vertices, i1, i2)[1] is None
                              for i1, i2 in leaves)
        checked += len(keys)
        scanned += len(scanned_keys)
    assert checked > 8000 and finishing_scanned == 3 and impossible > 0
    assert scanned < checked  # the gate-count bound skips scans, not checks

    # net6 one gate short of the goal, replayed on packed rows
    finish, _keys, _scanned = _engine_finish(monkeypatch, NET6, True, False)
    goal = _canonical_rows_of(graph_to_stabilizers(NET6))
    sched = brute_force_schedule_search(NET6, allow_intra=True)
    matching = [ins.qubits for ins in sched.instructions if isinstance(ins, CreatePair)]
    *gates, last = [ins for ins in sched.instructions if isinstance(ins, PbsGate)]
    rows = _canonical_rows_of(graph_to_stabilizers(Graph.from_edges(6, matching)))
    for gate in gates:
        rows = _postselected(rows, 6, gate.i1, gate.i2)
    assert rows != goal and _postselected(rows, 6, last.i1, last.i2) == goal
    assert next(finish((rows, ()))) == (last, (goal, ()))
    assert list(finish((rows, ()))) == list(_reference_finish(NET6, True, False)((rows, ())))

    # star-4 under intra gates: the finishing gates are (0, 1), (0, 2), (0, 3)
    n = 4
    finish, _keys, _scanned = _engine_finish(monkeypatch, STAR4, True, False)
    reference = _reference_finish(STAR4, True, False)
    goal = _canonical_rows_of(graph_to_stabilizers(STAR4))
    # before the Hadamard of gate (0, 1): holds +Z_0 Z_1, which no row anticommutes with
    before = _canonical_rows(_hadamard_rows(goal, n, 1), n)
    assert not any((row ^ row >> 1) & 1 for row in before)
    assert list(finish((before, ()))) == list(reference((before, ()))) == [(PbsGate(0, 1), (goal, ()))]
    # X_0 conjugation flips the sign of every row with Z on qubit 0: -Z_0 Z_1
    flipped = _canonical_rows([row ^ (row >> n & 1) << 2 * n for row in before], n)
    assert _zz_postselect_rows(flipped, n, 0, 1) == (0.0, None)
    assert all(step != PbsGate(0, 1) for step, _key in finish((flipped, ())))
    assert list(finish((flipped, ()))) == list(reference((flipped, ())))

    # a lone edge (4, 5) is left alone by H_4 H_5, so H_4 and H_5 both
    # finish; with every qubit in one cluster no gate can come first
    target = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    finish, _keys, _scanned = _engine_finish(monkeypatch, target, False, True)
    goal = _canonical_rows_of(graph_to_stabilizers(target))
    before = _canonical_rows(_hadamard_rows(goal, 6, 5), 6)
    assert before == _canonical_rows(_hadamard_rows(goal, 6, 4), 6)
    key = (before, (0b111111,) * 6)
    steps = list(finish(key))
    assert steps == list(_reference_finish(target, False, True)(key))
    assert steps == [(Hadamard(4), (goal, key[1])), (Hadamard(5), (goal, key[1]))]


# ----- the join path: graph-form keys joined across components without
# the tableau -----


def test_graph_rows_are_the_canonical_rows_of_a_graph_state():
    """A graph state's rows are already fully reduced, so its canonical
    rows are _graph_rows of its adjacency: on every labelled 4- and
    5-vertex graph and on seeded 8-vertex graphs."""
    rng = random.Random(18)
    pairs = list(itertools.combinations(range(8), 2))
    graphs = list(_labelled_graphs(4)) + list(_labelled_graphs(5))
    graphs += [Graph.from_edges(8, [e for e in pairs if rng.random() < p])
               for p in (0.2, 0.4, 0.6) for _ in range(40)]
    for graph in graphs:
        n = graph.num_vertices
        assert _canonical_rows_of(graph_to_stabilizers(graph)) == _graph_rows(graph.adj, n)


def test_join_rows_match_the_tableau_across_components():
    """On every labelled 4- and 5-vertex graph, a gate between two
    components is possible with probability 1/2, and the tableau leaves
    the graph rows of join_adjacency."""
    joins = 0
    for n in (4, 5):
        for graph in _labelled_graphs(n):
            rows = _graph_rows(graph.adj, n)
            for i1, i2 in itertools.permutations(range(n), 2):
                if not _separated(graph.adj, i1, i2):
                    continue
                prob, measured = _zz_postselect_rows(rows, n, i1, i2)
                assert prob == 0.5 and measured is not None
                assert (_graph_rows(join_adjacency(graph.adj, i1, i2), n)
                        == _canonical_rows(_hadamard_rows(measured, n, i2), n))
                joins += 1
    assert joins == 192 + 3000  # ordered pairs across components, summed over graphs


def _reference_expand(target: Graph, allow_intra: bool, allow_hadamard: bool):
    """The stabilizer engine's expand with every gate on the tableau."""
    n = target.num_vertices

    def expand(key):
        rows, parts = key
        for i1, i2 in itertools.permutations(range(n), 2):
            if not allow_intra and parts[i1] >> i2 & 1:
                continue
            _prob, measured = _zz_postselect_rows(rows, n, i1, i2)
            if measured is not None:
                new_parts = parts if allow_intra else _merged(parts, i1, i2)
                yield PbsGate(i1, i2), (_canonical_rows(_hadamard_rows(measured, n, i2), n),
                                        new_parts)
        if allow_hadamard:
            for q in range(n):
                yield Hadamard(q), (_canonical_rows(_hadamard_rows(rows, n, q), n), parts)

    return expand


def _left_out(steps: list, reference: list) -> int | None:
    """How many steps of reference the engine's steps leave out, when they
    are reference in order with only duplicates left out: steps whose key
    a step yielded before them already has. None otherwise."""
    yielded, left_out, position = set(), 0, 0
    for step in reference:
        if position < len(steps) and steps[position] == step:
            yielded.add(step[1])
            position += 1
        elif step[1] in yielded:
            left_out += 1
        else:
            return None
    return left_out if position == len(steps) else None


def _checked_expansions(monkeypatch, target: Graph, allow_intra: bool,
                        allow_hadamard: bool) -> dict[str, int]:
    """Run the stabilizer search on target with every expand(key) compared
    to _reference_expand step for step, leaving out only duplicates of
    steps it yielded before, and with the joins it makes per key compared
    to the gates it yields across the components of key's graph, read by
    stabilizers_to_graph with the signs dropped (none when the key is not
    in graph form up to signs). Returns the counts of keys expanded, keys
    in graph form, joins, steps left out, and keys whose expansion or
    joins differ."""
    n = target.num_vertices
    reference = _reference_expand(target, allow_intra, allow_hadamard)
    counts = {"expanded": 0, "graph form": 0, "joins": 0, "left out": 0, "mismatched": 0}
    joined = []
    breadth_first = planner._breadth_first
    join = planner.join_adjacency
    unsigned = (1 << 2 * n) - 1

    def counting_join(adj, i1, i2):
        joined.append((i1, i2))
        return join(adj, i1, i2)

    def recording(target, roots, expand, is_goal, max_gates, finish=None, min_gates=0):
        def checked(key):
            joined.clear()
            steps = list(expand(key))
            rows, parts = key
            graph = stabilizers_to_graph(StabilizerGroup(n, tuple(_unpack(row & unsigned, n)
                                                                  for row in rows)))
            expected = []
            if graph is not None:
                counts["graph form"] += 1
                gates = {step for step, _key in steps}
                expected = [(i1, i2) for i1, i2 in itertools.permutations(range(n), 2)
                            if _separated(graph.adj, i1, i2) and PbsGate(i1, i2) in gates]
            left_out = _left_out(steps, list(reference(key)))
            counts["expanded"] += 1
            counts["joins"] += len(joined)
            counts["left out"] += left_out or 0
            counts["mismatched"] += left_out is None or joined != expected
            return steps

        return breadth_first(target, roots, checked, is_goal, max_gates, finish, min_gates)

    with monkeypatch.context() as patch:
        patch.setattr(planner, "_breadth_first", recording)
        patch.setattr(planner, "join_adjacency", counting_join)
        brute_force_schedule_search(target, allow_intra=allow_intra,
                                    allow_hadamard=allow_hadamard)
    return counts


def test_join_path_matches_the_tableau_expansion(monkeypatch):
    """The engine's expand builds the successors of a key in graph form
    up to signs across its components by the join rule, and yields what
    the tableau yields, less only duplicates of earlier steps, for every
    key that the searches of net6, star-4 and the square with a pendant
    on each corner expand under --allow-intra, and K3,3 and path-4 under
    --allow-hadamard (cluster masks tracked). Star-4 finishes from a
    root, so it expands no key; net6 and the square stop inside the depth
    they build on demand."""
    square = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)])
    expanded = []
    for target, intra, hadamard, graph_form, joins, left_out in (
        (NET6, True, False, 3, 40, 24), (STAR4, True, False, 0, 0, 0),
        (square, True, False, 1108, 28298, 10038), (K33, False, True, 136, 900, 420),
        (PATH4, False, True, 7, 12, 12),
    ):
        counts = _checked_expansions(monkeypatch, target, intra, hadamard)
        assert counts["mismatched"] == 0, (target.sorted_edges(), counts)
        assert (counts["graph form"], counts["joins"], counts["left out"]) == (
            graph_form, joins, left_out)
        expanded.append(counts["expanded"])
    assert expanded == [3, 0, 1108, 217, 13]


def test_join_path_mutations_are_caught(monkeypatch):
    """The expansion check has teeth: joining within a component, or
    joining i2 onto i1 instead of i1 onto i2, is flagged on net6."""
    def everything_outside(adj, n):
        return [(1 << n) - 1 & ~(1 << v) for v in range(n)]

    join = planner.join_adjacency
    for name, mutant in (("_outside_masks", everything_outside),
                         ("join_adjacency", lambda adj, i1, i2: join(adj, i2, i1))):
        with monkeypatch.context() as patch:
            patch.setattr(planner, name, mutant)
            counts = _checked_expansions(patch, NET6, True, False)
        assert counts["mismatched"] > 0, name


def test_graph_form_keys_make_no_tableau_gate_attempt(monkeypatch):
    """net6 under --allow-intra tries 6 gates on the tableau, against 489
    with every gate on the tableau and 126 with only the gates across the
    components of unsigned graph-form keys on the join rule: every key it
    expands is in graph form up to signs, so these are only its gates
    within a component that is not a lone edge."""
    attempts = []
    postselect = planner._zz_postselect_rows

    def counting(*args):
        attempts.append(args[2:])
        return postselect(*args)

    monkeypatch.setattr(planner, "_zz_postselect_rows", counting)
    assert brute_force_schedule_search(NET6, allow_intra=True).gate_count() == 3
    assert len(attempts) == 6


def _engine_expand(monkeypatch, n: int):
    """The stabilizer engine's expand on n qubits under --allow-intra (no
    cluster masks), taken from _breadth_first's arguments without running
    the search."""
    captured = []
    with monkeypatch.context() as patch:
        patch.setattr(planner, "_breadth_first", lambda target, roots, expand, *args:
                      captured.append(expand))
        planner._search_stabilizer(Graph.from_edges(n, []), True, False, n, 0)
    return captured[0]


def _signed_graph_key(graph: Graph, signs: int) -> tuple:
    """The key of Z^s|graph>, s_i bit i of signs: the canonical rows of
    the generators (-1)^s_i X_i Z^adj[i], with no cluster masks."""
    n = graph.num_vertices
    generators = tuple(PauliString(n, 1 << i, row, 2 * (signs >> i & 1))
                       for i, row in enumerate(graph.adj))
    return _canonical_rows_of(StabilizerGroup(n, generators)), ()


def test_graph_rules_match_the_tableau_on_signed_graph_states(monkeypatch):
    """On 2000 seeded random states Z^s|G> of 2 to 8 qubits, half of G
    perfect matchings: the gates across two components (rule (a)) and the
    gates on a lone edge (rule (b)) succeed with probability 1/2 on the
    tableau, and the engine builds them with no tableau call, yielding
    the tableau's rows. It leaves out only duplicates of steps it yielded
    before (rule (c)), and tries on the tableau exactly the other gates."""
    rng = random.Random(2020)
    attempts = []
    postselect = planner._zz_postselect_rows
    monkeypatch.setattr(planner, "_zz_postselect_rows",
                        lambda *args: attempts.append(args[2:]) or postselect(*args))
    expands = {n: _engine_expand(monkeypatch, n) for n in range(2, 9)}
    counts = {"joins": 0, "lone edges": 0, "left out": 0, "tableau": 0}
    for k in range(2000):
        if k % 2:
            n = rng.choice((2, 4, 6, 8))
            graph = Graph.from_edges(n, rng.choice(list(_matchings(list(range(n))))))
        else:
            n = rng.randrange(2, 9)
            graph = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                         if rng.random() < 0.3])
        key = _signed_graph_key(graph, rng.getrandbits(n))
        attempts.clear()
        steps = list(expands[n](key))
        left_out = _left_out(steps, list(_reference_expand(graph, True, False)(key)))
        assert left_out is not None, (graph.sorted_edges(), key)
        adj, ruled = graph.adj, []
        for i1, i2 in itertools.permutations(range(n), 2):
            lone = adj[i1] == 1 << i2 and adj[i2] == 1 << i1
            if lone or _separated(adj, i1, i2):
                assert _zz_postselect_rows(key[0], n, i1, i2)[0] == 0.5
                counts["lone edges" if lone else "joins"] += 1
                ruled.append((i1, i2))
        assert attempts == [gate for gate in itertools.permutations(range(n), 2)
                            if gate not in ruled]
        counts["left out"] += left_out
        counts["tableau"] += len(attempts)
    assert counts == {"joins": 27340, "lone edges": 5482, "left out": 2798, "tableau": 15726}


# ----- the roots each engine builds, and the stabilizer engine's lower
# bound on the gate count -----


def _engine_roots(monkeypatch, target: Graph, allow_intra: bool = False,
                  allow_hadamard: bool = False) -> list:
    """The (matching, key) roots of the engine for target: those that the
    stabilizer engine passes to _breadth_first, without running the
    search, or the one root that the forest engine walks from, read off
    the pairs of its schedule (none when it finds no schedule)."""
    if not (allow_intra or allow_hadamard):
        sched = brute_force_schedule_search(target)
        if sched is None:
            return []
        matching = [ins.qubits for ins in sched.instructions if isinstance(ins, CreatePair)]
        return [(matching, Graph.from_edges(target.num_vertices, matching).adj)]
    captured = []

    def capturing(target, roots, *args, **kwargs):
        captured.extend(roots)
        return None

    with monkeypatch.context() as patch:
        patch.setattr(planner, "_breadth_first", capturing)
        brute_force_schedule_search(target, allow_intra=allow_intra, allow_hadamard=allow_hadamard)
    return captured


def test_roots_match_the_validated_reference_roots(monkeypatch):
    """Both engines build each root straight from its matching. For every
    perfect matching on 2 to 8 vertices, the pairs' adjacency is the
    validated Graph's and the stabilizer engine's key, cluster masks
    included, is the canonical rows of its graph state. The forest engine
    walks from the first reference root that lies in the backward set
    from the target: every tree with an even number of vertices and
    seeded relabellings of the 8-vertex ones. An unreachable tree has no
    such root, so its search ends before any join."""
    for n in (2, 4, 6, 8):
        target = Graph.from_edges(n, [(0, v) for v in range(1, n)])
        for m in _matchings(list(range(n))):
            assert planner._pair_adjacency(m, n) == Graph.from_edges(n, m).adj
        for intra, hadamard in ((True, False), (False, True), (True, True)):
            start = _reference_stabilizer_start(n, track_parts=not intra)
            assert (_engine_roots(monkeypatch, target, intra, hadamard)
                    == list(_reference_roots(n, start)))
    rng = random.Random(19)
    trees = [tree for n in (2, 4, 6, 8) for tree in _trees(n)]
    trees += [_relabelled(tree, rng) for tree in _trees(8)]
    counts = {"roots": 0, "kept": 0, "unreachable": 0}
    for tree in trees:
        n = tree.num_vertices
        reaching, _last_layer = _reaching(tree.adj, n, n // 2 - 1)
        reference = list(_reference_roots(n, _reference_forest_start(n)))
        roots = _engine_roots(monkeypatch, tree)
        assert roots == [(m, adj) for m, adj in reference if adj in reaching][:1], (
            tree.sorted_edges())
        counts["roots"] += len(reference)
        counts["kept"] += len(roots)
        if not roots:
            assert plan_join_sequence(tree) is None
            counts["unreachable"] += 1
    assert counts == {"roots": 4927, "kept": 10, "unreachable": 45}


def test_forest_roots_are_the_matchings_the_walk_reaches(monkeypatch):
    """The forest engine reads its root off the backward walk: the least
    perfect matching, in the order of _matchings, in the walk's last
    layer, and it makes no _matchings call. On a seeded relabelling of
    every tree of 2 to 8 vertices, on forests with an isolated vertex and
    with 3-vertex components, and on targets that are themselves
    matchings, the root is the first reference root in the reference
    walk's set. A target whose walk reaches no matching ends with no join.
    The last layer of the reference walk (without isolating forests) of a
    forest with an isolated vertex or an odd component holds other
    forests; the engine walks no such target, and its last layer, the
    reference's forests whose components are all even, holds matchings
    only."""
    rng = random.Random(23)
    targets = [_relabelled(tree, rng) for n in (2, 4, 6, 8) for tree in _trees(n)]
    forests = [
        Graph.from_edges(4, [(0, 1), (1, 2)]),  # 3 isolated
        Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # 5 isolated
        Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (6, 7)]),  # 5 isolated
        Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # two 3-vertex paths
        Graph.from_edges(8, [(0, 1), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7)]),  # 3 and 5
        Graph.from_edges(4, [(0, 3), (1, 2)]),  # matchings
        Graph.from_edges(8, [(0, 5), (1, 7), (2, 3), (4, 6)]),
    ]
    matchings_calls, joins, walked = [], [], []
    join, pre_images = planner.join_adjacency, planner._pre_images
    counts = {"roots": 0, "other forests": 0, "unreachable": 0, "walked": 0}
    for target in targets + forests:
        n = target.num_vertices
        depth = n // 2 - len(target.components())
        walk, walk_last = _reference_reaching(target.adj, n, depth, isolating=False)
        reference = [(m, adj) for m, adj in _reference_roots(n, _reference_forest_start(n))
                     if adj in walk][:1]
        counts["other forests"] += sum(1 for adj in walk_last if not all(adj))
        if _all_even(target.adj):
            reaching, last_layer = _reaching(target.adj, n, depth)
            assert reaching == {adj for adj in walk if _all_even(adj)}
            assert set(last_layer) == {adj for adj in walk_last if _all_even(adj)}
            assert all(row.bit_count() == 1 for adj in last_layer for row in adj)
        with monkeypatch.context() as patch:
            patch.setattr(planner, "_matchings", lambda *args: matchings_calls.append(args))
            patch.setattr(planner, "join_adjacency", lambda *args: joins.append(args) or join(*args))
            patch.setattr(planner, "_pre_images",
                          lambda *args: walked.append(args) or pre_images(*args))
            joins.clear()
            walked.clear()
            roots = _engine_roots(patch, target)
        assert roots == reference, target.sorted_edges()
        counts["roots"] += len(roots)
        counts["walked"] += bool(walked)
        assert bool(walked) == (_all_even(target.adj) and depth > 0), target.sorted_edges()
        if not roots:
            assert joins == [], target.sorted_edges()
            counts["unreachable"] += 1
    assert matchings_calls == []
    for target in forests:
        if target.num_vertices <= 6:
            assert brute_force_schedule_search(target) == _reference_search(target)
    for matching in forests[-2:]:
        assert brute_force_schedule_search(matching).gate_count() == 0
    assert counts == {"roots": 9, "other forests": 19, "unreachable": 30, "walked": 31}


def _gate_lower_bound(target: Graph, allow_hadamard: bool) -> int:
    """n/2 - k gates for a target with k components, one more for a
    target with a cycle when no bare Hadamard is allowed."""
    n = target.num_vertices
    k = len(target.components())
    forest = len(target.edges) == n - k
    return n // 2 - k + (not allow_hadamard and not forest)


def _search_rewriting_min_gates(monkeypatch, target: Graph, allow_intra: bool,
                                allow_hadamard: bool, max_gates: int | None,
                                rewrite) -> tuple[Schedule | None, list]:
    """brute_force_schedule_search with the min_gates that the engine
    passes to _breadth_first replaced by rewrite(min_gates). Returns the
    schedule and the min_gates values the engine passed."""
    passed = []
    breadth_first = planner._breadth_first

    def rewriting(target, roots, expand, is_goal, max_gates, finish=None, min_gates=0):
        passed.append(min_gates)
        return breadth_first(target, roots, expand, is_goal, max_gates, finish, rewrite(min_gates))

    with monkeypatch.context() as patch:
        patch.setattr(planner, "_breadth_first", rewriting)
        sched = brute_force_schedule_search(target, allow_intra=allow_intra,
                                            allow_hadamard=allow_hadamard, max_gates=max_gates)
    return sched, passed


def _steps(sched: Schedule) -> int:
    """Gates and Hadamards: the depth at which the search finds sched,
    which max_gates caps."""
    return len(sched.instructions) - sched.pair_count()


def _bound_cases() -> list[tuple[Graph, bool, bool, int | None]]:
    """(target, allow_intra, allow_hadamard, max_gates): every labelled
    4-vertex graph under the four flag sets; 40 seeded random 6-vertex
    graphs with intra gates or with Hadamards at a 3-gate cap; net6
    with intra gates and with both; K3,3 with Hadamards; two disjoint
    triangles and a two-component forest with intra gates."""
    flags = [(False, False), (True, False), (False, True), (True, True)]
    cases = [(graph, *f, None) for f in flags for graph in _labelled_graphs(4)]
    rng = random.Random(20)
    pairs = list(itertools.combinations(range(6), 2))
    cases += [(Graph.from_edges(6, [e for e in pairs if rng.random() < 0.4]), *flags[1 + i % 2], 3)
              for i in range(40)]
    cases += [(NET6, True, False, None), (NET6, True, True, None), (K33, False, True, None),
              (TRIANGLES, True, False, None), (FOREST2, True, False, None)]
    return cases


def test_gate_lower_bound_is_sound_and_changes_no_schedule(monkeypatch):
    """The stabilizer engine scans a state for a finishing step only at
    gate counts that the bound n/2 - k (+1 for a cycle without Hadamards)
    allows, and it passes exactly that bound. On every bound case the
    bound never exceeds the gate count of the schedule that the search
    with min_gates forced to 0 finds, and the search with the bound
    returns the same schedule, also when the gate cap is that gate count,
    where a bound too high would lose the schedule. The bound is tight on
    net6 and the two-component forest. The square with a pendant on each
    corner (2.5 s a search) runs once, with the bound at its 4-gate cap,
    where the bound is tight too; tests/schedule_sweep.py compares its
    schedule with the unbounded search of the parent commit."""
    counts = {"found": 0, "tight": 0}
    for target, intra, hadamard, cap in _bound_cases():
        bound = _gate_lower_bound(target, hadamard)
        sched, passed = _search_rewriting_min_gates(monkeypatch, target, intra, hadamard, cap,
                                                    lambda _m: 0)
        assert passed == ([bound] if intra or hadamard else []), target.sorted_edges()
        if intra or hadamard:
            tight_cap = cap if sched is None else _steps(sched)
            bounded = brute_force_schedule_search(target, allow_intra=intra,
                                                  allow_hadamard=hadamard, max_gates=tight_cap)
            assert bounded == sched, (target.sorted_edges(), intra, hadamard, tight_cap)
        if sched is not None:
            assert bound <= sched.gate_count(), (target.sorted_edges(), intra, hadamard)
            counts["found"] += 1
            counts["tight"] += bound == sched.gate_count()
    assert counts == {"found": 33, "tight": 32}
    square = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)])
    sched = brute_force_schedule_search(square, allow_intra=True, max_gates=4)
    assert sched is not None and _gate_lower_bound(square, False) == sched.gate_count() == 4


@contextlib.contextmanager
def _captured_seen():
    """Yield a list that gets the seen parent map of each _breadth_first
    call, as it stands when the call returns."""
    captured, code = [], _breadth_first.__code__

    def profile(frame, event, _arg):
        if event == "return" and frame.f_code is code:
            captured.append(dict(frame.f_locals["seen"]))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield captured
    finally:
        sys.setprofile(previous)


def test_gate_lower_bound_skips_most_net6_scans(monkeypatch):
    """net6 under --allow-intra needs 3 gates, so the search scans only
    the states with 2, and it builds them as it finds each state with 1:
    it finds 40 states and scans 23, against 188 and 188 with min_gates
    forced to 0. Every state that it finds, the unbounded search finds
    with the same parent, and both return the same schedule."""
    runs = []
    for rewrite in (lambda m: m, lambda _m: 0):
        with monkeypatch.context() as patch:
            breadth_first = planner._breadth_first
            patch.setattr(planner, "_breadth_first",
                          lambda *args: breadth_first(*args[:-1], rewrite(args[-1])))
            _finish, keys, scanned = _engine_finish(patch, NET6, True, False)
            with _captured_seen() as captured:
                sched = brute_force_schedule_search(NET6, allow_intra=True)
        [seen] = captured
        runs.append((sched, seen, len(keys), len(scanned)))
    (sched, bounded, *counts), (unbounded_sched, unbounded, *unbounded_counts) = runs
    assert sched is not None and sched == unbounded_sched
    assert bounded.items() <= unbounded.items()
    assert (len(bounded), len(unbounded)) == (41, 189)  # each with the goal
    assert counts + unbounded_counts == [40, 23, 188, 188]


def test_gate_lower_bound_mutations_are_caught(monkeypatch):
    """The differential has teeth: at net6's 3-gate cap, where the bound
    is tight, one more than the bound loses its schedule, and counting
    every target as one component changes at least one schedule of the
    bound cases at the cap of its gate count."""
    assert brute_force_schedule_search(NET6, allow_intra=True, max_gates=3) is not None
    sched, _passed = _search_rewriting_min_gates(monkeypatch, NET6, True, False, 3, lambda m: m + 1)
    assert sched is None
    changed = []
    for target, intra, hadamard, cap in _bound_cases():
        k = len(target.components())
        if k == 1 or not (intra or hadamard):
            continue
        sched = brute_force_schedule_search(target, allow_intra=intra, allow_hadamard=hadamard,
                                            max_gates=cap)
        if sched is not None:
            cap = _steps(sched)
        mutant, _passed = _search_rewriting_min_gates(monkeypatch, target, intra, hadamard, cap,
                                                      lambda m: m + k - 1)
        if mutant != sched:
            changed.append((target.sorted_edges(), intra, hadamard))
    assert (FOREST2.sorted_edges(), True, False) in changed


# ----- the breadth-first skeleton on toy state spaces, against the
# layer-by-layer loop -----


def _reference_breadth_first(target, roots, expand, is_goal, max_gates: int, finish=None,
                             min_gates: int = 0) -> tuple[Schedule | None, dict]:
    """_breadth_first built layer by layer: each depth is complete before
    the next, and each new key is scanned as it joins the frontier.
    Returns the schedule and the seen parent map."""
    seen: dict = {}

    def reconstruct(key):
        steps = []
        while key is not None:
            key, step = seen[key]
            steps.append(step)
        *gates, matching = steps
        pairs = [CreatePair(a, b) for a, b in matching]
        return Schedule(tuple(pairs + gates[::-1]), target=target), seen

    def finished(key):
        for step, goal in finish(key):
            seen[goal] = (key, step)
            return goal
        return None

    frontier = [None]
    for depth in range(max_gates + 1):
        scan = finish is not None and depth > 0 and depth + 1 >= min_gates
        next_frontier = []
        for key in frontier:
            for step, new_key in roots if key is None else expand(key):
                if new_key in seen:
                    continue
                seen[new_key] = (key, step)
                if is_goal(new_key):
                    return reconstruct(new_key)
                if scan and (goal := finished(new_key)) is not None:
                    return reconstruct(goal)
                next_frontier.append(new_key)
        if not next_frontier:
            return None, seen
        if finish is not None:
            if depth == 0 and max_gates and min_gates <= 1:
                for key in next_frontier:
                    if (goal := finished(key)) is not None:
                        return reconstruct(goal)
            if depth + 1 == max_gates:
                return None, seen
        frontier = next_frontier
    return None, seen


_TOY_STEPS = [PbsGate(i1, i2) for i1, i2 in itertools.permutations(range(4), 2)]

# Roots 0 and 1 at depth 0; 2, 3 and 4 at depth 1; 5, 6 and 7 at 2; 8, 9
# and 10 at 3; 11 at 4. Key 4 is a successor of root 1 and of key 2, so a
# search that expands 2 as soon as it finds it meets 4 first at depth 2.
_TOY = {0: [2, 3], 1: [4, 2], 2: [4, 5], 3: [6], 4: [7, 6], 5: [8], 6: [9], 7: [9, 10],
        8: [11], 9: [11], 10: [11]}


def _toy_space(successors: dict[int, list[int]], roots: list[int], goals: set[int]):
    """(roots, expand, is_goal, finish) of a state space on int keys: key
    k leads to successors[k] in order, its j-th successor by the j-th toy
    step, and root i starts from the (i mod 3)-th 4-vertex matching."""
    matchings = list(_matchings(list(range(4))))

    def expand(key):
        return zip(_TOY_STEPS, successors.get(key, ()))

    def finish(key):
        return ((step, new) for step, new in expand(key) if new in goals)

    return ([(matchings[i % 3], key) for i, key in enumerate(roots)], expand,
            goals.__contains__, finish)


def _toy_depths(successors: dict[int, list[int]], roots: list[int]) -> dict[int, int]:
    """The fewest steps from a root to each key, in breadth-first order."""
    depths = dict.fromkeys(roots, 0)
    order = list(depths)
    for key in order:
        for new in successors.get(key, ()):
            if new not in depths:
                depths[new] = depths[key] + 1
                order.append(new)
    return depths


def _assert_toy_searches_agree(successors: dict[int, list[int]], roots: list[int],
                               goals: set[int]) -> int:
    """Run _breadth_first and the layer-by-layer reference on the toy
    space at every cap from 0 to 6 and every min_gates from 0 to 4 that
    is a lower bound on the steps to a goal. The schedules must be
    equal. A search that ends with no schedule has the reference's whole
    seen map; one that returns has a subset of it, where only a key of
    depth min_gates - 2, met one step too deep and not yet moved back,
    may have another parent. Returns the number of bounds under which a
    key of depth min_gates - 2 is a successor of an earlier key of that
    depth, so that the search meets it one step too deep first."""
    depths = _toy_depths(successors, roots)
    closest = min((depths[goal] for goal in goals if goal in depths), default=4)
    roots_, expand, is_goal, finish = _toy_space(successors, roots, goals)
    met_deep = 0
    for min_gates in range(min(closest, 4) + 1):
        for max_gates in range(7):
            args = (None, roots_, expand, is_goal, max_gates, finish, min_gates)
            with _captured_seen() as captured:
                sched = _breadth_first(*args)
            [seen] = captured
            expected, reference = _reference_breadth_first(*args)
            case = (successors, roots, goals, min_gates, max_gates)
            assert sched == expected, case
            if expected is None:
                assert seen == reference, case
                continue
            moved = {key for key in seen if seen[key] != reference.get(key, ())}
            assert all(depths[key] == min_gates - 2 for key in moved), case
            assert seen.keys() <= reference.keys(), case
        order = [key for key in depths if depths[key] == min_gates - 2]
        met_deep += any(later in successors.get(key, ())
                        for i, key in enumerate(order) for later in order[i + 1:])
    return met_deep


def test_on_demand_depth_matches_the_layer_by_layer_loop():
    """With finish and 2 <= min_gates <= max_gates, _breadth_first builds
    the first scanned depth min_gates - 1 as it finds each key of the
    depth before, and returns the schedule and the parents of the
    layer-by-layer loop. On the hand-written space, at min_gates 3, the
    search expands key 2 before root 1, meets key 4 from 2 one step too
    deep, and moves it back: the goal 10 lies only beyond 4, and with no
    goal the whole seen map is compared. Seeded random spaces add caps
    and bounds on both sides of the first scanned depth."""
    expanded = []
    roots, expand, is_goal, finish = _toy_space(_TOY, [0, 1], {10})

    def recording(key):
        expanded.append(key)
        return expand(key)

    sched = _breadth_first(None, roots, recording, is_goal, 6, finish, 3)
    assert expanded == [0, 2, 3, 1, 4]
    assert [ins for ins in sched.instructions if isinstance(ins, PbsGate)] == [
        _TOY_STEPS[0], _TOY_STEPS[0], _TOY_STEPS[1]]  # 1 -> 4 -> 7 -> 10
    met_deep = sum(_assert_toy_searches_agree(_TOY, [0, 1], goals)
                   for goals in ({9}, {10}, {11}, set()))
    rng = random.Random(21)
    for _ in range(40):
        successors = {key: rng.sample(range(16), rng.randrange(4)) for key in range(16)}
        met_deep += _assert_toy_searches_agree(successors, rng.sample(range(16), rng.randint(1, 3)),
                                               set(rng.sample(range(16), rng.randrange(3))))
    assert met_deep == 17


def test_searches_leave_no_cyclic_garbage():
    """A search frees its state as it returns, with no reference cycle
    left for the collector: net6 under --allow-intra, which builds a
    depth on demand, net6 with both flags, an unreachable tree, and the
    protocol tree on the forest engine."""
    searches = [(NET6, True, False), (NET6, True, True), (PATH4, False, False),
                (plan_tree_protocol(2).target, False, False)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for target, intra, hadamard in searches:
            brute_force_schedule_search(target, allow_intra=intra, allow_hadamard=hadamard)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _random_mixed_schedule(rng: random.Random) -> tuple[Schedule, int]:
    """Pairs created between gates, inter- and intra-cluster PBS gates
    and bare Hadamards, on seeded distinct ids in shuffled order.
    Returns the schedule and its number of intra-cluster gates."""
    num_pairs = rng.randrange(2, 7)
    ids = rng.sample(range(100), 2 * num_pairs)
    instructions = [CreatePair(ids[0], ids[1])]
    live = ids[:2]
    cluster = {q: i // 2 for i, q in enumerate(ids)}
    intra = 0
    for _ in range(rng.randrange(3, 12)):
        if len(live) < len(ids) and rng.random() < 0.4:
            pair = ids[len(live) : len(live) + 2]
            instructions.append(CreatePair(*pair))
            live.extend(pair)
        elif rng.random() < 0.25:
            instructions.append(Hadamard(rng.choice(live)))
        else:
            i1, i2 = rng.sample(live, 2)
            a, b = cluster[i1], cluster[i2]
            intra += a == b
            cluster = {q: a if c == b else c for q, c in cluster.items()}
            instructions.append(PbsGate(i1, i2))
    return Schedule(tuple(instructions)), intra


def _replay_validating(sched: Schedule) -> tuple[float, StabilizerGroup]:
    """execute_schedule step by step with the public ops, validating
    every intermediate group; the result is indexed in sorted id order."""
    labels: list[int] = []
    group = StabilizerGroup(0, ()).validate()
    prob = 1.0
    for ins in sched.instructions:
        if isinstance(ins, CreatePair):
            n = group.num_qubits + 2
            widened = tuple(PauliString(n, g.x_bits, g.z_bits, g.phase) for g in group.generators)
            a, b = n - 2, n - 1
            edge = (PauliString(n, 1 << a, 1 << b), PauliString(n, 1 << b, 1 << a))
            group = StabilizerGroup(n, widened + edge)
            labels.extend(ins.qubits)
        elif isinstance(ins, PbsGate):
            gate_prob, group_after = apply_pbs_gate(group, labels.index(ins.i1), labels.index(ins.i2))
            if group_after is None:
                prob = 0.0
                break
            prob *= gate_prob
            group = group_after
        else:
            group = group.apply_hadamard(labels.index(ins.q))
        group.validate()
    rank = {q: r for r, q in enumerate(sorted(labels))}

    def move(mask: int) -> int:
        return sum(1 << rank[q] for i, q in enumerate(labels) if mask >> i & 1)

    n = group.num_qubits
    return prob, StabilizerGroup(n, tuple(
        PauliString(n, move(g.x_bits), move(g.z_bits), g.phase) for g in group.generators
    )).validate()


def test_unchecked_execution_matches_validated_replay():
    """execute_schedule skips per-step validation; replaying the same
    random mixed schedules with validate() on every intermediate group
    gives the same probability, canonical group and graph."""
    rng = random.Random(3)
    with_intra = with_hadamard = impossible = in_graph_form = 0
    for _ in range(150):
        sched, intra = _random_mixed_schedule(rng)
        validate_schedule(sched)
        prob, group, graph = execute_schedule(sched)
        replay_prob, replay_group = _replay_validating(sched)
        assert prob == replay_prob
        assert group.canonical_form().generators == replay_group.canonical_form().generators
        assert graph == (stabilizers_to_graph(replay_group) if prob else None)
        with_hadamard += any(isinstance(ins, Hadamard) for ins in sched.instructions)
        with_intra += intra > 0
        impossible += prob == 0.0
        in_graph_form += graph is not None
    assert with_intra >= 50 and with_hadamard >= 50 and impossible >= 3 and in_graph_form >= 20


def _object_replay(sched: Schedule) -> tuple[float, StabilizerGroup, Graph | None]:
    """execute_schedule on the former object gate path: the pairs' graph
    state as PauliStrings in sorted id order, every gate through the
    object references of test_pauli, and graph form read off their
    canonical form."""
    ids = sched.qubit_ids()
    index = {q: i for i, q in enumerate(ids)}
    n = len(ids)
    adj = [0] * n
    for ins in sched.instructions:
        if isinstance(ins, CreatePair):
            a, b = index[ins.q_a], index[ins.q_b]
            adj[a], adj[b] = 1 << b, 1 << a
    group = StabilizerGroup(n, tuple(PauliString(n, 1 << i, row) for i, row in enumerate(adj)))
    prob = 1.0
    for k, ins in enumerate(sched.instructions):
        if isinstance(ins, PbsGate):
            gate_prob, after = _reference_measure_zz_postselect(group, index[ins.i1],
                                                                index[ins.i2])
            if after is None:
                return 0.0, _object_replay(Schedule(sched.instructions[:k]))[1], None
            prob *= gate_prob
            group = _reference_apply_hadamard(after, index[ins.i2])
        elif isinstance(ins, Hadamard):
            group = _reference_apply_hadamard(group, index[ins.q])
    canon = _reference_canonical_form(group).generators
    if any(g.x_bits != 1 << i or g.z_bits >> i & 1 or g.phase for i, g in enumerate(canon)):
        return prob, group, None
    return prob, group, Graph(n, tuple(g.z_bits for g in canon))


def _assert_executes_like_the_object_path(sched: Schedule) -> tuple[float, Graph | None]:
    prob, group, graph = execute_schedule(sched)
    ref_prob, ref_group, ref_graph = _object_replay(sched)
    assert (prob, group.generators, graph) == (ref_prob, ref_group.generators, ref_graph)
    return prob, graph


def test_execution_matches_the_object_gate_path():
    """execute_schedule runs StabilizerGroup on packed rows; the object
    replay gives the same probability, the same generators in the same
    order and the same graph, on plan_tree_protocol(1..7) with seeded
    distinct ids in shuffled order (4 to 256 qubits), and on the 150
    mixed schedules of the validated replay below."""
    rng = random.Random(14)
    for m in range(1, 8):
        sched = plan_tree_protocol(m)
        ids = sorted(sched.qubit_ids())
        relabel = dict(zip(ids, rng.sample(range(1, 16 * len(ids)), len(ids))))
        text = "\n".join(" ".join([op, *(str(relabel[int(q)]) for q in qubits)])
                         for op, *qubits in map(str.split, schedule_text(sched).splitlines()))
        prob, graph = _assert_executes_like_the_object_path(parse_schedule(text))
        assert prob == 0.5 ** sched.gate_count() and graph is not None
    rng = random.Random(3)
    outcomes = set()
    for _ in range(150):
        sched, _intra = _random_mixed_schedule(rng)
        prob, graph = _assert_executes_like_the_object_path(sched)
        outcomes.add((prob > 0, graph is not None))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_execute_schedule_foundations():
    prob, group, graph = execute_schedule(Schedule(()))
    assert prob == 1.0 and group.num_qubits == 0 and graph == Graph(0)

    pair = Schedule((CreatePair(5, 9),))
    prob, group, graph = execute_schedule(pair)
    assert prob == 1.0
    assert graph == Graph.from_edges(2, [(0, 1)])
    assert group.canonical_form() == graph_to_stabilizers(graph).canonical_form()


def test_execute_schedule_impossible_gate(monkeypatch):
    """A forced-impossible fusion zeroes the probability and reports no
    graph; the pre-gate group is still returned for inspection."""
    import pbsgraph.planner as planner_module

    monkeypatch.setattr(planner_module, "apply_pbs_gate", lambda group, i1, i2: (0.0, None))
    before = (CreatePair(0, 1), CreatePair(2, 3), PbsGate(1, 2))
    # A pair created after the impossible gate is not in the returned group.
    for sched in (Schedule(before), Schedule(before + (CreatePair(4, 5),))):
        prob, group, graph = execute_schedule(sched)
        assert prob == 0.0 and graph is None
        assert group.num_qubits == 4


def test_execute_schedule_validates_its_result(monkeypatch):
    """Steps are not re-checked, but a corrupted group cannot leave."""
    import pbsgraph.planner as planner_module

    def corrupt(group, i1, i2):
        n = group.num_qubits
        return 0.5, StabilizerGroup(n, (PauliString(n, 1, 0),) * n)

    monkeypatch.setattr(planner_module, "apply_pbs_gate", corrupt)
    with pytest.raises(ValueError, match="not independent"):
        execute_schedule(Schedule((CreatePair(0, 1), CreatePair(2, 3), PbsGate(1, 2))))


def _reference_execute_schedule_fock(sched: Schedule) -> tuple[float, FockState | None]:
    """The former execute_schedule_fock: the whole schedule on FockState's
    sparse occupation dict, every mode operation on every state."""
    state: FockState | None = None
    prob = 1.0
    for ins in sched.instructions:
        if isinstance(ins, CreatePair):
            pair = make_bell_pair(ins.q_a, ins.q_b).apply_hwp_hadamard(ins.q_b)
            state = pair if state is None else tensor(state, pair)
        elif isinstance(ins, PbsGate):
            assert state is not None
            state = state.apply_pbs(ins.i1, ins.i2)
            gate_prob, kept = state.postselect_single_photon([ins.i1, ins.i2])
            if kept is None:
                return 0.0, None
            prob *= gate_prob
            state = kept.apply_hwp_hadamard(ins.i2)
        elif isinstance(ins, Hadamard):
            assert state is not None
            state = state.apply_hwp_hadamard(ins.q)
    return prob, None if state is None else state.validate()


def _replay_fock_validating(sched: Schedule) -> tuple[float, FockState | None]:
    """_reference_execute_schedule_fock step by step with the public mode
    ops, validating every intermediate state."""
    state = None
    prob = 1.0
    for ins in sched.instructions:
        if isinstance(ins, CreatePair):
            pair = make_bell_pair(ins.q_a, ins.q_b).validate().apply_hwp_hadamard(ins.q_b).validate()
            state = pair if state is None else tensor(state, pair).validate()
        elif isinstance(ins, PbsGate):
            state = state.apply_pbs(ins.i1, ins.i2).validate()
            gate_prob, kept = state.postselect_single_photon([ins.i1, ins.i2])
            if kept is None:
                return 0.0, None
            prob *= gate_prob
            state = kept.validate().apply_hwp_hadamard(ins.i2).validate()
        else:
            state = state.apply_hwp_hadamard(ins.q).validate()
    return prob, state


def test_unchecked_fock_execution_matches_validated_replay():
    """The mode operations do not validate their results; running random
    mixed schedules on them unchecked (the dict reference) and with
    validate() on every intermediate state gives the same probability and
    the same amplitudes, in order."""
    rng = random.Random(3)
    with_intra = with_hadamard = impossible = 0
    for _ in range(150):
        sched, intra = _random_mixed_schedule(rng)
        prob, state = _reference_execute_schedule_fock(sched)
        replay_prob, replay_state = _replay_fock_validating(sched)
        assert prob == replay_prob
        if state is None:
            assert replay_state is None
        else:
            assert state.modes == replay_state.modes
            assert list(state.amplitudes.items()) == list(replay_state.amplitudes.items())
        with_hadamard += any(isinstance(ins, Hadamard) for ins in sched.instructions)
        with_intra += intra > 0
        impossible += prob == 0.0
    assert with_intra >= 50 and with_hadamard >= 50 and impossible >= 3


def _assert_dense_matches_reference(sched: Schedule, exact_prob: bool) -> float:
    """execute_schedule_fock against the dict reference: the dense array
    is the reference state read in sorted id order, to 1e-12 per
    amplitude, and the probabilities are equal (exact_prob) or within a
    relative 1e-12. Returns the probability."""
    prob, state = execute_schedule_fock(sched)
    ref_prob, ref_state = _reference_execute_schedule_fock(sched)
    if exact_prob:
        assert prob == ref_prob
    else:
        assert prob == pytest.approx(ref_prob, rel=1e-12, abs=0.0)
    if ref_state is None:
        assert state is None
    else:
        expected = _dual_rail_array(ref_state, sched.qubit_ids())
        assert state.shape == expected.shape
        assert np.max(np.abs(state - expected)) <= 1e-12
    return prob


def test_dense_fock_execution_matches_dict_reference():
    """Criterion 07's random inter/intra schedules (up to 8 qubits, pairs in
    id order) give exactly the reference's probabilities; the mixed
    schedules above (up to 12 qubits, shuffled ids, pairs created between
    gates, bare Hadamards, impossible gates) sum their probabilities in
    another order, so those agree to a relative 1e-12."""
    from test_acceptance import _random_schedule

    rng = random.Random(707)
    for _ in range(200):
        _assert_dense_matches_reference(_random_schedule(rng)[0], exact_prob=True)
    rng = random.Random(4)
    impossible = with_hadamard = 0
    for _ in range(150):
        sched, _intra = _random_mixed_schedule(rng)
        impossible += _assert_dense_matches_reference(sched, exact_prob=False) == 0.0
        with_hadamard += any(isinstance(ins, Hadamard) for ins in sched.instructions)
    assert impossible >= 3 and with_hadamard >= 50


def test_dense_fock_execution_refuses_past_its_cap(monkeypatch):
    """More than MAX_DENSE_QUBITS qubits is refused before any map or array
    is built."""
    import pbsgraph.planner as planner_module

    def no_maps():
        raise AssertionError("built maps past the cap")

    monkeypatch.setattr(planner_module, "_fock_maps", no_maps)
    sched = plan_tree_protocol(4)  # 32 qubits
    with pytest.raises(ValueError, match=f"capped at {MAX_DENSE_QUBITS} qubits, got 32"):
        execute_schedule_fock(sched)


def test_execute_schedule_fock_validates_its_result(monkeypatch):
    """Mode operations are not re-checked, but a corrupted state cannot
    leave the Fock layer: the gate map is read from the derived state by
    _dual_rail_array, which validates it. The corruption lists the modes
    in reverse: the same physical state, which every later mode
    operation accepts."""
    apply_pbs = FockState.apply_pbs

    def corrupt(state, port_a, port_b):
        out = apply_pbs(state, port_a, port_b)
        return FockState(out.modes[::-1], {c[::-1]: a for c, a in out.amplitudes.items()})

    monkeypatch.setattr(FockState, "apply_pbs", corrupt)
    with pytest.raises(ValueError, match="modes must be sorted"):
        execute_schedule_fock(Schedule((CreatePair(0, 1), CreatePair(2, 3), PbsGate(1, 2))))


def test_fock_execution_handles_hadamard_instructions():
    sched = Schedule((CreatePair(0, 1), Hadamard(1)))
    prob, state = execute_schedule_fock(sched)
    assert prob == 1.0
    _, group, _ = execute_schedule(sched)
    reference = qubit_statevector_from_stabilizers(group, (0, 1))
    assert fidelity(state, reference) == pytest.approx(1.0, abs=1e-12)


def test_random_small_schedules_round_trip_formats():
    rng = random.Random(2024)
    for _ in range(40):
        instructions = []
        live = []
        for pair_index in range(rng.randrange(1, 4)):
            a, b = 2 * pair_index, 2 * pair_index + 1
            instructions.append(CreatePair(a, b))
            live.extend((a, b))
        for _ in range(rng.randrange(0, 3)):
            if rng.random() < 0.3:
                instructions.append(Hadamard(rng.choice(live)))
            elif len(live) >= 2:
                i1, i2 = rng.sample(live, 2)
                instructions.append(PbsGate(i1, i2))
        for q in live:
            if rng.random() < 0.5:
                instructions.append(Measure(q))
        sched = Schedule(tuple(instructions))
        validate_schedule(sched)
        assert parse_schedule(schedule_text(sched)).instructions == sched.instructions


def test_parse_schedule_accepts_comments_and_rejects_garbage():
    text = "# build one edge\npair 0 1\n\nH 1  # flip the second qubit\nMEASURE 0\n"
    sched = parse_schedule(text)
    assert sched.instructions == (CreatePair(0, 1), Hadamard(1), Measure(0))
    with pytest.raises(ValueError, match="line 1"):
        parse_schedule("PBS one two\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_schedule("PAIR 0 1\nTELEPORT 0 1\n")
    with pytest.raises(ValueError):
        parse_schedule("PBS 0 1\n")  # gate before creation
    with pytest.raises(ValueError, match="line 1"):
        parse_schedule("PAIR 0\n")


def test_validate_schedule_rejects_malformed_programs():
    # A Schedule validates itself when it is built.
    with pytest.raises(ValueError, match="before it is created"):
        Schedule((PbsGate(0, 1),))
    with pytest.raises(ValueError, match="created twice"):
        Schedule((CreatePair(0, 1), CreatePair(1, 2)), levels=1)
    with pytest.raises(ValueError):
        validate_schedule(Schedule((CreatePair(0, 0),)))
    with pytest.raises(ValueError):
        validate_schedule(Schedule((CreatePair(0, 1), CreatePair(1, 2))))
    with pytest.raises(ValueError):
        validate_schedule(Schedule((CreatePair(0, 1), PbsGate(0, 0))))
    with pytest.raises(ValueError):
        validate_schedule(Schedule((CreatePair(0, 1), Measure(0), Hadamard(0))))
    with pytest.raises(ValueError):
        validate_schedule(Schedule((CreatePair(-1, 1),)))
    with pytest.raises(ValueError):
        validate_schedule(Schedule((CreatePair(0, 1), PbsGate(0, 2))))