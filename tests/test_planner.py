"""Unit tests for schedules, the join planner, and the brute-force oracle."""

import itertools
import random
import sys

import networkx as nx
import numpy as np
import pytest

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
    measures_early,
    parse_schedule,
    plan_join_sequence,
    plan_tree_protocol,
    schedule_from_json_dict,
    schedule_json_dict,
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


def _relabelled(graph: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(graph.num_vertices), graph.num_vertices)
    return Graph.from_edges(graph.num_vertices, [(perm[u], perm[v]) for u, v in graph.sorted_edges()])


def _trees(n: int):
    for g in nx.nonisomorphic_trees(n):
        relabel = {v: i for i, v in enumerate(sorted(g.nodes))}
        yield Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in g.edges])


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
    gates alone cannot build it."""
    assert brute_force_schedule_search(K33, allow_intra=True) is None
    sched = brute_force_schedule_search(K33, allow_hadamard=True)
    assert sched is not None
    assert sched.instructions == (
        CreatePair(0, 1), CreatePair(2, 4), CreatePair(3, 5),
        PbsGate(0, 2), PbsGate(1, 3), Hadamard(0), Hadamard(1),
    )
    prob, group, graph = execute_schedule(sched)
    assert prob == 0.25 and graph == K33
    fock_prob, fock_state = execute_schedule_fock(sched)
    assert fock_prob == pytest.approx(prob, abs=1e-9)
    reference = qubit_statevector_from_stabilizers(group, sched.qubit_ids())
    assert fidelity(fock_state, reference) == pytest.approx(1.0, abs=1e-9)


# ----- reference engines: the object-level stabilizer search and the
# forest search that tries every join at every depth -----


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
    n = target.num_vertices
    depth_needed = n // 2 - 1
    if depth_needed > max_gates:
        return None
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

    def start(matching):
        return Graph.from_edges(n, matching).adj

    return _breadth_first(target, start, expand, target.adj.__eq__, depth_needed)


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

    return _breadth_first(target, start, expand, lambda key: key[0] == goal, max_gates)


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
    """Pruning by the backward set changes no schedule: the 47 trees with 2 to
    8 vertices, seeded relabellings of the 6-vertex ones, and every
    labelled 4-vertex graph."""
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
    graphs4 = [(graph, False, False) for graph in _labelled_graphs(4)]
    assert _assert_same_schedules(graphs4) == 7  # the four stars and three matchings


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


def _reference_reaching(target: tuple[int, ...], n: int, joins: int) -> set[tuple[int, ...]]:
    """The unpruned backward walk: every pre-image of every forest, for
    `joins` joins back from the target."""
    reaching = layer = {target}
    for _ in range(joins):
        layer = {pre for adj in layer for _i1, _i2, pre in _pre_images(adj, n)}
        reaching = reaching | layer
    return reaching


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
    """_pre_images is the exact inverse of a join across components: on
    every labelled 4-vertex forest it equals the inverse found by joining
    every labelled graph; on 8-vertex trees every edge of the unpruned
    forward sweep into the backward set starts at one of its pre-images,
    and each pre-image joins back from separate components. _reaching is
    the unpruned backward walk without the forests that isolate a vertex,
    which no schedule builds."""
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
        assert sorted(_pre_images(adj, 4)) == sorted(inverse.get(adj, [])), adj

    rng = random.Random(10)
    protocol = plan_tree_protocol(2).target
    trees = [protocol] * 4 + rng.sample(list(_trees(8)), 8)
    into = _forest_sweep(8)
    assert sum(map(len, into.values())) == 5040 + 33600 + 82432
    reached = 0
    for target in [protocol] + [_relabelled(tree, rng) for tree in trees[1:]]:
        walk = _reference_reaching(target.adj, 8, 3)
        assert _reaching(target.adj, 8, 3) == {forest for forest in walk if all(forest)}
        for forest in walk:
            pre = list(_pre_images(forest, 8))
            leaves = [i2 for i2, row in enumerate(forest) if row.bit_count() == 1]
            assert len(set(pre)) == len(pre) == sum(
                1 << forest[forest[i2].bit_length() - 1].bit_count() - 1 for i2 in leaves)
            for i1, i2, before in pre:
                assert _separated(before, i1, i2) and join_adjacency(before, i1, i2) == forest
            assert into.get(forest, set()) <= set(pre)
        reached += target.adj in into
    assert reached == 4 + 3  # the protocol tree four times, and three sampled trees


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
    """Run the stabilizer search on target and return its finish and the
    keys that the search scanned with it, in order."""
    run = {"scanned": []}
    breadth_first = planner._breadth_first

    def recording(target, start, expand, is_goal, max_gates, finish=None):
        run["finish"] = finish

        def scanning(key):
            run["scanned"].append(key)
            return finish(key)

        return breadth_first(target, start, expand, is_goal, max_gates, scanning)

    with monkeypatch.context() as patch:
        patch.setattr(planner, "_breadth_first", recording)
        brute_force_schedule_search(target, allow_intra=allow_intra, allow_hadamard=allow_hadamard,
                                    max_gates=max_gates)
    return run["finish"], run["scanned"]


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
    scanned = finishing = impossible = 0
    for target, intra, hadamard, cap in cases:
        finish, keys = _engine_finish(monkeypatch, target, intra, hadamard, cap)
        reference = _reference_finish(target, intra, hadamard)
        leaves = [(row.bit_length() - 1, i2)
                  for i2, row in enumerate(target.adj) if row.bit_count() == 1]
        for key in keys:
            expected = list(reference(key))
            assert list(finish(key)) == expected, (target.sorted_edges(), key)
            finishing += bool(expected)
            impossible += sum(_zz_postselect_rows(key[0], target.num_vertices, i1, i2)[1] is None
                              for i1, i2 in leaves)
        scanned += len(keys)
    assert scanned > 8000 and finishing == 3 and impossible > 0

    # net6 one gate short of the goal, replayed on packed rows
    finish, _keys = _engine_finish(monkeypatch, NET6, True, False)
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
    finish, _keys = _engine_finish(monkeypatch, STAR4, True, False)
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
    finish, _keys = _engine_finish(monkeypatch, target, False, True)
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


def _checked_expansions(monkeypatch, target: Graph, allow_intra: bool,
                        allow_hadamard: bool) -> dict[str, int]:
    """Run the stabilizer search on target with every expand(key) compared
    to _reference_expand step for step, and with the joins it makes per
    key compared to the gates across the components of key's graph, read
    by stabilizers_to_graph (none when the key is not in graph form).
    Returns the counts of keys expanded, keys in graph form, joins, and
    keys whose expansion or joins differ."""
    n = target.num_vertices
    reference = _reference_expand(target, allow_intra, allow_hadamard)
    counts = {"expanded": 0, "graph form": 0, "joins": 0, "mismatched": 0}
    joined = []
    breadth_first = planner._breadth_first
    join = planner.join_adjacency

    def counting_join(adj, i1, i2):
        joined.append((i1, i2))
        return join(adj, i1, i2)

    def recording(target, start, expand, is_goal, max_gates, finish=None):
        def checked(key):
            joined.clear()
            steps = list(expand(key))
            rows, parts = key
            graph = stabilizers_to_graph(StabilizerGroup(n, tuple(_unpack(row, n) for row in rows)))
            expected = []
            if graph is not None:
                counts["graph form"] += 1
                expected = [(i1, i2) for i1, i2 in itertools.permutations(range(n), 2)
                            if _separated(graph.adj, i1, i2)
                            and (allow_intra or not parts[i1] >> i2 & 1)]
            counts["expanded"] += 1
            counts["joins"] += len(joined)
            counts["mismatched"] += steps != list(reference(key)) or joined != expected
            return steps

        return breadth_first(target, start, checked, is_goal, max_gates, finish)

    with monkeypatch.context() as patch:
        patch.setattr(planner, "_breadth_first", recording)
        patch.setattr(planner, "join_adjacency", counting_join)
        brute_force_schedule_search(target, allow_intra=allow_intra,
                                    allow_hadamard=allow_hadamard)
    return counts


def test_join_path_matches_the_tableau_expansion(monkeypatch):
    """The engine's expand builds the successors of a graph-form key
    across its components by the join rule, and yields what the tableau
    yields for every key that the searches of net6, star-4 and the square
    with a pendant on each corner expand under --allow-intra, and K3,3
    and path-4 under --allow-hadamard (cluster masks tracked). Star-4
    finishes from a root, so it expands no key."""
    square = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)])
    expanded = []
    for target, intra, hadamard, graph_form, joins in (
        (NET6, True, False, 16, 376), (STAR4, True, False, 0, 0),
        (square, True, False, 1447, 51328), (K33, False, True, 136, 1320),
        (PATH4, False, True, 7, 24),
    ):
        counts = _checked_expansions(monkeypatch, target, intra, hadamard)
        assert counts["mismatched"] == 0, (target.sorted_edges(), counts)
        assert (counts["graph form"], counts["joins"]) == (graph_form, joins)
        expanded.append(counts["expanded"])
    assert expanded == [17, 0, 2725, 217, 13]


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
    """net6 under --allow-intra tries 126 gates on the tableau, against
    489 before gates across the components of graph-form keys took the
    join rule: those are only the gates within a component and the gates
    from keys not in graph form."""
    attempts = []
    postselect = planner._zz_postselect_rows

    def counting(*args):
        attempts.append(args[2:])
        return postselect(*args)

    monkeypatch.setattr(planner, "_zz_postselect_rows", counting)
    assert brute_force_schedule_search(NET6, allow_intra=True).gate_count() == 3
    assert len(attempts) == 126


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
            edge = (PauliString.from_ops(n, {a: "X", b: "Z"}), PauliString.from_ops(n, {a: "Z", b: "X"}))
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


def test_execute_schedule_foundations():
    prob, group, graph = execute_schedule(Schedule(()))
    assert prob == 1.0 and group.num_qubits == 0 and graph == Graph(0)

    pair = Schedule((CreatePair(5, 9),))
    prob, group, graph = execute_schedule(pair)
    assert prob == 1.0
    assert graph == Graph.from_edges(2, [(0, 1)])
    assert group.equals_group(graph_to_stabilizers(graph))


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
        return 0.5, StabilizerGroup(n, (PauliString.from_ops(n, {0: "X"}),) * n)

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
        assert schedule_from_json_dict(schedule_json_dict(sched)).instructions == sched.instructions


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
    with pytest.raises(ValueError):
        schedule_from_json_dict({"instructions": [{"op": "WARP", "qubits": [0]}]})
    pair = {"op": "PAIR", "qubits": [0, 1]}
    for bad in (
        {"op": "PAIR", "qubits": [0]},  # wrong arity
        {"op": "PAIR", "qubits": ["0", "1"]},
        {"op": "PAIR", "qubits": [0.5, 1]},
        {"op": "PAIR", "qubits": [True, 2]},
        {"op": "PAIR"},
        {"qubits": [0, 1]},
        "PAIR 0 1",
    ):
        with pytest.raises(ValueError, match="instruction 1"):
            schedule_from_json_dict({"instructions": [pair, bad]})
    with pytest.raises(ValueError, match="instructions"):
        schedule_from_json_dict({})
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