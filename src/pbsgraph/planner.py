"""Schedule synthesis and execution for fusion-built graph states.

Three planners live here. plan_tree_protocol emits the doubling schedule
that builds a caterpillar tree out of Bell pairs, measuring every qubit
as soon as no later gate touches it. plan_join_sequence decides exactly
which trees the inter-graph fusion rule can reach and reconstructs a
gate sequence when one exists. brute_force_schedule_search is the
oracle over all schedules on at most eight qubits. With inter-graph
gates only, it rejects a target with a cycle or an odd component, which
no join sequence builds, and walks greedily from the pairs through the
labeled forests, held as adjacency masks, that a backward walk from the
target reaches: this gives the breadth-first sweep's schedule with no
breadth-first search. Both that walk and plan_join_sequence undo joins
with one inverse, _pre_images, which splits a tree only into even
sides; the tests check both against the unpruned forward sweep.
Otherwise it searches breadth-first over stabilizer groups held as
tuples of canonical packed rows, from the Bell pairs on each perfect
matching as graph rows; on a graph state with local Z signs, a gate
across two components or on a lone edge takes a graph rule, and a gate
that only repeats an earlier successor is left out. It tries each new
state, as soon as it is found, with only the steps that can finish the
target, so its last expansion stops at the first state that finishes,
and no schedule changes.
That scan builds no successor: it tests whether the step's result is the
goal by stabilizer membership, row by row, and it is skipped on states
with too few gates to finish: a target with k components takes at least
n/2 - k gates, one more for a cycle without bare Hadamards. Both keep
bare ints as search states, and the tableau steps run the row kernels
of StabilizerGroup, which execute_schedule uses.

execute_schedule runs any schedule through the stabilizer engine and
reports the cumulative postselection probability; execute_schedule_fock
does the same in second quantization for cross-checking, on a dense
array whose gate maps it derives from the Fock mode rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Generator, Iterator, Union

import numpy as np

from .fock import (
    MAX_DENSE_QUBITS,
    _TOL,
    _dual_rail,
    _dual_rail_array,
    _norm_squared,
    make_bell_pair,
    tensor,
)
from .graphs import (
    Graph,
    _graph_rows,
    apply_pbs_gate,
    bits,
    component_masks,
    graph_to_stabilizers,
    join_adjacency,
    stabilizers_to_graph,
)
from .pauli import (
    StabilizerGroup,
    _canonical_rows,
    _hadamard_rows,
    _packed_product,
    _residual,
    _zz_postselect_rows,
)


class _Op:
    """What the text format needs of an instruction: its op name, and
    its qubit ids in field order."""

    op: ClassVar[str]

    @property
    def qubits(self) -> tuple[int, ...]:
        # an instruction's instance dict holds exactly its fields, in order
        return tuple(self.__dict__.values())


@dataclass(frozen=True)
class CreatePair(_Op):
    """Emit a fresh two-qubit graph state (one edge) on new qubit ids."""

    op = "PAIR"
    q_a: int
    q_b: int


@dataclass(frozen=True)
class PbsGate(_Op):
    """Fusion gate: polarizing beam splitter on (i1, i2) followed by a
    half-wave plate Hadamard on i2, postselected on one photon per port."""

    op = "PBS"
    i1: int
    i2: int


@dataclass(frozen=True)
class Hadamard(_Op):
    op = "H"
    q: int


@dataclass(frozen=True)
class Measure(_Op):
    """Bookkeeping marker: the qubit leaves the active register here."""

    op = "MEASURE"
    q: int


Instruction = Union[CreatePair, PbsGate, Hadamard, Measure]
_OPS: dict[str, type] = {cls.op: cls for cls in (CreatePair, PbsGate, Hadamard, Measure)}
_ARITY: dict[type, int] = {cls: len(fields(cls)) for cls in _OPS.values()}


def _instruction(op: str, qubits: list[int]) -> Instruction:
    """The instruction that parse_schedule reads from one line."""
    cls = _OPS.get(op.upper())
    if cls is None:
        raise ValueError(f"unknown op {op!r}")
    arity = _ARITY[cls]
    if len(qubits) != arity:
        raise ValueError(f"{cls.op} takes {arity} qubit id(s), got {qubits!r}")
    return cls(*qubits)


@dataclass(frozen=True)
class Schedule:
    """A program of instructions, well formed by construction:
    validate_schedule runs on every new Schedule and raises ValueError
    for a malformed one."""

    instructions: tuple[Instruction, ...]
    target: Graph | None = None
    levels: int | None = None

    def __post_init__(self) -> None:
        validate_schedule(self)

    def gate_count(self) -> int:
        return sum(1 for ins in self.instructions if isinstance(ins, PbsGate))

    def pair_count(self) -> int:
        return sum(1 for ins in self.instructions if isinstance(ins, CreatePair))

    def qubit_ids(self) -> tuple[int, ...]:
        ids = []
        for ins in self.instructions:
            if isinstance(ins, CreatePair):
                ids.extend((ins.q_a, ins.q_b))
        return tuple(sorted(ids))


def validate_schedule(sched: Schedule) -> None:
    """Raise ValueError unless the schedule is well formed: pair ids are
    fresh, gates and measurements touch live (created, unmeasured)
    qubits, and gate endpoints are distinct."""
    created: set[int] = set()
    measured: set[int] = set()
    for ins in sched.instructions:
        if not isinstance(ins, _Op):
            raise ValueError(f"unknown instruction {ins!r}")
        qubits = ins.qubits
        if len(set(qubits)) < len(qubits):
            raise ValueError(f"{ins.op} endpoints must differ")
        for q in qubits:
            if isinstance(ins, CreatePair):
                if q < 0:
                    raise ValueError(f"negative qubit id {q}")
                if q in created:
                    raise ValueError(f"qubit id {q} created twice")
            elif q not in created:
                raise ValueError(f"{ins.op} references qubit {q} before it is created")
            elif q in measured:
                raise ValueError(f"{ins.op} references qubit {q} after it is measured")
        if isinstance(ins, CreatePair):
            created.update(qubits)
        elif isinstance(ins, Measure):
            measured.update(qubits)


# ---------------------------------------------------------------------------
# Protocol schedule generator

# The schedule has 2^(m+2) - 1 instructions; m = 12 already takes seconds.
_MAX_PROTOCOL_LEVELS = 12


def plan_tree_protocol(m: int) -> Schedule:
    """Doubling protocol schedule for m connection levels.

    Creates 2^m Bell pairs on qubits 1..2^(m+1), measures each pair's
    outer qubit up front, then fuses neighboring segments level by
    level: one gate per merge, with the spent connection qubit measured
    immediately after its gate. The surviving connection qubit is
    measured last. Executing the gates (measurements are bookkeeping)
    leaves a connected caterpillar tree on all 2^(m+1) qubits.
    """
    if not 1 <= m <= _MAX_PROTOCOL_LEVELS:
        raise ValueError(f"m must be in [1, {_MAX_PROTOCOL_LEVELS}], got {m}")
    num_pairs = 1 << m
    instructions: list[Instruction] = []
    conns: list[int] = []
    outers: list[int] = []
    for k in range(num_pairs):
        left, right = 2 * k + 1, 2 * k + 2
        instructions.append(CreatePair(left, right))
        if k % 2 == 0:
            conns.append(right)
            outers.append(left)
        else:
            conns.append(left)
            outers.append(right)
    instructions.extend(Measure(q) for q in outers)
    while len(conns) > 1:
        next_conns = []
        for j in range(0, len(conns), 2):
            c_left, c_right = conns[j], conns[j + 1]
            instructions.append(PbsGate(c_left, c_right))
            instructions.append(Measure(c_left))
            next_conns.append(c_right)
        conns = next_conns
    instructions.append(Measure(conns[0]))

    target = _graph_from_join_instructions(instructions)
    return Schedule(tuple(instructions), target=target, levels=m)


def _graph_from_join_instructions(instructions: list[Instruction]) -> Graph:
    """Apply the join rule to the graph of all pairs, qubits indexed in
    sorted id order: creating a pair commutes with every gate on other
    qubits."""
    ids = sorted(q for ins in instructions if isinstance(ins, CreatePair) for q in ins.qubits)
    index = {q: i for i, q in enumerate(ids)}
    pairs = [(index[ins.q_a], index[ins.q_b])
             for ins in instructions if isinstance(ins, CreatePair)]
    adj = Graph.from_edges(len(ids), pairs).adj
    for ins in instructions:
        if isinstance(ins, PbsGate):
            adj = join_adjacency(adj, index[ins.i1], index[ins.i2])
    return Graph(len(ids), adj)


# ---------------------------------------------------------------------------
# Exact join-rule planning for trees


def plan_join_sequence(target: Graph) -> Schedule | None:
    """Decide whether the inter-graph fusion rule alone can build the
    target tree, and return a schedule when it can (None otherwise).

    The decision unwinds the last gate with _pre_images: the tree is
    reachable when some pre-image splits it into two even trees that are
    both reachable, tried in _pre_images' order. Sources are single
    edges, so odd-order targets fail immediately. Unreachable trees are
    remembered by isomorphism class, keyed by rooted-shape labels
    interned per call; all ties break toward the lowest vertex id.
    """
    if not target.is_tree():
        raise ValueError("join planning requires a tree")
    n = target.num_vertices
    if n % 2 == 1:
        return None
    instructions = _plan_tree(target.adj, (1 << n) - 1, set(), {})
    if instructions is None:
        return None
    return Schedule(tuple(instructions), target=target)


def _plan_tree(
    adj: tuple[int, ...], verts: int, unreachable: set[tuple], shapes: dict[tuple, int]
) -> list[Instruction] | None:
    """Plan the even tree on the vertex mask verts, whose rows in adj
    stay inside verts. Runs the _plan_steps generators on an explicit
    stack, so deep decompositions cannot overflow the interpreter's."""
    stack = [_plan_steps(adj, verts, unreachable, shapes)]
    result = None
    while stack:
        try:
            sub = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(_plan_steps(*sub, unreachable, shapes))
            result = None
    return result


def _plan_steps(
    adj: tuple[int, ...], verts: int, unreachable: set[tuple], shapes: dict[tuple, int]
) -> Generator[tuple[tuple[int, ...], int], list[Instruction] | None, list[Instruction] | None]:
    """_plan_tree's decision for one tree as a generator: it yields each
    subtree it needs planned as (adj, verts), is sent that plan back,
    and returns its own plan (None when the tree is unreachable)."""
    if verts.bit_count() == 2:
        return [CreatePair(*bits(verts))]
    key = _tree_canonical(adj, verts, shapes)
    if key in unreachable:
        return None
    for i1, i2, before, side in _pre_images(adj, verts):
        sub_a = yield before, verts & ~side
        if sub_a is None:
            continue
        sub_b = yield before, side
        if sub_b is None:
            continue
        return sub_a + sub_b + [PbsGate(i1, i2)]
    unreachable.add(key)
    return None


def _tree_canonical(adj: tuple[int, ...], verts: int, shapes: dict[tuple, int]) -> tuple:
    """Isomorphism-class key: rooted shape label taken at the centroid(s)."""
    return tuple(sorted(_rooted_label(adj, c, shapes) for c in _centroids(adj, verts)))


def _depth_first(adj: tuple[int, ...], root: int) -> tuple[list[int], dict[int, int | None]]:
    """Preorder of the tree from root (parents before children) and each
    vertex's parent, without recursion."""
    order = []
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in bits(adj[v]):
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    return order, parent


def _centroids(adj: tuple[int, ...], verts: int) -> list[int]:
    """The vertices whose heaviest branch is lightest; the set does not
    depend on where the depth-first search starts."""
    n = verts.bit_count()
    order, parent = _depth_first(adj, next(bits(verts)))
    size = dict.fromkeys(order, 1)
    for v in reversed(order):
        if parent[v] is not None:
            size[parent[v]] += size[v]
    best, centroids = n + 1, []
    for v in order:
        heaviest = n - size[v]
        for w in bits(adj[v]):
            if w != parent[v]:
                heaviest = max(heaviest, size[w])
        if heaviest < best:
            best, centroids = heaviest, [v]
        elif heaviest == best:
            centroids.append(v)
    return centroids


def _rooted_label(adj: tuple[int, ...], root: int, shapes: dict[tuple, int]) -> int:
    """AHU label of the tree rooted at root: a vertex's shape is the sorted
    tuple of its children's labels, and shapes interns each distinct
    shape to an int, so equal labels mean isomorphic rooted trees.
    Iterative, children before parents, so deep trees cannot overflow
    the stack."""
    order, parent = _depth_first(adj, root)
    label: dict[int, int] = {}
    for v in reversed(order):
        shape = tuple(sorted(label[w] for w in bits(adj[v]) if w != parent[v]))
        label[v] = shapes.setdefault(shape, len(shapes))
    return label[root]


# ---------------------------------------------------------------------------
# Brute-force schedule search


def brute_force_schedule_search(
    target: Graph,
    max_qubits: int = 8,
    allow_intra: bool = False,
    allow_hadamard: bool = False,
    max_gates: int | None = None,
) -> Schedule | None:
    """Schedule oracle for small targets: the schedule that a
    breadth-first search over all schedules finds first.

    Every schedule normalizes to pair creations first (creations commute
    with gates on other qubits), so the search runs over gate sequences
    from every perfect matching of the target's vertices. A target of k
    components takes at least n/2 - k gates, one more for a cycle without
    bare Hadamards (_search_stabilizer); this bound is computed once, and
    a cap below it returns None at once. With only inter-graph gates the
    state stays a labeled forest of even trees and the join rewrite rule
    applies, so a target with a cycle or an odd component returns None
    at once. Otherwise inverting the join (_pre_images) from the target
    back gives the forests from which it can still be reached, and a
    greedy walk through them from the least matching among them, taking
    the first join into them at each step, finds the search's schedule
    with no breadth-first search. Allowing intra-graph gates or bare
    Hadamards switches to breadth-first search over stabilizer groups,
    each keyed by its canonical packed rows (pauli's row kernels); each
    new state is first tried with only the gates onto the target's leaves
    and the Hadamards, since no other step can finish a graph state, and
    only once it has enough gates that one more step can reach the
    target's gate-count lower bound. The first states it tries, one step
    short of that bound, are built as each of their parents is found, so
    the search can stop before it completes the depth of those parents.
    On a graph state with local Z signs, a gate across two components or
    on a lone edge is built by a graph rule, which gives the same key as
    the tableau, and a gate whose key an earlier gate already gave is
    left out. None of the pruning changes the schedule found. Returns a
    schedule with the fewest search steps, or None if none exists within
    max_gates steps (default: one beyond the tree-building minimum). A
    step is a gate, or a bare Hadamard when allow_hadamard is set, so
    max_gates caps the gates and the Hadamards together there. max_gates
    may be any non-negative int: the search also ends at the first depth
    that reaches no new state. A negative max_gates raises ValueError.
    """
    n = target.num_vertices
    if n > max_qubits:
        raise ValueError(f"target has {n} vertices, cap is {max_qubits}")
    if n == 0:
        raise ValueError("target must have at least one vertex")
    if max_gates is not None and max_gates < 0:
        raise ValueError(f"max_gates must be non-negative, got {max_gates}")
    if n % 2 == 1:
        return None  # pair sources emit qubits two at a time
    if max_gates is None:
        max_gates = n // 2 + 1
    comps = component_masks(target.adj, (1 << n) - 1)
    forest = sum(map(int.bit_count, target.adj)) == 2 * (n - len(comps))
    # a lower bound on the gates of any schedule for the target (_search_stabilizer)
    min_gates = n // 2 - len(comps) + (not forest and not allow_hadamard)
    if min_gates > max_gates:
        return None
    if allow_intra or allow_hadamard:
        return _search_stabilizer(target, allow_intra, allow_hadamard, max_gates, min_gates)
    if not forest or any(comp.bit_count() % 2 for comp in comps):
        return None  # a join merges two even trees, so it builds no cycle and no odd tree
    return _search_forest(target, min_gates)


def _matchings(vertices: list[int]) -> Iterator[list[tuple[int, int]]]:
    """All perfect matchings, lowest-id-first ordering."""
    if not vertices:
        yield []
        return
    first = vertices[0]
    for i in range(1, len(vertices)):
        partner = vertices[i]
        rest = vertices[1:i] + vertices[i + 1 :]
        for sub in _matchings(rest):
            yield [(first, partner)] + sub


def _breadth_first(target: Graph, roots, expand, is_goal, max_gates: int,
                   finish, min_gates: int) -> Schedule | None:
    """Breadth-first search of the stabilizer engine.

    roots yields (matching, key) for the perfect matchings of the
    target's vertices that the engine starts from, each key the state of
    the Bell pairs on that matching. expand(key) yields (gate, key) for
    each successor in a fixed order, so ties always break the same way.
    A key is visited once, and the first key that satisfies is_goal is
    reached by a schedule with the fewest gates. The search ends at
    max_gates gates or as soon as a depth finds no new key.

    finish(key) yields (step, goal key) for exactly the successors of
    expand(key) that satisfy is_goal, in expand's order, without having
    to build the others. Each new key is scanned with finish as soon as
    it joins the frontier (the roots together, once every root is
    checked by is_goal, so a root that is the goal wins), and no key at
    max_gates - 1 gates is expanded. The keys are scanned in
    frontier order, and a full expansion of a scanned key reaches no goal
    first, so the goal found and its schedule are the same; the last
    expansion just stops at the first key that finishes. min_gates is a
    lower bound on the steps of any schedule that reaches the goal, so a
    key at d steps is scanned only when d + 1 >= min_gates: from fewer,
    one more step cannot reach the goal, and the scans skipped would find
    nothing. is_goal still checks every key.

    With 2 <= min_gates <= max_gates, the first scanned depth
    s = min_gates - 1 is built on demand: each key found at depth s - 1 is
    expanded into depth s at once, and each new key there is scanned as
    above, so the search can stop before depth s - 1 is complete. This
    finds the goal and schedule of the layer-by-layer loop. By the bound,
    no key of fewer than min_gates steps is the goal and none of fewer
    than min_gates - 1 finishes, so a key of depth s - 1 met first as a
    depth-s candidate can make no return. It waits in seen with that
    deeper parent, is not expanded before depth s - 1 is complete, and
    moves back when depth s - 1 meets it: its seen entry takes the
    shallower parent and it leaves depth s. Every other key of depth s is
    met from the same keys of depth s - 1, in the same order, as in the
    layer-by-layer loop, so depth s, its scan order and every parent
    that a schedule reads are that loop's.
    """
    seen: dict = {}  # key -> (parent key, gate), or (None, matching) for a root

    def reconstruct(key) -> Schedule:
        steps = []
        while key is not None:
            key, step = seen[key]
            steps.append(step)
        *gates, matching = steps
        pairs = [CreatePair(a, b) for a, b in matching]
        return Schedule(tuple(pairs + gates[::-1]), target=target)

    def finished(key):
        """The first goal one finishing step reaches from key, or None."""
        for step, goal in finish(key):
            seen[goal] = (key, step)
            return goal
        return None

    def grow(parent, successors, layer: dict, scan: bool):
        """Add each successor not in seen to layer, checked by is_goal and,
        when scan, by finish; return the goal reached, or None."""
        for step, key in successors:
            if key in seen:
                continue
            seen[key] = (parent, step)
            if is_goal(key):
                return key
            if scan and (goal := finished(key)) is not None:
                return goal
            layer[key] = None
        return None

    def grow_on_demand(parent, successors, layer: dict, deeper: dict):
        """grow for the depth before the first scanned one, which is never
        scanned: each key added is grown into deeper at once, and a
        successor met there first moves back. (Not a grow that calls
        itself: a nested function that does is a reference cycle, which
        keeps seen alive after the search until the collector runs.)"""
        for step, key in successors:
            if key in seen:
                if key not in deeper:
                    continue
                del deeper[key]  # met one step too deep first
            seen[key] = (parent, step)
            if is_goal(key):
                return key
            layer[key] = None
            if (goal := grow(key, expand(key), deeper, True)) is not None:
                return goal
        return None

    frontier = [None]  # a virtual root whose successors are the roots
    deeper = None
    for depth in range(max_gates + 1):
        if deeper is None:
            scan = depth > 0 and depth + 1 >= min_gates
            if depth + 2 == min_gates <= max_gates:
                deeper = {}
            layer: dict = {}
            for key in frontier:
                successors = roots if key is None else expand(key)
                goal = (grow(key, successors, layer, scan) if deeper is None
                        else grow_on_demand(key, successors, layer, deeper))
                if goal is not None:
                    return reconstruct(goal)
        else:
            layer, deeper = deeper, None  # built on demand with the depth before
        if not layer:
            return None
        if depth == 0 and max_gates and min_gates <= 1:
            for key in layer:
                if (goal := finished(key)) is not None:
                    return reconstruct(goal)
        if depth + 1 == max_gates:
            return None  # no key of this depth finishes with one more gate
        frontier = layer
    return None


def _pre_images(
    adj: tuple[int, ...], verts: int
) -> Iterator[tuple[int, int, tuple[int, ...], int]]:
    """Every (i1, i2, E, side) with join_adjacency(E, i1, i2) equal to adj
    on the vertex mask verts and i1, i2 in different components of E,
    both of even size; side is the vertex mask of i2's component. adj
    must be a forest on verts, rows inside verts, with every component
    even; E's rows outside verts are adj's.

    A join leaves i2 a leaf of i1 and hands i1 the neighbours of i2, so
    inverting it picks a leaf i2 and gives back to i2 some of i1's other
    branches (the components of the forest minus i1 that meet its
    neighbours), each with its root. The component is even, so both
    sides are even exactly when i2 takes an odd number of odd branches.
    An odd side would stay odd in every earlier forest, and the pairs
    are even, so no schedule builds the pre-images left out.
    Order: leaves i2 lowest first; for each, i1's other branches by least
    member, with subsets counted in binary, bit k for branch k."""
    branches_of: dict[int, list[int]] = {}
    for i2 in bits(verts):
        if adj[i2].bit_count() != 1:
            continue
        i1 = adj[i2].bit_length() - 1
        row = adj[i1]
        if row.bit_count() < 3:
            continue  # with fewer than two other branches, i1 or i2 is left alone
        b1, b2 = 1 << i1, 1 << i2
        branches = branches_of.get(i1)
        if branches is None:
            branches = branches_of[i1] = []
            for w in bits(row):
                branch = frontier = 1 << w
                while frontier and adj[w] != b1:  # breadth-first without i1; a leaf is alone
                    reach = 0
                    while frontier:
                        low = frontier & -frontier
                        reach |= adj[low.bit_length() - 1]
                        frontier ^= low
                    frontier = reach & ~branch & ~b1
                    branch |= frontier
                branches.append(branch)
            branches.sort(key=lambda branch: branch & -branch)
        # Count from 1 (0 leaves i2 alone, an odd side). Each step clears
        # the trailing ones and sets the bit above them; the branches are
        # disjoint, so the side toggles the union of other branches 0..k,
        # k the lowest set bit of the count.
        flips, union = [], 0
        for branch in branches:
            if branch != b2:
                union |= branch
                flips.append(union)
        side = b2
        for count in range(1, 1 << len(flips)):
            side ^= flips[(count & -count).bit_length() - 1]
            if side.bit_count() % 2:
                continue
            taken = row & side & ~b2
            pre = list(adj)
            rest = taken  # low bits by hand: the bits generator costs more here
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                pre[w] = pre[w] & ~b1 | b2
                rest ^= low
            pre[i1] = row & ~side
            pre[i2] = taken
            yield i1, i2, tuple(pre), side


def _reaching(target: tuple[int, ...], n: int,
              joins: int) -> tuple[set[tuple[int, ...]], list[tuple[int, ...]]]:
    """Every forest with all components even that reaches the target in
    at most `joins` joins, found by walking back from the target one join
    at a time with _pre_images (the backward half of a bidirectional
    search, Pohl 1971), and the walk's last layer. The target must be a
    forest with every component even; no schedule builds anything else,
    since the pairs are even and a join merges two components into one.

    Each member but the target was added as a pre-image of a member,
    which _pre_images separates, so it has a join into the set. A join
    across components merges two of them, so the walk's layers hold
    forests of k, k + 1, ... components, k the target's, and a join from
    a member lands one layer nearer the target."""
    everyone = (1 << n) - 1
    reaching = {target}
    layer = [target]
    for _ in range(joins):
        next_layer = []
        for joined in layer:
            for _i1, _i2, pre, _side in _pre_images(joined, everyone):
                if pre not in reaching:
                    reaching.add(pre)
                    next_layer.append(pre)
        layer = next_layer
    return reaching, layer


def _outside_masks(adj: tuple[int, ...], n: int) -> list[int]:
    """For each vertex, the mask of the vertices outside its component."""
    everyone = (1 << n) - 1
    outside = [0] * n
    for comp in component_masks(adj, everyone):
        for v in bits(comp):
            outside[v] = everyone & ~comp
    return outside


def _pair_adjacency(matching: list[tuple[int, int]], n: int) -> tuple[int, ...]:
    """The adjacency masks of the Bell pairs on a perfect matching."""
    adj = [0] * n
    for a, b in matching:
        adj[a], adj[b] = 1 << b, 1 << a
    return tuple(adj)


def _search_forest(target: Graph, joins: int) -> Schedule | None:
    """Search over labeled forests, each keyed by its adjacency masks: a
    greedy walk forward from the pairs through the backward set, which
    finds the schedule of the unpruned breadth-first sweep. The target is
    a forest of even components, k of them, and each join merges two
    components, so the n/2 pairs reach it in exactly joins = n/2 - k
    joins. A forest outside the set cannot reach the target. In the set,
    each forest but the target has a join into the set, and each join
    lands one layer nearer the target, never on a forest already seen
    (_reaching). So the sweep's first forest at each depth is the first
    successor in the set of its first forest one depth up, and the target
    is the only forest at the last depth."""
    n = target.num_vertices
    reaching, last_layer = _reaching(target.adj, n, joins)
    # The sweep's first root: the least sorted pair list (_matchings'
    # order) of the last layer, whose forests of n/2 even components are
    # all perfect matchings.
    root = min((([(a, b.bit_length() - 1) for a, b in enumerate(adj) if b > 1 << a], adj)
                for adj in last_layer), default=None)
    if root is None:
        return None
    matching, adj = root
    gates = []
    for _ in range(joins):  # the first join (i1, i2) into the set
        outside = _outside_masks(adj, n)
        i1, i2, adj = next((i1, i2, joined) for i1 in range(n) for i2 in bits(outside[i1])
                           if (joined := join_adjacency(adj, i1, i2)) in reaching)
        gates.append(PbsGate(i1, i2))
    return Schedule(tuple([CreatePair(a, b) for a, b in matching] + gates), target=target)


def _search_stabilizer(
    target: Graph, allow_intra: bool, allow_hadamard: bool, max_gates: int, min_gates: int
) -> Schedule | None:
    """Breadth-first search over stabilizer groups, each keyed by its
    canonical packed rows (pauli's row kernels). When intra-graph gates
    are forbidden, each key also carries the partition of qubits into
    clusters that have interacted so far, as each qubit's cluster mask,
    since Hadamards can leave states whose cluster structure the group
    alone no longer shows.

    A gate (i1, i2) leaves +Z_i1 X_i2 in the group, and a graph state
    holds that only when i2 is a leaf of i1. So the steps that can finish
    a schedule are the gates onto the target's leaves and, when allowed,
    the Hadamards; _breadth_first scans each new state with these. With
    none of them, only a root can be the target.

    The scan builds no successor: it tests membership in the goal
    (Aaronson & Gottesman, quant-ph/0406196). A gate (i1, i2) takes S to
    the goal iff its postselection leaves U = H_i2(goal), which holds
    +Z_i1 Z_i2 because i2 is a leaf of i1. The postselected group is
    generated by Z_i1 Z_i2, the rows of S that commute with it, and each
    other anticommuting row times the first; both groups have 2^n
    elements, so it is U iff those rows all lie in U. A state holding
    -Z_i1 Z_i2 has no anticommuting row and fails, as the gate is
    impossible. A Hadamard on q finishes iff S is H_q(goal): one lookup
    gives every such q, lowest first (two q can share H_q(goal), as the
    ends of a lone edge do).

    The scan runs only on states with at least min_gates - 1 steps, where
    min_gates lower-bounds the gates of any schedule that builds the
    target; brute_force_schedule_search computes it, and returns None at
    once for a cap below it. The n/2 pairs start as
    n/2 interaction clusters, and a gate acts on two qubits, so it merges
    at most two clusters. Each connected
    component of a graph state is entangled across every cut, so it lies
    in one cluster, and a target with k components leaves at most k
    clusters: it takes at least n/2 - k gates. With exactly n/2 - k, every
    gate merges two clusters. Without Hadamards every state then stays in
    graph form with its clusters as components, so every gate is a join
    and the result is a forest: a target with a cycle needs one gate
    more. Steps count Hadamards too, so the steps bound the gates from
    above and the skipped scans could not have finished.

    The roots are keyed by the graph rows of the pairs, with the pairs as
    the starting cluster masks.

    expand builds three cases by graph rules (Anders & Briegel,
    quant-ph/0504117; Hein, Eisert & Briegel, quant-ph/0307130), with no
    tableau call, on a key in graph form up to signs: every row, its sign
    dropped, is the graph row X_i Z^adj[i], so the state is Z^s|G> with
    s_i the sign of row i (_graph_rows). Z^s commutes with the projection
    on +Z_i1 Z_i2, and H_i2 Z_i2 = X_i2 H_i2.
    (a) A gate (i1, i2) across two components succeeds with probability
    1/2 and leaves Z^s' X_i2^s_i2 |G'>, G' = join_adjacency(G, i1, i2)
    as pbs_join_graphs gives it and s' = s without s_i2. In G', i2 is a
    leaf of i1, so X_i2 acts on |G'> as Z_i1: s'_i1 = s_i1 xor s_i2,
    s'_i2 = 0, every other sign kept.
    (b) A gate on a lone edge {i1, i2} (a whole component) succeeds with
    probability 1/2 and keeps the edge, with s'_i1 = s_i1 xor s_i2 xor 1
    and s'_i2 = 0. Z_i1 Z_i2 anticommutes with both rows, so it is kept
    with their product (-1)^(s_i1 + s_i2) Y_i1 Y_i2; H_i2 makes these
    Z_i1 X_i2 and (-1)^(s_i1 + s_i2 + 1) Y_i1 Y_i2, whose product is
    X_i1 Z_i2 with that sign.
    (c) A gate (i1, i2) across components, where i2's component is a
    lone edge {j, i2} with j < i2 and no sign on j or i2, is left out. By
    (a) it leaves i1 with j and i2 as two unsigned leaves, as (i1, j)
    does, and j and i2 share a cluster, so both give the same key. expand
    yields (i1, j) before it, so _breadth_first would find the key in
    seen and skip it: seen, the frontier and every schedule stay the
    same. This is an exact duplicate, not a commuting interleaving.
    The rows of (a) and (b) are already fully reduced, so each key is
    the tableau's. Every other step runs on the tableau."""
    n = target.num_vertices
    everyone = (1 << n) - 1
    track_parts = not allow_intra
    gates = [[PbsGate(i1, i2) for i2 in range(n)] for i1 in range(n)]
    hadamards = [Hadamard(q) for q in range(n)]

    goal = _graph_rows(target.adj, n)
    every_gate = [(i1, i2) for i1 in range(n) for i2 in range(n) if i1 != i2]
    # each gate onto a target leaf, with the goal before that gate's Hadamard
    finishing = [(i1, i2, _canonical_rows(_hadamard_rows(goal, n, i2), n))
                 for i1, i2 in sorted((row.bit_length() - 1, i2)
                                      for i2, row in enumerate(target.adj)
                                      if row.bit_count() == 1)]
    # the Hadamards that finish from each state, lowest q first
    hadamard_finish: dict[tuple[int, ...], list[Hadamard]] = {}
    if allow_hadamard:
        for q in range(n):
            before = _canonical_rows(_hadamard_rows(goal, n, q), n)
            hadamard_finish.setdefault(before, []).append(hadamards[q])
    if not finishing and not allow_hadamard:
        max_gates = 0

    def merged(parts: tuple[int, ...], i1: int, i2: int) -> tuple[int, ...]:
        if not track_parts:
            return parts
        joined = parts[i1] | parts[i2]
        return tuple(joined if joined >> q & 1 else p for q, p in enumerate(parts))

    def expand(key: tuple):
        rows, parts = key
        outside, lone, twins = [0] * n, 0, 0
        # graph form up to signs: row i has X_i as its only X bit, and no Z_i
        if all(row & (everyone | 1 << n + i) == 1 << i for i, row in enumerate(rows)):
            adj = tuple(row >> n & everyone for row in rows)
            signs = sum(row >> 2 * n << i for i, row in enumerate(rows))
            outside = _outside_masks(adj, n)
            for v, a in enumerate(adj):
                if a.bit_count() == 1 and adj[a.bit_length() - 1] == 1 << v:
                    lone |= 1 << v  # v and its one neighbour are a component
                    if a < 1 << v and not signs & (a | 1 << v):
                        twins |= 1 << v  # the higher end of an unsigned lone edge
        for i1, i2 in every_gate:
            if track_parts and parts[i1] >> i2 & 1:
                continue
            if outside[i1] >> i2 & 1:  # rule (a)
                if twins >> i2 & 1:
                    continue  # rule (c)
                new_rows = _graph_rows(join_adjacency(adj, i1, i2), n,
                                       (signs ^ (signs >> i2 & 1) << i1) & ~(1 << i2))
            elif lone >> i1 & 1 and adj[i1] == 1 << i2:  # rule (b)
                new_rows = _graph_rows(adj, n, (signs ^ (~signs >> i2 & 1) << i1) & ~(1 << i2))
            else:
                _prob, measured = _zz_postselect_rows(rows, n, i1, i2)
                if measured is None:
                    continue
                new_rows = _canonical_rows(_hadamard_rows(measured, n, i2), n)
            yield gates[i1][i2], (new_rows, merged(parts, i1, i2))
        if allow_hadamard:
            for q in range(n):
                yield hadamards[q], (_canonical_rows(_hadamard_rows(rows, n, q), n), parts)

    def postselects_into(rows: tuple[int, ...], i1: int, i2: int, before: tuple[int, ...]) -> bool:
        """True iff keeping +Z_i1 Z_i2 on the group of rows leaves the
        group whose canonical rows are before."""
        first = None
        for row in rows:
            if (row >> i1 ^ row >> i2) & 1:
                if first is None:
                    first = row
                    continue
                row = _packed_product(row, first, n)
            if _residual(before, row, n):
                return False
        return True

    def finish(key: tuple):
        rows, parts = key
        for i1, i2, before in finishing:
            if track_parts and parts[i1] >> i2 & 1:
                continue
            if postselects_into(rows, i1, i2, before):
                yield gates[i1][i2], (goal, merged(parts, i1, i2))
        for step in hadamard_finish.get(rows, ()):
            yield step, (goal, parts)

    def roots():
        for m in _matchings(list(range(n))):
            adj = _pair_adjacency(m, n)
            parts = tuple(a | 1 << q for q, a in enumerate(adj)) if track_parts else ()
            yield m, (_graph_rows(adj, n), parts)

    return _breadth_first(target, roots(), expand, lambda key: key[0] == goal, max_gates,
                          finish, min_gates)


# ---------------------------------------------------------------------------
# Schedule execution


def execute_schedule(sched: Schedule) -> tuple[float, StabilizerGroup, Graph | None]:
    """Run a schedule through the stabilizer engine.

    Every pair is laid out up front, with qubit ids in sorted order, as
    the graph state of the pairs' edges: creating a pair commutes with
    every gate on other qubits, and a valid schedule gates only qubits
    that already exist. Measure instructions are bookkeeping and never
    applied. Returns the cumulative postselection probability, the
    validated final group indexed in sorted id order, and the graph whose
    state that group stabilizes (None when it is not in graph form or
    when a gate outcome was impossible). An impossible gate zeroes the
    probability, stops execution and returns the group of the qubits
    created before that gate.
    """
    ids = sched.qubit_ids()
    index = {q: i for i, q in enumerate(ids)}
    pairs = [(index[ins.q_a], index[ins.q_b])
             for ins in sched.instructions if isinstance(ins, CreatePair)]
    group = graph_to_stabilizers(Graph.from_edges(len(ids), pairs))
    prob = 1.0
    for k, ins in enumerate(sched.instructions):
        if isinstance(ins, PbsGate):
            gate_prob, new_group = apply_pbs_gate(group, index[ins.i1], index[ins.i2])
            if new_group is None:
                return 0.0, execute_schedule(Schedule(sched.instructions[:k]))[1], None
            prob *= gate_prob
            group = new_group
        elif isinstance(ins, Hadamard):
            group = group.apply_hadamard(index[ins.q])
    return prob, group.validate(), stabilizers_to_graph(group)


def _fock_maps() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense oracle's three maps, derived from the Fock mode rules on
    ports 0 and 1: the created pair (2, 2), the PBS gate with its
    one-photon-per-port postselection (2, 2, 2, 2; output axes first, not
    renormalized) and the half-wave plate (2, 2; output axis first)."""
    one_photon = [[_dual_rail((port,), ((bit, 1.0),)) for bit in (0, 1)] for port in (0, 1)]
    pair = _dual_rail_array(make_bell_pair(0, 1).apply_hwp_hadamard(1), (0, 1))
    gate = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            inputs = tensor(one_photon[0][a], one_photon[1][b])
            prob, kept = inputs.apply_pbs(0, 1).postselect_single_photon((0, 1))
            if kept is not None:
                gate[:, :, a, b] = math.sqrt(prob) * _dual_rail_array(kept, (0, 1))
    hwp = np.stack([_dual_rail_array(state.apply_hwp_hadamard(0), (0,))
                    for state in one_photon[0]], axis=1)
    return pair, gate, hwp


def _apply_map(op: np.ndarray, state: np.ndarray, axes: list[int]) -> np.ndarray:
    """op, of shape (2,)*2k (k output axes, then k input axes), applied to
    the given axes of state; every axis stays where it is. Each nonzero
    entry of op adds one slice of state into one slice of the result,
    which is tensordot's sum without its transposes or zero terms."""
    k = len(axes)
    out = np.zeros_like(state)
    for index in zip(*np.nonzero(op)):
        target, source = [slice(None)] * state.ndim, [slice(None)] * state.ndim
        for axis, o, i in zip(axes, index[:k], index[k:]):
            target[axis], source[axis] = o, i
        out[tuple(target)] += op[index] * state[tuple(source)]
    return out


def execute_schedule_fock(sched: Schedule) -> tuple[float, np.ndarray | None]:
    """Second-quantized execution with per-gate postselection on one
    photon in each of the gate's two ports. Between gates every port
    holds one photon, so the state is a dense array of shape (2,)*n,
    each axis one port, index 0 an H photon and 1 a V photon; each call
    derives the pair, gate and half-wave-plate maps from the FockState
    mode rules. Returns the cumulative probability and the final array,
    axis k the k-th smallest qubit id, or (0.0, None) after an
    impossible gate and (1.0, None) for a schedule with no pair. Measure
    is bookkeeping only. Refuses more than MAX_DENSE_QUBITS qubits
    before any allocation."""
    n = len(sched.qubit_ids())
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"Fock oracle capped at {MAX_DENSE_QUBITS} qubits, got {n}")
    pair, gate, hwp = _fock_maps()
    state: np.ndarray | None = None
    ports: list[int] = []  # the port on each axis of state, in creation order
    prob = 1.0
    for ins in sched.instructions:
        if isinstance(ins, CreatePair):
            state = pair if state is None else np.multiply.outer(state, pair)
            ports += [ins.q_a, ins.q_b]
        elif isinstance(ins, PbsGate):
            assert state is not None
            state = _apply_map(gate, state, [ports.index(ins.i1), ports.index(ins.i2)])
            # the norm before the plate is the sum postselection takes on
            # a FockState; after the unitary plate it rounds differently
            gate_prob = _norm_squared(state)
            if gate_prob <= _TOL**2:
                return 0.0, None
            prob *= gate_prob
            state = _apply_map(hwp, state * (1.0 / math.sqrt(gate_prob)), [ports.index(ins.i2)])
        elif isinstance(ins, Hadamard):
            assert state is not None
            state = _apply_map(hwp, state, [ports.index(ins.q)])
    if state is None:
        return prob, None
    return prob, np.ascontiguousarray(state.transpose(np.argsort(ports)))


# ---------------------------------------------------------------------------
# Text format


def schedule_text(sched: Schedule) -> str:
    lines = [" ".join(map(str, (ins.op, *ins.qubits))) for ins in sched.instructions]
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    """Parse the line format: PAIR a b / PBS i1 i2 / H q / MEASURE q,
    with blank lines and # comments ignored."""
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, *args = line.split()
        try:
            values = [int(a) for a in args]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer qubit id in {raw!r}") from None
        try:
            instructions.append(_instruction(op, values))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}: {exc}") from None
    return Schedule(tuple(instructions))
