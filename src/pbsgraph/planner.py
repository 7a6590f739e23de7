"""Schedule synthesis and execution for fusion-built graph states.

Three planners live here. plan_tree_protocol emits the doubling
schedule that builds a caterpillar tree out of Bell pairs, measuring
every qubit as soon as no later gate touches it. plan_join_sequence
decides exactly which trees the inter-graph fusion rule can reach and
reconstructs a gate sequence when one exists. brute_force_schedule_search
is the independent oracle: a breadth-first sweep over all schedules on
at most eight qubits, either on labeled forests held as adjacency masks
(inter-graph gates only) or on stabilizer groups held as tuples of
canonical packed rows (when intra-graph gates or extra Hadamards are
allowed). Both are goal-directed without changing which schedule they
find: the forest search keeps only forests that a backward walk from
the target reaches, and the stabilizer search tries on each new state,
as soon as it is found, only the steps that can finish the target, so
its last expansion stops at the first state that finishes. That scan
builds no successor: it tests whether the step's result is the goal by
stabilizer membership, row by row. Both keep bare ints as search
states; the StabilizerGroup methods that execute_schedule uses stay the
reference for the packed kernels.

execute_schedule runs any schedule through the stabilizer engine and
reports the cumulative postselection probability; execute_schedule_fock
does the same in second quantization for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Generator, Iterator, Union

from .fock import FockState, make_bell_pair, tensor
from .graphs import (
    Graph,
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
    _canonical_rows_of,
    _hadamard_rows,
    _packed_product,
    _residual,
    _zz_postselect_rows,
)


class _Op:
    """What the text and JSON formats need of an instruction: its op
    name, and its qubit ids in field order."""

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


def _instruction(op: object, qubits: object) -> Instruction:
    """The one constructor behind both schedule decoders."""
    cls = _OPS.get(op.upper()) if isinstance(op, str) else None
    if cls is None:
        raise ValueError(f"unknown op {op!r}")
    arity = _ARITY[cls]
    if not isinstance(qubits, list) or len(qubits) != arity:
        raise ValueError(f"{cls.op} takes {arity} qubit id(s), got {qubits!r}")
    if any(type(q) is not int for q in qubits):
        raise ValueError(f"non-integer qubit id in {qubits!r}")
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

    The decision unwinds the last gate: a join that produced tree T
    turned some current leaf l (with neighbor s) into a leaf while s
    absorbed l's old neighbors. Removing s splits T into subtrees; those
    must divide into a group kept with s and a group re-rooted on l,
    each side of even total order (an odd count of odd subtrees), and
    both sides must themselves be buildable. Sources are single edges,
    so odd-order targets fail immediately. Verdicts are memoized by tree
    isomorphism class, keyed by rooted-shape labels interned per call;
    all ties break toward the lowest vertex id.
    """
    if not target.is_tree():
        raise ValueError("join planning requires a tree")
    n = target.num_vertices
    if n % 2 == 1:
        return None
    memo: dict[tuple, bool] = {}
    shapes: dict[tuple, int] = {}
    instructions = _plan_tree(target.adj, (1 << n) - 1, memo, shapes)
    if instructions is None:
        return None
    sched = Schedule(tuple(instructions), target=target)
    return sched


def _plan_tree(
    adj: tuple[int, ...], verts: int, memo: dict[tuple, bool], shapes: dict[tuple, int]
) -> list[Instruction] | None:
    """Plan the tree on the vertex mask verts, whose rows in adj stay
    inside verts. Runs the _plan_steps generators on an explicit stack,
    so deep decompositions cannot overflow the interpreter's."""
    stack = [_plan_steps(adj, verts, memo, shapes)]
    result = None
    while stack:
        try:
            sub = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(_plan_steps(*sub, memo, shapes))
            result = None
    return result


def _plan_steps(
    adj: tuple[int, ...], verts: int, memo: dict[tuple, bool], shapes: dict[tuple, int]
) -> Generator[tuple[tuple[int, ...], int], list[Instruction] | None, list[Instruction] | None]:
    """_plan_tree's decision for one tree as a generator: it yields each
    subtree it needs planned as (adj, verts), is sent that plan back,
    and returns its own plan (None when the tree is unreachable)."""
    size = verts.bit_count()
    if size % 2 == 1:
        return None
    if size == 2:
        return [CreatePair(*bits(verts))]
    key = _tree_canonical(adj, verts, shapes)
    if memo.get(key) is False:
        return None

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
            sub_a = yield _attach(adj, support, support_side)
            if sub_a is None:
                continue
            sub_b = yield _attach(adj, leaf, leaf_side)
            if sub_b is None:
                continue
            memo[key] = True
            return sub_a + sub_b + [PbsGate(support, leaf)]
    memo[key] = False
    return None


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
    """Breadth-first schedule oracle for small targets.

    Every schedule normalizes to pair creations first (creations commute
    with gates on other qubits), so the search runs over gate sequences
    from every perfect matching of the target's vertices. With only
    inter-graph gates the state stays a labeled forest and the join
    rewrite rule applies; the search keeps only forests from which the
    target can still be reached, found by inverting the join from the
    target back. Allowing intra-graph gates or bare Hadamards switches to
    breadth-first search over stabilizer groups, each keyed by its
    canonical packed rows (pauli's row kernels); each new state is first
    tried with only the gates onto the target's leaves and the Hadamards,
    since no other step can finish a graph state. Neither pruning changes the
    schedule found. Returns a minimum-gate-count schedule, or None if none
    exists within max_gates (default: one gate beyond the tree-building
    minimum). max_gates may be any non-negative int: the search also
    ends at the first depth that reaches no new state. A negative
    max_gates raises ValueError.
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

    if allow_intra or allow_hadamard:
        return _search_stabilizer(target, allow_intra, allow_hadamard, max_gates)
    return _search_forest(target, max_gates)


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


def _breadth_first(target: Graph, start, expand, is_goal, max_gates: int,
                   finish=None) -> Schedule | None:
    """Breadth-first search shared by both engines.

    The roots are the perfect matchings of the target's vertices, and
    start(matching) gives a root's key; expand(key) yields (gate, key)
    for each successor in a fixed order, so ties always break the same
    way. A key is visited once, and the first key that satisfies is_goal
    is reached by a schedule with the fewest gates. The search ends at
    max_gates gates or as soon as a depth finds no new key.

    finish(key), when given, yields (step, goal key) for exactly the
    successors of expand(key) that satisfy is_goal, in expand's order,
    without having to build the others. Each new key is then scanned with
    finish as soon as it joins the frontier (the roots together, once
    every root is checked by is_goal, so a root that is the goal wins),
    and no key at max_gates - 1 gates is expanded. The keys are scanned in
    frontier order, and a full expansion of a scanned key reaches no goal
    first, so the goal found and its schedule are the same; the last
    expansion just stops at the first key that finishes.
    """
    roots = ((m, start(m)) for m in _matchings(list(range(target.num_vertices))))
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

    frontier = [None]  # a virtual root whose successors are the roots
    for depth in range(max_gates + 1):
        scan = finish is not None and depth > 0
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
            return None
        if finish is not None:
            if depth == 0 and max_gates:
                for key in next_frontier:
                    if (goal := finished(key)) is not None:
                        return reconstruct(goal)
            if depth + 1 == max_gates:
                return None  # each key of this depth was scanned for the last gate
        frontier = next_frontier
    return None


def _pre_images(adj: tuple[int, ...], n: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
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


def _reaching(target: tuple[int, ...], n: int, joins: int) -> set[tuple[int, ...]]:
    """Every forest a schedule can build that reaches the target in at
    most `joins` joins, found by walking back from the target one join at
    a time (the backward half of a bidirectional search, Pohl 1971).
    Pre-images that isolate i1 or i2 (the full and the empty subset) are
    dropped: the pairs isolate no vertex and no join isolates one, so no
    schedule builds them, and a pre-image keeps every isolated vertex
    isolated, so nothing walked back from them is built either."""
    reaching = layer = {target}
    for _ in range(joins):
        layer = {pre for adj in layer for i1, i2, pre in _pre_images(adj, n)
                 if pre[i1] and pre[i2]}
        reaching = reaching | layer
    return reaching


def _search_forest(target: Graph, max_gates: int) -> Schedule | None:
    """Search over labeled forests, each keyed by its adjacency masks,
    forward from the pairs and only through forests that can still reach
    the target. A state outside that set has no path to the target, and
    every path to it runs through states inside, so the schedule found is
    the one the unpruned sweep finds."""
    n = target.num_vertices
    # Inter-graph joins merge one component per gate, so a spanning tree
    # costs exactly n/2 - 1 of them; deeper search cannot help.
    depth_needed = n // 2 - 1
    if depth_needed > max_gates:
        return None
    # Prebuilt gates: building one per successor costs about half a join.
    gates = [[PbsGate(i1, i2) for i2 in range(n)] for i1 in range(n)]
    everyone = (1 << n) - 1
    reaching = _reaching(target.adj, n, depth_needed)

    def expand(adj: tuple[int, ...]):
        if adj not in reaching:
            return
        outside = [0] * n
        for comp in component_masks(adj, everyone):
            for v in bits(comp):
                outside[v] = everyone & ~comp
        for i1 in range(n):
            for i2 in bits(outside[i1]):
                joined = join_adjacency(adj, i1, i2)
                if joined in reaching:
                    yield gates[i1][i2], joined

    def start(matching: list[tuple[int, int]]) -> tuple[int, ...]:
        return Graph.from_edges(n, matching).adj

    return _breadth_first(target, start, expand, target.adj.__eq__, depth_needed)


def _search_stabilizer(
    target: Graph, allow_intra: bool, allow_hadamard: bool, max_gates: int
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
    ends of a lone edge do)."""
    n = target.num_vertices
    track_parts = not allow_intra
    gates = [[PbsGate(i1, i2) for i2 in range(n)] for i1 in range(n)]
    hadamards = [Hadamard(q) for q in range(n)]

    goal = _canonical_rows_of(graph_to_stabilizers(target))
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

    def start(matching: list[tuple[int, int]]) -> tuple:
        pairs = Graph.from_edges(n, matching)
        parts = tuple(row | 1 << q for q, row in enumerate(pairs.adj)) if track_parts else ()
        return _canonical_rows_of(graph_to_stabilizers(pairs)), parts

    def merged(parts: tuple[int, ...], i1: int, i2: int) -> tuple[int, ...]:
        if not track_parts:
            return parts
        joined = parts[i1] | parts[i2]
        return tuple(joined if joined >> q & 1 else p for q, p in enumerate(parts))

    def expand(key: tuple):
        rows, parts = key
        for i1, i2 in every_gate:
            if track_parts and parts[i1] >> i2 & 1:
                continue
            _prob, measured = _zz_postselect_rows(rows, n, i1, i2)
            if measured is not None:
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

    return _breadth_first(target, start, expand, lambda key: key[0] == goal, max_gates, finish)


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


def execute_schedule_fock(sched: Schedule) -> tuple[float, FockState | None]:
    """Second-quantized execution with per-gate postselection on one
    photon in each of the gate's two ports. Measure is bookkeeping only;
    ports keep the schedule's qubit ids."""
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


# ---------------------------------------------------------------------------
# Text and JSON formats


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


def schedule_json_dict(sched: Schedule) -> dict:
    ops = [{"op": ins.op, "qubits": list(ins.qubits)} for ins in sched.instructions]
    return {"instructions": ops}


def schedule_from_json_dict(doc: dict) -> Schedule:
    entries = doc.get("instructions") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError("schedule JSON needs an 'instructions' list")
    instructions: list[Instruction] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"instruction {index}: expected an object, got {entry!r}")
        try:
            instructions.append(_instruction(entry.get("op"), entry.get("qubits")))
        except ValueError as exc:
            raise ValueError(f"instruction {index}: {exc}") from None
    return Schedule(tuple(instructions))
