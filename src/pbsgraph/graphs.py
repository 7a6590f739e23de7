"""Graph states and the polarizing-beam-splitter fusion gate.

A graph state on n vertices is the stabilizer state with one generator
per vertex: X on the vertex, Z on each neighbour, sign +1. The fusion
gate is a postselected Z x Z parity measurement on two qubits followed
by a Hadamard on the second one; on two disjoint graph states it joins
the graphs: i1 inherits both neighbourhoods and i2 becomes a leaf of i1.

Conversion back from stabilizer form is exact-form only: a group whose
canonical form is not literally [I | adjacency] with +1 signs is
reported as not-a-graph (None), never searched for a local-Clifford
equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .pauli import PauliString, StabilizerGroup


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop on vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges stored as sorted (u, v) pairs."""

    num_vertices: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range or unsorted")

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(num_vertices, frozenset(_normalize_edge(u, v) for u, v in edges))

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(b if a == v else a for a, b in self.edges if v in (a, b))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def components(self) -> list[frozenset[int]]:
        """Connected components, each a vertex set, ordered by least vertex."""
        seen: set[int] = set()
        out = []
        for start in range(self.num_vertices):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in self.neighbors(v):
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def is_tree(self) -> bool:
        return (
            len(self.edges) == self.num_vertices - 1
            and len(self.components()) == 1
        )

    def disjoint_union(self, other: "Graph") -> "Graph":
        offset = self.num_vertices
        shifted = {(u + offset, v + offset) for u, v in other.edges}
        return Graph(offset + other.num_vertices, self.edges | frozenset(shifted))


# ===== stabilizer conversions =====


def graph_to_stabilizers(graph: Graph) -> StabilizerGroup:
    """Generator for vertex i: X_i times Z on every neighbour, sign +1."""
    n = graph.num_vertices
    gens = []
    for i in range(n):
        ops = {i: "X"}
        for j in graph.neighbors(i):
            ops[j] = "Z"
        gens.append(PauliString.from_ops(n, ops))
    return StabilizerGroup(n, tuple(gens))


def stabilizers_to_graph(group: StabilizerGroup) -> Graph | None:
    """Exact-form extraction: canonical form must be X-part identity,
    symmetric zero-diagonal Z-part, all signs +1. Returns None otherwise."""
    n = group.num_qubits
    canon = group.canonical_form().generators
    adjacency = []
    for i, g in enumerate(canon):
        if g.x_bits != 1 << i:
            return None
        if g.z_bits >> i & 1:
            return None  # a Y letter on the diagonal is not graph form
        if g.phase != 0:
            return None
        adjacency.append(g.z_bits)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i] >> j & 1:
                if not adjacency[j] >> i & 1:
                    raise AssertionError("asymmetric adjacency from a commuting group")
                edges.add((i, j))
    return Graph(n, frozenset(edges))


# ===== the fusion gate =====


def join_edges(
    edges: frozenset[tuple[int, int]], i1: int, i2: int
) -> frozenset[tuple[int, int]]:
    """The join rule on a set of sorted (u, v) edges: i1 becomes adjacent
    to all of i2's old neighbours and to i2 itself; i2 keeps only the
    edge to i1. This is exactly what the fusion gate does when i1 and i2
    lie in different components; within one component it is not."""
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


def pbs_join_graphs(graph_a: Graph, i1: int, graph_b: Graph, i2: int) -> Graph:
    """Join rule on the disjoint union (graph_b relabelled by +|graph_a|):
    i1 becomes adjacent to its old neighbours, all of i2's old neighbours
    and i2 itself; i2 keeps only the edge to i1."""
    if not 0 <= i1 < graph_a.num_vertices:
        raise ValueError(f"i1={i1} out of range")
    if not 0 <= i2 < graph_b.num_vertices:
        raise ValueError(f"i2={i2} out of range")
    union = graph_a.disjoint_union(graph_b)
    return Graph(union.num_vertices, join_edges(union.edges, i1, graph_a.num_vertices + i2))


def apply_pbs_gate(group: StabilizerGroup, i1: int, i2: int) -> tuple[float, StabilizerGroup | None]:
    """Fusion gate on two qubits of one stabilizer state: postselected
    Z_i1 Z_i2 measurement, then Hadamard on i2.

    The qubits may be in the same connected component (that is how loop
    graphs arise). Returns (success probability, new group); probability
    0 means the forced outcome is impossible and the state is None.
    """
    prob, measured = group.measure_zz_postselect(i1, i2)
    if measured is None:
        return 0.0, None
    return prob, measured.apply_hadamard(i2)


# ===== text formats =====


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: a "vertices N" header line, then one
    "u v" pair per line (0-based). Blank lines and #-comments allowed."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ValueError("empty graph description")
    header = lines[0][1].split()
    if len(header) != 2 or header[0].lower() != "vertices":
        raise ValueError(f"expected 'vertices N' header, got {lines[0][1]!r}")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad vertex count {header[1]!r}") from exc
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    edges = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError(f"expected 'u v' edge line, got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            edges.add(_normalize_edge(u, v))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Graph(n, frozenset(edges))


def edge_list_text(graph: Graph) -> str:
    lines = [f"vertices {graph.num_vertices}"]
    lines += [f"{u} {v}" for u, v in graph.sorted_edges()]
    return "\n".join(lines) + "\n"


def to_dot(graph: Graph, name: str = "G") -> str:
    """DOT text with deterministic vertex and edge ordering."""
    lines = [f"graph {name} {{"]
    for v in range(graph.num_vertices):
        lines.append(f"  {v};")
    for u, v in graph.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
