"""Graph states and the polarizing-beam-splitter fusion gate.

A graph on n vertices is held as n adjacency bitmasks: bit j of adj[i]
is the edge (i, j). Row i is exactly the Z part of the graph-state
generator of vertex i, and every iteration over a mask visits its set
bits lowest first (`bits`).

A graph state on n vertices is the stabilizer state with one generator
per vertex, X on the vertex and Z on each neighbour, sign +1: the packed
row 1 << i | adj[i] << n, built directly from the masks. The fusion
gate is a postselected Z x Z parity measurement on two qubits followed
by a Hadamard on the second one; on two disjoint graph states it joins
the graphs: i1 inherits both neighbourhoods and i2 becomes a leaf of i1.

Conversion back from stabilizer form is exact-form only: a group whose
canonical rows are not literally [I | adjacency] with +1 signs is
reported as not-a-graph (None), never searched for a local-Clifford
equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .pauli import StabilizerGroup, bits

_MAX_VERTICES = 1 << 16  # per edge-list file: a Graph holds one row per vertex


def component_masks(adj: Sequence[int], vertices: int) -> list[int]:
    """Connected components of the subgraph induced on the vertex mask,
    each a vertex mask, ordered by least vertex."""
    out = []
    while vertices:
        comp = frontier = vertices & -vertices
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & vertices & ~comp
            comp |= frontier
        out.append(comp)
        vertices &= ~comp
    return out


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: bit j of adj[i] is the edge (i, j)."""

    num_vertices: int
    adj: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = self.num_vertices
        if len(self.adj) != n:
            raise ValueError(f"{len(self.adj)} adjacency rows for {n} vertices")
        for i, row in enumerate(self.adj):
            if row >> n:
                raise ValueError(f"row {i} has a bit outside 0..{n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop on vertex {i}")
            for j in bits(row):
                if not self.adj[j] >> i & 1:
                    raise ValueError(f"edge ({i}, {j}) is missing from row {j}")

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * num_vertices
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(num_vertices, tuple(adj))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set as sorted (u, v) pairs."""
        return frozenset(self.sorted_edges())

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.adj) for j in bits(row) if j > i]

    def components(self) -> list[frozenset[int]]:
        """Connected components, each a vertex set, ordered by least vertex."""
        everyone = (1 << self.num_vertices) - 1
        return [frozenset(bits(c)) for c in component_masks(self.adj, everyone)]

    def is_tree(self) -> bool:
        return (
            sum(row.bit_count() for row in self.adj) == 2 * (self.num_vertices - 1)
            and len(self.components()) == 1
        )

    def disjoint_union(self, other: "Graph") -> "Graph":
        offset = self.num_vertices
        shifted = tuple(row << offset for row in other.adj)
        return Graph(offset + other.num_vertices, self.adj + shifted)


# ===== stabilizer conversions =====


def _graph_rows(adj: tuple[int, ...], n: int, signs: int = 0) -> tuple[int, ...]:
    """The canonical packed rows of Z^s|G>, G the graph on adj and s_i
    bit i of signs: row i is (-1)^s_i X_i Z^adj[i], since Z_i flips the
    sign of exactly the one generator with X on i. Each row's only X bit
    is its pivot, so the rows are already fully reduced."""
    rows = [1 << i | a << n for i, a in enumerate(adj)]
    for i in bits(signs):
        rows[i] |= 1 << 2 * n
    return tuple(rows)


def graph_to_stabilizers(graph: Graph) -> StabilizerGroup:
    """Generator for vertex i: X_i times Z on every neighbour, sign +1."""
    return StabilizerGroup(graph.num_vertices, _rows=_graph_rows(graph.adj, graph.num_vertices))


def stabilizers_to_graph(group: StabilizerGroup) -> Graph | None:
    """Exact-form extraction: canonical form must be X-part identity,
    zero-diagonal Z-part, all signs +1. Returns None otherwise; Graph
    raises ValueError if the Z-part is not symmetric."""
    n = group.num_qubits
    rows = group.canonical_form()._rows
    # of its X bits, sign and diagonal Z bit (a Y letter), row i has X_i only
    kept = (1 << n) - 1 | 1 << 2 * n
    if any(row & (kept | 1 << n + i) != 1 << i for i, row in enumerate(rows)):
        return None
    return Graph(n, tuple(row >> n for row in rows))


# ===== the fusion gate =====


def join_adjacency(adj: tuple[int, ...], i1: int, i2: int) -> tuple[int, ...]:
    """The join rule on adjacency masks: i1 becomes adjacent to all of
    i2's old neighbours and to i2 itself; i2 keeps only the edge to i1.
    This is exactly what the fusion gate does when i1 and i2 lie in
    different components; within one component it is not."""
    b1, b2 = 1 << i1, 1 << i2
    moved = adj[i2] & ~b1
    joined = list(adj)
    for w in bits(moved):
        joined[w] = joined[w] & ~b2 | b1
    joined[i1] = adj[i1] | moved | b2
    joined[i2] = b1
    return tuple(joined)


def pbs_join_graphs(graph_a: Graph, i1: int, graph_b: Graph, i2: int) -> Graph:
    """Join rule on the disjoint union (graph_b relabelled by +|graph_a|):
    i1 becomes adjacent to its old neighbours, all of i2's old neighbours
    and i2 itself; i2 keeps only the edge to i1."""
    if not 0 <= i1 < graph_a.num_vertices:
        raise ValueError(f"i1={i1} out of range")
    if not 0 <= i2 < graph_b.num_vertices:
        raise ValueError(f"i2={i2} out of range")
    union = graph_a.disjoint_union(graph_b)
    return Graph(union.num_vertices, join_adjacency(union.adj, i1, graph_a.num_vertices + i2))


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
    if n > _MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {_MAX_VERTICES}")
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError(f"expected 'u v' edge line, got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            edges.append((u, v))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Graph.from_edges(n, edges)


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
