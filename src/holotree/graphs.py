"""Finite multigraphs with intrinsically oriented edges.

A graph is a pair of ordered cell lists: vertices, and directed edges given
as (tail, head) pairs.  Loop edges (tail == head) and parallel edges are both
allowed.  Edge orientation is fixed at construction time; walking an edge
against its orientation is recorded by a -1 sign inside an OrientedCircuit,
never by mutating the graph.  Cell order is declaration order, and every
basis, matrix and canonical form downstream inherits that order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateIdError,
    NotUnicyclicError,
    UnknownEdgeError,
    UnknownEndpointError,
)


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class OrientedCircuit:
    """A simple closed walk stored as (edge id, sign) pairs in walk order.

    sign +1 means the edge is traversed tail -> head, -1 the other way.
    """

    edges: tuple[tuple[str, int], ...]

    def reversed(self) -> "OrientedCircuit":
        return OrientedCircuit(tuple((b, -s) for b, s in reversed(self.edges)))

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(b for b, _ in self.edges)

    def __len__(self) -> int:
        return len(self.edges)


class Graph:
    """Immutable multigraph; treat all attributes as read-only."""

    def __init__(self, vertex_ids, edge_triples):
        vindex: dict[str, int] = {}
        for v in vertex_ids:
            if v in vindex:
                raise DuplicateIdError(f"duplicate vertex id {v!r}")
            vindex[v] = len(vindex)
        edges = []
        eindex: dict[str, int] = {}
        for eid, tail, head in edge_triples:
            if eid in eindex:
                raise DuplicateIdError(f"duplicate edge id {eid!r}")
            if tail not in vindex:
                raise UnknownEndpointError(f"edge {eid!r}: unknown tail vertex {tail!r}")
            if head not in vindex:
                raise UnknownEndpointError(f"edge {eid!r}: unknown head vertex {head!r}")
            eindex[eid] = len(edges)
            edges.append(Edge(eid, tail, head))
        self.vertices: tuple[str, ...] = tuple(vindex)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._vindex = vindex
        self._eindex = eindex
        # endpoint vertex indices per edge, in edge order
        self._ends: tuple[tuple[int, int], ...] = tuple(
            (vindex[e.tail], vindex[e.head]) for e in edges
        )
        # the same as an (m, 2) index array: column 0 tails, column 1 heads
        self._end_index = np.array(self._ends, dtype=np.intp).reshape(len(edges), 2)

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def has_vertex(self, v: str) -> bool:
        return v in self._vindex

    def has_edge(self, b: str) -> bool:
        return b in self._eindex

    def vertex_index(self, v: str) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise UnknownEndpointError(f"unknown vertex {v!r}") from None

    def edge_index(self, b: str) -> int:
        try:
            return self._eindex[b]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {b!r}") from None

    def edge(self, b: str) -> Edge:
        return self.edges[self.edge_index(b)]

    def endpoints(self, b: str) -> tuple[str, str]:
        e = self.edge(b)
        return e.tail, e.head

    def full_subcomplex(self) -> "Subcomplex":
        return Subcomplex(self, self.vertices, tuple(e.id for e in self.edges))

    def spanning_subcomplex(self, edge_ids) -> "Subcomplex":
        return Subcomplex(self, self.vertices, tuple(edge_ids))


def build_graph(vertex_ids, edge_triples) -> Graph:
    """Build a graph from ordered vertex ids and (id, tail, head) triples."""
    return Graph(vertex_ids, edge_triples)


@dataclass(frozen=True)
class Subcomplex:
    """A subset of cells closed under taking endpoints.

    Vertices and edges are normalised to graph order and deduplicated, so two
    subcomplexes with the same cells compare equal.
    """

    graph: Graph
    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    def __post_init__(self):
        g = self.graph
        vs = sorted({v for v in self.vertices}, key=g.vertex_index)
        es = sorted({b for b in self.edges}, key=g.edge_index)
        vset = set(vs)
        for b in es:
            e = g.edge(b)
            if e.tail not in vset or e.head not in vset:
                raise ValueError(
                    f"subcomplex not closed under endpoints: edge {b!r} leaves the vertex set"
                )
        object.__setattr__(self, "vertices", tuple(vs))
        object.__setattr__(self, "edges", tuple(es))


def full_subcomplex(g: Graph) -> Subcomplex:
    return g.full_subcomplex()


def spanning_subcomplex(g: Graph, edge_ids) -> Subcomplex:
    return g.spanning_subcomplex(edge_ids)


def _component_cells(g: Graph, vertex_indices, edge_indices) -> list[tuple[tuple, tuple]]:
    """Union-find labelling of the subgraph (these vertices, these edges).

    Returns sorted (vertex indices, edge indices) per component, ordered by
    least vertex.  Every edge's endpoints must be among the vertices.
    """
    parent = list(range(len(g.vertices)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ends = g._ends
    for ei in edge_indices:
        t, h = ends[ei]
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rh] = rt
    comp_vs: dict[int, list[int]] = {}
    for v in sorted(vertex_indices):
        comp_vs.setdefault(find(v), []).append(v)
    comp_es: dict[int, list[int]] = {root: [] for root in comp_vs}
    for ei in sorted(edge_indices):
        comp_es[find(ends[ei][0])].append(ei)
    return [(tuple(vs), tuple(comp_es[root])) for root, vs in comp_vs.items()]


def components(subc: Subcomplex) -> tuple[Subcomplex, ...]:
    """Split a subcomplex into connected components, ordered by least vertex."""
    g = subc.graph
    cells = _component_cells(
        g,
        [g.vertex_index(v) for v in subc.vertices],
        [g.edge_index(b) for b in subc.edges],
    )
    return tuple(
        Subcomplex(g, tuple(g.vertices[i] for i in vs), tuple(g.edges[i].id for i in es))
        for vs, es in cells
    )


def euler_characteristic(subc: Subcomplex) -> int:
    return len(subc.vertices) - len(subc.edges)


def _circuit_edge_indices(g: Graph, edge_indices) -> list[int]:
    """Strip leaf vertices repeatedly; the surviving edges form the circuit.

    Assumes the input is the edge set of a connected subgraph with Euler
    characteristic zero, so exactly one circuit survives.
    """
    alive = set(edge_indices)
    deg: dict[int, int] = {}
    incident: dict[int, list[int]] = {}
    for ei in edge_indices:
        t, h = g._ends[ei]
        for v in (t, h):  # a loop counts twice at its vertex
            deg[v] = deg.get(v, 0) + 1
            incident.setdefault(v, []).append(ei)
    stack = [v for v, d in deg.items() if d == 1]
    while stack:
        v = stack.pop()
        if deg[v] != 1:
            continue
        ei = next(e for e in incident[v] if e in alive)
        alive.discard(ei)
        t, h = g._ends[ei]
        w = h if t == v else t
        deg[v] -= 1
        deg[w] -= 1
        if deg[w] == 1:
            stack.append(w)
    return sorted(alive)


def _orient_circuit(g: Graph, circuit_edges) -> OrientedCircuit:
    """Canonical walk: start at the least vertex, leave along the least edge."""
    circuit_edges = sorted(circuit_edges)
    slots: dict[int, list[int]] = {}
    for ei in circuit_edges:
        t, h = g._ends[ei]
        slots.setdefault(t, []).append(ei)
        slots.setdefault(h, []).append(ei)
    start = min(slots)
    cur_e = min(slots[start])
    cur_v = start
    seq = []
    for _ in circuit_edges:
        t, h = g._ends[cur_e]
        sign = 1 if t == cur_v else -1
        seq.append((g.edges[cur_e].id, sign))
        nxt = h if t == cur_v else t
        a, b = slots[nxt]
        cur_e = b if a == cur_e else a
        cur_v = nxt
    if cur_v != start:
        raise NotUnicyclicError("circuit walk failed to close")
    return OrientedCircuit(tuple(seq))


def circuit_of_unicyclic(subc: Subcomplex) -> OrientedCircuit:
    """The unique circuit of a connected subcomplex with Euler characteristic 0."""
    chi = euler_characteristic(subc)
    if chi != 0:
        raise NotUnicyclicError(f"euler characteristic is {chi}, expected 0")
    if len(components(subc)) != 1:
        raise NotUnicyclicError("subcomplex is disconnected")
    g = subc.graph
    eidx = [g.edge_index(b) for b in subc.edges]
    return _orient_circuit(g, _circuit_edge_indices(g, eidx))


@dataclass(frozen=True)
class SubdivisionRecord:
    """Correspondence data produced by subdivide_edge."""

    old_graph: Graph
    new_graph: Graph
    edge: str
    midpoint: str
    new_edges: tuple[str, str]


def _fresh(base: str, used) -> str:
    name = base
    while name in used:
        name += "_"
    return name


def subdivide_edge(g: Graph, b: str) -> tuple[Graph, SubdivisionRecord]:
    """Replace edge b by tail -> midpoint -> head, keeping every other cell.

    The first half keeps b's position in edge order; the second half and the
    midpoint vertex are appended at the end.
    """
    e = g.edge(b)
    mid = _fresh(f"{b}__mid", set(g.vertices))
    used_edges = set(g._eindex)
    b0 = _fresh(f"{b}__0", used_edges)
    used_edges.add(b0)
    b1 = _fresh(f"{b}__1", used_edges)
    triples = []
    for edge in g.edges:
        if edge.id == b:
            triples.append((b0, edge.tail, mid))
        else:
            triples.append((edge.id, edge.tail, edge.head))
    triples.append((b1, mid, e.head))
    g2 = Graph(g.vertices + (mid,), triples)
    return g2, SubdivisionRecord(g, g2, b, mid, (b0, b1))
