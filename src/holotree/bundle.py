"""Flat U(1) coefficients on a graph: phases, holonomy, gauge action.

Each edge carries a unit complex phase exp(i*theta_b) read along the edge's
orientation; traversing the edge backwards contributes the inverse (equal to
the conjugate) phase.  Downstream code only ever consumes two derived
quantities: circuit holonomies, and the nonnegative real number
prod_alpha |holonomy(C_alpha) - 1|^2 taken over the circuits of a disjoint
union of unicyclic components.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chains import boundary_operator, numerical_rank
from .errors import (
    DisconnectedError,
    ForeignCircuitError,
    MissingGaugeValueError,
    MissingPhaseError,
    NotEulerZeroError,
    StaleCorrespondenceError,
    UnknownEdgeError,
)
from .graphs import (
    Graph,
    OrientedCircuit,
    Subcomplex,
    SubdivisionRecord,
    circuit_of_unicyclic,
    components,
    euler_characteristic,
)

TWO_PI = 2.0 * math.pi

# Circuit holonomies closer to 1 than this are treated as trivial: the
# associated forest weights vanish quadratically while tree solves blow up,
# so nothing useful survives below this threshold.
DEFAULT_EPS_HOL = 1e-9


class LineBundle:
    """A unit phase per edge of a fixed graph, stored as an angle in radians."""

    def __init__(self, graph: Graph, angle_map):
        known = {e.id for e in graph.edges}
        extra = set(angle_map) - known
        if extra:
            raise UnknownEdgeError(f"phases given for unknown edges: {sorted(extra)!r}")
        angles = []
        for e in graph.edges:
            if e.id not in angle_map:
                raise MissingPhaseError(f"no phase for edge {e.id!r}")
            theta = float(angle_map[e.id])
            if not math.isfinite(theta):
                raise MissingPhaseError(f"phase for edge {e.id!r} is not finite")
            angles.append(theta)
        self.graph = graph
        self._angles = np.asarray(angles, dtype=float)
        self._values = np.exp(1j * self._angles)

    def __repr__(self) -> str:
        return f"LineBundle({self.graph!r})"

    @property
    def values(self) -> np.ndarray:
        """Complex phases aligned with the graph's edge order (do not mutate)."""
        return self._values

    def angle(self, edge_id: str) -> float:
        return float(self._angles[self.graph.edge_index(edge_id)])

    def phase(self, edge_id: str) -> complex:
        return complex(self._values[self.graph.edge_index(edge_id)])


def attach_phases(g: Graph, angle_map) -> LineBundle:
    """Attach an angle (radians) to every edge of g."""
    return LineBundle(g, angle_map)


def holonomy(L: LineBundle, circuit: OrientedCircuit) -> complex:
    """Product of the circuit's edge phases, inverted where the walk runs backwards."""
    acc = 1.0 + 0.0j
    for b, s in circuit.edges:
        if not L.graph.has_edge(b):
            raise ForeignCircuitError(f"circuit edge {b!r} is not in the bundle's graph")
        v = L.phase(b)
        acc *= v if s > 0 else v.conjugate()
    return acc


def rho_hat(L: LineBundle, subc: Subcomplex) -> float:
    """prod |holonomy(C_alpha) - 1|^2 over the circuits of subc's components.

    Every component must have Euler characteristic zero.  The value does not
    depend on how each circuit is oriented, since reversal conjugates the
    holonomy.
    """
    if subc.graph is not L.graph:
        raise ForeignCircuitError("subcomplex belongs to a different graph")
    out = 1.0
    for comp in components(subc):
        if euler_characteristic(comp) != 0:
            raise NotEulerZeroError(
                f"component with vertices {comp.vertices!r} has nonzero euler characteristic"
            )
        h = holonomy(L, circuit_of_unicyclic(comp))
        out *= abs(h - 1.0) ** 2
    return out


class Gauge:
    """A unit complex value per vertex."""

    def __init__(self, values):
        vals = {}
        for v, z in values.items():
            z = complex(z)
            if not abs(abs(z) - 1.0) <= 1e-12:  # a nan modulus fails too
                raise ValueError(f"gauge value at {v!r} is not unit modulus: {z!r}")
            vals[v] = z
        self._values = vals

    @classmethod
    def from_angles(cls, angle_map) -> "Gauge":
        return cls({v: cmath.exp(1j * float(t)) for v, t in angle_map.items()})

    def __contains__(self, v) -> bool:
        return v in self._values

    def value(self, v) -> complex:
        try:
            return self._values[v]
        except KeyError:
            raise MissingGaugeValueError(f"no gauge value at vertex {v!r}") from None

    def angle(self, v) -> float:
        return cmath.phase(self.value(v))


def gauge_transform(L: LineBundle, gauge: Gauge) -> LineBundle:
    """New bundle with phase g_tail * conj(g_head) * rho_b on each edge.

    Loop edges keep their angle bit for bit, since the two gauge factors
    cancel exactly.
    """
    angles = {}
    for e in L.graph.edges:
        if e.tail not in gauge:
            raise MissingGaugeValueError(f"no gauge value at vertex {e.tail!r}")
        if e.head not in gauge:
            raise MissingGaugeValueError(f"no gauge value at vertex {e.head!r}")
        if e.is_loop:
            angles[e.id] = L.angle(e.id)
        else:
            angles[e.id] = L.angle(e.id) + gauge.angle(e.tail) - gauge.angle(e.head)
    return LineBundle(L.graph, angles)


def _max_fundamental_cycle_defect(g: Graph, L: LineBundle) -> float:
    """Gauge the phases to 1 along a spanning tree; the surviving non-tree
    phases are the fundamental cycle holonomies.  Returns max |phase - 1|.

    Raises DisconnectedError unless g is connected with at least one vertex:
    the spanning tree's walk must reach every vertex.
    """
    n = len(g.vertices)
    if n == 0:
        raise DisconnectedError("h0_trivial requires a connected graph")
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for j, (t, h) in enumerate(g._ends):
        adj[t].append((j, h))
        adj[h].append((j, t))
    gval = np.zeros(n, dtype=complex)
    gval[0] = 1.0
    visited = [False] * n
    visited[0] = True
    in_tree = [False] * len(g.edges)
    queue = [0]
    while queue:
        v = queue.pop()
        for j, w in adj[v]:
            if visited[w]:
                continue
            t, _ = g._ends[j]
            rho = L._values[j]
            gval[w] = gval[v] * rho if t == v else gval[v] * rho.conjugate()
            visited[w] = True
            in_tree[j] = True
            queue.append(w)
    if not all(visited):
        raise DisconnectedError("h0_trivial requires a connected graph")
    worst = 0.0
    for j, (t, h) in enumerate(g._ends):
        if in_tree[j]:
            continue
        transported = gval[t] * gval[h].conjugate() * L._values[j]
        worst = max(worst, abs(transported - 1.0))
    return worst


@dataclass(frozen=True)
class H0Report:
    """Result of the degree-0 twisted homology test.

    `trivial` is the ground truth (numerical row rank of the twisted
    incidence matrix); the holonomy route is an independent cross-check that
    some fundamental cycle carries nontrivial holonomy.
    """

    trivial: bool
    rank: int
    vertex_count: int
    max_cycle_defect: float
    holonomy_route: bool
    routes_agree: bool

    def __bool__(self) -> bool:
        return self.trivial


def h0_trivial(g: Graph, L: LineBundle, tol=None, eps_hol: float = DEFAULT_EPS_HOL) -> H0Report:
    """Check that twisted degree-0 homology vanishes.  Requires g connected."""
    return _h0_check(g, L, boundary_operator(g, L).matrix, tol, eps_hol)


def _h0_check(g: Graph, L: LineBundle, D: np.ndarray, tol, eps_hol: float) -> H0Report:
    """h0_trivial on the boundary matrix D of (g, L), which the caller holds."""
    defect = float(_max_fundamental_cycle_defect(g, L))
    rank = numerical_rank(D, tol)
    trivial = rank == len(g.vertices)
    hol = bool(defect > eps_hol)
    return H0Report(trivial, rank, len(g.vertices), defect, hol, trivial == hol)


def split_phase(L: LineBundle, record: SubdivisionRecord, theta_split: float) -> LineBundle:
    """Carry a bundle across an edge subdivision.

    The first half receives theta_split; the second half receives the
    remainder, so the product of the two new phases equals the old one.
    """
    if record.old_graph is not L.graph:
        raise StaleCorrespondenceError("subdivision record does not match this bundle's graph")
    b0, b1 = record.new_edges
    angles = {e.id: L.angle(e.id) for e in L.graph.edges if e.id != record.edge}
    angles[b0] = float(theta_split)
    angles[b1] = (L.angle(record.edge) - float(theta_split)) % TWO_PI
    return LineBundle(record.new_graph, angles)
