"""Spanning unicyclic subgraphs and their nontrivial-holonomy refinement.

A spanning subgraph whose components each carry exactly one circuit plays
the role a spanning tree plays classically: its restricted boundary matrix
is square.  It is invertible exactly when every component circuit has
holonomy different from 1; those subgraphs are the forests every identity in
`theorems` sums over.  The weight of a forest T is

    weight(T) = prod_alpha |holonomy(C_alpha) - 1|^2 * prod_{b in T} 1/r_b.

For each non-tree edge b there is a unique cycle T_bar(b) = b - u with u
supported on T and boundary(u) = boundary(b); tree edges map to 0.  The
resulting operator on degree-1 chains has image inside ker(boundary) and
coefficient 1 at b in column b.
"""
from __future__ import annotations

import itertools
import warnings
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bundle import DEFAULT_EPS_HOL, H0Report, LineBundle, _h0_check, holonomy
from .chains import (
    ChainVector,
    LinearOperator,
    ResistanceMap,
    boundary_operator,
    edge_basis,
    numerical_rank,
)
from .errors import (
    AssumptionViolatedError,
    ConditioningWarning,
    SingularTreeSystemError,
)
from .graphs import Graph, OrientedCircuit, _circuit_edge_indices, _component_cells, _orient_circuit


@dataclass(frozen=True)
class ForestComponent:
    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    circuit: OrientedCircuit
    holonomy: complex


@dataclass
class ForestRecord:
    """A spanning unicyclic subgraph with nontrivial circuit holonomies.

    A record is a view of one admitted row of the holonomy filter: its
    holonomies, `rho_hat` and `weight` are read from the filter's arrays, not
    computed again.  Edges are kept sorted lexicographically; `edge_indices`
    gives their positions in the graph's edge list, in the same order.  The
    record holds references to the graph, bundle and resistances it was built
    from, which `exchange` reads to build its neighbours.
    """

    edges: tuple[str, ...]
    components: tuple[ForestComponent, ...]
    rho_hat: float
    weight: float
    edge_indices: tuple[int, ...] = field(repr=False)
    graph: Graph = field(repr=False)
    bundle: LineBundle = field(repr=False)
    resistances: ResistanceMap = field(repr=False)


def _require_graph(g: Graph, T: ForestRecord) -> None:
    if T.graph is not g:
        raise ValueError("forest record belongs to a different graph")


def _unicyclic_circuits(g: Graph, edge_indices, circuits: dict):
    """The circuits of the components of (all vertices, these edges), in
    component order; None unless each component is unicyclic.  Components
    with the same circuit share one instance from `circuits` (circuit edge
    indices -> OrientedCircuit), added there on first sight."""
    comps = _component_cells(g, range(len(g.vertices)), edge_indices)
    if any(len(vs) != len(es) for vs, es in comps):  # euler characteristic 0 per component
        return None
    out = []
    for _, es in comps:
        key = tuple(_circuit_edge_indices(g, es))
        if key not in circuits:
            circuits[key] = _orient_circuit(g, key)
        out.append(circuits[key])
    return out


def _rest_indices(tree: np.ndarray, m: int) -> np.ndarray:
    """(F, m - n) non-tree edge indices, ascending, for (F, n) tree indices
    (F = 0 when m < n)."""
    keep = np.ones((len(tree), m), dtype=bool)
    keep[np.arange(len(tree))[:, None], tree] = False
    return (np.flatnonzero(keep) % m).reshape(len(tree), max(m - tree.shape[1], 0))


class _Census:
    """The phase-independent structure of the edge-index tuples in `combos`
    (each given in edge-id order) whose components are each unicyclic, one
    row per kept candidate: `edge_ids`; the tree edge indices `tree` (C, n);
    the other edge indices `rest` (C, m - n); the distinct `circuits`, one
    shared instance each; and `slots` (C, k) mapping each candidate's
    components, ordered by least vertex, to their circuits.  Candidates with
    fewer than k components point the spare slots at len(circuits).

    These are what the per-bundle identities read; records derive component
    cells from the `tree` row.  `tree` also determines `edge_ids` and `rest`,
    but deriving them per bundle would slow every report and T_bar sum."""

    __slots__ = ("edge_ids", "tree", "rest", "circuits", "slots")

    def __init__(self, g: Graph, combos):
        n, m = len(g.vertices), len(g.edges)
        circuits: dict[tuple[int, ...], OrientedCircuit] = {}
        slot: dict[OrientedCircuit, int] = {}  # in order of first sight, as `circuits`
        trees, rows = [], []
        for combo in combos:
            circs = _unicyclic_circuits(g, combo, circuits)
            if circs is not None:
                trees.append(combo)
                rows.append([slot.setdefault(circ, len(slot)) for circ in circs])
        count = len(trees)
        self.edge_ids = tuple(tuple(g.edges[ei].id for ei in combo) for combo in trees)
        self.tree = np.array(trees, dtype=np.intp).reshape(count, n)
        self.rest = _rest_indices(self.tree, m)
        self.circuits = tuple(slot)
        k = max(map(len, rows), default=0)
        rows = [r + [len(slot)] * (k - len(r)) for r in rows]
        self.slots = np.array(rows, dtype=np.intp).reshape(count, k)


_census_cache: "weakref.WeakKeyDictionary[Graph, _Census]" = weakref.WeakKeyDictionary()


def _census(g: Graph) -> _Census:
    """All spanning unicyclic subgraphs, in lexicographic order of their
    sorted edge-id tuples.  Cached per graph: the census is phase independent,
    only the holonomy filter downstream depends on the bundle."""
    cached = _census_cache.get(g)
    if cached is not None:
        return cached
    n, m = len(g.vertices), len(g.edges)
    masks = [(1 << t) | (1 << h) for t, h in g._ends]
    full = (1 << n) - 1

    def spans(combo):
        cover = 0
        for ei in combo:
            cover |= masks[ei]
        return cover == full

    # combinations of `order` list their edges in id order, lexicographically
    order = sorted(range(m), key=lambda i: g.edges[i].id)
    result = _Census(g, filter(spans, itertools.combinations(order, n)))
    _census_cache[g] = result
    return result


def _edge_id_tuple(g: Graph, edges) -> tuple[str, ...]:
    ids = []
    for b in edges:
        g.edge_index(b)  # raises UnknownEdgeError for foreign ids
        ids.append(b)
    return tuple(sorted(set(ids)))


def is_tree_combinatorial(g: Graph, L: LineBundle, edges, eps_hol: float = DEFAULT_EPS_HOL) -> bool:
    """Spanning, every component unicyclic, every circuit holonomy nontrivial."""
    ids = _edge_id_tuple(g, edges)
    circuits = _unicyclic_circuits(g, [g.edge_index(b) for b in ids], {})
    return circuits is not None and all(abs(holonomy(L, c) - 1.0) > eps_hol for c in circuits)


def is_tree_homological(g: Graph, L: LineBundle, edges) -> bool:
    """Square restricted boundary with full numerical rank.

    Only meaningful under the standing assumption that the ambient twisted
    degree-0 homology vanishes, so that is checked first.
    """
    D = boundary_operator(g, L).matrix
    if not _h0_check(g, L, D, None, DEFAULT_EPS_HOL).trivial:
        raise AssumptionViolatedError("ambient twisted degree-0 homology is nonzero")
    ids = _edge_id_tuple(g, edges)
    n = len(g.vertices)
    if len(ids) != n:
        return False
    # the restricted boundary: the edges' columns in graph order
    return numerical_rank(D[:, sorted(map(g.edge_index, ids))]) == n


def _warn_near_trivial(D: np.ndarray, c: _Census, weak, eps_hol: float, stacklevel):
    # the restricted boundary of each row: its tree columns in graph order
    details = [f"{c.edge_ids[i]!r} (cond {np.linalg.cond(D[:, np.sort(c.tree[i])]):.3e})"
               for i in weak[:3]]
    more = "" if len(weak) <= 3 else f" and {len(weak) - 3} more"
    warnings.warn(
        f"{len(weak)} spanning unicyclic subgraph(s) excluded: circuit holonomy "
        f"within {eps_hol:g} of 1 makes the tree system ill conditioned: "
        + "; ".join(details)
        + more,
        ConditioningWarning,
        stacklevel=stacklevel,
    )


class _Admitted(NamedTuple):
    """One bundle's holonomy filter over a census, one row per candidate:
    the admitted mask `ok` (C,), the circuit holonomies `hol` (C, k) with 0j
    in spare slots, `rho` (C,) = prod |hol - 1|^2, `weight` (C,), and from
    `_admitted` the bundle's `h0` check and boundary `bop`, which reports share."""

    census: _Census
    ok: np.ndarray
    hol: np.ndarray
    rho: np.ndarray
    weight: np.ndarray
    h0: H0Report | None = None
    bop: LinearOperator | None = None


def _filter(g: Graph, c: _Census, L: LineBundle, R: ResistanceMap, eps_hol: float) -> _Admitted:
    """The holonomy filter and forest weights of census `c`, as arithmetic
    over its distinct circuits: one `holonomy` call per circuit, then
    gathers.  The products run left to right on the values Python floats
    would take, over the components in order and then the tree edges in
    edge-id order."""
    hols = [holonomy(L, circ) for circ in c.circuits]
    gaps = np.array([abs(h - 1.0) for h in hols] + [np.inf])  # spare slots pass
    ok = (gaps[c.slots] > eps_hol).all(axis=1)
    factors = np.array([abs(h - 1.0) ** 2 for h in hols] + [1.0])
    rho = np.ones(len(c.edge_ids))
    for j in range(c.slots.shape[1]):
        rho = rho * factors[c.slots[:, j]]
    r = R.diagonal(edge_basis(g))
    weight = rho
    with np.errstate(over="ignore"):  # overflow to inf silently, as Python floats do
        for j in range(c.tree.shape[1]):
            weight = weight / r[c.tree[:, j]]
    return _Admitted(c, ok, np.array(hols + [0j])[c.slots], rho, weight)


def _admitted(
    g: Graph, L: LineBundle, R: ResistanceMap, eps_hol: float, stacklevel: int = 2
) -> _Admitted:
    """The filter behind every forest sum: `_filter` over the graph's cached
    census, with the h0 check and boundary it rests on.  A near-trivial
    exclusion warns as `warnings.warn(..., stacklevel)` here would (2: at the caller)."""
    bop = boundary_operator(g, L)
    h0 = _h0_check(g, L, bop.matrix, None, DEFAULT_EPS_HOL)
    if not h0.trivial:
        raise AssumptionViolatedError("ambient twisted degree-0 homology is nonzero")
    a = _filter(g, _census(g), L, R, eps_hol)._replace(h0=h0, bop=bop)
    weak = np.flatnonzero(~a.ok)
    if len(weak):
        _warn_near_trivial(a.bop.matrix, a.census, weak, eps_hol, stacklevel + 1)
    return a


def _records(g: Graph, L: LineBundle, R: ResistanceMap, a: _Admitted, rows) -> list[ForestRecord]:
    """The records of the filter's rows `rows`, read from its arrays; the
    components come from each row's tree edges, as the census found them."""
    c, rows = a.census, np.asarray(rows, dtype=np.intp)
    columns = (c.tree[rows], c.slots[rows], a.hol[rows], a.rho[rows], a.weight[rows])
    vertices = range(len(g.vertices))
    out = []
    for i, tree, slots, hols, rho, weight in zip(rows.tolist(), *(x.tolist() for x in columns)):
        comps = tuple(
            ForestComponent(tuple(g.vertices[v] for v in vs), tuple(g.edges[e].id for e in es),
                            c.circuits[s], h)
            for (vs, es), s, h in zip(_component_cells(g, vertices, tree), slots, hols)
        )
        out.append(ForestRecord(c.edge_ids[i], comps, rho, weight, tuple(tree), g, L, R))
    return out


def enumerate_forests(
    g: Graph,
    L: LineBundle,
    R: ResistanceMap | None = None,
    eps_hol: float = DEFAULT_EPS_HOL,
) -> list[ForestRecord]:
    """All forests with nontrivial circuit holonomies, weights included.

    Deterministic order: lexicographic in the sorted edge-id tuples.  Raises
    AssumptionViolatedError when the ambient twisted degree-0 homology is
    nonzero; when it vanishes but every candidate fails the holonomy
    threshold, returns an empty list (a ConditioningWarning is emitted for
    near-trivial candidates).  This is the record view of the filter the
    identities in `theorems` read as arrays.
    """
    if R is None:
        R = ResistanceMap.unit(g)
    a = _admitted(g, L, R, eps_hol, stacklevel=3)
    return _records(g, L, R, a, np.flatnonzero(a.ok))


def forest_record(
    g: Graph,
    L: LineBundle,
    R: ResistanceMap,
    edges,
    eps_hol: float = DEFAULT_EPS_HOL,
) -> ForestRecord:
    """Build the record for one explicit edge set, validating it fully: the
    filter over a one-row census.  R needs a resistance for every edge."""
    ids = _edge_id_tuple(g, edges)
    c = _Census(g, [tuple(g.edge_index(b) for b in ids)])
    if not c.edge_ids:
        raise ValueError(f"edge set {ids!r} is not a spanning union of unicyclic components")
    a = _filter(g, c, L, R, eps_hol)
    if not a.ok[0]:
        h = next(h for h in a.hol[0].tolist() if abs(h - 1.0) <= eps_hol)  # the first rejected
        raise ValueError(f"circuit holonomy {h!r} is within {eps_hol:g} of 1")
    return _records(g, L, R, a, [0])[0]


# Forests per chunk: c*n*m <= _CHUNK_ENTRIES keeps a chunk's ~5*c*n*m complex
# numbers (tree blocks, right-hand sides, solutions, residuals) near 1 MB.
_CHUNK_ENTRIES = 1 << 13


def _tbar_sum(D, tree, rest, weights, tol: float = 1e-9):
    """Sum_T w_T T_bar_T over the forests in the rows of `tree` (F, n), `rest`
    (F, m - n) and `weights` (F,), each from the forest's own solve of
    D[:, tree] U = D[:, rest].  Entries are summed in forest order, so the
    chunking does not change the result."""
    m = D.shape[1]
    acc = np.zeros(m * m, dtype=complex)
    step = max(1, _CHUNK_ENTRIES // D.size)
    for s in range(0, len(tree) if rest.shape[1] else 0, step):  # m == n: every T_bar is 0
        t, r, w = tree[s : s + step], rest[s : s + step], weights[s : s + step]
        A, B = D[:, t].transpose(1, 0, 2), D[:, r].transpose(1, 0, 2)
        try:
            U = np.linalg.solve(A, B)
        except np.linalg.LinAlgError as exc:
            raise SingularTreeSystemError(f"restricted boundary is singular: {exc}") from None
        a, u, b = (np.abs(X).max(axis=(1, 2)) for X in (A, U, B))
        if np.any(np.abs(A @ U - B).max(axis=(1, 2)) > tol * np.maximum(1.0, a * u + b)):
            raise SingularTreeSystemError("restricted boundary solve exceeded the residual tolerance")
        np.add.at(acc, r * (m + 1), w[:, None])  # unit diagonal of the non-tree columns
        np.add.at(acc, t[:, :, None] * m + r[:, None, :], w[:, None, None] * -U)
    return acc.reshape(m, m)


def tbar_operator(g: Graph, L: LineBundle, T: ForestRecord, tol: float = 1e-9) -> LinearOperator:
    """The projection-onto-cycles operator attached to one forest.

    Column b is the cycle T_bar(b) for non-tree edges and zero for tree
    edges: the one-forest, unit-weight case of the batched T_bar sum.
    """
    _require_graph(g, T)
    tree = np.array([T.edge_indices])
    rest = _rest_indices(tree, len(g.edges))
    M = _tbar_sum(boundary_operator(g, L).matrix, tree, rest, np.ones(1), tol)
    basis = edge_basis(g)
    return LinearOperator(M, 1, basis, 1, basis)


def tbar_chain(g: Graph, L: LineBundle, T: ForestRecord, b: str) -> ChainVector:
    """T_bar(b): zero for b in T, else the unique cycle b - u with u on T."""
    j = g.edge_index(b)
    return ChainVector(1, edge_basis(g), tbar_operator(g, L, T).matrix[:, j].copy())


def exchange(
    T: ForestRecord,
    b_i: str,
    b_j: str,
    eps: float = 1e-12,
    eps_hol: float = DEFAULT_EPS_HOL,
) -> ForestRecord | None:
    """Swap non-tree edge b_i in for tree edge b_j when the overlap allows it.

    Returns the record of (T minus b_j) plus b_i when the coefficient of
    T_bar(b_i) at b_j exceeds eps in modulus; None for (numerically) zero
    overlap.  A nonzero overlap guarantees the swapped edge set is again a
    forest, so a holonomy rejection at that point is reported as a
    conditioning problem rather than silently accepted.
    """
    g, L, R = T.graph, T.bundle, T.resistances
    if b_i in T.edges:
        raise ValueError(f"edge {b_i!r} is already in the forest")
    if b_j not in T.edges:
        raise ValueError(f"edge {b_j!r} is not in the forest")
    coef = tbar_operator(g, L, T).matrix[g.edge_index(b_j), g.edge_index(b_i)]
    if abs(coef) <= eps:
        return None
    new_edges = sorted((set(T.edges) - {b_j}) | {b_i})
    try:
        return forest_record(g, L, R, new_edges, eps_hol)
    except ValueError as exc:
        warnings.warn(
            f"exchange {b_i!r} for {b_j!r} produced an unusable forest: {exc}",
            ConditioningWarning,
            stacklevel=2,
        )
        return None
