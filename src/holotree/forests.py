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

import numpy as np

from .bundle import DEFAULT_EPS_HOL, LineBundle, h0_trivial, holonomy
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

    Edges are kept sorted lexicographically.  The record holds references to
    the graph, bundle and resistances it was built from, plus a cached copy
    of the T_bar operator once someone asks for it.
    """

    edges: tuple[str, ...]
    components: tuple[ForestComponent, ...]
    rho_hat: float
    weight: float
    graph: Graph = field(repr=False)
    bundle: LineBundle = field(repr=False)
    resistances: ResistanceMap = field(repr=False)
    _tbar: LinearOperator | None = field(default=None, repr=False, compare=False)


class _Candidate:
    """Structural data of one spanning unicyclic subgraph (phase independent)."""

    __slots__ = ("edge_ids", "edge_indices", "components")

    def __init__(self, edge_ids, edge_indices, components):
        self.edge_ids = edge_ids
        self.edge_indices = edge_indices
        self.components = components  # tuples (vertex idx, edge idx, circuit)


def _unicyclic_components(g: Graph, edge_indices):
    """Components of (all vertices, these edges); None unless each one is
    unicyclic and every vertex is covered by exactly its component."""
    comps = _component_cells(g, range(len(g.vertices)), edge_indices)
    if any(len(vs) != len(es) for vs, es in comps):  # euler characteristic 0 per component
        return None
    return tuple((vs, es, _orient_circuit(g, _circuit_edge_indices(g, es))) for vs, es in comps)


_candidate_cache: "weakref.WeakKeyDictionary[Graph, tuple]" = weakref.WeakKeyDictionary()


def _spanning_unicyclic_candidates(g: Graph) -> tuple:
    """All spanning unicyclic subgraphs, in lexicographic order of their
    sorted edge-id tuples.  Cached per graph: the census is phase independent,
    only the holonomy filter downstream depends on the bundle."""
    cached = _candidate_cache.get(g)
    if cached is not None:
        return cached
    n, m = len(g.vertices), len(g.edges)
    out = []
    if m >= n:
        order = sorted(range(m), key=lambda i: g.edges[i].id)
        masks = [(1 << t) | (1 << h) for t, h in g._ends]
        full = (1 << n) - 1
        for combo in itertools.combinations(order, n):
            cover = 0
            for ei in combo:
                cover |= masks[ei]
            if cover != full:
                continue
            comps = _unicyclic_components(g, combo)
            if comps is None:
                continue
            ids = tuple(sorted(g.edges[ei].id for ei in combo))
            out.append(_Candidate(ids, tuple(sorted(combo)), comps))
    result = tuple(out)
    _candidate_cache[g] = result
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
    comps = _unicyclic_components(g, [g.edge_index(b) for b in ids])
    if comps is None:
        return False
    return all(abs(holonomy(L, circ) - 1.0) > eps_hol for _, _, circ in comps)


def is_tree_homological(g: Graph, L: LineBundle, edges, tol=None) -> bool:
    """Square restricted boundary with full numerical rank.

    Only meaningful under the standing assumption that the ambient twisted
    degree-0 homology vanishes, so that is checked first.
    """
    if not h0_trivial(g, L).trivial:
        raise AssumptionViolatedError("ambient twisted degree-0 homology is nonzero")
    ids = _edge_id_tuple(g, edges)
    n = len(g.vertices)
    if len(ids) != n:
        return False
    sub = g.spanning_subcomplex(ids)
    M = boundary_operator(g, L, sub).matrix
    return numerical_rank(M, tol) == n


def _record_from_candidate(
    g: Graph,
    L: LineBundle,
    R: ResistanceMap,
    cand: _Candidate,
    hols,
) -> ForestRecord:
    comps = []
    rho = 1.0
    for (vs, es, circ), h in zip(cand.components, hols):
        rho *= abs(h - 1.0) ** 2
        comps.append(
            ForestComponent(
                tuple(g.vertices[i] for i in vs),
                tuple(g.edges[i].id for i in es),
                circ,
                h,
            )
        )
    weight = rho
    for b in cand.edge_ids:
        weight /= R.r(b)
    return ForestRecord(cand.edge_ids, tuple(comps), rho, weight, g, L, R)


def _warn_near_trivial(g: Graph, L: LineBundle, weak: list, eps_hol: float) -> None:
    details = []
    for cand in weak[:3]:
        sub = g.spanning_subcomplex(cand.edge_ids)
        cond = float(np.linalg.cond(boundary_operator(g, L, sub).matrix))
        details.append(f"{cand.edge_ids!r} (cond {cond:.3e})")
    more = "" if len(weak) <= 3 else f" and {len(weak) - 3} more"
    warnings.warn(
        f"{len(weak)} spanning unicyclic subgraph(s) excluded: circuit holonomy "
        f"within {eps_hol:g} of 1 makes the tree system ill conditioned: "
        + "; ".join(details)
        + more,
        ConditioningWarning,
        stacklevel=3,
    )


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
    near-trivial candidates).
    """
    if not h0_trivial(g, L).trivial:
        raise AssumptionViolatedError("ambient twisted degree-0 homology is nonzero")
    if R is None:
        R = ResistanceMap.unit(g)
    out = []
    weak = []
    for cand in _spanning_unicyclic_candidates(g):
        hols = [holonomy(L, circ) for _, _, circ in cand.components]
        if all(abs(h - 1.0) > eps_hol for h in hols):
            out.append(_record_from_candidate(g, L, R, cand, hols))
        else:
            weak.append(cand)
    if weak:
        _warn_near_trivial(g, L, weak, eps_hol)
    return out


def forest_record(
    g: Graph,
    L: LineBundle,
    R: ResistanceMap,
    edges,
    eps_hol: float = DEFAULT_EPS_HOL,
) -> ForestRecord:
    """Build the record for one explicit edge set, validating it fully."""
    ids = _edge_id_tuple(g, edges)
    comps = _unicyclic_components(g, [g.edge_index(b) for b in ids])
    if comps is None:
        raise ValueError(f"edge set {ids!r} is not a spanning union of unicyclic components")
    cand = _Candidate(ids, tuple(sorted(g.edge_index(b) for b in ids)), comps)
    hols = [holonomy(L, circ) for _, _, circ in cand.components]
    for h in hols:
        if abs(h - 1.0) <= eps_hol:
            raise ValueError(f"circuit holonomy {h!r} is within {eps_hol:g} of 1")
    return _record_from_candidate(g, L, R, cand, hols)


def _tbar_matrix(g: Graph, L: LineBundle, T: ForestRecord, tol: float = 1e-9) -> np.ndarray:
    n, m = len(g.vertices), len(g.edges)
    tree_idx = [g.edge_index(b) for b in T.edges]
    tree_set = set(tree_idx)
    rest = [j for j in range(m) if j not in tree_set]
    D = boundary_operator(g, L).matrix
    A = D[:, tree_idx]
    M = np.zeros((m, m), dtype=complex)
    if rest:
        B = D[:, rest]
        try:
            U = np.linalg.solve(A, B)
        except np.linalg.LinAlgError as exc:
            raise SingularTreeSystemError(f"restricted boundary is singular: {exc}") from None
        resid = A @ U - B
        scale = max(
            1.0,
            float(np.abs(A).max(initial=0.0)) * float(np.abs(U).max(initial=0.0))
            + float(np.abs(B).max(initial=0.0)),
        )
        if float(np.abs(resid).max(initial=0.0)) > tol * scale:
            raise SingularTreeSystemError(
                "restricted boundary solve exceeded the residual tolerance"
            )
        for c, j in enumerate(rest):
            M[j, j] = 1.0
            M[tree_idx, j] = -U[:, c]
    return M


def tbar_operator(g: Graph, L: LineBundle, T: ForestRecord, tol: float = 1e-9) -> LinearOperator:
    """The projection-onto-cycles operator attached to one forest.

    Column b is the cycle T_bar(b) for non-tree edges and zero for tree
    edges; the result is cached on the record.
    """
    if T.graph is not g:
        raise ValueError("forest record belongs to a different graph")
    if T._tbar is None:
        basis = edge_basis(g)
        T._tbar = LinearOperator(_tbar_matrix(g, L, T, tol), 1, basis, 1, basis)
    return T._tbar


def tbar_chain(g: Graph, L: LineBundle, T: ForestRecord, b: str, tol: float = 1e-9) -> ChainVector:
    """T_bar(b): zero for b in T, else the unique cycle b - u with u on T."""
    j = g.edge_index(b)
    basis = edge_basis(g)
    if b in T.edges:
        return ChainVector(1, basis, np.zeros(len(basis), dtype=complex))
    op = tbar_operator(g, L, T, tol)
    return ChainVector(1, basis, op.matrix[:, j].copy())


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
    op = tbar_operator(g, L, T)
    coef = op.matrix[g.edge_index(b_j), g.edge_index(b_i)]
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
