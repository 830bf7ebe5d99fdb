"""Forest-sum identities for the twisted Laplacian, each checked two ways.

Every operation here computes one side of an identity by summing over the
forest census and the other side by plain dense linear algebra, and reports
how far apart the two routes land:

* the weighted forest average of the T_bar operators equals the metric
  projection of degree-1 chains onto ker(boundary);
* the unique cycle z with V - Rz a coboundary is that projection applied to
  R^{-1} V, and its coefficients satisfy a per-edge forest-sum formula;
* det(laplacian) equals the total forest weight;
* |det|^2 of one forest's square restricted boundary equals its holonomy
  factor, and in the low-temperature family R_beta = exp(beta * W) the
  chosen forest's restricted Laplacian determinant dominates the full one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import DEFAULT_EPS_HOL, Gauge, LineBundle, gauge_transform
from .chains import (
    ChainVector,
    LinearOperator,
    ResistanceMap,
    boundary_operator,
    determinant,
    edge_basis,
    kernel_basis,
    laplacian,
)
from .errors import (
    AssumptionViolatedError,
    BasisMismatchError,
    InvalidWError,
    NoForestsError,
    UnknownEdgeError,
)
from .forests import ForestRecord, _admitted, _require_graph, _tbar_sum
from .graphs import Graph

_TINY = 1e-300


def oracle_projection(g: Graph, L: LineBundle, R: ResistanceMap) -> LinearOperator:
    """Metric projection onto ker(boundary), built without any forest data.

    Uses an orthonormal kernel basis K and the Gram matrix of K in the
    resistance-weighted inner product: P = K (K* R K)^{-1} K* R.
    """
    bop = boundary_operator(g, L)
    kers = kernel_basis(bop)
    basis = edge_basis(g)
    return _oracle(kers, R.diagonal(basis), basis)


def _oracle(kers, r: np.ndarray, basis) -> LinearOperator:
    """oracle_projection from the kernel basis `kers` and resistances `r`."""
    m = len(basis)
    if not kers:
        return LinearOperator(np.zeros((m, m), dtype=complex), 1, basis, 1, basis)
    K = np.column_stack([k.coeffs for k in kers])
    KR = K.conj().T * r[None, :]
    G = KR @ K
    P = K @ np.linalg.solve(G, KR)
    return LinearOperator(P, 1, basis, 1, basis)


def _forest_total(weights: list) -> float:
    """Delta = Sum_T w_T over the admitted forests' weights, added left to
    right; no verdict may read a total that overflowed or underflowed."""
    total = sum(weights, 0.0)
    if weights and not 0.0 < total < np.inf:
        raise FloatingPointError(f"forest weight total {total!r} overflowed or underflowed")
    return total


def _forest_sum_operator(adm):
    """Sum_T w_T T_bar_T and Delta over the forests admitted in `adm`."""
    c, ok = adm.census, adm.ok
    delta = _forest_total(adm.weight[ok].tolist())
    return _tbar_sum(adm.bop.matrix, c.tree[ok], c.rest[ok], adm.weight[ok]), delta


@dataclass(frozen=True)
class ProjectionReport:
    """P against the oracle, and P's defects as a projection; it passes when
    each is at most tol * scale, scale = max(1, m ||P||_2)."""

    projection: LinearOperator
    oracle: LinearOperator
    delta: float
    forest_count: int
    max_entry_discrepancy: float
    idempotency_defect: float
    self_adjointness_defect: float
    boundary_defect: float
    kernel_fix_defect: float
    scale: float

    def passed(self, tol: float) -> bool:
        defects = (self.max_entry_discrepancy, self.idempotency_defect,
                   self.self_adjointness_defect, self.boundary_defect, self.kernel_fix_defect)
        return all(v <= tol * self.scale for v in defects)


def kirchhoff_projection(
    g: Graph,
    L: LineBundle,
    R: ResistanceMap,
    eps_hol: float = DEFAULT_EPS_HOL,
) -> ProjectionReport:
    """Weighted forest average of T_bar, checked against oracle_projection."""
    adm = _admitted(g, L, R, eps_hol)
    count = int(np.count_nonzero(adm.ok))
    if not count:
        raise NoForestsError(
            "no forest cleared the holonomy threshold; the forest average is undefined"
        )
    acc, delta = _forest_sum_operator(adm)
    basis = edge_basis(g)
    P = acc / delta
    r = R.diagonal(basis)
    kers = kernel_basis(adm.bop)  # the oracle's and the kernel-fix check's
    oracle = _oracle(kers, r, basis)
    disc = float(np.abs(P - oracle.matrix).max(initial=0.0))
    scale = max(1.0, len(basis) * float(np.linalg.svd(P, compute_uv=False)[0]))
    RP = r[:, None] * P
    idem = float(np.abs(P @ P - P).max(initial=0.0))
    # R P grows with R, so its defect is measured relative to the largest r
    selfadj = float(np.abs(RP - RP.conj().T).max(initial=0.0)) / float(r.max())
    bdefect = float(np.abs(adm.bop.matrix @ P).max(initial=0.0))
    kfix = 0.0
    for k in kers:
        kfix = max(kfix, float(np.abs(P @ k.coeffs - k.coeffs).max(initial=0.0)))
    proj = LinearOperator(P, 1, basis, 1, basis)
    return ProjectionReport(proj, oracle, delta, count, disc, idem, selfadj, bdefect, kfix, scale)


@dataclass(frozen=True)
class NetworkSolution:
    """The cycle z with V - Rz orthogonal to every cycle.

    `current` is P R^{-1} V for the forest-sum projection P, and
    `formula_currents` the per-edge formula R^{-1} P^H V, so
    `route_discrepancy` is P's R-self-adjointness defect applied to V.  The
    check independent of the forests is `orthogonality_defect`.
    """

    voltage: ChainVector
    current: ChainVector
    residual: ChainVector
    formula_currents: np.ndarray
    route_discrepancy: float
    orthogonality_defect: float

    def passed(self, tol: float) -> bool:
        bound = tol * max(1.0, self.voltage.norm())
        return self.route_discrepancy <= bound and self.orthogonality_defect <= bound


def solve_network(
    g: Graph,
    L: LineBundle,
    R: ResistanceMap,
    V: ChainVector,
    eps_hol: float = DEFAULT_EPS_HOL,
) -> NetworkSolution:
    basis = edge_basis(g)
    if V.degree != 1 or V.basis != basis:
        raise BasisMismatchError("voltage must be a degree-1 chain on the graph's edge basis")
    adm = _admitted(g, L, R, eps_hol)
    if not adm.ok.any():
        raise NoForestsError("no forest cleared the holonomy threshold")
    acc, delta = _forest_sum_operator(adm)
    r = R.diagonal(basis)
    z = (acc / delta) @ (V.coeffs / r)
    # <z, b> = (1/delta) sum_T (w_T / r_b) <V, T_bar(b)>, the adjoint of the same sum
    z2 = (acc.conj().T @ V.coeffs) / (delta * r)
    resid = V.coeffs - r * z
    orth = 0.0
    for k in kernel_basis(adm.bop):
        orth = max(orth, abs(complex(np.vdot(k.coeffs, resid))))
    return NetworkSolution(
        V,
        ChainVector(1, basis, z),
        ChainVector(1, basis, resid),
        z2,
        float(np.abs(z - z2).max(initial=0.0)),
        float(orth),
    )


@dataclass(frozen=True)
class MatrixTreeReport:
    det_laplacian: float
    log_det: float
    sum_weights: float
    relative_error: float | None
    forest_count: int
    weights: tuple[tuple[tuple[str, ...], float], ...]
    degenerate: bool

    def passed(self, tol: float) -> bool:
        if self.relative_error is None:
            # no forest mass to compare against: the determinant itself must vanish
            return abs(self.det_laplacian) <= tol
        return self.relative_error <= tol


def matrix_tree_report(
    g: Graph,
    L: LineBundle,
    R: ResistanceMap,
    eps_hol: float = DEFAULT_EPS_HOL,
) -> MatrixTreeReport:
    """det(laplacian) against the forest weight sum.

    Degenerate inputs are reported, not rejected: when the standing
    assumption fails (or every candidate is below the holonomy threshold)
    the census is empty and the determinant is compared against zero.
    """
    table, total = (), 0.0
    try:
        adm = _admitted(g, L, R, eps_hol)
    except AssumptionViolatedError:
        bop = boundary_operator(g, L)
    else:
        admitted, bop = np.flatnonzero(adm.ok), adm.bop
        ids, weights = adm.census.edge_ids, adm.weight[admitted].tolist()
        table = tuple(zip([ids[i] for i in admitted], weights))
        total = _forest_total(weights)
    det = determinant(laplacian(bop, R))
    det_val = float(det.value.real)
    rel = abs(det_val - total) / total if total > 0.0 else None
    return MatrixTreeReport(
        det_val,
        det.log_abs,
        total,
        rel,
        len(table),
        table,
        not table,
    )


@dataclass(frozen=True)
class TreeLaplacianCheck:
    det_value: float
    rho_hat: float
    relative_error: float


def tree_laplacian_identity(g: Graph, L: LineBundle, T: ForestRecord) -> TreeLaplacianCheck:
    """det of the forest's unit-resistance restricted Laplacian vs its holonomy factor.

    The restricted boundary D_T is square, so this is |det D_T|^2, taken from
    one LU of D_T: its Gram matrix would square cond(D_T).
    """
    _require_graph(g, T)
    sub = g.spanning_subcomplex(T.edges)
    with np.errstate(over="ignore"):
        v = float(np.exp(2.0 * determinant(boundary_operator(g, L, sub)).log_abs))
    rel = abs(v - T.rho_hat) / max(T.rho_hat, _TINY)
    return TreeLaplacianCheck(v, T.rho_hat, rel)


def auto_weight_exponents(g: Graph, T: ForestRecord) -> dict[str, float]:
    """W = 1 on forest edges and |edges| + 2 elsewhere; satisfies the
    dominance inequality with margin."""
    k = len(g.edges)
    return {e.id: (1.0 if e.id in set(T.edges) else k + 2.0) for e in g.edges}


def _check_weight_exponents(g: Graph, T: ForestRecord, W: dict[str, float]) -> None:
    unknown = [b for b in W if not g.has_edge(b)]
    if unknown:
        raise UnknownEdgeError(f"weight exponents for unknown edges {unknown!r}")
    missing = [e.id for e in g.edges if e.id not in W]
    if missing:
        raise InvalidWError(f"missing weight exponents for edges {missing!r}")
    infinite = [e.id for e in g.edges if not np.isfinite(W[e.id])]
    if infinite:
        raise InvalidWError(f"weight exponents for edges {infinite!r} are not finite")
    tree = set(T.edges)
    tree_sum = sum(W[b] for b in tree)
    tree_min = min(W[b] for b in tree)
    bound = tree_sum - len(g.edges) * tree_min
    for e in g.edges:
        if e.id in tree:
            continue
        if not W[e.id] > bound:
            raise InvalidWError(
                f"W[{e.id!r}] = {W[e.id]!r} must exceed {bound!r} "
                "(tree total minus edge count times tree minimum)"
            )


@dataclass(frozen=True)
class LowTempReport:
    betas: tuple[float, ...]
    ratios: tuple[float, ...]
    deviations: tuple[float, ...]
    monotone: bool
    weight_exponents: tuple[tuple[str, float], ...]
    tree_log_dets: tuple[float, ...]
    full_log_dets: tuple[float, ...]

    def passed(self) -> bool:
        return self.monotone and self.deviations[-1] < 1e-3


def low_temp_demo(
    g: Graph,
    L: LineBundle,
    T: ForestRecord,
    W="auto",
    beta_list=(1.0, 5.0, 10.0, 20.0, 40.0),
) -> LowTempReport:
    """Ratio det(restricted Laplacian) / det(full Laplacian) at R = exp(beta*W).

    Both determinants are evaluated in log space, never multiplied out, so
    large beta stays finite.  With admissible exponents the ratio climbs to 1
    as beta grows; deviations at the 1e-15 level are determinant roundoff,
    which the monotonicity flag tolerates.
    """
    _require_graph(g, T)
    if isinstance(W, str) and W == "auto":
        Wd = auto_weight_exponents(g, T)
    else:
        Wd = {b: float(w) for b, w in dict(W).items()}
    _check_weight_exponents(g, T, Wd)
    betas = [float(b) for b in beta_list]
    if not betas or not np.all(np.isfinite(betas)):
        raise ValueError(f"beta_list needs at least one value, all finite: got {beta_list!r}")
    D = boundary_operator(g, L).matrix
    w_full = np.asarray([Wd[e.id] for e in g.edges], dtype=float)
    tree_idx = [g.edge_index(b) for b in T.edges]
    A = D[:, tree_idx]
    w_tree = w_full[tree_idx]
    ratios = []
    tree_lds = []
    full_lds = []
    for beta in betas:
        # the Gram product on purpose: its roundoff cancels against MF's, and one LU
        # of A (2 log|det A| - beta * sum w_tree) does not; see ROADMAP 3(c)
        MT = (A * np.exp(-beta * w_tree)[None, :]) @ A.conj().T
        MF = (D * np.exp(-beta * w_full)[None, :]) @ D.conj().T
        _, ld_t = np.linalg.slogdet(MT)
        _, ld_f = np.linalg.slogdet(MF)
        tree_lds.append(float(ld_t))
        full_lds.append(float(ld_f))
        ratios.append(float(np.exp(ld_t - ld_f)))
    devs = [abs(1.0 - r) for r in ratios]
    monotone = all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
    return LowTempReport(
        tuple(betas),
        tuple(ratios),
        tuple(devs),
        monotone,
        tuple((e.id, Wd[e.id]) for e in g.edges),
        tuple(tree_lds),
        tuple(full_lds),
    )


@dataclass(frozen=True)
class GaugeCheckReport:
    det_relative_error: float
    census_equal: bool
    holonomy_defect: float
    dims_equal: bool
    forest_count: int

    def passed(self, tol: float) -> bool:
        return (self.census_equal and self.dims_equal
                and self.det_relative_error <= tol and self.holonomy_defect <= tol)


def gauge_invariance_check(
    g: Graph,
    L: LineBundle,
    R: ResistanceMap,
    gauge: Gauge,
    eps_hol: float = DEFAULT_EPS_HOL,
) -> GaugeCheckReport:
    """Everything observable must survive a gauge change: det(laplacian), the forest
    census with weights, and the homology dimensions (`dims_equal`: the two h0 ranks)."""
    L2 = gauge_transform(L, gauge)
    a1 = _admitted(g, L, R, eps_hol)
    a2 = _admitted(g, L2, R, eps_hol)
    d1, d2 = (determinant(laplacian(a.bop, R)).value.real for a in (a1, a2))
    rel = abs(d1 - d2) / max(abs(d1), abs(d2), _TINY)
    for adm in (a1, a2):
        _forest_total(adm.weight[adm.ok].tolist())  # no comparison from an overflowed total
    census_equal = bool(np.array_equal(a1.ok, a2.ok))
    defect = float("inf")
    if census_equal:
        dh = a1.hol[a1.ok] - a2.hol[a1.ok]
        w1, w2 = a1.weight[a1.ok], a2.weight[a1.ok]
        with np.errstate(invalid="ignore"):  # inf - inf is nan, silently, as in Python
            gaps = (np.hypot(dh.real, dh.imag).ravel(), np.abs(w1 - w2) / np.maximum(w1, _TINY))
        # hypot is Python's abs(complex) bit for bit (np.abs is not); fmax skips inf - inf
        defect = float(np.fmax.reduce(np.concatenate(gaps), initial=0.0))
    dims_equal = a1.h0.rank == a2.h0.rank
    count = int(np.count_nonzero(a1.ok))
    return GaugeCheckReport(float(rel), census_equal, defect, dims_equal, count)
