"""The three benchmark workloads: seeded inputs, one timed operation, its checks.

Every workload is a class with `setup(seed)` (builds the inputs and warms up,
untimed by the caller's op clock) and `op(i)` (prepares op i's inputs, times
the calls into holotree, then checks the outputs).  Op i's inputs depend only
on the seed and on i, so any two runs with one seed execute the same ops in
the same order, whatever their length.

Library calls inside the timed regions go through module attributes
(`theorems.kirchhoff_projection`, not a name imported here), so that a
layer tracer that rebinds those attributes sees them.  Checks run outside the
timed regions and use the functions imported at the top of this file, which
the tracer never rebinds.

Checks follow the tolerance rules of the command line (`holotree.cli`) and
of the acceptance tests: an op passes only when every identity it computes
lands within them, and an op that raises fails.

Some legal inputs fail today.  The timed ops draw none of them, so that every
timed op is expected to pass; each workload's `probe()` runs a fixed
number of them after the timed ops, untimed, and reports what happens, so the
defects stay on record in every result and a fix shows there:

* `resistance-extremes` (census_cold): every resistance of a graph scaled by
  1e-60 or 1e+60; the forest weights overflow.
* `lowtemp-roundoff` (dense_large): `low_temp_demo` with its default weight
  exponents, which on the 16x16 grid put every deviation at determinant
  roundoff from beta = 1 on; the monotonicity flag allows only an absolute
  1e-12 of slack, so it can come out false.  The timed ops pass explicit
  exponents (1 on the forest, 2 elsewhere), whose deviations fall from 1 to
  about 1e-5 across the default betas.
* `near-trivial-holonomy` (dense_large): a forest whose circuit holonomy lies
  1e-3 from 1; the tree system is ill conditioned and roundoff alone pushes
  `tree_laplacian_identity` past tolerance (its error grows like
  1e-13 / rho_hat).  The timed ops redraw phases that put the holonomy
  within 1e-1 of 1.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from holotree import bundle, chains, cli, forests, theorems
from holotree.bundle import Gauge
from holotree.chains import ChainVector, ResistanceMap, boundary_operator, edge_basis, kernel_basis
from holotree.fileformat import emit_graph_text
from holotree.graphs import build_graph

TOL = 1e-9  # the command line's default --tol
LOWTEMP_MAX_FINAL = 1e-3  # the command line's lowtemp pass rule
TIMED_MIN_HOL_GAP = 1e-1  # timed dense_large ops keep |holonomy - 1| at least this
PROBE_HOL_GAP = 1e-3  # the near-trivial-holonomy probe's |holonomy - 1|
PROBE_LOWTEMP_OPS = 20  # lowtemp-roundoff fails on about one forest in ten
R_LOG_RANGE = (math.log(0.1), math.log(10.0))
EXTREME_SCALES = (1e-60, 1e60)
PROBE_KEY = 1_000_000  # rng key offset that keeps probe inputs apart from op inputs

SCALES = {
    # vertex counts (edges = 2 * vertices), grid side, and the op seconds used
    # to size a traced run, as measured on a 2-core x86-64 machine.
    "full": {"census_n": 7, "census_pool": 100, "sweep_n": 7, "grid": 16,
             "op_seconds": {"census_cold": 0.6, "phase_sweep": 0.4, "dense_large": 0.55}},
    "tiny": {"census_n": 4, "census_pool": 20, "sweep_n": 5, "grid": 4,
             "op_seconds": {"census_cold": 0.02, "phase_sweep": 0.02, "dense_large": 0.02}},
}
SETUP_REPEATS = 3
# Graph shapes are part of a workload's definition and do not follow --seed:
# with shapes drawn per seed, the census size of a run's 50-odd graphs moved
# its op rate by about 10% from seed to seed.  Phases, resistances, voltages,
# gauges and the probes' inputs follow --seed.
STRUCTURE_SEED = 20120712


@dataclass
class OpResult:
    seconds: float
    failed_checks: list[str]  # empty when the op passed
    forests: int

    @property
    def passed(self) -> bool:
        return not self.failed_checks


def _failed(checks: dict[str, bool]) -> list[str]:
    return [name for name, ok in checks.items() if not ok]


def _rng(seed: int, workload: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, *key])


def _random_bundle(rng, edge_ids):
    angles = rng.uniform(0.0, 2.0 * math.pi, len(edge_ids))
    resist = np.exp(rng.uniform(*R_LOG_RANGE, len(edge_ids)))
    return (
        {b: float(a) for b, a in zip(edge_ids, angles)},
        {b: float(r) for b, r in zip(edge_ids, resist)},
    )


def random_multigraph(rng, n: int, m: int):
    """Connected multigraph: a random spanning tree plus random extra edges
    (loops and parallel edges allowed), shuffled and randomly oriented."""
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    while len(pairs) < m:
        pairs.append((int(rng.integers(0, n)), int(rng.integers(0, n))))
    order = rng.permutation(m)
    flips = rng.random(m) < 0.5
    vertices = [f"v{i}" for i in range(n)]
    triples = []
    for k, o in enumerate(order):
        a, b = pairs[o]
        if flips[k]:
            a, b = b, a
        triples.append((f"e{k}", vertices[a], vertices[b]))
    return vertices, triples


def grid_graph(k: int):
    vertices = [f"v{i}_{j}" for i in range(k) for j in range(k)]
    triples = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                triples.append((f"h{i}_{j}", f"v{i}_{j}", f"v{i}_{j + 1}"))
            if i + 1 < k:
                triples.append((f"u{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j}"))
    return vertices, triples


def _complex_literal(z: complex) -> str:
    sep = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6f}{sep}{abs(z.imag):.6f}i"


def projection_passes(g, L, R, P: np.ndarray, discrepancy: float = 0.0) -> bool:
    """The `holotree project` pass rule: idempotent, R-self-adjoint, killed by
    the boundary, fixing the kernel, and (for a forest average) close to the
    oracle, each within tol * max(1, m * ||P||_2)."""
    m = P.shape[0]
    smax = float(np.linalg.svd(P, compute_uv=False)[0]) if m else 0.0
    scale = max(1.0, m * smax)
    r = R.diagonal(edge_basis(g))
    RP = r[:, None] * P
    bop = boundary_operator(g, L)
    defects = [
        discrepancy,
        float(np.abs(P @ P - P).max(initial=0.0)),
        float(np.abs(RP - RP.conj().T).max(initial=0.0)),
        float(np.abs(bop.matrix @ P).max(initial=0.0)),
    ]
    kers = kernel_basis(bop)
    if kers:
        K = np.column_stack([k.coeffs for k in kers])
        defects.append(float(np.abs(P @ K - K).max()))
    return all(d <= TOL * scale for d in defects)


def matrix_tree_passes(rep) -> bool:
    """The `holotree matrix-tree` pass rule, minus its vacuous case: forests
    found but nothing compared is a failure."""
    if rep.relative_error is None:
        return rep.forest_count == 0 and abs(rep.det_laplacian) <= TOL
    return rep.relative_error <= TOL


def solve_passes(sol) -> bool:
    vnorm = max(1.0, sol.voltage.norm())
    return sol.route_discrepancy <= TOL * vnorm and sol.orthogonality_defect <= TOL * vnorm


def gauge_passes(rep) -> bool:
    return (rep.census_equal and rep.dims_equal
            and rep.det_relative_error <= TOL and rep.holonomy_defect <= TOL)


def _timed(fn):
    """(seconds, fn()) on a freshly collected heap; the result is None when fn
    raised, which fails the op without ending the run."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception:
        traceback.print_exc()
        out = None
    return time.perf_counter() - t0, out


class CensusCold:
    """Each op runs `holotree matrix-tree`, `project` and `solve` in-process on
    one graph file; every command parses the file into a new `Graph`, so every
    command pays for a cold census."""

    name = "census_cold"
    ident = 0

    def __init__(self, scale: dict, workdir: str):
        self.n = scale["census_n"]
        self.pool = scale["census_pool"]
        self.workdir = workdir
        self.files: list[tuple[str, str]] = []
        self.extremes: list[tuple[str, str]] = []

    def setup(self, seed: int) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        shapes = np.random.default_rng([STRUCTURE_SEED, self.ident])
        rng = _rng(seed, self.ident)
        self.files = [self._write_graph(f"g{i:04d}", shapes, rng, 1.0) for i in range(self.pool)]
        self.extremes = [self._write_graph(f"x{k}", shapes, rng, s)
                         for k, s in enumerate(EXTREME_SCALES)]
        # first BLAS and CLI calls; op 0 parses the file again, so its census stays cold
        _run_cli(["matrix-tree", self.files[0][0]])

    def _write_graph(self, name: str, shapes, rng, scale: float):
        """A graph file with every resistance times `scale`, and a voltage."""
        vertices, triples = random_multigraph(shapes, self.n, 2 * self.n)
        g = build_graph(vertices, triples)
        ids = [b for b, _, _ in triples]
        angles, resist = _random_bundle(rng, ids)
        resist = {b: r * scale for b, r in resist.items()}
        picks = rng.choice(len(ids), size=3, replace=False)
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        voltage = ",".join(f"{ids[p]}={_complex_literal(z)}" for p, z in zip(picks, coeffs))
        path = os.path.join(self.workdir, f"{name}.txt")
        text = emit_graph_text(g, bundle.attach_phases(g, angles), ResistanceMap(resist))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path, voltage

    def op(self, i: int) -> OpResult:
        return self._run(*self.files[i % len(self.files)])

    def probe(self) -> dict[str, list[OpResult]]:
        return {"resistance-extremes": [self._run(path, v) for path, v in self.extremes]}

    def _run(self, path: str, voltage: str) -> OpResult:
        argvs = (["matrix-tree", path], ["project", path], ["solve", path, "--voltage", voltage])
        seconds, runs = _timed(lambda: [_run_cli(a) for a in argvs])
        checks = {"raised": runs is not None}
        forest_count = 0
        for argv, (code, out) in zip(argvs, runs or ()):
            report = _parse_report(out)
            checks[argv[0]] = code == 0 and report is not None and report.get("passed") is True
            if argv[0] == "matrix-tree" and report is not None:
                forest_count = int(report.get("forest_count") or 0)
                checks["matrix-tree-compared"] = not (
                    forest_count > 0 and report.get("relative_error") is None
                )
        return OpResult(seconds, _failed(checks), forest_count)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _parse_report(text: str):
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None


class PhaseSweep:
    """One fixed graph whose census is built in set-up; each op attaches new
    phases and resistances and runs the four public reports, so the census
    cache always hits and the per-bundle work is what gets timed."""

    name = "phase_sweep"
    ident = 1

    def __init__(self, scale: dict, workdir: str):
        self.n = scale["sweep_n"]
        self.graph = None

    def setup(self, seed: int) -> None:
        vertices, triples = random_multigraph(
            np.random.default_rng([STRUCTURE_SEED, self.ident]), self.n, 2 * self.n
        )
        g = build_graph(vertices, triples)
        angles, resist = _random_bundle(_rng(seed, self.ident), [b for b, _, _ in triples])
        forests.enumerate_forests(g, bundle.attach_phases(g, angles), ResistanceMap(resist))
        self.graph = g
        self.seed = seed

    def op(self, i: int) -> OpResult:
        g = self.graph
        rng = _rng(self.seed, self.ident, i)
        ids = edge_basis(g)
        angles, resist = _random_bundle(rng, ids)
        V = ChainVector(1, ids, rng.normal(size=len(ids)) + 1j * rng.normal(size=len(ids)))
        gauge = Gauge.from_angles(
            {v: float(a) for v, a in zip(g.vertices, rng.uniform(0.0, 2.0 * math.pi, len(g.vertices)))}
        )

        def run():
            L = bundle.attach_phases(g, angles)
            R = ResistanceMap(resist)
            return (
                L,
                R,
                theorems.matrix_tree_report(g, L, R),
                theorems.kirchhoff_projection(g, L, R),
                theorems.solve_network(g, L, R, V),
                theorems.gauge_invariance_check(g, L, R, gauge),
            )

        seconds, out = _timed(run)
        if out is None:
            return OpResult(seconds, ["raised"], 0)
        L, R, mt, kp, sol, gch = out
        checks = {
            "matrix_tree_report": matrix_tree_passes(mt),
            "kirchhoff_projection": projection_passes(
                g, L, R, kp.projection.matrix, kp.max_entry_discrepancy
            ),
            "solve_network": solve_passes(sol),
            "gauge_invariance_check": gauge_passes(gch),
        }
        return OpResult(seconds, _failed(checks), mt.forest_count)

    def probe(self) -> dict[str, list[OpResult]]:
        return {}


class DenseLarge:
    """Grids far past enumeration: each op runs only the census-free routes
    (homology, oracle projection, determinant) and one explicit forest."""

    name = "dense_large"
    ident = 2

    def __init__(self, scale: dict, workdir: str):
        self.k = scale["grid"]
        self.graph = None

    def setup(self, seed: int) -> None:
        vertices, triples = grid_graph(self.k)
        g = build_graph(vertices, triples)
        k = self.k
        # comb spanning tree: every horizontal edge plus the first column;
        # each op adds one of the remaining vertical edges to close a circuit
        self.tree = [b for b, _, _ in triples if b.startswith("h")] + [f"u{i}_0" for i in range(k - 1)]
        self.extra = [(i, j) for i in range(k - 1) for j in range(1, k)]
        angles, resist = _random_bundle(_rng(seed, self.ident), edge_basis(g))
        L = bundle.attach_phases(g, angles)
        R = ResistanceMap(resist)
        chains.determinant(chains.laplacian(chains.boundary_operator(g, L), R))
        theorems.oracle_projection(g, L, R)
        self.graph = g
        self.seed = seed

    def _draw(self, rng):
        """Phases, resistances and forest edges for one op, redrawn while the
        forest's circuit holonomy lies within TIMED_MIN_HOL_GAP of 1."""
        ids = edge_basis(self.graph)
        while True:
            angles, resist = _random_bundle(rng, ids)
            i, j = self.extra[int(rng.integers(0, len(self.extra)))]
            if abs(2.0 * math.sin(_circuit_angle(angles, i, j) / 2.0)) >= TIMED_MIN_HOL_GAP:
                return angles, resist, self.tree + [f"u{i}_{j}"]

    def op(self, i: int) -> OpResult:
        g = self.graph
        angles, resist, edges = self._draw(_rng(self.seed, self.ident, i))
        forest = set(edges)
        W = {b: 1.0 if b in forest else 2.0 for b in edge_basis(g)}

        def run():
            L = bundle.attach_phases(g, angles)
            R = ResistanceMap(resist)
            h0 = bundle.h0_trivial(g, L)
            dims = chains.homology_dims(g, L)
            P = theorems.oracle_projection(g, L, R)
            det = chains.determinant(chains.laplacian(chains.boundary_operator(g, L), R))
            T = forests.forest_record(g, L, R, edges)
            tbar = forests.tbar_operator(g, L, T)
            tli = theorems.tree_laplacian_identity(g, L, T)
            low = theorems.low_temp_demo(g, L, T, W)
            return L, R, h0, dims, P, det, T, tbar, tli, low

        seconds, out = _timed(run)
        if out is None:
            return OpResult(seconds, ["raised"], 0)
        L, R, h0, dims, P, det, T, tbar, tli, low = out
        n, m = len(g.vertices), len(edge_basis(g))
        checks = {
            "h0_trivial": h0.trivial and h0.routes_agree,
            "homology_dims": dims == (0, m - n),
            "oracle_projection": projection_passes(g, L, R, P.matrix),
            "determinant": _determinant_passes(g, L, R, det),
            "forest_record": T.weight > 0.0,
            "tbar_operator": _tbar_passes(g, L, T, tbar.matrix),
            "tree_laplacian_identity": tli.relative_error <= TOL,
            "low_temp_demo": _lowtemp_passes(low),
        }
        return OpResult(seconds, _failed(checks), 1)

    def probe(self) -> dict[str, list[OpResult]]:
        g = self.graph
        lowtemp, near = [], []
        for k in range(PROBE_LOWTEMP_OPS):
            angles, resist, edges = self._draw(_rng(self.seed, self.ident, PROBE_KEY + k))
            L = bundle.attach_phases(g, angles)
            T = forests.forest_record(g, L, ResistanceMap(resist), edges)
            seconds, low = _timed(lambda: theorems.low_temp_demo(g, L, T))
            ok = low is not None and _lowtemp_passes(low)
            lowtemp.append(OpResult(seconds, [] if ok else ["low_temp_demo"], 1))
        for k in range(2):
            angles, resist, edges = self._draw(_rng(self.seed, self.ident, PROBE_KEY + 1000 + k))
            i, j = (int(x) for x in edges[-1][1:].split("_"))
            angles[edges[-1]] -= _circuit_angle(angles, i, j) - PROBE_HOL_GAP
            L = bundle.attach_phases(g, angles)
            T = forests.forest_record(g, L, ResistanceMap(resist), edges)
            seconds, tli = _timed(lambda: theorems.tree_laplacian_identity(g, L, T))
            ok = tli is not None and tli.relative_error <= TOL
            near.append(OpResult(seconds, [] if ok else ["tree_laplacian_identity"], 1))
        return {"lowtemp-roundoff": lowtemp, "near-trivial-holonomy": near}


def _circuit_angle(angles: dict, i: int, j: int) -> float:
    """Phase angle around the circuit that edge u{i}_{j} closes in the comb
    tree: along row i, down u{i}_{j}, back along row i+1, up u{i}_0."""
    return (sum(angles[f"h{i}_{c}"] for c in range(j)) + angles[f"u{i}_{j}"]
            - sum(angles[f"h{i + 1}_{c}"] for c in range(j)) - angles[f"u{i}_0"])


def _lowtemp_passes(low) -> bool:
    """The `holotree lowtemp` pass rule."""
    return low.monotone and low.deviations[-1] < LOWTEMP_MAX_FINAL


def _determinant_passes(g, L, R, det) -> bool:
    """log det of the Hermitian positive definite Laplacian against Cholesky."""
    D = boundary_operator(g, L).matrix
    lap = (D / R.diagonal(edge_basis(g))[None, :]) @ D.conj().T
    ref = 2.0 * float(np.log(np.diag(np.linalg.cholesky(lap)).real).sum())
    return abs(det.phase) <= TOL and abs(det.log_abs - ref) <= TOL * max(1.0, abs(ref))


def _tbar_passes(g, L, T, M: np.ndarray) -> bool:
    """Columns of T_bar are cycles; tree columns vanish, others carry a unit
    coefficient at their own edge."""
    D = boundary_operator(g, L).matrix
    tree = {g.edge_index(b) for b in T.edges}
    scale = max(1.0, float(np.abs(D).max()) * float(np.abs(M).max()))
    if float(np.abs(D @ M).max()) > TOL * scale:
        return False
    for j in range(M.shape[1]):
        want = 0.0 if j in tree else 1.0
        if abs(M[j, j] - want) > TOL or (j in tree and np.abs(M[:, j]).max() > 0.0):
            return False
    return True


WORKLOADS = {cls.name: cls for cls in (CensusCold, PhaseSweep, DenseLarge)}
