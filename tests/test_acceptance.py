"""End-to-end checks of every forest-sum identity on the seeded random suite.

Each test prints one PASS/FAIL line with the measured worst case so a log
scan shows the whole scoreboard.  The random suite comes from conftest; the
closed-form examples at the bottom pin exact constants.
"""
import time
from itertools import combinations

import numpy as np

import holotree as ht
from conftest import TWO_PI, graph_7_14, make_suite


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


def test_determinant_equals_forest_sum(suite):
    t0 = time.time()
    worst = 0.0
    for t in suite:
        forests = ht.enumerate_forests(t.graph, t.bundle, t.resist)
        total = sum(T.weight for T in forests)
        D = ht.boundary_operator(t.graph, t.bundle)
        det = ht.determinant(ht.laplacian(D, t.resist)).value
        worst = max(worst, abs(det - total) / total)
    dt = time.time() - t0
    ok = worst <= 1e-9 and dt <= 30.0
    _verdict(ok, "determinant vs forest sum",
             f"worst rel err {worst:.3e} on {len(suite)} graphs in {dt:.1f}s")
    assert worst <= 1e-9
    assert dt <= 30.0


def test_unit_resistance_determinant_equals_rho_hat_sum(suite):
    worst = 0.0
    for t in suite:
        unit = ht.ResistanceMap.unit(t.graph)
        total = sum(T.rho_hat for T in t.forests)
        D = ht.boundary_operator(t.graph, t.bundle)
        det = ht.determinant(ht.laplacian(D, unit)).value
        worst = max(worst, abs(det - total) / total)
    ok = worst <= 1e-9
    _verdict(ok, "unit-resistance determinant vs rho-hat sum", f"worst rel err {worst:.3e}")
    assert ok


def test_projection_matches_oracle_and_properties(suite):
    worst = {"oracle": 0.0, "idempotent": 0.0, "self_adjoint": 0.0,
             "boundary": 0.0, "kernel_fix": 0.0}
    unequal = []
    for t in suite:
        g, L, R = t.graph, t.bundle, t.resist
        pr = ht.kirchhoff_projection(g, L, R)
        P = pr.projection.matrix
        m = P.shape[0]
        scale = max(1.0, m * float(np.linalg.svd(P, compute_uv=False)[0]))
        r = R.diagonal(ht.edge_basis(g))
        RP = r[:, None] * P
        D = ht.boundary_operator(g, L).matrix
        idem = np.abs(P @ P - P).max()
        selfadj = np.abs(RP - RP.conj().T).max()
        bdefect = np.abs(D @ P).max()
        kfix = max((np.abs(P @ z.coeffs - z.coeffs).max()
                    for z in ht.kernel_basis(ht.boundary_operator(g, L))), default=0.0)
        worst["oracle"] = max(worst["oracle"], pr.max_entry_discrepancy / scale)
        worst["idempotent"] = max(worst["idempotent"], idem / scale)
        worst["self_adjoint"] = max(worst["self_adjoint"], selfadj / scale)
        worst["boundary"] = max(worst["boundary"], bdefect / scale)
        worst["kernel_fix"] = max(worst["kernel_fix"], kfix / scale)
        # the report's own checks, which `holotree project` renders, are these values
        mine = (idem, selfadj / r.max(), bdefect, kfix, scale)
        theirs = (pr.idempotency_defect, pr.self_adjointness_defect, pr.boundary_defect,
                  pr.kernel_fix_defect, pr.scale)
        if mine != theirs:
            unequal.append(t.name)
    ok = all(v <= 1e-9 for v in worst.values()) and not unequal
    _verdict(ok, "forest projection vs oracle",
             ", ".join(f"{k} {v:.3e}" for k, v in worst.items()))
    assert ok, (worst, unequal)


def test_network_routes_agree_and_residual_orthogonal(suite):
    rng = np.random.default_rng(414243)
    worst_route = 0.0
    worst_orth = 0.0
    for t in suite:
        g = t.graph
        m = len(g.edges)
        coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        V = ht.ChainVector(1, ht.edge_basis(g), coeffs)
        sol = ht.solve_network(g, t.bundle, t.resist, V)
        vnorm = V.norm()
        worst_route = max(worst_route, sol.route_discrepancy / vnorm)
        worst_orth = max(worst_orth, sol.orthogonality_defect / vnorm)
    ok = worst_route <= 1e-10 and worst_orth <= 1e-9
    _verdict(ok, "network solution routes",
             f"route discrepancy {worst_route:.3e}, residual orthogonality {worst_orth:.3e}")
    assert ok, (worst_route, worst_orth)


def _cli_failures(g, L, R, V, gauge, tol=1e-9):
    """The commands whose report does not pass, of the four that read one
    bundle: `matrix-tree`, `project`, `solve` and `gauge-check`."""
    reports = {
        "matrix-tree": ht.matrix_tree_report(g, L, R),
        "project": ht.kirchhoff_projection(g, L, R),
        "solve": ht.solve_network(g, L, R, V),
        "gauge-check": ht.gauge_invariance_check(g, L, R, gauge),
    }
    return [cmd for cmd, rep in reports.items() if not rep.passed(tol)]


def test_reports_pass_on_random_bundles_of_one_graph():
    # one graph, a fresh bundle per seed: the census is cached and only the
    # per-bundle work varies
    g, _, _ = graph_7_14()
    ids = ht.edge_basis(g)
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        L = ht.attach_phases(g, dict(zip(ids, rng.uniform(0.0, TWO_PI, len(ids)).tolist())))
        logr = rng.uniform(np.log(0.1), np.log(10.0), len(ids))
        R = ht.ResistanceMap(dict(zip(ids, np.exp(logr).tolist())))
        V = ht.ChainVector(1, ids, rng.normal(size=len(ids)) + 1j * rng.normal(size=len(ids)))
        angles = rng.uniform(0.0, TWO_PI, len(g.vertices)).tolist()
        gauge = ht.Gauge.from_angles(dict(zip(g.vertices, angles)))
        failures += [(seed, cmd) for cmd in _cli_failures(g, L, R, V, gauge)]
    ok = not failures
    _verdict(ok, "CLI pass rules on 20 bundles of a (7, 14) graph",
             "all pass" if ok else ", ".join(f"seed {s} {cmd}" for s, cmd in failures))
    assert ok, failures


def test_tree_predicates_agree_exhaustively(suite):
    checked = 0
    disagreements = []
    for t in suite:
        g, L = t.graph, t.bundle
        if len(g.edges) > 10:
            continue
        ids = [e.id for e in g.edges]
        n = len(g.vertices)
        for sub in combinations(ids, n):
            a = ht.is_tree_combinatorial(g, L, sub)
            b = ht.is_tree_homological(g, L, sub)
            checked += 1
            if a != b:
                disagreements.append((t.name, sub, a, b))
    ok = not disagreements and checked > 0
    _verdict(ok, "tree predicate equivalence",
             f"{checked} edge subsets, {len(disagreements)} disagreements")
    assert ok, disagreements[:5]


def test_exchange_and_weighted_sum_symmetry(suite):
    worst_pair = 0.0
    worst_sum = 0.0
    triples = 0
    missing = 0
    for t in suite:
        g, L, R = t.graph, t.bundle, t.resist
        basis = ht.edge_basis(g)
        idx = {b: i for i, b in enumerate(basis)}
        m = len(basis)
        forests = t.forests
        by_edges = {T.edges: T for T in forests}
        mats = {T.edges: ht.tbar_operator(g, L, T).matrix for T in forests}
        smax = {E: float(np.linalg.svd(M, compute_uv=False)[0]) for E, M in mats.items()}
        for T in forests:
            M = mats[T.edges]
            tree = set(T.edges)
            for bi in basis:
                if bi in tree:
                    continue
                for bj in T.edges:
                    alpha = M[idx[bj], idx[bi]]
                    if abs(alpha) <= 1e-12:
                        continue
                    U_edges = tuple(sorted((tree - {bj}) | {bi}))
                    U = by_edges.get(U_edges)
                    if U is None:
                        missing += 1
                        continue
                    lhs = T.rho_hat * alpha
                    rhs = U.rho_hat * np.conj(mats[U_edges][idx[bi], idx[bj]])
                    scale = m * max(T.rho_hat * smax[T.edges], U.rho_hat * smax[U_edges])
                    worst_pair = max(worst_pair, abs(lhs - rhs) / scale)
                    triples += 1
        # weighted-sum symmetry: with A = sum_T w_T * tbar_T, the matrix R A
        # must be Hermitian (entrywise r_j A[j,i] = r_i conj(A[i,j])).
        A = np.zeros((m, m), dtype=complex)
        for T in forests:
            A += T.weight * mats[T.edges]
        RA = R.diagonal(basis)[:, None] * A
        scale = max(1.0, m * float(np.linalg.svd(RA, compute_uv=False)[0]))
        worst_sum = max(worst_sum, np.abs(RA - RA.conj().T).max() / scale)
    ok = worst_pair <= 1e-9 and worst_sum <= 1e-9 and missing == 0 and triples > 0
    _verdict(ok, "exchange symmetry",
             f"{triples} triples, pairwise {worst_pair:.3e}, weighted sum {worst_sum:.3e}")
    assert ok, (worst_pair, worst_sum, missing, triples)


def test_restricted_boundary_determinant_equals_rho_hat(suite):
    worst = 0.0
    count = 0
    for t in suite:
        for T in t.forests:
            chk = ht.tree_laplacian_identity(t.graph, t.bundle, T)
            worst = max(worst, chk.relative_error)
            count += 1
    ok = worst <= 1e-9
    _verdict(ok, "restricted determinant vs rho-hat",
             f"worst rel err {worst:.3e} over {count} forests")
    assert ok


def test_forest_components_match_graph_components(suite):
    mismatched = []
    count = 0
    for t in suite:
        for T in t.forests:
            comps = ht.components(t.graph.spanning_subcomplex(T.edges))
            expected = [(fc.vertices, fc.edges) for fc in T.components]
            if [(c.vertices, c.edges) for c in comps] != expected:
                mismatched.append((t.name, T.edges))
            count += 1
    _verdict(not mismatched, "forest components vs graph components",
             f"{len(mismatched)} of {count} forests differ")
    assert mismatched == []


def test_gauge_and_subdivision_invariance(suite):
    rng = np.random.default_rng(515253)
    worst_det = 0.0
    worst_hol = 0.0
    census_ok = True
    dims_ok = True
    for t in suite:
        g = t.graph
        for _ in range(20):
            angles = rng.uniform(0.0, TWO_PI, len(g.vertices))
            gauge = ht.Gauge.from_angles(
                {v: float(a) for v, a in zip(g.vertices, angles)})
            rep = ht.gauge_invariance_check(g, t.bundle, t.resist, gauge)
            worst_det = max(worst_det, rep.det_relative_error)
            worst_hol = max(worst_hol, rep.holonomy_defect)
            census_ok = census_ok and rep.census_equal
            dims_ok = dims_ok and rep.dims_equal
    gauge_ok = worst_det <= 1e-10 and census_ok and dims_ok

    subdivision_ok = True
    worst_subdiv = 0.0
    for t in suite:
        g, L, R = t.graph, t.bundle, t.resist
        before = ht.homology_dims(g, L)
        edge = g.edges[int(rng.integers(0, len(g.edges)))].id
        g2, record = ht.subdivide_edge(g, edge)
        L2 = ht.split_phase(L, record, float(rng.uniform(0.0, TWO_PI)))
        rmap = dict(R.items())
        rb = rmap.pop(edge)
        rmap[record.new_edges[0]] = rb
        rmap[record.new_edges[1]] = rb
        R2 = ht.ResistanceMap(rmap)
        after = ht.homology_dims(g2, L2)
        subdivision_ok = subdivision_ok and before == after
        rep = ht.matrix_tree_report(g2, L2, R2)
        subdivision_ok = subdivision_ok and rep.relative_error is not None
        if rep.relative_error is not None:
            worst_subdiv = max(worst_subdiv, rep.relative_error)
    subdivision_ok = subdivision_ok and worst_subdiv <= 1e-9

    ok = gauge_ok and subdivision_ok
    _verdict(ok, "gauge and subdivision invariance",
             f"gauge det {worst_det:.3e}, census {census_ok}, dims {dims_ok}, "
             f"subdivided det rel err {worst_subdiv:.3e}")
    assert gauge_ok, (worst_det, census_ok, dims_ok)
    assert subdivision_ok, worst_subdiv


def test_low_temperature_ratio_converges(two_loops, theta):
    betas = (1.0, 5.0, 10.0, 20.0, 40.0)
    results = []
    for t in (two_loops, theta):
        T = t.forests[0]
        rep = ht.low_temp_demo(t.graph, t.bundle, T, "auto", betas)
        results.append((t.name, rep))
    ok = all(rep.passed() for _, rep in results)
    _verdict(ok, "low-temperature ratio",
             ", ".join(f"{name} final dev {rep.deviations[-1]:.3e}" for name, rep in results))
    for name, rep in results:
        assert rep.passed(), (name, rep.monotone, rep.deviations)


def test_closed_form_micro_examples():
    failures = []

    # single loop: det = 2 - 2 cos(theta), one forest of the same weight
    for theta_val in (np.pi, 2.0, 0.7):
        g = ht.build_graph(["v"], [("b", "v", "v")])
        L = ht.attach_phases(g, {"b": theta_val})
        R = ht.ResistanceMap({"b": 1.0})
        det = ht.determinant(ht.laplacian(ht.boundary_operator(g, L), R)).value
        expected = 2.0 - 2.0 * np.cos(theta_val)
        forests = ht.enumerate_forests(g, L, R)
        if abs(det - expected) > 1e-12:
            failures.append(f"loop det {det} vs {expected}")
        if len(forests) != 1 or abs(forests[0].weight - expected) > 1e-12:
            failures.append("loop forest census")

    # two loops: det = sum over loops of |rho - 1|^2 / r
    g = ht.build_graph(["v"], [("b1", "v", "v"), ("b2", "v", "v")])
    L = ht.attach_phases(g, {"b1": np.pi / 2, "b2": np.pi})
    R = ht.ResistanceMap({"b1": 1.0, "b2": 2.0})
    det = ht.determinant(ht.laplacian(ht.boundary_operator(g, L), R)).value
    forests = ht.enumerate_forests(g, L, R)
    total = sum(T.weight for T in forests)
    if abs(det - 4.0) > 1e-12 or abs(total - 4.0) > 1e-12:
        failures.append(f"two-loop det {det} / sum {total} vs 4")

    # theta graph with cube-root phases: det = 9 from three forests of weight 3
    g = ht.build_graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")])
    L = ht.attach_phases(g, {"a": 0.0, "b": TWO_PI / 3, "c": 2.0 * TWO_PI / 3})
    R = ht.ResistanceMap.unit(g)
    det = ht.determinant(ht.laplacian(ht.boundary_operator(g, L), R)).value
    forests = ht.enumerate_forests(g, L, R)
    if abs(det - 9.0) > 1e-12:
        failures.append(f"theta det {det} vs 9")
    if len(forests) != 3 or any(abs(T.weight - 3.0) > 1e-12 for T in forests):
        failures.append("theta forest census")

    ok = not failures
    _verdict(ok, "closed-form micro-examples",
             "loop, two-loop, theta all exact" if ok else "; ".join(failures))
    assert ok, failures
