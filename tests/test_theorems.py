from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holotree import (
    AssumptionViolatedError,
    BasisMismatchError,
    ChainVector,
    ConditioningWarning,
    Gauge,
    InvalidWError,
    MatrixTreeReport,
    NoForestsError,
    ResistanceMap,
    UnknownEdgeError,
    attach_phases,
    auto_weight_exponents,
    boundary_operator,
    build_graph,
    edge_basis,
    enumerate_forests,
    forest_record,
    gauge_invariance_check,
    gauge_transform,
    h0_trivial,
    holonomy,
    is_tree_homological,
    kernel_basis,
    kirchhoff_projection,
    low_temp_demo,
    matrix_tree_report,
    modified_ip,
    oracle_projection,
    solve_network,
    standard_ip,
    tbar_operator,
    tree_laplacian_identity,
    unit_chain,
    vertex_basis,
)

from holotree import bundle as bundle_mod
from holotree import chains as chains_mod
from holotree import forests as forests_mod
from holotree import graphs as graphs_mod
from holotree import theorems as theorems_mod

from conftest import TWO_PI, random_triple

P_TWO_LOOPS = np.array(
    [[0.5, -0.5 - 0.5j],
     [-0.25 + 0.25j, 0.5]]
)


def test_oracle_projection_two_loops(two_loops):
    P = oracle_projection(two_loops.graph, two_loops.bundle, two_loops.resist)
    assert np.allclose(P.matrix, P_TWO_LOOPS, atol=1e-12)


def test_oracle_projection_zero_when_kernel_trivial(loop_pi):
    P = oracle_projection(loop_pi.graph, loop_pi.bundle, loop_pi.resist)
    assert P.matrix.shape == (1, 1)
    assert np.abs(P.matrix).max() == 0.0


def test_oracle_projection_fixes_cycles(theta):
    P = oracle_projection(theta.graph, theta.bundle, theta.resist)
    for z in kernel_basis(boundary_operator(theta.graph, theta.bundle)):
        assert np.linalg.norm(P.matrix @ z.coeffs - z.coeffs) <= 1e-12


def test_kirchhoff_projection_two_loops(two_loops):
    rep = kirchhoff_projection(two_loops.graph, two_loops.bundle, two_loops.resist)
    assert rep.delta == pytest.approx(4.0)
    assert rep.forest_count == 2
    assert np.allclose(rep.projection.matrix, P_TWO_LOOPS, atol=1e-12)
    assert rep.max_entry_discrepancy <= 1e-12


def test_kirchhoff_projection_needs_forests():
    g = build_graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")])
    L = attach_phases(g, {"a": 0.0, "b": 1e-12, "c": 2e-12})
    with pytest.warns(ConditioningWarning):
        with pytest.raises(NoForestsError):
            kirchhoff_projection(g, L, ResistanceMap.unit(g))


def test_solve_network_two_loops(two_loops):
    g = two_loops.graph
    V = unit_chain(1, edge_basis(g), "b1")
    sol = solve_network(g, two_loops.bundle, two_loops.resist, V)
    assert np.allclose(sol.current.coeffs, [0.5, -0.25 + 0.25j], atol=1e-12)
    assert np.allclose(sol.formula_currents, sol.current.coeffs, atol=1e-12)
    assert sol.route_discrepancy <= 1e-10
    assert sol.orthogonality_defect <= 1e-10 * V.norm()
    assert np.allclose(sol.residual.coeffs, V.coeffs - two_loops.resist.diagonal(edge_basis(g)) * sol.current.coeffs)


def test_formula_currents_match_the_per_forest_formula(suite):
    # <z, b> = (1/delta) sum_T (w_T / r_b) <V, T_bar_T(b)>, forest by forest
    rng = np.random.default_rng(37)
    for t in suite:
        g, L = t.graph, t.bundle
        m = len(g.edges)
        V = ChainVector(1, edge_basis(g), rng.normal(size=m) + 1j * rng.normal(size=m))
        sol = solve_network(g, L, t.resist, V)
        r = t.resist.diagonal(edge_basis(g))
        delta = sum(T.weight for T in t.forests)
        ref = sum(T.weight / r * (tbar_operator(g, L, T).matrix.conj().T @ V.coeffs)
                  for T in t.forests) / delta
        err = np.abs(sol.formula_currents - ref).max()
        assert err <= 1e-12 * max(1.0, np.abs(ref).max()), t


def test_solve_network_with_trivial_kernel_returns_zero(loop_pi):
    g = loop_pi.graph
    V = unit_chain(1, edge_basis(g), "b")
    sol = solve_network(g, loop_pi.bundle, loop_pi.resist, V)
    assert sol.current.norm() == 0.0
    assert np.allclose(sol.residual.coeffs, V.coeffs)


def test_solve_network_uniqueness_on_cycle_input(theta):
    g = theta.graph
    z0 = kernel_basis(boundary_operator(g, theta.bundle))[0]
    r = theta.resist.diagonal(edge_basis(g))
    V = ChainVector(1, edge_basis(g), r * z0.coeffs)
    sol = solve_network(g, theta.bundle, theta.resist, V)
    assert np.allclose(sol.current.coeffs, z0.coeffs, atol=1e-12)
    assert sol.residual.norm() <= 1e-12


def test_solve_network_rejects_wrong_basis(theta):
    V = unit_chain(0, vertex_basis(theta.graph), "u")
    with pytest.raises(BasisMismatchError):
        solve_network(theta.graph, theta.bundle, theta.resist, V)


def test_solve_network_requires_vanishing_h0():
    g = build_graph(["v"], [("b", "v", "v")])
    L = attach_phases(g, {"b": 0.0})
    V = unit_chain(1, ("b",), "b")
    with pytest.raises(AssumptionViolatedError):
        solve_network(g, L, ResistanceMap({"b": 1.0}), V)


def test_residual_orthogonality_defect_grows_linearly(theta):
    g = theta.graph
    rng = np.random.default_rng(55)
    V = ChainVector(1, edge_basis(g), rng.standard_normal(3) + 1j * rng.standard_normal(3))
    sol = solve_network(g, theta.bundle, theta.resist, V)
    k = kernel_basis(boundary_operator(g, theta.bundle))[0]
    r = theta.resist.diagonal(edge_basis(g))
    kk = modified_ip(k, k, theta.resist).real
    for t in (1e-3, 1e-2, 1e-1):
        z = sol.current.coeffs + t * k.coeffs
        resid = ChainVector(1, edge_basis(g), V.coeffs - r * z)
        defect = abs(standard_ip(resid, k))
        assert defect == pytest.approx(t * kk, rel=1e-6)


def test_matrix_tree_two_loops(two_loops):
    rep = matrix_tree_report(two_loops.graph, two_loops.bundle, two_loops.resist)
    assert rep.det_laplacian == pytest.approx(4.0)
    assert rep.sum_weights == pytest.approx(4.0)
    assert rep.relative_error <= 1e-12
    assert not rep.degenerate
    assert rep.forest_count == 2


def test_matrix_tree_degenerate_is_reported_not_raised():
    g = build_graph(["v"], [("b", "v", "v")])
    rep = matrix_tree_report(g, attach_phases(g, {"b": 0.0}), ResistanceMap({"b": 1.0}))
    assert rep.degenerate
    assert rep.forest_count == 0
    assert rep.relative_error is None
    assert abs(rep.det_laplacian) <= 1e-12


def test_matrix_tree_near_trivial_band_warns():
    g = build_graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")])
    L = attach_phases(g, {"a": 0.0, "b": 1e-12, "c": 2e-12})
    with pytest.warns(ConditioningWarning):
        rep = matrix_tree_report(g, L, ResistanceMap.unit(g))
    assert rep.degenerate
    assert abs(rep.det_laplacian) <= 1e-9


def test_tree_laplacian_identity_examples(loop_pi, theta):
    T = loop_pi.forests[0]
    chk = tree_laplacian_identity(loop_pi.graph, loop_pi.bundle, T)
    assert chk.det_value == pytest.approx(4.0)
    assert chk.rho_hat == pytest.approx(4.0)
    assert chk.relative_error <= 1e-12
    chk2 = tree_laplacian_identity(theta.graph, theta.bundle, theta.forests[0])
    assert chk2.det_value == pytest.approx(3.0)
    assert chk2.relative_error <= 1e-12


def test_tree_laplacian_identity_multi_component():
    g = build_graph(
        ["x", "y"],
        [("t", "x", "y"), ("p", "x", "x"), ("q", "y", "y")],
    )
    L = attach_phases(g, {"t": 0.3, "p": np.pi / 2, "q": np.pi})
    R = ResistanceMap.unit(g)
    T = forest_record(g, L, R, ("p", "q"))
    chk = tree_laplacian_identity(g, L, T)
    assert chk.rho_hat == pytest.approx(8.0)  # |i-1|^2 * |-2|^2
    assert chk.det_value == pytest.approx(8.0)


@pytest.fixture(scope="module")
def grid16():
    k = 16
    vs = [f"v{i}_{j}" for i in range(k) for j in range(k)]
    es = [(f"h{i}_{j}", f"v{i}_{j}", f"v{i}_{j + 1}") for i in range(k) for j in range(k - 1)]
    es += [(f"u{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j}") for i in range(k - 1) for j in range(k)]
    return build_graph(vs, es)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    i=st.integers(0, 14),
    j=st.integers(1, 15),
    log_gap=st.floats(-5.0, -2.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_tree_laplacian_identity_near_trivial_holonomy(grid16, seed, i, j, log_gap, sign):
    # the comb spanning tree (every row plus the first column) closed by edge
    # u{i}_{j}: one circuit, its holonomy placed 10**log_gap from 1
    g, R, b = grid16, ResistanceMap.unit(grid16), f"u{i}_{j}"
    edges = [e.id for e in g.edges if e.id.startswith("h")] + [f"u{r}_0" for r in range(15)] + [b]
    angles = dict(zip(edge_basis(g), np.random.default_rng(seed).uniform(0.0, TWO_PI, len(g.edges))))
    (comp,) = forest_record(g, attach_phases(g, angles), R, edges).components
    gap = 10.0**log_gap
    target = sign * 2.0 * np.arcsin(gap / 2.0)  # |exp(i target) - 1| = gap
    angles[b] += dict(comp.circuit.edges)[b] * (target - np.angle(comp.holonomy))
    L = attach_phases(g, angles)
    T = forest_record(g, L, R, edges)
    assert abs(abs(T.components[0].holonomy - 1.0) - gap) <= 1e-6 * gap
    assert tree_laplacian_identity(g, L, T).relative_error <= 1e-9


def test_restricted_laplacian_prefactor():
    # det of the resistance-weighted restricted Laplacian must equal
    # w_T * det(restricted unit Laplacian) / rho_hat
    rng = np.random.default_rng(56)
    t = random_triple(rng)
    g = t.graph
    D = boundary_operator(g, t.bundle).matrix
    r = t.resist.diagonal(edge_basis(g))
    for T in t.forests[:20]:
        idx = [g.edge_index(b) for b in T.edges]
        A = D[:, idx]
        lhs = np.linalg.det((A / r[idx][None, :]) @ A.conj().T).real
        unit_det = np.linalg.det(A @ A.conj().T).real
        rhs = T.weight * unit_det / T.rho_hat
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_auto_weight_exponents(two_loops, theta):
    W = auto_weight_exponents(two_loops.graph, two_loops.forests[0])
    assert W == {"b1": 1.0, "b2": 4.0}
    W2 = auto_weight_exponents(theta.graph, theta.forests[0])
    assert W2 == {"a": 1.0, "b": 1.0, "c": 5.0}


def test_low_temp_two_loops_closed_form(two_loops):
    T = two_loops.forests[0]
    rep = low_temp_demo(two_loops.graph, two_loops.bundle, T, "auto", (1.0, 5.0, 40.0))
    # ratio(beta) = 1 / (1 + 2 exp(-3 beta)) for W = (1, 4)
    for beta, ratio in zip(rep.betas, rep.ratios):
        assert ratio == pytest.approx(1.0 / (1.0 + 2.0 * np.exp(-3.0 * beta)), rel=1e-12)
    assert rep.monotone
    assert rep.deviations[-1] < 1e-3
    assert rep.weight_exponents == (("b1", 1.0), ("b2", 4.0))


def test_low_temp_theta_closed_form(theta):
    T = theta.forests[0]
    rep = low_temp_demo(theta.graph, theta.bundle, T, "auto", (1.0, 5.0, 10.0, 20.0, 40.0))
    for beta, ratio in zip(rep.betas, rep.ratios):
        assert ratio == pytest.approx(1.0 / (1.0 + 2.0 * np.exp(-4.0 * beta)), rel=1e-12)
    assert rep.monotone


def test_low_temp_whole_graph_forest_gives_ratio_one(loop_pi):
    rep = low_temp_demo(loop_pi.graph, loop_pi.bundle, loop_pi.forests[0])
    assert rep.ratios == (1.0,) * 5
    assert rep.deviations == (0.0,) * 5
    assert rep.monotone


def test_low_temp_rejects_bad_exponents(two_loops, theta):
    with pytest.raises(InvalidWError, match="missing"):
        low_temp_demo(two_loops.graph, two_loops.bundle, two_loops.forests[0], {"b1": 1.0})
    # bound for T = (a, b) with W_a=5, W_b=1 is 6 - (2 - 1)*1 = 5, so W_c = 2 fails
    with pytest.raises(InvalidWError, match="exceed 5.0"):
        low_temp_demo(theta.graph, theta.bundle, theta.forests[0],
                      {"a": 5.0, "b": 1.0, "c": 2.0})


@pytest.mark.parametrize("case, W", [("theta", {"a": 1.0, "b": 1.0, "c": 0.5}),
                                     ("two_loops", {"b1": 1.0, "b2": 0.5})],
                         ids=["theta", "two-loops"])
def test_low_temp_rejects_exponents_another_forest_undercuts(request, case, W):
    # {a, c} totals 1.5 < 2 on theta and b2 totals 0.5 < 1 on two loops; both
    # pass a bound of tree total minus edge count times tree minimum
    t = request.getfixturevalue(case)
    with pytest.raises(InvalidWError, match="exceed 1.0"):
        low_temp_demo(t.graph, t.bundle, t.forests[0], W)


@pytest.mark.parametrize("w_c", [float("inf"), float("-inf"), float("nan")])
def test_low_temp_rejects_nonfinite_exponents(theta, w_c):
    # W_c = inf would stand for a resistance exp(beta * inf) that ResistanceMap refuses
    with pytest.raises(InvalidWError, match="not finite"):
        low_temp_demo(theta.graph, theta.bundle, theta.forests[0], {"a": 1.0, "b": 1.0, "c": w_c})


def test_low_temp_rejects_unknown_edges(theta):
    T = theta.forests[0]
    with pytest.raises(UnknownEdgeError, match="'zz'"):
        low_temp_demo(theta.graph, theta.bundle, T, {"a": 1.0, "b": 1.0, "c": 9.0, "zz": 3.0})


@pytest.mark.parametrize("betas", [(), [], (1.0, float("nan")), (1.0, float("inf"))])
def test_low_temp_rejects_empty_or_nonfinite_betas(theta, betas):
    with pytest.raises(ValueError, match="beta_list"):
        low_temp_demo(theta.graph, theta.bundle, theta.forests[0], "auto", betas)


def test_low_temp_survives_extreme_beta(two_loops):
    rep = low_temp_demo(two_loops.graph, two_loops.bundle, two_loops.forests[0],
                        "auto", (200.0, 400.0))
    assert rep.ratios[-1] == pytest.approx(1.0)
    assert np.isfinite(rep.tree_log_dets[-1])


def test_gauge_check_identity_gauge_is_exact(theta):
    gauge = Gauge.from_angles({v: 0.0 for v in theta.graph.vertices})
    rep = gauge_invariance_check(theta.graph, theta.bundle, theta.resist, gauge)
    assert rep.det_relative_error == 0.0
    assert rep.holonomy_defect == 0.0
    assert rep.census_equal and rep.dims_equal
    assert rep.forest_count == 3


def test_gauge_check_random_gauges(theta):
    rng = np.random.default_rng(57)
    for _ in range(5):
        gauge = Gauge.from_angles(
            {v: float(a) for v, a in zip(theta.graph.vertices, rng.uniform(0, 2 * np.pi, 2))})
        rep = gauge_invariance_check(theta.graph, theta.bundle, theta.resist, gauge)
        assert rep.det_relative_error <= 1e-10
        assert rep.holonomy_defect <= 1e-10
        assert rep.census_equal and rep.dims_equal


def test_matrix_tree_table_matches_the_records(suite):
    for t in suite:
        rep = matrix_tree_report(t.graph, t.bundle, t.resist)
        assert rep.forest_count == len(t.forests), t
        total = 0.0
        for T in t.forests:
            total += T.weight
        assert rep.sum_weights == total, t


def test_gauge_defect_matches_the_record_maximum(suite):
    rng = np.random.default_rng(58)
    for t in suite[:30]:
        g, L, R = t.graph, t.bundle, t.resist
        gauge = Gauge.from_angles(
            {v: float(a) for v, a in zip(g.vertices, rng.uniform(0, 2 * np.pi, len(g.vertices)))})
        rep = gauge_invariance_check(g, L, R, gauge)
        f2 = enumerate_forests(g, gauge_transform(L, gauge), R)
        assert rep.census_equal and [T.edges for T in f2] == [T.edges for T in t.forests]
        ref = 0.0
        for T1, T2 in zip(t.forests, f2):
            for c1, c2 in zip(T1.components, T2.components):
                ref = max(ref, abs(c1.holonomy - c2.holonomy))
            ref = max(ref, abs(T1.weight - T2.weight) / T1.weight)
        assert rep.holonomy_defect == ref, t
        assert rep.forest_count == len(t.forests)


def test_identities_build_no_forest_records(suite, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a forest record was built")

    monkeypatch.setattr(forests_mod, "_records", fail)
    monkeypatch.setattr(forests_mod, "enumerate_forests", fail)
    t = suite[0]
    g, L, R = t.graph, t.bundle, t.resist
    gauge = Gauge.from_angles({v: 1.0 for v in g.vertices})
    V = ChainVector(1, edge_basis(g), np.ones(len(g.edges), dtype=complex))
    assert matrix_tree_report(g, L, R).forest_count > 0
    assert kirchhoff_projection(g, L, R).max_entry_discrepancy <= 1e-9
    assert solve_network(g, L, R, V).route_discrepancy <= 1e-9
    assert gauge_invariance_check(g, L, R, gauge).census_equal


def test_matrix_tree_report_checks_h0_once(suite, monkeypatch):
    calls = []
    original = bundle_mod._h0_check

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    t = suite[0]
    forests = t.forests  # the suite's lazy census runs its own h0 check
    for mod in (bundle_mod, forests_mod, theorems_mod):
        if hasattr(mod, "_h0_check"):
            monkeypatch.setattr(mod, "_h0_check", counting)
    g, L, R = t.graph, t.bundle, t.resist
    assert matrix_tree_report(g, L, R).forest_count == len(forests)
    assert len(calls) == 1
    # the four reports of one bundle check h0 once per filter: five times
    calls.clear()
    V = ChainVector(1, edge_basis(g), np.ones(len(g.edges), dtype=complex))
    matrix_tree_report(g, L, R)
    kirchhoff_projection(g, L, R)
    solve_network(g, L, R, V)
    gauge_invariance_check(g, L, R, Gauge.from_angles({v: 1.0 for v in g.vertices}))
    assert len(calls) == 5
    # degenerate inputs are still reported, not rejected
    calls.clear()
    loop = build_graph(["v"], [("b", "v", "v")])
    rep = matrix_tree_report(loop, attach_phases(loop, {"b": 0.0}), ResistanceMap.unit(loop))
    assert len(calls) == 1
    assert rep == MatrixTreeReport(0.0, -np.inf, 0.0, None, 0, True)
    calls.clear()
    theta = build_graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")])
    L0 = attach_phases(theta, {"a": 0.5, "b": 0.5, "c": 0.5})
    rep = matrix_tree_report(theta, L0, ResistanceMap({"a": 1.0, "b": 2.0, "c": 4.0}))
    assert len(calls) == 1
    assert abs(rep.det_laplacian) <= 1e-12
    assert (rep.sum_weights, rep.relative_error, rep.forest_count, rep.degenerate) == (
        0.0, None, 0, True)


def test_each_report_builds_one_boundary_and_kernel_per_bundle(suite, monkeypatch):
    # a report builds one boundary per bundle; the h0 check ranks that matrix,
    # and the report takes one kernel basis if it needs one and no
    # homology_dims: the determinant, the T_bar sum, the oracle, the kernel-fix
    # and orthogonality checks and dims_equal all read those
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    mods = (bundle_mod, chains_mod, forests_mod, graphs_mod, theorems_mod)
    for home, name in ((bundle_mod, "h0_trivial"), (bundle_mod, "_h0_check"),
                       (chains_mod, "boundary_operator"), (chains_mod, "kernel_basis"),
                       (chains_mod, "homology_dims"), (graphs_mod, "_component_cells")):
        original = getattr(home, name)
        for mod in mods:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting(name, original))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    t = suite[0]
    g, L, R = t.graph, t.bundle, t.resist
    T = t.forests[0]
    V = ChainVector(1, edge_basis(g), np.ones(len(g.edges), dtype=complex))
    gauge = Gauge.from_angles({v: 1.0 for v in g.vertices})
    keys = ("h0_trivial", "_h0_check", "boundary_operator", "kernel_basis", "homology_dims", "svd")
    runs = {  # the expected count of each of `keys`
        "matrix_tree_report": (lambda: matrix_tree_report(g, L, R), (0, 1, 1, 0, 0, 1)),
        "kirchhoff_projection": (lambda: kirchhoff_projection(g, L, R), (0, 1, 1, 1, 0, 3)),
        "solve_network": (lambda: solve_network(g, L, R, V), (0, 1, 1, 1, 0, 2)),
        "gauge_invariance_check": (lambda: gauge_invariance_check(g, L, R, gauge), (0, 2, 2, 0, 0, 2)),
        "enumerate_forests": (lambda: enumerate_forests(g, L, R), (0, 1, 1, 0, 0, 1)),
        "is_tree_homological": (lambda: is_tree_homological(g, L, T.edges), (0, 1, 1, 0, 0, 2)),
        "tree_laplacian_identity": (lambda: tree_laplacian_identity(g, L, T), (0, 0, 1, 0, 0, 0)),
        # the public check builds its own boundary, and its tree walk finds connectivity
        "h0_trivial": (lambda: bundle_mod.h0_trivial(g, L), (1, 1, 1, 0, 0, 1)),
    }
    for name, (run, expected) in runs.items():
        calls.clear()
        run()
        assert tuple(calls[k] for k in keys) == expected, name
    assert calls["_component_cells"] == 0 and not hasattr(bundle_mod, "_component_cells")


@st.composite
def _gauged_multigraphs(draw):
    """A connected multigraph on 1-5 vertices (a random spanning tree plus 1-5
    edges that may be loops or parallels), phases, resistances and a gauge."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    ends = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    ends += draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=5))
    vs = [f"v{i}" for i in range(n)]
    g = build_graph(vs, [(f"e{k}", vs[t], vs[h]) for k, (t, h) in enumerate(ends)])

    def per(cells, values):
        return dict(zip(cells, draw(st.lists(values, min_size=len(cells), max_size=len(cells)))))

    angle = st.floats(0.0, TWO_PI)
    ids = edge_basis(g)
    L = attach_phases(g, per(ids, angle))
    return g, L, ResistanceMap(per(ids, st.floats(0.1, 10.0))), Gauge.from_angles(per(vs, angle))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_gauged_multigraphs())
def test_gauge_invariance_on_random_multigraphs(case):
    g, L, R, gauge = case
    assume(h0_trivial(g, L).trivial)
    # holonomy near 1 turns the gauge's roundoff into a large relative weight
    # change (ROADMAP 3(f)); that band is left out here
    assume(all(abs(holonomy(L, c) - 1.0) > 1e-3 for c in forests_mod._census(g).circuits))
    rep = gauge_invariance_check(g, L, R, gauge)
    assert rep.census_equal and rep.dims_equal
    assert rep.passed(1e-9), rep
