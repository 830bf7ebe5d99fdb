import cmath

import numpy as np
import pytest

from holotree import (
    DisconnectedError,
    ForeignCircuitError,
    Gauge,
    MissingGaugeValueError,
    MissingPhaseError,
    NotEulerZeroError,
    StaleCorrespondenceError,
    UnknownEdgeError,
    attach_phases,
    boundary_operator,
    build_graph,
    circuit_of_unicyclic,
    gauge_transform,
    h0_trivial,
    holonomy,
    homology_dims,
    rho_hat,
    spanning_subcomplex,
    split_phase,
    subdivide_edge,
)
from holotree.graphs import OrientedCircuit

TWO_PI = 2.0 * np.pi


def test_attach_phases_validation():
    g = build_graph(["v"], [("b", "v", "v")])
    with pytest.raises(MissingPhaseError):
        attach_phases(g, {})
    with pytest.raises(MissingPhaseError):
        attach_phases(g, {"b": float("nan")})
    with pytest.raises(UnknownEdgeError):
        attach_phases(g, {"b": 0.0, "zz": 1.0})


def test_phase_lookup_and_values_order():
    g = build_graph(["u", "v"], [("a", "u", "v"), ("b", "v", "u")])
    L = attach_phases(g, {"a": 0.5, "b": 1.25})
    assert L.angle("a") == 0.5
    assert abs(L.phase("b") - cmath.exp(1.25j)) < 1e-15
    assert np.allclose(L.values, [cmath.exp(0.5j), cmath.exp(1.25j)])


def test_holonomy_inverts_against_the_walk(theta):
    c = circuit_of_unicyclic(spanning_subcomplex(theta.graph, ("a", "b")))
    assert c.edges == (("a", 1), ("b", -1))
    h = holonomy(theta.bundle, c)
    assert abs(h - cmath.exp(-2j * np.pi / 3)) < 1e-15
    # reversing the walk conjugates the holonomy
    assert abs(holonomy(theta.bundle, c.reversed()) - h.conjugate()) < 1e-15


def test_holonomy_rejects_foreign_circuits(theta):
    stray = OrientedCircuit((("zz", 1),))
    with pytest.raises(ForeignCircuitError):
        holonomy(theta.bundle, stray)


def test_rho_hat_values(loop_pi, theta):
    g = loop_pi.graph
    assert rho_hat(loop_pi.bundle, g.spanning_subcomplex(("b",))) == pytest.approx(4.0)
    sub = theta.graph.spanning_subcomplex(("a", "b"))
    assert rho_hat(theta.bundle, sub) == pytest.approx(3.0)


def test_rho_hat_multiplies_over_components():
    g = build_graph(
        ["x", "y"],
        [("lx", "x", "x"), ("ly", "y", "y"), ("t", "x", "y")],
    )
    L = attach_phases(g, {"lx": np.pi / 2, "ly": np.pi, "t": 0.3})
    sub = g.spanning_subcomplex(("lx", "ly"))
    assert rho_hat(L, sub) == pytest.approx(2.0 * 4.0)


def test_rho_hat_requires_unicyclic_components(theta):
    sub = theta.graph.spanning_subcomplex(("a",))  # chi = 1 component
    with pytest.raises(NotEulerZeroError):
        rho_hat(theta.bundle, sub)


def test_rho_hat_rejects_other_graphs(theta, loop_pi):
    sub = loop_pi.graph.spanning_subcomplex(("b",))
    with pytest.raises(ForeignCircuitError):
        rho_hat(theta.bundle, sub)


def test_gauge_validation():
    with pytest.raises(ValueError):
        Gauge({"v": 2.0})
    gauge = Gauge.from_angles({"v": 0.7})
    assert "v" in gauge and "w" not in gauge
    assert abs(gauge.value("v") - cmath.exp(0.7j)) < 1e-15
    with pytest.raises(MissingGaugeValueError):
        gauge.value("w")


@pytest.mark.parametrize(
    "make",
    [lambda: Gauge({"v": float("nan")}), lambda: Gauge({"v": complex(float("inf"), 0.0)}),
     lambda: Gauge.from_angles({"v": float("inf")}), lambda: Gauge.from_angles({"v": float("nan")})],
    ids=["nan", "inf", "angle-inf", "angle-nan"],
)
def test_gauge_rejects_nonfinite_values(make):
    with pytest.raises(ValueError, match="unit modulus"):
        make()


def test_gauge_transform_missing_vertex(theta):
    with pytest.raises(MissingGaugeValueError):
        gauge_transform(theta.bundle, Gauge.from_angles({"u": 0.1}))


def test_identity_gauge_is_a_no_op(theta):
    gauge = Gauge.from_angles({v: 0.0 for v in theta.graph.vertices})
    L2 = gauge_transform(theta.bundle, gauge)
    for e in theta.graph.edges:
        assert L2.angle(e.id) == theta.bundle.angle(e.id)


def test_gauge_transform_fixes_loops_and_holonomies():
    g = build_graph(
        ["x", "y"],
        [("l", "x", "x"), ("a", "x", "y"), ("b", "y", "x")],
    )
    L = attach_phases(g, {"l": 2.0, "a": 0.4, "b": 5.1})
    rng = np.random.default_rng(11)
    circuit = circuit_of_unicyclic(g.spanning_subcomplex(("a", "b")))
    for _ in range(5):
        gauge = Gauge.from_angles({v: float(t) for v, t in
                                   zip(g.vertices, rng.uniform(0, TWO_PI, 2))})
        L2 = gauge_transform(L, gauge)
        assert L2.angle("l") == L.angle("l")  # loops exactly invariant
        assert abs(holonomy(L2, circuit) - holonomy(L, circuit)) < 1e-12


def test_h0_trivial_loop_cases():
    g = build_graph(["v"], [("b", "v", "v")])
    on = h0_trivial(g, attach_phases(g, {"b": np.pi}))
    off = h0_trivial(g, attach_phases(g, {"b": 0.0}))
    assert on.trivial and on.rank == 1 and on.routes_agree
    assert bool(on) is True
    assert not off.trivial and off.rank == 0 and off.routes_agree
    assert bool(off) is False


def test_h0_trivial_theta(theta):
    rep = h0_trivial(theta.graph, theta.bundle)
    assert rep.trivial and rep.rank == 2 and rep.vertex_count == 2
    assert rep.holonomy_route and rep.routes_agree
    assert rep.max_cycle_defect > 1.0
    # an explicit tol is the rank cut: between the singular values, then above both
    sv = np.linalg.svd(boundary_operator(theta.graph, theta.bundle).matrix, compute_uv=False)
    mid = h0_trivial(theta.graph, theta.bundle, tol=float(sv.mean()))
    assert mid.rank == 1 and not mid.trivial
    top = h0_trivial(theta.graph, theta.bundle, tol=1.01 * float(sv[0]))
    assert top.rank == 0 and not top.trivial


def test_h0_requires_connected():
    g = build_graph(["x", "y"], [("lx", "x", "x"), ("ly", "y", "y")])
    L = attach_phases(g, {"lx": np.pi, "ly": np.pi})
    with pytest.raises(DisconnectedError):
        h0_trivial(g, L)


def test_h0_requires_a_vertex():
    g = build_graph([], [])
    with pytest.raises(DisconnectedError):
        h0_trivial(g, attach_phases(g, {}))


def test_h0_routes_disagree_in_the_near_trivial_band():
    # Holonomies around 1e-12 keep the rank full (ground truth: H_0 = 0) but
    # sit below the default holonomy threshold, so the cross-check dissents.
    g = build_graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")])
    L = attach_phases(g, {"a": 0.0, "b": 1e-12, "c": 2e-12})
    rep = h0_trivial(g, L)
    assert rep.trivial
    assert not rep.holonomy_route
    assert not rep.routes_agree


def test_split_phase_preserves_holonomy_and_homology(loop_pi):
    g, L = loop_pi.graph, loop_pi.bundle
    g2, rec = subdivide_edge(g, "b")
    L2 = split_phase(L, rec, 0.7)
    assert L2.angle("b__0") == 0.7
    assert L2.angle("b__1") == pytest.approx((np.pi - 0.7) % TWO_PI)
    c2 = circuit_of_unicyclic(g2.full_subcomplex())
    assert abs(holonomy(L2, c2) - (-1.0)) < 1e-15
    assert homology_dims(g2, L2) == homology_dims(g, L)


def test_split_phase_rejects_stale_records(loop_pi):
    other = build_graph(["v"], [("b", "v", "v")])
    _, rec = subdivide_edge(other, "b")
    with pytest.raises(StaleCorrespondenceError):
        split_phase(loop_pi.bundle, rec, 0.1)
