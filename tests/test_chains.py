import cmath

import numpy as np
import pytest

from holotree import (
    BasisMismatchError,
    ChainVector,
    LinearOperator,
    NonSquareError,
    ResistanceMap,
    adjoint_R,
    attach_phases,
    boundary_operator,
    build_graph,
    determinant,
    edge_basis,
    h0_trivial,
    homology_dims,
    kernel_basis,
    laplacian,
    modified_ip,
    numerical_rank,
    standard_ip,
    unit_chain,
    vertex_basis,
    zero_chain,
)
from holotree.graphs import Subcomplex

from conftest import random_triple


def test_chain_vector_basics():
    v = ChainVector.from_dict(1, ("a", "b"), {"b": 1j})
    assert v.coeff("a") == 0
    assert v.coeff("b") == 1j
    assert v.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        v.coeff("zz")
    with pytest.raises(ValueError):
        ChainVector.from_dict(1, ("a",), {"zz": 1.0})
    with pytest.raises(ValueError):
        ChainVector(1, ("a", "b"), np.zeros(3))


def test_basis_helpers(theta):
    g = theta.graph
    assert edge_basis(g) == ("a", "b", "c")
    assert vertex_basis(g) == ("u", "v")
    assert zero_chain(1, edge_basis(g)).norm() == 0.0
    u = unit_chain(0, vertex_basis(g), "v")
    assert u.coeff("v") == 1.0 and u.coeff("u") == 0.0


def test_resistance_map_validation():
    with pytest.raises(ValueError):
        ResistanceMap({"a": 0.0})
    with pytest.raises(ValueError):
        ResistanceMap({"a": -2.0})
    with pytest.raises(ValueError):
        ResistanceMap({"a": float("inf")})
    R = ResistanceMap({"a": 1.5})
    assert R.r("a") == 1.5
    assert "a" in R and "b" not in R
    with pytest.raises(ValueError):
        R.r("b")


def test_boundary_matrix_loop():
    g = build_graph(["v"], [("b", "v", "v")])
    D = boundary_operator(g, attach_phases(g, {"b": np.pi}))
    assert np.allclose(D.matrix, [[-2.0]])
    D0 = boundary_operator(g, attach_phases(g, {"b": 0.0}))
    assert np.allclose(D0.matrix, [[0.0]])


def test_boundary_matrix_two_loops(two_loops):
    D = boundary_operator(two_loops.graph, two_loops.bundle)
    assert np.allclose(D.matrix, [[1j - 1.0, -2.0]])


def test_boundary_matrix_theta(theta):
    D = boundary_operator(theta.graph, theta.bundle)
    rb = cmath.exp(2j * np.pi / 3)
    rc = cmath.exp(4j * np.pi / 3)
    assert np.allclose(D.matrix, [[1.0, rb, rc], [-1.0, -1.0, -1.0]])
    assert D.domain == ("a", "b", "c")
    assert D.codomain == ("u", "v")


def test_boundary_restriction(theta):
    g = theta.graph
    sub = Subcomplex(g, ("u", "v"), ("a", "b"))
    D = boundary_operator(g, theta.bundle, sub)
    rb = cmath.exp(2j * np.pi / 3)
    assert D.matrix.shape == (2, 2)
    assert np.allclose(D.matrix, [[1.0, rb], [-1.0, -1.0]])
    # a restriction keeping a loop and a parallel edge is a slice of the full matrix
    g = build_graph(
        ["u", "v", "w"],
        [("a", "u", "v"), ("l", "v", "v"), ("c", "v", "w"), ("p", "u", "v"), ("d", "w", "u")],
    )
    L = attach_phases(g, {"a": 0.4, "l": 2.2, "c": 1.3, "p": 5.1, "d": 3.0})
    full = boundary_operator(g, L).matrix
    sub = Subcomplex(g, ("u", "v"), ("p", "l", "a"))
    D = boundary_operator(g, L, sub)
    assert D.domain == ("a", "l", "p") and D.codomain == ("u", "v")
    assert np.array_equal(D.matrix, full[np.ix_([0, 1], [0, 1, 3])])
    assert D.matrix[1, 1] == L.phase("l") - 1.0


def test_operator_application_and_mismatch(theta):
    D = boundary_operator(theta.graph, theta.bundle)
    x = unit_chain(1, edge_basis(theta.graph), "a")
    y = D(x)
    assert y.degree == 0
    assert y.coeff("u") == pytest.approx(1.0)
    assert y.coeff("v") == pytest.approx(-1.0)
    with pytest.raises(BasisMismatchError):
        D(unit_chain(0, vertex_basis(theta.graph), "u"))


def test_inner_product_slot_conventions():
    basis = ("a", "b")
    x = ChainVector.from_dict(1, basis, {"a": 1.0})
    y = ChainVector.from_dict(1, basis, {"a": 1j})
    assert standard_ip(x, y) == pytest.approx(-1j)
    assert standard_ip(y, x) == pytest.approx(1j)
    scaled = ChainVector(1, basis, 2j * x.coeffs)
    assert standard_ip(scaled, y) == pytest.approx(2j * standard_ip(x, y))
    R = ResistanceMap({"a": 3.0, "b": 1.0})
    assert modified_ip(x, y, R) == pytest.approx(-3j)
    with pytest.raises(BasisMismatchError):
        standard_ip(x, ChainVector(1, ("a",), [1.0]))
    with pytest.raises(BasisMismatchError):
        modified_ip(ChainVector(0, basis, [1, 0]), ChainVector(0, basis, [1, 0]), R)


def test_adjoint_identity_on_random_graphs():
    rng = np.random.default_rng(777)
    for _ in range(3):
        t = random_triple(rng)
        g = t.graph
        D = boundary_operator(g, t.bundle)
        Dstar = adjoint_R(D, t.resist)
        n, m = len(g.vertices), len(g.edges)
        smax = float(np.linalg.svd(D.matrix, compute_uv=False)[0])
        scale = max(n, m) * smax
        for _ in range(200):
            x = ChainVector(1, D.domain, rng.standard_normal(m) + 1j * rng.standard_normal(m))
            y = ChainVector(0, D.codomain, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            lhs = standard_ip(D(x), y)
            rhs = modified_ip(x, Dstar(y), t.resist)
            assert abs(lhs - rhs) <= 1e-10 * scale * max(x.norm(), y.norm())


def test_laplacian_hermitian_psd():
    rng = np.random.default_rng(778)
    for _ in range(5):
        t = random_triple(rng)
        Lap = laplacian(boundary_operator(t.graph, t.bundle), t.resist).matrix
        assert np.abs(Lap - Lap.conj().T).max() <= 1e-12 * max(1.0, np.abs(Lap).max())
        eig = np.linalg.eigvalsh(Lap)
        assert eig.min() >= -1e-10 * eig.max()


def test_determinant_real_and_zero_iff_h0_obstructed():
    rng = np.random.default_rng(779)
    for _ in range(5):
        t = random_triple(rng)
        det = determinant(laplacian(boundary_operator(t.graph, t.bundle), t.resist))
        assert abs(det.value.imag) <= 1e-10 * max(1.0, abs(det.value))
        assert (abs(det.value) > 1e-9) == bool(h0_trivial(t.graph, t.bundle))
    g = build_graph(["v"], [("b", "v", "v")])
    dead = determinant(laplacian(boundary_operator(g, attach_phases(g, {"b": 0.0})),
                                 ResistanceMap({"b": 1.0})))
    assert dead.value == 0.0
    assert dead.log_abs == float("-inf")


def test_kernel_basis_properties(theta):
    D = boundary_operator(theta.graph, theta.bundle)
    basis = kernel_basis(D)
    assert len(basis) == 1
    z = basis[0]
    assert z.norm() == pytest.approx(1.0)
    smax = float(np.linalg.svd(D.matrix, compute_uv=False)[0])
    assert np.linalg.norm(D.matrix @ z.coeffs) <= 1e-10 * smax
    # loops with nontrivial phase have no cycles at all
    g = build_graph(["v"], [("b", "v", "v")])
    assert kernel_basis(boundary_operator(g, attach_phases(g, {"b": np.pi}))) == []


def test_kernel_basis_orthonormal():
    rng = np.random.default_rng(780)
    t = random_triple(rng)
    D = boundary_operator(t.graph, t.bundle)
    vecs = kernel_basis(D)
    if vecs:
        V = np.array([z.coeffs for z in vecs])
        gram = V @ V.conj().T
        assert np.abs(gram - np.eye(len(vecs))).max() <= 1e-12


def test_numerical_rank_threshold():
    M = np.diag([1.0, 1e-20])
    assert numerical_rank(M) == 1
    assert numerical_rank(M, tol=1e-30) == 2
    assert numerical_rank(np.zeros((0, 3))) == 0


def test_homology_dims_examples(theta):
    g = build_graph(["v"], [("b", "v", "v")])
    assert homology_dims(g, attach_phases(g, {"b": np.pi})) == (0, 0)
    assert homology_dims(g, attach_phases(g, {"b": 0.0})) == (1, 1)
    assert homology_dims(theta.graph, theta.bundle) == (0, 1)
    sub = Subcomplex(theta.graph, ("u", "v"), ("a",))
    assert homology_dims(theta.graph, theta.bundle, sub) == (1, 0)


def test_determinant_values_and_errors(theta):
    ident = LinearOperator(np.eye(3), 0, ("x", "y", "z"), 0, ("x", "y", "z"))
    d = determinant(ident)
    assert d.value == pytest.approx(1.0)
    assert d.log_abs == pytest.approx(0.0)
    single = LinearOperator([[4.0]], 0, ("x",), 0, ("x",))
    assert determinant(single).value == pytest.approx(4.0)
    diag = LinearOperator([[3.0, 0.0], [0.0, 3.0]], 0, ("x", "y"), 0, ("x", "y"))
    d9 = determinant(diag)
    assert d9.value == pytest.approx(9.0)
    assert d9.value == pytest.approx(cmath.exp(d9.log_abs + 1j * d9.phase))
    empty = LinearOperator(np.zeros((0, 0)), 0, (), 0, ())
    assert determinant(empty).value == 1.0
    with pytest.raises(NonSquareError):
        determinant(boundary_operator(theta.graph, theta.bundle))
