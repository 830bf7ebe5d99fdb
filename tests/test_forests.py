import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from holotree import (
    AssumptionViolatedError,
    ConditioningWarning,
    Gauge,
    ResistanceMap,
    SingularTreeSystemError,
    UnknownEdgeError,
    attach_phases,
    boundary_operator,
    build_graph,
    edge_basis,
    enumerate_forests,
    exchange,
    forest_record,
    gauge_invariance_check,
    h0_trivial,
    is_tree_combinatorial,
    is_tree_homological,
    kernel_basis,
    kirchhoff_projection,
    low_temp_demo,
    matrix_tree_report,
    modified_ip,
    rho_hat,
    solve_network,
    standard_ip,
    tbar_chain,
    tbar_operator,
    tree_laplacian_identity,
    unit_chain,
)
from holotree import forests as forests_mod
from holotree.bundle import DEFAULT_EPS_HOL
from holotree.forests import _admitted, _census, _tbar_sum
from holotree.graphs import _component_cells

from conftest import TWO_PI, graph_7_14, random_triple


def test_two_loop_census(two_loops):
    forests = two_loops.forests
    assert [T.edges for T in forests] == [("b1",), ("b2",)]
    assert forests[0].rho_hat == pytest.approx(2.0)
    assert forests[1].rho_hat == pytest.approx(4.0)
    assert forests[0].weight == pytest.approx(2.0)
    assert forests[1].weight == pytest.approx(2.0)
    comp = forests[0].components[0]
    assert comp.vertices == ("v",)
    assert comp.edges == ("b1",)
    assert comp.circuit.edges == (("b1", 1),)
    assert comp.holonomy == pytest.approx(1j)


def test_theta_census(theta):
    forests = theta.forests
    assert [T.edges for T in forests] == [("a", "b"), ("a", "c"), ("b", "c")]
    for T in forests:
        assert T.rho_hat == pytest.approx(3.0)
        assert T.weight == pytest.approx(3.0)


def test_census_is_lexicographic():
    rng = np.random.default_rng(31)
    t = random_triple(rng)
    got = [T.edges for T in t.forests]
    assert got == sorted(got)


def test_enumerate_defaults_to_unit_resistance(theta):
    forests = enumerate_forests(theta.graph, theta.bundle)
    assert all(T.weight == pytest.approx(T.rho_hat) for T in forests)


def test_enumerate_requires_vanishing_h0():
    g = build_graph(["v"], [("b", "v", "v")])
    with pytest.raises(AssumptionViolatedError):
        enumerate_forests(g, attach_phases(g, {"b": 0.0}))


def test_enumeration_nonempty_whenever_h0_vanishes():
    rng = np.random.default_rng(32)
    for _ in range(5):
        t = random_triple(rng)
        if h0_trivial(t.graph, t.bundle):
            assert t.forests


def test_high_threshold_empties_the_census_with_warning(theta):
    with pytest.warns(ConditioningWarning, match="excluded"):
        forests = enumerate_forests(theta.graph, theta.bundle, eps_hol=2.0)
    assert forests == []


def _cells(g, tree):
    """(vertex indices, edge indices) per component of a census tree row."""
    return _component_cells(g, range(len(g.vertices)), tree.tolist())


def _edge_ids(g, tree):
    return tuple(g.edges[e].id for e in tree)


def _non_tree(g, tree):
    return sorted(set(range(len(g.edges))) - set(tree))


def _admitted_rows(g, a):
    """Per admitted forest: edges, tree indices, non-tree indices,
    holonomies (spare slots dropped), rho and weight, as Python values."""
    c, rows = a.census, []
    for i in np.flatnonzero(a.ok):
        tree = c.tree[i].tolist()
        k = len(_cells(g, c.tree[i]))
        assert a.hol[i, k:].tolist() == [0j] * (a.hol.shape[1] - k)
        rows.append((_edge_ids(g, tree), tree, _non_tree(g, tree),
                     a.hol[i, :k].tolist(), a.rho[i].item(), a.weight[i].item()))
    return rows


def _record_rows(g, forests):
    return [(T.edges, list(T.edge_indices), _non_tree(g, T.edge_indices),
             [c.holonomy for c in T.components], T.rho_hat, T.weight) for T in forests]


def test_admitted_arrays_equal_the_records(suite):
    mixed = 0
    for t in suite:
        g = t.graph
        c = _census(g)
        cells = [_cells(g, tree) for tree in c.tree]
        assert len(set(c.circuits)) == len(c.circuits)
        for comps, slots in zip(cells, c.slots):
            assert (slots[len(comps):] == len(c.circuits)).all()
        mixed += len({len(comps) for comps in cells}) > 1
        a = _admitted(g, t.bundle, t.resist, DEFAULT_EPS_HOL)
        assert _admitted_rows(g, a) == _record_rows(g, t.forests), t
        for i, T in zip(np.flatnonzero(a.ok), t.forests):
            assert [(comp.vertices, comp.edges) for comp in T.components] == [
                (tuple(g.vertices[v] for v in vs), tuple(g.edges[e].id for e in es))
                for vs, es in cells[i]
            ]
            # one shared instance per distinct circuit
            assert all(comp.circuit is c.circuits[s] for comp, s in zip(T.components, c.slots[i]))
    assert mixed >= 10  # censuses mixing component counts exercise the spare slots


def test_census_memory_per_candidate():
    # the cached census keeps its tree rows, slots and distinct circuits, not
    # per-candidate edge ids, non-tree indices or component cells
    g, _, _ = graph_7_14()  # a fresh graph: its census is not cached yet
    gc.collect()  # earlier tests' garbage, freed mid-census, would hide what it keeps
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        c = _census(g)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(c.tree) == 1246
    assert kept <= 250 * len(c.tree)


def test_high_threshold_exclusions_and_warning_text(suite):
    mixed = 0
    for t in suite[:20]:
        g, L, R = t.graph, t.bundle, t.resist
        cands = [_edge_ids(g, tree) for tree in _census(g).tree]
        kept = [ids for ids in cands if is_tree_combinatorial(g, L, ids, 1.0)]
        weak = [ids for ids in cands if ids not in kept]
        if not weak:
            continue
        mixed += bool(kept)
        details = "; ".join(
            f"{ids!r} (cond "
            f"{np.linalg.cond(boundary_operator(g, L, g.spanning_subcomplex(ids)).matrix):.3e})"
            for ids in weak[:3]
        )
        more = "" if len(weak) <= 3 else f" and {len(weak) - 3} more"
        text = (f"{len(weak)} spanning unicyclic subgraph(s) excluded: circuit holonomy within "
                f"1 of 1 makes the tree system ill conditioned: {details}{more}")
        with pytest.warns(ConditioningWarning) as rec:
            forests = enumerate_forests(g, L, R, eps_hol=1.0)
        assert [str(w.message) for w in rec] == [text]
        assert rec[0].filename == __file__  # attributed to the caller
        assert [T.edges for T in forests] == kept
        with pytest.warns(ConditioningWarning) as rec:
            a = _admitted(g, L, R, 1.0)
        assert [str(w.message) for w in rec] == [text]
        assert _admitted_rows(g, a) == _record_rows(g, forests)
    assert mixed >= 5  # graphs with both admitted and excluded candidates


def test_overflowing_weights_are_inf_without_warnings(census_7_14):
    # seven resistances of 1e-50 each overflow every weight, as Python floats do: silently
    g, L, _ = census_7_14
    R = ResistanceMap({e.id: 1e-50 for e in g.edges})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = _admitted(g, L, R, DEFAULT_EPS_HOL)
        forests = enumerate_forests(g, L, R)
    assert np.isinf(a.weight).all()
    assert _admitted_rows(g, a) == _record_rows(g, forests)


def test_one_holonomy_per_distinct_circuit(census_7_14, monkeypatch):
    g, L, _ = census_7_14
    c = _census(g)
    assert len(c.circuits) < len(c.tree)
    calls = []
    original = forests_mod.holonomy

    def counting(bundle, circuit):
        calls.append(circuit)
        return original(bundle, circuit)

    monkeypatch.setattr(forests_mod, "holonomy", counting)
    rng = np.random.default_rng(38)
    for _ in range(3):
        Lb = attach_phases(g, {e.id: float(x) for e, x in zip(g.edges, rng.uniform(0, TWO_PI, 14))})
        calls.clear()
        a = _admitted(g, Lb, ResistanceMap.unit(g), DEFAULT_EPS_HOL)
        assert calls == list(c.circuits)
        calls.clear()
        assert len(enumerate_forests(g, Lb)) == np.count_nonzero(a.ok)
        assert calls == list(c.circuits)
    # the four reports of one bundle filter five times (the gauge check twice)
    calls.clear()
    R, V = ResistanceMap.unit(g), unit_chain(1, edge_basis(g), g.edges[0].id)
    matrix_tree_report(g, Lb, R)
    kirchhoff_projection(g, Lb, R)
    solve_network(g, Lb, R, V)
    gauge_invariance_check(g, Lb, R, Gauge.from_angles({v: 1.0 for v in g.vertices}))
    assert calls == 5 * list(c.circuits)


def test_record_arithmetic_matches_the_subcomplex_route(suite):
    # bundle.rho_hat walks the subcomplex's own components and circuits
    count = 0
    for t in suite:
        g, L, R = t.graph, t.bundle, t.resist
        for T in t.forests:
            assert T.rho_hat == rho_hat(L, g.spanning_subcomplex(T.edges)), (t, T.edges)
            weight = T.rho_hat
            for b in T.edges:
                weight /= R.r(b)
            assert T.weight == weight, (t, T.edges)
            count += 1
    assert count > 9000


@pytest.mark.parametrize("eps_hol", [DEFAULT_EPS_HOL, 0.5, 1.5])
def test_forest_record_equals_the_census_record(suite, eps_hol):
    count = 0
    for t in suite:
        g, L, R = t.graph, t.bundle, t.resist
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            forests = enumerate_forests(g, L, R, eps_hol)
        for T in forests:
            assert forest_record(g, L, R, T.edges, eps_hol) == T, (t, T.edges)
        count += len(forests)
    assert count > 1000


def test_tree_predicates_on_examples(two_loops, theta):
    g, L = two_loops.graph, two_loops.bundle
    assert is_tree_combinatorial(g, L, ("b1",))
    assert is_tree_homological(g, L, ("b1",))
    gt, Lt = theta.graph, theta.bundle
    assert is_tree_combinatorial(gt, Lt, ("a", "b"))
    assert not is_tree_combinatorial(gt, Lt, ("a",))  # wrong size
    assert not is_tree_homological(gt, Lt, ("a",))
    assert not is_tree_combinatorial(gt, Lt, ("a", "b", "c"))


def test_trivial_holonomy_fails_combinatorial_predicate():
    g = build_graph(["v"], [("b1", "v", "v"), ("b2", "v", "v")])
    L = attach_phases(g, {"b1": 0.0, "b2": np.pi})
    assert not is_tree_combinatorial(g, L, ("b1",))
    assert is_tree_combinatorial(g, L, ("b2",))


def test_homological_predicate_needs_the_standing_assumption():
    g = build_graph(["v"], [("b", "v", "v")])
    with pytest.raises(AssumptionViolatedError):
        is_tree_homological(g, attach_phases(g, {"b": 0.0}), ("b",))


def test_forest_record_validation(theta):
    g, L, R = theta.graph, theta.bundle, theta.resist
    T = forest_record(g, L, R, ("b", "a"))  # order does not matter
    assert T.edges == ("a", "b")
    assert T.rho_hat == pytest.approx(3.0)
    with pytest.raises(ValueError):
        forest_record(g, L, R, ("a",))
    with pytest.raises(UnknownEdgeError):
        forest_record(g, L, R, ("a", "zz"))
    L0 = attach_phases(g, {"a": 0.0, "b": 0.0, "c": 2.0})
    with pytest.raises(ValueError, match="holonomy"):
        forest_record(g, L0, R, ("a", "b"))


def test_tbar_chain_two_loops(two_loops):
    g, L = two_loops.graph, two_loops.bundle
    T = two_loops.forests[0]
    c = tbar_chain(g, L, T, "b2")
    assert np.allclose(c.coeffs, [-(1.0 + 1.0j), 1.0])
    zero = tbar_chain(g, L, T, "b1")
    assert zero.norm() == 0.0


def test_tbar_chain_theta_coefficient(theta):
    g, L = theta.graph, theta.bundle
    T = theta.forests[0]  # ('a', 'b')
    c = tbar_chain(g, L, T, "c")
    rho_b, rho_c = L.phase("b"), L.phase("c")
    assert c.coeff("c") == pytest.approx(1.0)
    assert c.coeff("b") == pytest.approx(-(rho_c - 1.0) / (rho_b - 1.0))
    D = boundary_operator(g, L)
    assert D(c).norm() <= 1e-12


def test_tbar_images_are_cycles_and_span_h1():
    rng = np.random.default_rng(33)
    t = random_triple(rng)
    g, L = t.graph, t.bundle
    D = boundary_operator(g, L)
    dim_h1 = len(g.edges) - len(g.vertices)
    T = t.forests[0]
    M = tbar_operator(g, L, T).matrix
    assert np.linalg.matrix_rank(M) == dim_h1
    smax = float(np.linalg.svd(D.matrix, compute_uv=False)[0])
    assert np.abs(D.matrix @ M).max(initial=0.0) <= 1e-10 * smax * max(1.0, np.abs(M).max())


def test_tbar_fixes_cycles():
    rng = np.random.default_rng(34)
    t = random_triple(rng)
    g, L = t.graph, t.bundle
    T = t.forests[0]
    M = tbar_operator(g, L, T).matrix
    for z in kernel_basis(boundary_operator(g, L)):
        assert np.linalg.norm(M @ z.coeffs - z.coeffs) <= 1e-10 * z.norm()


def test_tbar_operator_is_deterministic(two_loops):
    g, L = two_loops.graph, two_loops.bundle
    T = two_loops.forests[0]
    assert np.array_equal(tbar_operator(g, L, T).matrix, tbar_operator(g, L, T).matrix)


def _tbar_loop(D, tree_idx):
    """T_bar of one forest, one non-tree column at a time."""
    m = D.shape[1]
    M = np.zeros((m, m), dtype=complex)
    for j in sorted(set(range(m)) - set(tree_idx)):
        M[j, j] = 1.0
        M[tree_idx, j] = -np.linalg.solve(D[:, tree_idx], D[:, j])
    return M


def _batch(g, L, forests):
    tree = np.array([T.edge_indices for T in forests])
    return boundary_operator(g, L).matrix, tree, np.array([T.weight for T in forests])


@pytest.fixture(scope="module")
def census_7_14():
    """A (7, 14) multigraph with 1,246 forests: several default chunks."""
    g, L, R = graph_7_14()
    return g, L, enumerate_forests(g, L, R)


def test_tbar_operator_matches_column_loop(suite):
    for t in suite:
        g, L = t.graph, t.bundle
        D = boundary_operator(g, L).matrix
        for T in t.forests[:3]:
            M = tbar_operator(g, L, T).matrix
            ref = _tbar_loop(D, list(T.edge_indices))
            assert np.abs(M - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), t


def test_batched_tbar_sum_matches_per_forest_operators(suite):
    for t in suite:
        g, L = t.graph, t.bundle
        acc = _tbar_sum(*_batch(g, L, t.forests))
        ref = sum(T.weight * tbar_operator(g, L, T).matrix for T in t.forests)
        assert np.abs(acc - ref).max() <= 1e-12 * max(1.0, np.abs(acc).max()), t


@pytest.mark.parametrize("per_chunk", [1, 7, None])
def test_tbar_sum_does_not_depend_on_chunking(census_7_14, monkeypatch, per_chunk):
    g, L, forests = census_7_14
    args = _batch(g, L, forests)
    n, m = len(g.vertices), len(g.edges)
    assert len(forests) > 2 * (forests_mod._CHUNK_ENTRIES // (n * m))
    acc = _tbar_sum(*args)
    monkeypatch.setattr(forests_mod, "_CHUNK_ENTRIES", (per_chunk or len(forests)) * n * m)
    acc2 = _tbar_sum(*args)
    assert np.abs(acc2 - acc).max() <= 1e-14 * max(1.0, np.abs(acc).max())


def test_tbar_sum_checks_every_forest_residual(census_7_14):
    g, L, forests = census_7_14
    D, tree, weights = _batch(g, L, forests)
    ratios = []
    for t in tree:
        A, B = D[:, t], D[:, _non_tree(g, t.tolist())]
        U = np.linalg.solve(A, B)
        scale = max(1.0, np.abs(A).max() * np.abs(U).max() + np.abs(B).max())
        ratios.append(np.abs(A @ U - B).max() / scale)
    k = int(np.argmax(ratios))
    worst, second = ratios[k], max(ratios[:k] + ratios[k + 1 :])
    assert 0.0 < second < 0.9 * worst  # the solves leave roundoff
    # the worst forest goes mid-way through the second chunk
    step = forests_mod._CHUNK_ENTRIES // D.size
    order = np.delete(np.arange(len(forests)), k)
    order = np.insert(order, step + step // 2, k)
    batch = (D, tree[order], weights[order])
    _tbar_sum(*batch, tol=1.1 * worst)
    for tol in (0.95 * worst, 0.0):
        with pytest.raises(SingularTreeSystemError, match="residual"):
            _tbar_sum(*batch, tol=tol)
    with pytest.raises(SingularTreeSystemError, match="residual"):
        tbar_operator(g, L, forests[k], tol=0.0)


def test_tbar_operator_rejects_foreign_records(two_loops, theta):
    T = two_loops.forests[0]
    with pytest.raises(ValueError):
        tbar_operator(theta.graph, theta.bundle, T)


def test_record_readers_reject_records_of_another_graph(theta):
    # an equal-looking theta graph with other phases: its records are not theta's
    g = build_graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")])
    L = attach_phases(g, {"a": 0.0, "b": 1.0, "c": 2.5})
    T = theta.forests[0]
    for check in (tbar_operator, tree_laplacian_identity, low_temp_demo):
        with pytest.raises(ValueError, match="forest record belongs to a different graph"):
            check(g, L, T)
    own = forest_record(g, L, ResistanceMap.unit(g), T.edges)
    assert tree_laplacian_identity(g, L, own).relative_error <= 1e-12


def test_exchange_on_theta(theta):
    T = theta.forests[0]  # ('a', 'b')
    U = exchange(T, "c", "b")
    assert U is not None
    assert U.edges == ("a", "c")
    with pytest.raises(ValueError):
        exchange(T, "a", "b")  # already in the forest
    with pytest.raises(ValueError):
        exchange(T, "c", "c")  # not a tree edge


def test_exchange_consistency_two_loops(two_loops):
    g, L = two_loops.graph, two_loops.bundle
    T = two_loops.forests[0]
    alpha = tbar_chain(g, L, T, "b2").coeff("b1")
    U = exchange(T, "b2", "b1")
    assert U is not None
    assert U.edges == ("b2",)
    assert U.rho_hat == pytest.approx(T.rho_hat * abs(alpha) ** 2)


def test_exchange_returns_none_for_zero_overlap():
    g = build_graph(
        ["x", "y"],
        [("t", "x", "y"), ("p", "x", "x"), ("q", "y", "y"), ("s", "y", "y")],
    )
    L = attach_phases(g, {"t": 0.4, "p": np.pi / 2, "q": np.pi, "s": 2.0})
    R = ResistanceMap.unit(g)
    T = forest_record(g, L, R, ("p", "q"))
    # s attaches entirely inside q's component, so T_bar(s) avoids p
    assert tbar_chain(g, L, T, "s").coeff("p") == 0.0
    assert exchange(T, "s", "p") is None


def test_exchange_identity_two_loops(two_loops):
    # rho_hat_T <T_bar(b2), b1> = rho_hat_U <b2, U_bar(b1)>, both sides -2-2i
    g, L = two_loops.graph, two_loops.bundle
    basis = edge_basis(g)
    T, U = two_loops.forests
    lhs = T.rho_hat * standard_ip(tbar_chain(g, L, T, "b2"), unit_chain(1, basis, "b1"))
    rhs = U.rho_hat * standard_ip(unit_chain(1, basis, "b2"), tbar_chain(g, L, U, "b1"))
    assert lhs == pytest.approx(-2.0 - 2.0j)
    assert rhs == pytest.approx(lhs)


def _pair_sums(t, b_i, b_j):
    g, L, R = t.graph, t.bundle, t.resist
    basis = edge_basis(g)
    ei = unit_chain(1, basis, b_i)
    ej = unit_chain(1, basis, b_j)
    left = sum(
        T.weight * modified_ip(tbar_chain(g, L, T, b_i), ej, R)
        for T in t.forests
        if b_i not in T.edges and b_j in T.edges
    )
    right = sum(
        U.weight * modified_ip(ei, tbar_chain(g, L, U, b_j), R)
        for U in t.forests
        if b_j not in U.edges and b_i in U.edges
    )
    return complex(left), complex(right)


def test_weighted_pair_sums_agree(theta, two_loops):
    # same identity the acceptance suite checks in matrix form, but with the
    # two opposing tree families summed explicitly
    weighted = type(theta)(
        "theta_weighted",
        theta.graph,
        theta.bundle,
        ResistanceMap({"a": 1.0, "b": 2.0, "c": 5.0}),
    )
    for t in (weighted, two_loops):
        ids = [e.id for e in t.graph.edges]
        for b_i in ids:
            for b_j in ids:
                if b_i == b_j:
                    continue
                left, right = _pair_sums(t, b_i, b_j)
                assert left == pytest.approx(right, abs=1e-12)
