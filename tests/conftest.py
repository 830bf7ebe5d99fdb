"""Shared fixtures: closed-form examples plus a seeded random graph suite."""
import numpy as np
import pytest

from holotree import (
    ResistanceMap,
    attach_phases,
    build_graph,
    enumerate_forests,
    h0_trivial,
)

TWO_PI = 2.0 * np.pi

SUITE_SEED = 20260815
SUITE_SIZE = 100


class Triple:
    """A graph with phases and resistances, plus a lazily cached forest census."""

    def __init__(self, name, graph, bundle, resist):
        self.name = name
        self.graph = graph
        self.bundle = bundle
        self.resist = resist
        self._forests = None

    def __repr__(self):
        return f"Triple({self.name!r})"

    @property
    def forests(self):
        if self._forests is None:
            self._forests = enumerate_forests(self.graph, self.bundle, self.resist)
        return self._forests


def random_triple(rng, name="g"):
    """Connected multigraph, 3-7 vertices, up to 12 edges, loops and
    parallels allowed; phases uniform, resistances log-uniform in [0.1, 10]."""
    n = int(rng.integers(3, 8))
    m = int(rng.integers(n, 13))
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((f"e{len(edges)}", vertices[j], vertices[i]))
    while len(edges) < m:
        t, h = rng.integers(0, n, 2)
        edges.append((f"e{len(edges)}", vertices[int(t)], vertices[int(h)]))
    g = build_graph(vertices, edges)
    angles = rng.uniform(0.0, TWO_PI, m)
    bundle = attach_phases(g, {e.id: float(a) for e, a in zip(g.edges, angles)})
    logr = rng.uniform(np.log(0.1), np.log(10.0), m)
    resist = ResistanceMap({e.id: float(np.exp(x)) for e, x in zip(g.edges, logr)})
    return Triple(name, g, bundle, resist)


def graph_7_14():
    """A fixed (7, 14) multigraph with phases and resistances, and 1,246
    spanning unicyclic candidates."""
    rng = np.random.default_rng(36)
    vs = [f"v{i}" for i in range(7)]
    edges = [(f"e{i - 1}", vs[int(rng.integers(0, i))], vs[i]) for i in range(1, 7)]
    edges += [(f"e{k}", *(vs[int(i)] for i in rng.integers(0, 7, 2))) for k in range(6, 14)]
    g = build_graph(vs, edges)
    L = attach_phases(g, {e.id: float(a) for e, a in zip(g.edges, rng.uniform(0.0, TWO_PI, 14))})
    R = ResistanceMap({e.id: float(r) for e, r in zip(g.edges, rng.uniform(0.1, 10.0, 14))})
    return g, L, R


def make_suite(seed=SUITE_SEED, count=SUITE_SIZE):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        t = random_triple(rng, name=f"g{len(out):03d}")
        if h0_trivial(t.graph, t.bundle):
            out.append(t)
    return out


@pytest.fixture(scope="session")
def suite():
    return make_suite()


@pytest.fixture
def loop_pi():
    g = build_graph(["v"], [("b", "v", "v")])
    return Triple("loop_pi", g, attach_phases(g, {"b": np.pi}), ResistanceMap({"b": 1.0}))


@pytest.fixture
def two_loops():
    g = build_graph(["v"], [("b1", "v", "v"), ("b2", "v", "v")])
    L = attach_phases(g, {"b1": np.pi / 2, "b2": np.pi})
    return Triple("two_loops", g, L, ResistanceMap({"b1": 1.0, "b2": 2.0}))


@pytest.fixture
def theta():
    g = build_graph(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "u", "v")])
    L = attach_phases(g, {"a": 0.0, "b": TWO_PI / 3, "c": 2.0 * TWO_PI / 3})
    return Triple("theta", g, L, ResistanceMap.unit(g))
