import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holotree import (
    GraphSemanticError,
    GraphSyntaxError,
    UnknownEdgeError,
    edge_basis,
    emit_graph_text,
    parse_chain_text,
    parse_complex,
    parse_graph_text,
)

THETA_TEXT = """\
# two vertices, three parallel edges
vertex u
vertex v

edge a u v phase 0.0 resistance 1.0
edge b u v phase 2.0943951023931953 resistance 2.0   # 2*pi/3
edge c u v phase 4.1887902047863905 resistance 0.5
"""


def test_parse_graph_text_basics():
    g, L, R = parse_graph_text(THETA_TEXT)
    assert g.vertices == ("u", "v")
    assert tuple(e.id for e in g.edges) == ("a", "b", "c")
    assert g.edges[1].tail == "u" and g.edges[1].head == "v"
    assert L.angle("b") == 2.0943951023931953
    assert R.r("c") == 0.5


def test_round_trip_is_stable():
    g, L, R = parse_graph_text(THETA_TEXT)
    text = emit_graph_text(g, L, R)
    g2, L2, R2 = parse_graph_text(text)
    assert emit_graph_text(g2, L2, R2) == text
    assert g2.vertices == g.vertices
    assert [(e.id, e.tail, e.head) for e in g2.edges] == [
        (e.id, e.tail, e.head) for e in g.edges
    ]
    for e in g.edges:
        assert L2.angle(e.id) == L.angle(e.id)
        assert R2.r(e.id) == R.r(e.id)


def test_emit_exact_text():
    g, L, R = parse_graph_text("vertex u\nvertex v\nedge a u v phase 0 resistance 1\n")
    assert emit_graph_text(g, L, R) == "vertex u\nvertex v\nedge a u v phase 0 resistance 1\n"


def test_round_trip_random_phases():
    rng = np.random.default_rng(60)
    lines = ["vertex x", "vertex y"]
    for i in range(6):
        theta = rng.uniform(0, 2 * np.pi)
        r = float(np.exp(rng.uniform(-2, 2)))
        lines.append(f"edge e{i} x y phase {theta!r} resistance {r!r}")
    g, L, R = parse_graph_text("\n".join(lines))
    g2, L2, R2 = parse_graph_text(emit_graph_text(g, L, R))
    for e in g.edges:
        assert L2.angle(e.id) == L.angle(e.id)  # .17g round-trips float64
        assert R2.r(e.id) == R.r(e.id)


_IDS = st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True)


@st.composite
def _graph_texts(draw):
    """A multigraph file with loops and parallel edges, its edges as
    (id, tail, head, angle in [0, 2 pi), resistance log-uniform in [1e-300, 1e300])."""
    vertices = draw(st.lists(_IDS, min_size=1, max_size=6, unique=True))
    ids = draw(st.lists(_IDS, max_size=10, unique=True))
    ends = st.sampled_from(vertices)
    edges = [
        (b, draw(ends), draw(ends), draw(st.floats(0.0, 2 * math.pi, exclude_max=True)),
         10.0 ** draw(st.floats(-300.0, 300.0)))
        for b in ids
    ]
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {b} {t} {h} phase {a!r} resistance {r!r}" for b, t, h, a, r in edges]
    return "\n".join(lines), vertices, edges


@settings(derandomize=True, deadline=None)
@given(_graph_texts())
def test_round_trip_property(case):
    text, vertices, edges = case
    g, L, R = parse_graph_text(text)
    assert g.vertices == tuple(vertices)
    assert [(e.id, e.tail, e.head) for e in g.edges] == [(b, t, h) for b, t, h, _, _ in edges]
    emitted = emit_graph_text(g, L, R)
    g2, L2, R2 = parse_graph_text(emitted)
    assert emit_graph_text(g2, L2, R2) == emitted
    assert g2.vertices == g.vertices
    for b, t, h, a, r in edges:
        assert g2.edge(b).tail == t and g2.edge(b).head == h
        assert L.angle(b).hex() == L2.angle(b).hex() == a.hex()
        assert R.r(b).hex() == R2.r(b).hex() == r.hex()


def test_phases_reduced_mod_two_pi():
    g, L, _ = parse_graph_text(
        "vertex v\nedge p v v phase 7.0 resistance 1\nedge q v v phase -1.0 resistance 1\n"
    )
    assert L.angle("p") == pytest.approx(7.0 - 2 * math.pi)
    assert L.angle("q") == pytest.approx(2 * math.pi - 1.0)


def test_comments_and_blank_lines_ignored():
    g, _, _ = parse_graph_text("\n# nothing\n   \nvertex v # trailing\n")
    assert g.vertices == ("v",)
    assert g.edges == ()


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("vertex u\nnode v\n", 2, 1),
        ("vertex u v\n", 1, 1),
        ("vertex u\nvertex v\nedge a u v phase 1\n", 3, 1),
        ("vertex u\nvertex v\nedge a u v angle 1 resistance 1\n", 3, 1),
        ("vertex a-b\n", 1, 8),
        ("vertex u\nvertex v\nedge a u v phase nan resistance 1\n", 3, 18),
        ("vertex u\nvertex v\nedge a u v phase 1 resistance 1..5\n", 3, 31),
    ],
)
def test_syntax_errors_carry_location(text, line, column):
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph_text(text)
    assert exc.value.line == line
    assert exc.value.column == column


@pytest.mark.parametrize(
    "text,match,line",
    [
        ("vertex u\nvertex u\n", "duplicate vertex", 2),
        ("vertex u\nedge a u u phase 0 resistance 1\nedge a u u phase 0 resistance 1\n",
         "duplicate edge", 3),
        ("vertex u\nedge a u w phase 0 resistance 1\n", "unknown head", 2),
        ("vertex u\nedge a w u phase 0 resistance 1\n", "unknown tail", 2),
        ("vertex u\nedge a u u phase 1e999 resistance 1\n", "finite", 2),
        ("vertex u\nedge a u u phase 0 resistance 0\n", "positive", 2),
        ("vertex u\nedge a u u phase 0 resistance -2\n", "positive", 2),
        ("vertex u\nedge a u u phase 0 resistance 1e999\n", "positive", 2),
    ],
)
def test_semantic_errors(text, match, line):
    with pytest.raises(GraphSemanticError, match=match) as exc:
        parse_graph_text(text)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1e-3", 1e-3 + 0j),
        ("2i", 2j),
        ("-0.5i", -0.5j),
        ("1+0.5i", 1 + 0.5j),
        ("2-3i", 2 - 3j),
        ("1.5e2+2e-1i", 150 + 0.2j),
        ("  3  ", 3 + 0j),
    ],
)
def test_parse_complex_forms(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "i", "1+i", "2j", "1 + 2i", "1+2i3", "one"])
def test_parse_complex_rejects_garbage(text):
    with pytest.raises(GraphSyntaxError):
        parse_complex(text)


@pytest.mark.parametrize("text", ["1e999", "-1e999", "1e999i", "1+1e999i", "1-1e999i"])
def test_parse_complex_rejects_overflow(text):
    with pytest.raises(GraphSyntaxError, match="not finite"):
        parse_complex(text)


def test_parse_chain_text(theta):
    g = theta.graph
    V = parse_chain_text("a=1+0.5i, c=-2i", g)
    assert V.degree == 1
    assert V.basis == edge_basis(g)
    assert V.coeff("a") == 1 + 0.5j
    assert V.coeff("b") == 0j  # unlisted edges default to zero
    assert V.coeff("c") == -2j


def test_parse_chain_text_errors(theta):
    g = theta.graph
    with pytest.raises(GraphSyntaxError, match="empty"):
        parse_chain_text("a=1,,b=2", g)
    with pytest.raises(GraphSyntaxError, match="missing '='"):
        parse_chain_text("a", g)
    with pytest.raises(GraphSyntaxError, match="bad edge id"):
        parse_chain_text("a%b=1", g)
    with pytest.raises(UnknownEdgeError):
        parse_chain_text("zz=1", g)
    with pytest.raises(GraphSyntaxError, match="twice"):
        parse_chain_text("a=1,a=2", g)
