"""Plain-text graph descriptions and chain literals.

Graph file grammar, one statement per line:

    vertex <id>
    edge <id> <tail-id> <head-id> phase <radians> resistance <positive-float>

'#' starts a comment, blank lines are ignored, ids match [A-Za-z0-9_]+.
Phases are reduced mod 2*pi on load.  Chain literals name degree-1 chains as
comma-separated assignments like "e1=1+0.5i,e2=-2"; the complex forms are
"a", "ai", "a+bi" and "a-bi" with plain decimal floats.
"""
from __future__ import annotations

import math
import re

from .bundle import TWO_PI, LineBundle, attach_phases
from .chains import ChainVector, ResistanceMap, edge_basis
from .errors import GraphSemanticError, GraphSyntaxError, UnknownEdgeError
from .graphs import Graph, build_graph

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_UFLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT = r"[+-]?" + _UFLOAT
_FLOAT_RE = re.compile(_FLOAT + r"\Z")
_COMPLEX_RE = re.compile(rf"(?P<re>{_FLOAT})(?:(?P<sep>[+-])(?P<im>{_UFLOAT})i)?\Z")
_IMAG_RE = re.compile(rf"(?P<im>{_FLOAT})i\Z")


def _tokens(line: str):
    """(text, 1-based column) pairs for each whitespace-separated token."""
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_float(text: str, what: str, line_no: int, col: int) -> float:
    if not _FLOAT_RE.match(text):
        raise GraphSyntaxError(f"bad {what} {text!r}", line_no, col)
    return float(text)


def _check_id(text: str, what: str, line_no: int, col: int) -> str:
    if not _ID_RE.match(text):
        raise GraphSyntaxError(f"bad {what} {text!r}: ids match [A-Za-z0-9_]+", line_no, col)
    return text


def parse_graph_text(text: str) -> tuple[Graph, LineBundle, ResistanceMap]:
    vertices: list[str] = []
    vertex_lines: dict[str, int] = {}
    edges: list[tuple[str, str, str]] = []
    edge_lines: dict[str, int] = {}
    phases: dict[str, float] = {}
    resistances: dict[str, float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = _tokens(line)
        if not toks:
            continue
        keyword, kcol = toks[0]
        if keyword == "vertex":
            if len(toks) != 2:
                raise GraphSyntaxError("vertex takes exactly one id", line_no, kcol)
            vid = _check_id(toks[1][0], "vertex id", line_no, toks[1][1])
            if vid in vertex_lines:
                raise GraphSemanticError(f"duplicate vertex id {vid!r}", line_no)
            vertex_lines[vid] = line_no
            vertices.append(vid)
        elif keyword == "edge":
            if len(toks) != 8 or toks[4][0] != "phase" or toks[6][0] != "resistance":
                raise GraphSyntaxError(
                    "edge line must read: edge <id> <tail> <head> phase <radians> "
                    "resistance <positive-float>",
                    line_no,
                    kcol,
                )
            eid = _check_id(toks[1][0], "edge id", line_no, toks[1][1])
            tail = _check_id(toks[2][0], "tail id", line_no, toks[2][1])
            head = _check_id(toks[3][0], "head id", line_no, toks[3][1])
            theta = _parse_float(toks[5][0], "phase", line_no, toks[5][1])
            r = _parse_float(toks[7][0], "resistance", line_no, toks[7][1])
            if eid in edge_lines:
                raise GraphSemanticError(f"duplicate edge id {eid!r}", line_no)
            if tail not in vertex_lines:
                raise GraphSemanticError(f"edge {eid!r}: unknown tail vertex {tail!r}", line_no)
            if head not in vertex_lines:
                raise GraphSemanticError(f"edge {eid!r}: unknown head vertex {head!r}", line_no)
            if not math.isfinite(theta):
                raise GraphSemanticError(f"edge {eid!r}: phase must be finite", line_no)
            if not (math.isfinite(r) and r > 0.0):
                raise GraphSemanticError(f"edge {eid!r}: resistance must be positive", line_no)
            edge_lines[eid] = line_no
            edges.append((eid, tail, head))
            phases[eid] = theta % TWO_PI
            resistances[eid] = r
        else:
            raise GraphSyntaxError(f"unknown keyword {keyword!r}", line_no, kcol)
    g = build_graph(vertices, edges)
    return g, attach_phases(g, phases), ResistanceMap(resistances)


def emit_graph_text(g: Graph, L: LineBundle, R: ResistanceMap) -> str:
    """Inverse of parse_graph_text up to comments and whitespace."""
    lines = [f"vertex {v}" for v in g.vertices]
    for e in g.edges:
        theta = format(L.angle(e.id), ".17g")
        r = format(R.r(e.id), ".17g")
        lines.append(f"edge {e.id} {e.tail} {e.head} phase {theta} resistance {r}")
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> complex:
    """One complex literal: a, ai, a+bi or a-bi with decimal floats, each part finite."""
    s = text.strip()
    m = _IMAG_RE.match(s)
    if m:
        re_part, im = 0.0, float(m.group("im"))
    else:
        m = _COMPLEX_RE.match(s)
        if not m:
            raise GraphSyntaxError(f"bad complex literal {text!r}")
        re_part = float(m.group("re"))
        im = 0.0 if m.group("sep") is None else float(m.group("im"))
        if m.group("sep") == "-":
            im = -im
    if not (math.isfinite(re_part) and math.isfinite(im)):
        raise GraphSyntaxError(f"complex literal {text!r} is not finite")
    return complex(re_part, im)


def parse_chain_text(text: str, g: Graph) -> ChainVector:
    """Parse "e1=1+0.5i,e2=-2" into a degree-1 chain on g's edge basis."""
    basis = edge_basis(g)
    mapping: dict[str, complex] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise GraphSyntaxError("empty assignment in chain literal")
        if "=" not in part:
            raise GraphSyntaxError(f"chain assignment {part!r} is missing '='")
        name, _, value = part.partition("=")
        name = name.strip()
        if not _ID_RE.match(name):
            raise GraphSyntaxError(f"bad edge id {name!r} in chain literal")
        if not g.has_edge(name):
            raise UnknownEdgeError(f"unknown edge {name!r} in chain literal")
        if name in mapping:
            raise GraphSyntaxError(f"edge {name!r} assigned twice in chain literal")
        mapping[name] = parse_complex(value)
    return ChainVector.from_dict(1, basis, mapping)
