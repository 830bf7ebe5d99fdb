"""Command line interface.

Each subcommand loads a graph file, runs one of the identity reports and
prints it as JSON (default) or an aligned table, with the report's verdict.
Exit codes: 0 on success, 1 when the report does not pass, 2 on input errors,
3 when a numerical step fails on input that was accepted.  JSON
output is byte stable for identical invocations: keys are emitted in a fixed
order and floats with 17 significant digits.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .bundle import DEFAULT_EPS_HOL, Gauge, h0_trivial
from .chains import homology_dims
from .errors import DisconnectedError, HolotreeError, SingularTreeSystemError
from .fileformat import parse_chain_text, parse_graph_text
from .forests import enumerate_forests, forest_record
from .theorems import (
    _forest_total,
    gauge_invariance_check,
    kirchhoff_projection,
    low_temp_demo,
    matrix_tree_report,
    solve_network,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(x, ".17g")


def _write_json(value, out: list) -> None:
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_fmt_float(value))
    elif isinstance(value, complex):
        out.append('{"re": ' + _fmt_float(value.real) + ', "im": ' + _fmt_float(value.imag) + "}")
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)) + ": ")
            _write_json(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _write_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(value)!r}")


def render_json(report: dict) -> str:
    out: list = []
    _write_json(report, out)
    return "".join(out)


def _fmt_table_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, complex):
        sep = "+" if v.imag >= 0 else "-"
        return f"{v.real:.12g}{sep}{abs(v.imag):.12g}i"
    if isinstance(v, (list, tuple)):
        return ", ".join(_fmt_table_value(x) for x in v)
    if v is None:
        return "-"
    return str(v)


def render_table(report: dict) -> str:
    lines = []
    tables = []
    for key, value in report.items():
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            tables.append((key, value))
            continue
        if isinstance(value, dict):
            lines.append(f"{key}:")
            for k2, v2 in value.items():
                lines.append(f"  {k2:<22} {_fmt_table_value(v2)}")
            continue
        lines.append(f"{key:<24} {_fmt_table_value(value)}")
    for key, rows in tables:
        lines.append("")
        lines.append(f"{key}:")
        headers = list(rows[0])
        widths = {
            h: max(len(h), *(len(_fmt_table_value(row.get(h))) for row in rows)) for h in headers
        }
        lines.append("  " + "  ".join(h.ljust(widths[h]) for h in headers))
        for row in rows:
            lines.append(
                "  " + "  ".join(_fmt_table_value(row.get(h)).ljust(widths[h]) for h in headers)
            )
    return "\n".join(lines)


def _load(args):
    with open(args.file, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _cmd_validate(args):
    g, L, R = _load(args)
    dims = homology_dims(g, L)
    report = {
        "command": "validate",
        "file": args.file,
        "vertices": len(g.vertices),
        "edges": len(g.edges),
    }
    try:
        rep = h0_trivial(g, L, eps_hol=args.eps_hol)
    except DisconnectedError:
        report.update({"connected": False, "h0_trivial": False})
    else:
        report.update(
            {
                "connected": True,
                "h0_trivial": rep.trivial,
                "boundary_rank": rep.rank,
                "holonomy_route": rep.holonomy_route,
                "routes_agree": rep.routes_agree,
                "max_cycle_defect": rep.max_cycle_defect,
            }
        )
    report["dim_h0"] = dims[0]
    report["dim_h1"] = dims[1]
    return report, True


def _cmd_forests(args):
    g, L, R = _load(args)
    forests = enumerate_forests(g, L, R, args.eps_hol)
    rows = [
        {
            "edges": list(T.edges),
            "rho_hat": T.rho_hat,
            "weight": T.weight,
            "circuits": [
                {"walk": [[b, s] for b, s in c.circuit.edges], "holonomy": _complex_json(c.holonomy)}
                for c in T.components
            ],
        }
        for T in forests
    ]
    report = {
        "command": "forests",
        "file": args.file,
        "forest_count": len(forests),
        "delta": _forest_total([T.weight for T in forests]),
        "forests": rows,
    }
    return report, True


def _cmd_matrix_tree(args):
    g, L, R = _load(args)
    rep = matrix_tree_report(g, L, R, args.eps_hol)
    passed = rep.passed(args.tol)
    report = {
        "command": "matrix-tree",
        "file": args.file,
        "det_laplacian": rep.det_laplacian,
        "log_det": rep.log_det,
        "sum_weights": rep.sum_weights,
        "relative_error": rep.relative_error,
        "forest_count": rep.forest_count,
        "degenerate": rep.degenerate,
        "tolerance": args.tol,
        "passed": passed,
    }
    return report, passed


def _cmd_project(args):
    g, L, R = _load(args)
    pr = kirchhoff_projection(g, L, R, args.eps_hol)
    passed = pr.passed(args.tol)
    report = {
        "command": "project",
        "file": args.file,
        "delta": pr.delta,
        "forest_count": pr.forest_count,
        "max_entry_discrepancy": pr.max_entry_discrepancy,
        "idempotency_defect": pr.idempotency_defect,
        "self_adjointness_defect": pr.self_adjointness_defect,
        "boundary_defect": pr.boundary_defect,
        "kernel_fix_defect": pr.kernel_fix_defect,
        "scale": pr.scale,
        "tolerance": args.tol,
        "passed": passed,
    }
    return report, passed


def _cmd_solve(args):
    g, L, R = _load(args)
    V = parse_chain_text(args.voltage, g)
    sol = solve_network(g, L, R, V, args.eps_hol)
    passed = sol.passed(args.tol)
    currents = [
        {"edge": b, "re": float(z.real), "im": float(z.imag)}
        for b, z in zip(sol.current.basis, sol.current.coeffs)
    ]
    report = {
        "command": "solve",
        "file": args.file,
        "voltage": args.voltage,
        "currents": currents,
        "residual_norm": sol.residual.norm(),
        "route_discrepancy": sol.route_discrepancy,
        "residual_orthogonality": sol.orthogonality_defect,
        "tolerance": args.tol,
        "passed": passed,
    }
    return report, passed


def _cmd_lowtemp(args):
    g, L, R = _load(args)
    if args.tree:
        edges = [b.strip() for b in args.tree.split(",") if b.strip()]
        T = forest_record(g, L, R, edges, args.eps_hol)
    else:
        forests = enumerate_forests(g, L, R, args.eps_hol)
        if not forests:
            raise HolotreeError("no forest available for the low-temperature demo")
        T = forests[0]
    W = args.w
    if W != "auto":
        W = {name.strip(): float(value) for name, _, value in (p.partition("=") for p in W.split(","))}
    betas = [float(b) for b in args.beta.split(",") if b.strip()]
    rep = low_temp_demo(g, L, T, W, betas)
    passed = rep.passed()
    report = {
        "command": "lowtemp",
        "file": args.file,
        "tree": list(T.edges),
        "weight_exponents": {b: w for b, w in rep.weight_exponents},
        "betas": list(rep.betas),
        "ratios": list(rep.ratios),
        "deviations": list(rep.deviations),
        "tree_log_dets": list(rep.tree_log_dets),
        "full_log_dets": list(rep.full_log_dets),
        "monotone": rep.monotone,
        "final_deviation": rep.deviations[-1],
        "passed": passed,
    }
    return report, passed


def _cmd_gauge_check(args):
    if args.gauges < 1:
        raise ValueError(f"--gauges must be at least 1, got {args.gauges}")
    g, L, R = _load(args)
    rng = np.random.default_rng(args.seed)
    reps = []
    for _ in range(args.gauges):
        gauge = Gauge.from_angles(
            {v: float(a) for v, a in zip(g.vertices, rng.uniform(0.0, 2.0 * np.pi, len(g.vertices)))}
        )
        reps.append(gauge_invariance_check(g, L, R, gauge, args.eps_hol))
    passed = all(rep.passed(args.tol) for rep in reps)
    report = {
        "command": "gauge-check",
        "file": args.file,
        "gauges": args.gauges,
        "seed": args.seed,
        # np.max, unlike max, lets a nan show
        "det_relative_error_max": float(np.max([rep.det_relative_error for rep in reps])),
        "holonomy_defect_max": float(np.max([rep.holonomy_defect for rep in reps])),
        "census_equal": all(rep.census_equal for rep in reps),
        "dims_equal": all(rep.dims_equal for rep in reps),
        "tolerance": args.tol,
        "passed": passed,
    }
    return report, passed


_COMMANDS = {
    "validate": _cmd_validate,
    "forests": _cmd_forests,
    "matrix-tree": _cmd_matrix_tree,
    "project": _cmd_project,
    "solve": _cmd_solve,
    "lowtemp": _cmd_lowtemp,
    "gauge-check": _cmd_gauge_check,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="graph description file")
    common.add_argument("--tol", type=float, default=1e-9, help="identity tolerance")
    common.add_argument("--eps-hol", type=float, default=DEFAULT_EPS_HOL, dest="eps_hol",
                        help="threshold on |holonomy - 1| for nontriviality")
    common.add_argument("--format", choices=("json", "table"), default="json")
    parser = argparse.ArgumentParser(
        prog="holotree",
        description="Forest-sum identities for graph Laplacians twisted by unit edge phases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="connectivity, homology and phase checks")
    sub.add_parser("forests", parents=[common], help="census of weighted spanning forests")
    sub.add_parser("matrix-tree", parents=[common], help="det(laplacian) vs forest weight sum")
    sub.add_parser("project", parents=[common], help="forest average vs metric projection")
    p = sub.add_parser("solve", parents=[common], help="cycle fit to a voltage chain")
    p.add_argument("--voltage", required=True, help='degree-1 chain literal, e.g. "e1=1,e2=-2i"')
    p = sub.add_parser("lowtemp", parents=[common], help="restricted vs full determinant ratios")
    p.add_argument("--tree", default=None, help="comma-separated forest edges (default: first forest)")
    p.add_argument("--w", default="auto", help='weight exponents "b1=1,b2=4" or "auto"')
    p.add_argument("--beta", default="1,5,10,20,40", help="comma-separated beta values")
    p = sub.add_parser("gauge-check", parents=[common], help="invariance under random gauges")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gauges", type=int, default=20)
    return parser


def _report_error(exc: Exception, code: int) -> int:
    diag = {"type": type(exc).__name__, "message": str(exc)}
    for key in ("line", "column"):
        value = getattr(exc, key, None)
        if value is not None:
            diag[key] = value
    print(render_json({"error": diag}), file=sys.stderr)
    return code


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """One JSON line per warning, without the source file and line."""
    return render_json({"warning": {"type": category.__name__, "message": str(message)}}) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        for flag, value in (("--tol", args.tol), ("--eps-hol", args.eps_hol)):
            if not 0.0 <= value < float("inf"):
                raise ValueError(f"{flag} must be finite and nonnegative, got {value!r}")
        report, passed = _COMMANDS[args.command](args)
    # LinAlgError is a ValueError: numerical failures are caught first
    except (np.linalg.LinAlgError, SingularTreeSystemError, FloatingPointError) as exc:
        return _report_error(exc, EXIT_NUMERICAL)
    except (HolotreeError, OSError, ValueError) as exc:
        return _report_error(exc, EXIT_INPUT)
    finally:
        warnings.formatwarning = saved
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_table(report))
    return EXIT_OK if passed else EXIT_IDENTITY


if __name__ == "__main__":
    raise SystemExit(main())
