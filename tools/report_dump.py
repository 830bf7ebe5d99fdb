"""Dump every field of the public reports, bit for bit, for comparison.

    PYTHONPATH=src python3 tools/report_dump.py OUT

runs `matrix_tree_report`, `kirchhoff_projection`, `solve_network`,
`gauge_invariance_check`, `oracle_projection`, `h0_trivial` (at the default
`tol` and at `H0_TOL`) and `homology_dims` on the 100-graph test suite
(`tests/conftest.make_suite()`, with one seeded voltage and gauge per graph),
once at the default `eps_hol` and once at 0.5, which excludes and warns, and
on the `phase_sweep` benchmark bundles of seeds 1-10, ops 0-99 (drawn
with `perfbench.workloads`' own helpers, as its ops draw them), and writes
one line per report to OUT.  On the suite graphs it also runs
`is_tree_homological` on the first `TREE_SUBSETS` n-edge subsets, in edge
order, and `tree_laplacian_identity` on every forest `enumerate_forests`
admits.  Floats are written as `float.hex`, arrays as the
SHA-256 of their bytes, and a report that raises as its exception; warnings
are written on the line after.  Every run uses the holotree that this script
imports, so two checkouts compare with

    PYTHONPATH=a/src python3 tools/report_dump.py a.txt
    PYTHONPATH=b/src python3 tools/report_dump.py b.txt
    cmp a.txt b.txt
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]

from conftest import make_suite  # noqa: E402
from holotree import (  # noqa: E402
    DEFAULT_EPS_HOL,
    ChainVector,
    Gauge,
    ResistanceMap,
    attach_phases,
    edge_basis,
    enumerate_forests,
    gauge_invariance_check,
    h0_trivial,
    homology_dims,
    is_tree_homological,
    kirchhoff_projection,
    matrix_tree_report,
    oracle_projection,
    solve_network,
    tree_laplacian_identity,
)
from perfbench import workloads  # noqa: E402

SWEEP_SEEDS = range(1, 11)
SWEEP_OPS = range(100)
H0_TOL = 1e-6
TREE_SUBSETS = 30


def _fmt(value) -> str:
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"{value.dtype}{list(value.shape)}:{digest}"
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return f"({value.real.hex()},{value.imag.hex()})"
    if dataclasses.is_dataclass(value):
        return "{" + " ".join(f"{f.name}={_fmt(getattr(value, f.name))}"
                              for f in dataclasses.fields(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    return repr(value)


def _reports(g, L, R, V, gauge, eps_hol):
    yield "matrix_tree_report", lambda: matrix_tree_report(g, L, R, eps_hol)
    yield "kirchhoff_projection", lambda: kirchhoff_projection(g, L, R, eps_hol)
    yield "solve_network", lambda: solve_network(g, L, R, V, eps_hol)
    yield "gauge_invariance_check", lambda: gauge_invariance_check(g, L, R, gauge, eps_hol)
    yield "oracle_projection", lambda: oracle_projection(g, L, R)
    yield "h0_trivial", lambda: h0_trivial(g, L, eps_hol=eps_hol)
    yield f"h0_trivial/tol={H0_TOL!r}", lambda: h0_trivial(g, L, H0_TOL, eps_hol)
    yield "homology_dims", lambda: homology_dims(g, L)


def _forest_reports(g, L, R, eps_hol):
    n_subsets = itertools.combinations(edge_basis(g), len(g.vertices))
    subsets = list(itertools.islice(n_subsets, TREE_SUBSETS))
    yield "is_tree_homological", lambda: [is_tree_homological(g, L, ids) for ids in subsets]
    yield "tree_laplacian_identity", lambda: [
        tree_laplacian_identity(g, L, T) for T in enumerate_forests(g, L, R, eps_hol)]


def _dump(out, label: str, g, L, R, V, gauge, eps_hol=DEFAULT_EPS_HOL, forests=False) -> None:
    reports = _reports(g, L, R, V, gauge, eps_hol)
    if forests:
        reports = itertools.chain(reports, _forest_reports(g, L, R, eps_hol))
    for name, call in reports:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                text = _fmt(call())
            except Exception as exc:  # a report that raises is part of the record
                text = f"raised {type(exc).__name__}: {exc}"
        out.write(f"{label} {name} {text}\n")
        for w in caught:
            out.write(f"{label} {name} warning {w.category.__name__}: {w.message}\n")


def _suite_inputs():
    for k, t in enumerate(make_suite()):
        g = t.graph
        rng = np.random.default_rng([17, k])
        ids = edge_basis(g)
        V = ChainVector(1, ids, rng.normal(size=len(ids)) + 1j * rng.normal(size=len(ids)))
        gauge = Gauge.from_angles(
            {v: float(a) for v, a in zip(g.vertices, rng.uniform(0.0, 2.0 * math.pi, len(g.vertices)))}
        )
        for eps_hol in (DEFAULT_EPS_HOL, 0.5):
            yield f"{t.name}/{eps_hol!r}", g, t.bundle, t.resist, V, gauge, eps_hol, True


def _sweep_inputs():
    """The inputs of `workloads.PhaseSweep.op(i)`, drawn in the same order."""
    sweep = workloads.PhaseSweep(workloads.SCALES["full"], workdir=None)
    for seed in SWEEP_SEEDS:
        sweep.setup(seed)
        g = sweep.graph
        for i in SWEEP_OPS:
            rng = workloads._rng(seed, sweep.ident, i)
            ids = edge_basis(g)
            angles, resist = workloads._random_bundle(rng, ids)
            V = ChainVector(1, ids, rng.normal(size=len(ids)) + 1j * rng.normal(size=len(ids)))
            gauge = Gauge.from_angles(
                {v: float(a) for v, a in zip(g.vertices, rng.uniform(0.0, 2.0 * math.pi, len(g.vertices)))}
            )
            yield f"phase_sweep/{seed}/{i}", g, attach_phases(g, angles), ResistanceMap(resist), V, gauge


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Dump every report field for bit comparison.")
    parser.add_argument("out", help="file to write the dump to")
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as out:
        for inputs in (_suite_inputs(), _sweep_inputs()):
            for label, *rest in inputs:
                _dump(out, label, *rest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
