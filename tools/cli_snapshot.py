"""Run the holotree command line over a fixed corpus and record every run.

    PYTHONPATH=src python3 tools/cli_snapshot.py OUT

writes a seeded corpus of graph files to a temporary directory, runs each of
the seven commands on each file in a fresh `python -m holotree` process (in
JSON and table form, in JSON with --eps-hol 0.5 and 1.5, and `solve` once
with a voltage on an unknown edge), and writes each run's argv, exit code,
stdout and stderr to OUT.  Every run uses the holotree that this script
imports, so two checkouts compare with

    PYTHONPATH=a/src python3 tools/cli_snapshot.py a.txt
    PYTHONPATH=b/src python3 tools/cli_snapshot.py b.txt
    cmp a.txt b.txt

Fresh processes matter: Python prints a warning once per source line, so an
in-process corpus would hide warnings that a single command prints.
"""
from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import holotree  # noqa: E402
from perfbench.workloads import random_multigraph  # noqa: E402

COMMANDS = ("validate", "forests", "matrix-tree", "project", "solve", "lowtemp", "gauge-check")
THETA_PHASES = {  # theta graph: edges a, b, c from u to v
    "theta": (0.0, 2.0943951023931953, 4.1887902047863905),
    "theta_3e-8": (0.0, 3e-8, 2.0),  # circuit {a, b} 3e-8 from 1
    "theta_1e-10": (0.0, 1e-10, 2.0),  # below the default eps_hol
    "theta_trivial": (0.0, 0.0, 0.0),  # degenerate: every holonomy is 1
}
FIXED = {
    "loop_trivial.txt": "vertex v\nedge l v v phase 0 resistance 1\n",
    "disconnected.txt": (
        "vertex u\nvertex v\nvertex w\n"
        "edge a u v phase 0 resistance 1\nedge b u v phase 1 resistance 2\n"
        "edge c w w phase 2 resistance 1\n"
    ),
    "malformed.txt": "vertex u\nvertex v\nedge a u v phase 1 resistance 1..5\n",
}


def _graph_text(vertices, edges) -> str:
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {b} {t} {h} phase {a!r} resistance {r!r}" for b, t, h, a, r in edges]
    return "\n".join(lines) + "\n"


def corpus() -> dict[str, str]:
    files = {}
    for k in range(3):
        rng = np.random.default_rng([20121016, k])
        vertices, triples = random_multigraph(rng, 7, 14)
        angles = rng.uniform(0.0, 2.0 * math.pi, 14).tolist()
        resist = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 14)).tolist()
        for tag, s in (("", 1.0), ("_x1e-60", 1e-60), ("_x1e+60", 1e60)):
            edges = [(*t, a, r * s) for t, a, r in zip(triples, angles, resist)]
            files[f"g{k}{tag}.txt"] = _graph_text(vertices, edges)
    for name, phases in THETA_PHASES.items():
        for tag, r in (("", 1.0), ("_r1e+60", 1e60)):
            edges = [(b, "u", "v", a, r) for b, a in zip("abc", phases)]
            files[f"{name}{tag}.txt"] = _graph_text(("u", "v"), edges)
    files.update(FIXED)
    return files


def runs(files: dict[str, str]):
    for name, text in files.items():
        edge = next(line.split()[1] for line in text.splitlines() if line.startswith("edge"))
        voltage = ["--voltage", f"{edge}=1-0.5i"]
        for cmd in COMMANDS:
            extra = voltage if cmd == "solve" else []
            for opts in ([], ["--format", "table"], ["--eps-hol", "0.5"], ["--eps-hol", "1.5"]):
                yield [cmd, name, *extra, *opts]
        yield ["solve", name, "--voltage", "zz=1"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record CLI runs over a fixed corpus.")
    parser.add_argument("out", help="file to write the runs to")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(holotree.__file__).resolve().parents[1]))
    with tempfile.TemporaryDirectory() as work, open(args.out, "wb") as out:
        files = corpus()
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        for run in runs(files):
            proc = subprocess.run(
                [sys.executable, "-m", "holotree", *run], cwd=work, env=env, capture_output=True
            )
            out.write(f"=== holotree {' '.join(run)}\nexit {proc.returncode}\n".encode())
            out.write(b"--- stdout\n" + proc.stdout + b"--- stderr\n" + proc.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
