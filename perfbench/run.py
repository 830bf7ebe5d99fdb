"""Run a holotree benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census_cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run it from the repository root; holotree is imported from `src/`.  Each
workload runs in a child process of its own, with the BLAS pinned to one
thread.  The child builds the seeded inputs (set-up, repeated and reported as
a median), then runs op 0, 1, 2, ... until `--seconds` have passed and
checks each op's outputs.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` the
child runs a fixed number of ops twice, first plain and then with the layer
tracer of `tracing.py` active, so that count metrics repeat exactly; the
metrics are then the per-layer ones.

After the measured ops each workload runs its probes of the known defects
listed in `workloads.py`: legal inputs that fail today, run a fixed number of
times, untimed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `attempted` and `failed` count the
measured ops, and `correct` is false when any of them fails or when the plain
and the traced pass of a traced run disagree.  The line before it,
`{"info": ...}`, records the environment, the seed, the op count, the samples
behind `op_tail_s`, `fail_ratio`, the outcome of every op and, under
`known_defects`, how many probe inputs of each defect were tried and failed.

Exit status: 0 after a completed run (failed ops included), 2 when the
holotree sources are missing, 1 when a child process fails.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import tracing  # noqa: E402

WORKLOADS = ("census_cold", "phase_sweep", "dense_large")
CHILD_TIMEOUT_S = 170
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's self-test")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _percentile_tail(samples):
    """Highest percentile with at least ten samples above it, its value and
    the sample count.  With ten samples or fewer, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1], n
    return 100.0 * (n - 10) / n, xs[n - 11], n


def _environment(blas_threads: str) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": int(blas_threads),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def child_main(args) -> int:
    import resource
    import shutil
    import statistics
    import tracemalloc
    import warnings

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import holotree  # noqa: F401
    import workloads

    import_s = time.perf_counter() - t0
    # ConditioningWarning text goes to stderr and is not part of any metric
    warnings.simplefilter("ignore")

    scale = workloads.SCALES[args.scale]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](scale, str(workdir))
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        setups = []
        for _ in range(workloads.SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup(args.seed)
            setups.append(time.perf_counter() - t)
        if tracer:
            k = max(2, int(args.seconds / (2.0 * scale["op_seconds"][args.workload])))
            ops = [wl.op(i) for i in range(k)]
            tracer.active = True
            traced = [wl.op(i) for i in range(k)]
            tracer.active = False
            tracemalloc.start()
            wl.op(0)
            peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            tracer.uninstall()
        else:
            ops = []
            t_end = time.perf_counter() + args.seconds
            while not ops or time.perf_counter() < t_end:
                ops.append(wl.op(len(ops)))
        probes = wl.probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [[o.failed_checks, o.forests] for o in ops]
    failed = sum(1 for o in ops if not o.passed)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "env": _environment(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "ops": len(ops),
        "fail_ratio": failed / len(ops),
        "import_s": import_s,
        "setup_repeats_s": setups,
        "outcomes": outcomes,
        "known_defects": {
            name: {"attempted": len(rs), "failed": sum(1 for r in rs if not r.passed),
                   "outcomes": [r.failed_checks for r in rs]}
            for name, rs in probes.items()
        },
    }
    op_s = [o.seconds for o in ops]
    busy = sum(op_s)
    if tracer:
        traced_s = sum(o.seconds for o in traced)
        consistent = [[o.failed_checks, o.forests] for o in traced] == outcomes
        info["traced_matches_plain"] = consistent
        metrics = tracer.metrics(traced_s / busy - 1.0, peak_alloc_mb)
        correct = consistent and failed == 0
    else:
        pct, tail, n = _percentile_tail(op_s)
        info["op_tail_percentile"] = pct
        info["op_samples"] = n
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "ops_per_s": len(ops) / busy,
            "forests_per_s": sum(o.forests for o in ops) / busy,
            "op_p50_s": statistics.median(op_s),
            "op_tail_s": tail,
            "peak_rss_mb": rss_mb,
        }
        correct = failed == 0
    print(json.dumps({"info": info, "correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_child(args, workload: str):
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with status {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return None


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "forests_per_s": "1/s", "op_p50_s": "s",
         "op_tail_s": "s", "peak_rss_mb": "MB"}


def _with_units(metrics: dict) -> dict:
    units = dict(UNITS, **{name: unit for name, unit, _ in tracing.LAYER_METRICS})
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "holotree" / "__init__.py").is_file():
        print(f"perfbench: no holotree sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_child(args, name)
        if res is None:
            return 1
        results[name] = res
    if len(names) == 1:
        res = results[names[0]]
        metrics = _with_units(res["metrics"])
        print(json.dumps({"info": res["info"]}))
    else:
        metrics = {}
        for name, res in results.items():
            info = res["info"]
            print(f"{name}: ops {info['ops']}, fail_ratio {info['fail_ratio']:.4f}, "
                  f"correct {res['correct']}")
            for defect, d in info["known_defects"].items():
                print(f"  known defect {defect}: {d['failed']} of {d['attempted']} probes failed")
            for key, m in _with_units(res["metrics"]).items():
                print(f"  {key:<42} {m['value']:.6g} {m['unit']}")
                metrics[f"{name}.{key}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
