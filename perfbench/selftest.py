"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it runs the benchmark once plain and twice traced with
one seed, and checks that:

* every run reports `correct` and the metric names and units that
  BENCHMARK.json declares;
* the plain run and both traced runs agree op by op on pass/fail, forest
  count and known-defect tag, over the ops they share;
* the two traced runs report exactly equal count metrics;
* all three runs report the same known-defect probe outcomes;
* a copy holding only BENCHMARK.json and the benchmark's own files exits
  nonzero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = "1"


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def bench(workload: str, trace: int):
    proc = run(str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", SECONDS, "--trace", str(trace), "--scale", "tiny")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = [name for name, unit in per_layer.items() if unit == "count"]
    for wl in spec["workloads"]:
        name = wl["name"]
        info, plain = bench(name, 0)
        info_t1, traced1 = bench(name, 1)
        info_t2, traced2 = bench(name, 1)
        for res in (plain, traced1, traced2):
            check(res["correct"] is True, f"{name}: run reported correct=false")
            check(res["attempted"] >= 1, f"{name}: no ops attempted")
        check({k: v["unit"] for k, v in plain["metrics"].items()} == end_to_end,
              f"{name}: end-to-end metrics differ from BENCHMARK.json")
        check({k: v["unit"] for k, v in traced1["metrics"].items()} == per_layer,
              f"{name}: per-layer metrics differ from BENCHMARK.json")
        shared = min(len(info["outcomes"]), len(info_t1["outcomes"]))
        check(info["outcomes"][:shared] == info_t1["outcomes"][:shared],
              f"{name}: plain and traced runs disagree on some op")
        check(info_t1["outcomes"] == info_t2["outcomes"], f"{name}: traced runs disagree")
        check(info_t1["traced_matches_plain"] and info_t2["traced_matches_plain"],
              f"{name}: traced pass disagrees with the plain pass of the same run")
        check(info["known_defects"] == info_t1["known_defects"] == info_t2["known_defects"],
              f"{name}: known-defect probes differ between runs with one seed")
        for c in counts:
            check(traced1["metrics"][c]["value"] == traced2["metrics"][c]["value"],
                  f"{name}: count {c} differs between two traced runs")
        print(f"ok {name}: {len(info['outcomes'])} plain ops, {len(info_t1['outcomes'])} traced ops, "
              f"fail_ratio {info['fail_ratio']:.3f}")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
        check(proc.returncode != 0, "bare copy without sources exited 0")
        check(proc.stdout.strip() == "", "bare copy without sources printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare copy exits nonzero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
