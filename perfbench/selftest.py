"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * runs print exactly the metric names and units declared in BENCHMARK.json;
  * every workload's traced pass succeeds: the untraced and traced ops write
    byte-identical artifacts, and no per-layer counter the workload must hit
    reads zero (run.py marks the run incorrect otherwise);
  * the benchmark refuses to run, without printing a result, in a directory
    holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    """One short run must be correct and print exactly the declared metrics."""
    label = f"{workload} --trace {trace}"
    done = run_benchmark(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = [f"{label}: {line.strip()}" for line in done.stdout.splitlines() if "FAILED" in line]
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: incorrect result")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {set(printed) ^ set(declared)}")
    return problems


def check_bare_directory() -> list[str]:
    bare = run.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(bare, "construct", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = check_bare_directory()
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    for workload in run.WORKLOADS:
        problems += check_run(workload, 1, per_layer)
    problems += check_run("refute", 0, end_to_end)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
