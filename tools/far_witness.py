"""Far witnesses: refute the first K base-rational x-rulings, K = 40 to 400.

Usage:

    python3 tools/far_witness.py

A pool of exactly the first K base-rational x-rulings is refuted at
emission (K+1)(K+2)/2, the first body of approach K + 1: every earlier body
holds the base rational its approach targets, which a pool line pierces.
Each K runs in a child process of its own, which imports the package from
``src``, times ``refute`` on a fresh stream at delta 1/2 and reports its
own peak resident size (``RUSAGE_SELF``; kilobytes on Linux), so no scan
inherits another's memory.  One line is printed per K.

A second table times the whole ``refute --verify`` command, report
rendering and read-back included, in a child process per K for K = 40, 100
and 200 (K = 400's command takes over a minute).  Each line gives the
command's seconds, its own peak resident size (``os.wait4``) and the size
of its report in bytes.

Exits 1 if a witness is not at the predicted emission or a command does not
exit 0, else 0.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
KS = (40, 100, 200, 400)
COMMAND_KS = (40, 100, 200)
BUDGET = 100_000
TIMEOUT_S = 600

CHILD = """
import json, resource, sys, time
from fractions import Fraction
from linepierce.family import FamilyStream, enumerate_Q0
from linepierce.geometry import ruling_line_x
from linepierce.refutation import refute

k, budget = int(sys.argv[1]), int(sys.argv[2])
pool = [ruling_line_x(enumerate_Q0(m)) for m in range(1, k + 1)]
start = time.perf_counter()
outcome = refute(pool, FamilyStream(Fraction(1, 2)), budget)
seconds = time.perf_counter() - start
print(json.dumps({
    "witness": outcome.witness.f_index if outcome.found else None,
    "seconds": seconds,
    "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run(k: int) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, str(k), str(BUDGET)], env=ENV,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"K = {k}: child exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout)


def write_pool(k: int, path: Path) -> None:
    """The pool as a lines file, written by the package from ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from linepierce.family import enumerate_Q0
    from linepierce.geometry import line_to_record, ruling_line_x

    path.write_text("".join(
        json.dumps(line_to_record(ruling_line_x(enumerate_Q0(m)))) + "\n" for m in range(1, k + 1)
    ), encoding="utf-8")


def run_command(k: int, work: Path) -> dict:
    """The whole ``refute --verify`` command on the pool, in a child process."""
    lines, report = work / f"pool_{k}.jsonl", work / f"report_{k}.json"
    write_pool(k, lines)
    argv = [sys.executable, "-m", "linepierce.cli", "refute", "--delta", "1/2",
            "--lines", str(lines), "--nmax", str(BUDGET), "--out", str(report), "--verify"]
    with open(work / "stderr.txt", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=ENV, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        err.seek(0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"K = {k}: refute --verify exited {code}: {err.read()[-500:]}")
    return {"seconds": seconds, "peak_mb": usage.ru_maxrss / 1024,
            "report_bytes": report.stat().st_size}


def main() -> int:
    print(f"Python {sys.version.split()[0]}; first K base-rational x-rulings, delta 1/2")
    print(f"{'K':>5} {'witness':>9} {'predicted':>9} {'seconds':>8} {'peak MB':>8}")
    wrong = []
    for k in KS:
        predicted = (k + 1) * (k + 2) // 2
        result = run(k)
        print(f"{k:>5} {result['witness']!s:>9} {predicted:>9} "
              f"{result['seconds']:>8.2f} {result['peak_mb']:>8.1f}", flush=True)
        if result["witness"] != predicted:
            wrong.append(k)
    print(f"\nwhole refute --verify command\n{'K':>5} {'seconds':>8} {'peak MB':>8} {'report bytes':>13}")
    with tempfile.TemporaryDirectory() as work:
        for k in COMMAND_KS:
            result = run_command(k, Path(work))
            print(f"{k:>5} {result['seconds']:>8.2f} {result['peak_mb']:>8.1f} "
                  f"{result['report_bytes']:>13}", flush=True)
    if wrong:
        print(f"witness not at (K+1)(K+2)/2 for K = {wrong}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
