"""Far witnesses: refute the first K base-rational x-rulings, K = 40 to 400,
and the next K after them, K = 100 and 200.

Usage:

    python3 tools/far_witness.py

A pool of exactly the first K base-rational x-rulings is refuted at
emission (K+1)(K+2)/2, the first body of approach K + 1: every earlier body
holds the base rational its approach targets, which a pool line pierces.
Each K runs in a child process of its own, which imports the package from
``src``, times ``refute`` on a fresh stream at delta 1/2 and reports its
own peak resident size (``RUSAGE_SELF``; kilobytes on Linux), so no scan
inherits another's memory.  One line is printed per K.

A far-scan table does the same for the pools x = r_(K+1) ... r_2K, K = 100
and 200.  They pierce every body of approaches K + 1 to 2K by construction,
but not those of approaches 1 to K, so ``refute`` builds and checks the
support of each of those on its way to the witness: the first body of
approach 2K + 1, at emission (2K+1)(2K+2)/2, whose support holds none of
r_1 ... r_2K.

A second table times the whole ``refute --verify`` command, report
rendering and read-back included, in a child process per K for K = 27 (the
benchmark's middle stratum, witness at emission 406), 40, 100 and 200
(K = 400's command takes over a minute).  Each line gives the command's
seconds, its own peak resident size (``os.wait4``) and the size of its
report in bytes.  Two floor rows come first, each the median seconds of
``STARTS`` children: ``python -c pass``, and ``python -c "import
linepierce.cli"``, the start-up every command pays before its own work.

Exits 1 if a witness is not at the predicted emission, a far scan peaks
above ``SCAN_PEAK_MB`` or a command does not exit 0, else 0.  Standard
library only.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
KS = (40, 100, 200, 400)
SCAN_KS = (100, 200)
COMMAND_KS = (27, 40, 100, 200)
STARTS = 5
BUDGET = 100_000
TIMEOUT_S = 600
# The K = 200 far scan peaks near 55 MB, as each approach's support walk
# keeps nothing it has yielded; it peaked at 315 MB when the walk kept every
# support to reject repeats, so a walk that stores its output again fails.
SCAN_PEAK_MB = 100

CHILD = """
import json, resource, sys, time
from fractions import Fraction
from linepierce.family import FamilyStream, enumerate_Q0
from linepierce.geometry import ruling_line_x
from linepierce.refutation import refute

first, last, budget = (int(arg) for arg in sys.argv[1:])
pool = [ruling_line_x(enumerate_Q0(m)) for m in range(first, last + 1)]
start = time.perf_counter()
outcome = refute(pool, FamilyStream(Fraction(1, 2)), budget)
seconds = time.perf_counter() - start
print(json.dumps({
    "witness": outcome.witness.f_index if outcome.found else None,
    "seconds": seconds,
    "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run(first: int, last: int) -> dict:
    """``refute`` on the x-rulings through r_first ... r_last, in a child."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(first), str(last), str(BUDGET)],
                          env=ENV, capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"r_{first} ... r_{last}: child exited {done.returncode}: "
                           f"{done.stderr[-500:]}")
    return json.loads(done.stdout)


def witness_table(pools, peak_mb: float = float("inf")) -> list[str]:
    """One line per (K, first, last, predicted witness); the faults: each
    pool whose witness is not the predicted one or whose scan peaked above
    peak_mb."""
    print(f"{'K':>5} {'witness':>9} {'predicted':>9} {'seconds':>8} {'peak MB':>8}")
    faults = []
    for k, first, last, predicted in pools:
        result = run(first, last)
        print(f"{k:>5} {result['witness']!s:>9} {predicted:>9} "
              f"{result['seconds']:>8.2f} {result['peak_mb']:>8.1f}", flush=True)
        if result["witness"] != predicted:
            faults.append(f"witness not at the predicted emission for r_{first} ... r_{last}")
        if result["peak_mb"] > peak_mb:
            faults.append(f"r_{first} ... r_{last} peaked above {peak_mb} MB")
    return faults


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


def start_up(code: str) -> float:
    """Median seconds of ``STARTS`` children each running ``python -c code``."""
    times = []
    for _ in range(STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=ENV, check=True, timeout=TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    print(f"Python {sys.version.split()[0]}; first K base-rational x-rulings, delta 1/2")
    faults = witness_table((k, 1, k, (k + 1) * (k + 2) // 2) for k in KS)
    print("\nfar scan: x-rulings r_(K+1) ... r_2K, delta 1/2")
    faults += witness_table(
        ((k, k + 1, 2 * k, (2 * k + 1) * (2 * k + 2) // 2) for k in SCAN_KS), SCAN_PEAK_MB
    )
    print(f"\nwhole refute --verify command\n{'K':>5} {'seconds':>8} {'peak MB':>8} {'report bytes':>13}")
    for code in ("pass", "import linepierce.cli"):
        print(f"{'':>5} {start_up(code):>8.3f}  python -c {code!r}, median of {STARTS}",
              flush=True)
    with tempfile.TemporaryDirectory() as work:
        for k in COMMAND_KS:
            result = run_command(k, Path(work))
            print(f"{k:>5} {result['seconds']:>8.2f} {result['peak_mb']:>8.1f} "
                  f"{result['report_bytes']:>13}", flush=True)
    if faults:
        print("\n".join(faults))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
