"""Construct's own peak: time ``construct`` at N = 2,000 to 16,000, with and
without ``--verify``, and split ``-N 2000 --verify`` into its phases.

Usage:

    python3 tools/construct_peak.py

Runs ``python -m linepierce.cli construct --delta 1/2 -N n --out <tmp>``
for each n, once without ``--verify`` and once with it, one child process
each, with the package imported from ``src``. Without ``--verify`` each
body is written as it is emitted; with it the bodies are built into a list
before the write, to compare with the bodies the file reads back as. Each
line gives n, whether ``--verify`` was passed, the command's seconds, its
peak resident size (``ru_maxrss`` from ``os.wait4``; kilobytes on Linux)
and the size of the family file in bytes. A first ``python -c pass`` line
shows the floor: a child starts with the resident size its parent had at
the fork, so no peak reads below it, and this process only stats the files
its children write, so reading one cannot raise the next child's peak.

A last table, taken after the peak rows, gives the seconds of each phase
of ``construct -N 2000 --verify``, as the command runs them: emitting the
bodies into a list, writing the file, reading it back, and comparing the
bodies read with those emitted, then each support's measure with delta by
the command's own test.  The phases run ``PHASE_RUNS`` times, each time in
a child process of its own, and each row gives a phase's median and
quartiles over those runs, as one run's seconds vary by more than a
change worth measuring.

From body 7,141 on, the tilt denominator 2^(2f+4) has more than 4,300
digits, past Python's limit on converting an int to a string, so the
N = 16,000 rows show what long tilts cost to write and to read back.

Exits 1 if a command does not exit 0 or the phases' read-back differs,
else 0. Standard library only.
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
COUNTS = (2_000, 4_000, 8_000, 16_000)
PHASE_COUNT = 2_000
PHASE_RUNS = 7
PHASE_NAMES = ("emit", "write", "read", "compare")

# cmd_construct's steps under --verify, each timed
PHASES = """
import json, sys, time
from fractions import Fraction
from itertools import islice
from linepierce.cli import _write, load_family
from linepierce.family import FamilyStream, body_to_record, record_line

n, out, delta = int(sys.argv[1]), sys.argv[2], Fraction(1, 2)
clock = [time.perf_counter()]
bodies = list(islice(FamilyStream(delta).bodies(), n))
clock.append(time.perf_counter())
_write(out, map(record_line, map(body_to_record, bodies)))
clock.append(time.perf_counter())
reloaded = load_family(out)
clock.append(time.perf_counter())
same = reloaded == bodies and not any(b.support.measure_below(delta) for b in reloaded)
clock.append(time.perf_counter())
print(json.dumps({"seconds": [b - a for a, b in zip(clock, clock[1:])], "same": same}))
"""


def run(argv: list[str]) -> tuple[int, float, float]:
    """The child's exit code, seconds and peak resident size in MB."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=ENV, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss / 1024


def main() -> int:
    print(f"Python {sys.version.split()[0]}; construct --delta 1/2 -N n [--verify]")
    print(f"{'n':>14} {'verify':>6} {'seconds':>8} {'peak MB':>8} {'file bytes':>11}")
    code, seconds, peak = run([sys.executable, "-c", "pass"])
    print(f"{'python -c pass':>14} {'':>6} {seconds:>8.2f} {peak:>8.1f} {'':>11}", flush=True)
    failed = [] if code == 0 else ["python -c pass"]
    with tempfile.TemporaryDirectory() as work:
        for n in COUNTS:
            out = Path(work) / f"family_{n}.jsonl"
            for flags in ([], ["--verify"]):
                code, seconds, peak = run([sys.executable, "-m", "linepierce.cli", "construct",
                                           "--delta", "1/2", "-N", str(n), "--out", str(out),
                                           *flags])
                size = out.stat().st_size if out.exists() else 0
                verify = "yes" if flags else "no"
                print(f"{n:>14} {verify:>6} {seconds:>8.2f} {peak:>8.1f} {size:>11}", flush=True)
                if code != 0:
                    failed.append(" ".join([f"N = {n}", *flags, f"exited {code}"]))
        out = Path(work) / "phases.jsonl"
        runs = []
        for _ in range(PHASE_RUNS):
            done = subprocess.run([sys.executable, "-c", PHASES, str(PHASE_COUNT), str(out)],
                                  env=ENV, capture_output=True, text=True)
            if done.returncode != 0 or not json.loads(done.stdout)["same"]:
                failed.append(f"phases of N = {PHASE_COUNT} --verify: {done.stderr[-500:]}")
                break
            runs.append(json.loads(done.stdout)["seconds"])
    if len(runs) == PHASE_RUNS:
        print(f"N = {PHASE_COUNT} --verify, seconds over {PHASE_RUNS} runs")
        print(f"{'phase':>14} {'median':>8} {'q1':>8} {'q3':>8}")
        for name, seconds in zip(PHASE_NAMES, zip(*runs)):
            q1, median, q3 = statistics.quantiles(seconds, n=4)
            print(f"{name:>14} {median:>8.3f} {q1:>8.3f} {q3:>8.3f}")
    if failed:
        print(f"failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
