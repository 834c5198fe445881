"""Far witnesses: refute the first K base-rational x-rulings, K = 40 to 400.

Usage:

    python3 tools/far_witness.py

A pool of exactly the first K base-rational x-rulings is refuted at
emission (K+1)(K+2)/2, the first body of approach K + 1: every earlier body
holds the base rational its approach targets, which a pool line pierces.
Each K runs in a child process of its own, which imports the package from
``src``, times ``refute`` on a fresh stream at delta 1/2 and reports its
own peak resident size (``RUSAGE_SELF``; kilobytes on Linux), so no scan
inherits another's memory.  One line is printed per K.  Exits 1 if a
witness is not at the predicted emission, else 0.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KS = (40, 100, 200, 400)
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
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", CHILD, str(k), str(BUDGET)], env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"K = {k}: child exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout)


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
    if wrong:
        print(f"witness not at (K+1)(K+2)/2 for K = {wrong}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
