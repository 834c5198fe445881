"""Predicate cost against the body index: microseconds per ``pierce`` call,
and per ``non_piercing_certificate`` call for a line that misses.

Usage:

    python3 tools/pierce_cost.py

For each f in ``FS``, the body is emission f's of the family at delta 1/2:
its approach m = m_of(f) and visit n in the dovetail give q, the n-th
value of approach m's dyadic sequence, and the support, the n-th of
``SupportAssigner(1/2, m)``.  (An earlier emission that took the same q
would move it; the tilt eps = 2^-(2f+4) is emission f's either way.)  Six
lines are aimed at it, each at a chart abscissa c: the middle of the
support's first piece of positive length, where the line pierces, or the
middle of its first gap, where it misses.  They are the x-ruling x = c, the
y-ruling y = q + eps*c, and a generic line of direction (1, 1, 0) through
the chart point (c, w), with w halfway from the parabola up to the top
chord (pierced) or up to the gap's chord (missed).  The generic lines pass
within eps of the surface, so the slab filter in ``pierce`` cannot decide
them, and every call reaches the plane meet.

Each cell is the median, over ``ROUNDS`` rounds, of the seconds per call
of ``pierce`` over a list of fresh bodies (the same q and support), so
every call is a body's first, as in the read commands: ``pierce`` reads
only the plane's ints a body sets at construction, and a certificate also
reads the body's cached ``eps``, ``r_min`` and ``r_max`` for the first
time.  The last three columns time ``non_piercing_certificate`` for each
missed line, which classifies the line itself, in the same way.

A last row is shaped like one ``cover --verify`` of the read benchmark:
the first ``READ_N`` bodies at delta 1/2, decoded afresh from their records
for each round, and the pool of session 0 of
``perfbench/pools.py::read_sessions(READ_SEED, 1)``, 17 x-rulings at j/16
and 8 generic lines.  It times the decode of the records, one
``piercing_matrix`` over the bodies, then, on the same bodies, the
cross-check pierce of each body by the first column of the minimum cover
that its row marks; the cover itself is not timed.  Its medians are over
``READ_ROUNDS`` rounds, after the untimed first, so each timed decode
finds every support endpoint text in the reader's tables.  The row also
gives the slab filter's census over the generic lines' cells: how many
its height test decides, and how many reach the plane meet.

The package is imported from ``src``; each row is timed in this one
process, after one untimed round.  Exits 1 if a line does not pierce or
miss as aimed, a certificate does not hold, or a cover line misses a body
its row marks, else 0.  Standard library only.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction
from itertools import islice
from math import isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from linepierce.family import (  # noqa: E402
    ConvexBody,
    FamilyStream,
    SupportAssigner,
    body_from_record,
    body_to_record,
    dyadic_approach,
    enumerate_Q0,
    m_of,
)
from linepierce.geometry import (  # noqa: E402
    GENERIC,
    Line3,
    classify_line,
    line_from_record,
    ruling_line_x,
    ruling_line_y,
)
from linepierce.refutation import (  # noqa: E402
    _surely_misses,
    min_line_cover,
    non_piercing_certificate,
    pierce,
    piercing_matrix,
)
from pools import read_sessions  # noqa: E402

FS = (100, 1_000, 5_000, 20_000, 80_000)
ROUNDS = 5
CALLS = 200_000  # calls per round times f, down to MIN_CALLS
MIN_CALLS = 20
DIRECTION = (Fraction(1), Fraction(1), Fraction(0))
COLUMNS = ("x-ruling", "y-ruling", "generic")
READ_N = 1024
READ_SEED = 0
READ_ROUNDS = 21  # each round is short, so more of them


def emission(f: int) -> ConvexBody:
    """Emission f's approach m and visit n, read as the body described above."""
    m = m_of(f)
    n = (isqrt(8 * f - 7) - 1) // 2 + 2 - m  # round r = k + 1 visits approach m the (r - m + 1)-th time
    q = next(islice(dyadic_approach(enumerate_Q0(m)), n - 1, None))
    support = next(islice(iter(SupportAssigner(Fraction(1, 2), m).assign, None), n - 1, None))
    return ConvexBody(Fraction(*q), f, support)


def aimed_lines(body: ConvexBody) -> dict[tuple[str, bool], Line3]:
    """(class, pierces) -> the line aimed at the body as the docstring says."""
    points = body.support.points
    pieces = list(zip(points[::2], points[1::2]))
    lo, hi = next((a, b) for a, b in pieces if a < b)
    (_, a), (b, _) = pieces[0], pieces[1]  # the first gap (a, b)
    lines = {}
    for pierces, c, roof in ((True, (lo + hi) / 2, body.top_chord),
                             (False, (a + b) / 2, lambda u: body.chord(a, b, u))):
        w = (body.parabola(c) + roof(c)) / 2
        lines["x-ruling", pierces] = ruling_line_x(c)
        lines["y-ruling", pierces] = ruling_line_y(body.q + body.eps * c)
        lines["generic", pierces] = Line3(body.from_chart(c, w), DIRECTION)
    return lines


def cost_us(decide, line: Line3, body: ConvexBody, calls: int) -> tuple[float, list]:
    """Median microseconds per ``decide(line, body)`` call over fresh bodies,
    and the answers of the last round."""
    samples = []
    for _ in range(ROUNDS + 1):
        fresh = [ConvexBody(body.q, body.f_index, body.support) for _ in range(calls)]
        start = time.perf_counter()
        answers = [decide(line, b) for b in fresh]
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples[1:]), answers


def read_row() -> list[str]:
    """Print the read-shaped row: the median, over ``READ_ROUNDS`` rounds, of the
    milliseconds of the records' decode and of one ``piercing_matrix``, and the
    microseconds per cross-check pierce, and the filter's census; return its faults."""
    records = [body_to_record(b) for b in islice(FamilyStream(Fraction(1, 2)).bodies(), READ_N)]
    lines = [line_from_record(rec) for rec, _ in read_sessions(READ_SEED, 1)[0][1]]
    decode_s, matrix_s, verify_us, missed = [], [], [], False
    for _ in range(READ_ROUNDS + 1):
        start = time.perf_counter()
        bodies = [body_from_record(rec) for rec in records]
        decode_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        matrix = piercing_matrix(bodies, lines)
        matrix_s.append(time.perf_counter() - start)
        columns = min_line_cover(matrix).columns
        pairs = [(lines[next(c for c in columns if row[c])], body)
                 for body, row in zip(bodies, matrix)]
        start = time.perf_counter()
        answers = [pierce(line, body) for line, body in pairs]
        verify_us.append((time.perf_counter() - start) / len(pairs) * 1e6)
        missed |= not all(answers)
    cells = [(line, body) for line in lines if classify_line(line).kind == GENERIC
             for body in bodies]
    decided = sum(_surely_misses(line, body) for line, body in cells)
    print(f"read: {READ_N} bodies x {len(lines)} lines, decode "
          f"{statistics.median(decode_s[1:]) * 1e3:.1f} ms, piercing_matrix "
          f"{statistics.median(matrix_s[1:]) * 1e3:.1f} ms, cover --verify pierce "
          f"{statistics.median(verify_us[1:]):.1f} us per call; the height test "
          f"decides {decided} of {len(cells)} generic cells, {len(cells) - decided} "
          f"reach the plane meet")
    return ["read row: a cover line misses a body its row marks"] if missed else []


def main() -> int:
    print(f"Python {sys.version.split()[0]}; microseconds per pierce call, then per "
          f"certificate of a missed line, median of {ROUNDS} rounds, delta 1/2")
    print(f"{'f':>7} {'k bits':>7} " + " ".join(f"{c + ' ' + s:>18}"
                                               for c in COLUMNS for s in ("pierced", "missed"))
          + " " + " ".join(f"{c + ' cert':>18}" for c in COLUMNS))
    faults = []
    for f in FS:
        body = emission(f)
        lines = aimed_lines(body)
        cells = []
        calls = max(MIN_CALLS, CALLS // f)
        for cls in COLUMNS:
            for pierces in (True, False):
                us, answers = cost_us(pierce, lines[cls, pierces], body, calls)
                cells.append(f"{us:>18.1f}")
                if set(answers) != {pierces}:
                    faults.append(f"f = {f}: the {cls} line aimed to {'pierce' if pierces else 'miss'} does not")
        for cls in COLUMNS:
            line = lines[cls, False]
            us, certs = cost_us(non_piercing_certificate, line, body, calls)
            cells.append(f"{us:>18.1f}")
            if not all(cert is not None and cert.holds() for cert in certs):
                faults.append(f"f = {f}: a certificate of the missed {cls} line does not hold")
        print(f"{f:>7} {body.k:>7} " + " ".join(cells), flush=True)
    faults += read_row()
    if faults:
        print("\n".join(faults))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
