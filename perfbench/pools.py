"""Seeded line pools for the benchmark workloads.

Every pool is a list of ``(record, cls)`` pairs: ``record`` is the JSON-lines
form the CLI reads (``{"base": [...], "dir": [...]}``, rationals as
``"num/den"``) and ``cls`` is the ruling class the pool was built with
(``x_ruling``, ``y_ruling`` or ``generic``).  The program never sees the
class; the traced pass uses it to bucket ``pierce`` calls.

The benchmark's own rationals live here too, written with ``fractions`` only,
so that input generation and output checks never call into the program.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

# Refute pool sizes: the seed draws one K from each stratum, covering 15..40.
# The five middle strata are all K = 27, so op_p50_s is the median of many
# ops of nearly equal cost (they differ only in their seeded y-rulings and
# generic lines), not the time of the one op that happens to sit in the
# middle.  The narrow outer strata keep a round's total cost nearly the same
# on every seed.
REFUTE_STRATA = [(15, 16), (18, 19), (21, 22), (24, 25), (27, 27), (27, 27), (27, 27),
                 (27, 27), (27, 27), (29, 30), (32, 33), (35, 36), (39, 40)]
REFUTE_Y_RULINGS = 3
REFUTE_GENERIC = 5

# Read pools: the 17 x-rulings at multiples of 1/16 pierce every body of the
# 1024-body prefix (checked when the workload is set up), so `cover` must
# succeed; 8 generic lines bring the pool to the 25-column exact-cover limit.
READ_X_DENOMINATOR = 16
READ_GENERIC = 8
READ_T_RANGE = (2, 512)  # deep_witness is guaranteed for t <= 1 + (1024-1)/2


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def base_rationals(k: int) -> list[Fraction]:
    """First k terms of 0, 1, 1/2, 1/3, 2/3, 1/4, ... (the family's order)."""
    out = [Fraction(0), Fraction(1)]
    den = 2
    while len(out) < k:
        out.extend(Fraction(n, den) for n in range(1, den) if gcd(n, den) == 1)
        den += 1
    return out[:k]


def x_ruling(c: Fraction) -> dict:
    """The line x = c, z = c*y."""
    return {"base": [fmt(c), "0/1", "0/1"], "dir": ["0/1", "1/1", fmt(c)]}


def y_ruling(b: Fraction) -> dict:
    """The line y = b, z = b*x."""
    return {"base": ["0/1", fmt(b), "0/1"], "dir": ["1/1", "0/1", fmt(b)]}


def _near_base_rational(rng: random.Random) -> Fraction:
    r = rng.choice(base_rationals(20)) + rng.choice((-1, 1)) * Fraction(1, 2 ** rng.randint(5, 9))
    return min(max(r, Fraction(0)), Fraction(1))


def generic_line(rng: random.Random) -> dict:
    """A line through the surface point (a, b, a*b), with a and b within
    2^-5 of base rationals; dx and dy are nonzero, so it is no ruling."""
    a, b = _near_base_rational(rng), _near_base_rational(rng)
    dy = Fraction(rng.randint(1, 8), rng.choice((3, 5, 7)))
    dz = Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4)))
    return {"base": [fmt(a), fmt(b), fmt(a * b)], "dir": ["1/1", fmt(dy), fmt(dz)]}


def refute_pool(rng: random.Random, k: int) -> list[tuple[dict, str]]:
    """First k base-rational x-rulings, a few y-rulings, several generic lines."""
    pool = [(x_ruling(c), "x_ruling") for c in base_rationals(k)]
    for _ in range(REFUTE_Y_RULINGS):
        # large prime denominators keep b off every emitted q
        b = Fraction(rng.randint(1, 196), rng.choice((197, 199, 211)))
        pool.append((y_ruling(b), "y_ruling"))
    pool.extend((generic_line(rng), "generic") for _ in range(REFUTE_GENERIC))
    return pool


def refute_pools(seed: int) -> list[list[tuple[dict, str]]]:
    rng = random.Random(seed)
    sizes = [rng.randint(lo, hi) for lo, hi in REFUTE_STRATA]
    return [refute_pool(rng, k) for k in sizes]


def read_sessions(seed: int, count: int) -> list[tuple[int, list[tuple[dict, str]]]]:
    """`count` sessions of (witness depth t, cover pool)."""
    rng = random.Random(seed)
    sessions = []
    for _ in range(count):
        t = rng.randint(*READ_T_RANGE)
        pool = [
            (x_ruling(Fraction(j, READ_X_DENOMINATOR)), "x_ruling")
            for j in range(READ_X_DENOMINATOR + 1)
        ]
        pool.extend((generic_line(rng), "generic") for _ in range(READ_GENERIC))
        rng.shuffle(pool)
        sessions.append((t, pool))
    return sessions


def write_pool(pool: list[tuple[dict, str]], lines_path: Path, classes_path: Path) -> None:
    """Write the CLI's lines file and the benchmark's class sidecar."""
    lines_path.write_text(
        "".join(json.dumps(rec, sort_keys=True) + "\n" for rec, _ in pool), encoding="utf-8"
    )
    classes_path.write_text(
        json.dumps([{**rec, "class": cls} for rec, cls in pool]), encoding="utf-8"
    )
