"""A fixed exact-rational computation that uses only the standard library.

``run.py`` times it as its own process between the program's ops and scales
each timed span by it (see the docstring there).  Its three parts touch what
the program's ops do: sorting ``Fraction`` values (comparisons of 100-bit
rationals), scanning a list of 12 000 of them in random order (a working set
of a few MB), and parsing JSON records of ``"num/den"`` strings.  It runs
as a fresh process for the same reason the ops do: on the VM the baseline
was measured on, a process's speed depends partly on the process itself, so
one long-lived process would give every reference sample of a run the same
bias.
Prints check values that ``run.py`` compares.
"""

import json
import random
from fractions import Fraction


def sort_part(rng: random.Random) -> Fraction:
    xs = [Fraction(rng.getrandbits(100) + 1, rng.getrandbits(100) + 1) for _ in range(1000)]
    xs.sort()
    return sum(xs[i] - xs[i - 1] for i in range(1, len(xs), 7))


def scan_part(rng: random.Random) -> Fraction:
    xs = [Fraction(rng.getrandbits(100) + 1, rng.getrandbits(100) + 1) for _ in range(12000)]
    order = list(range(len(xs)))
    rng.shuffle(order)
    least = xs[0]
    for i in order:
        if xs[i] < least:
            least = xs[i]
    return least


def parse_part(rng: random.Random) -> Fraction:
    records = [
        {"support": [[f"{rng.getrandbits(200)}/{rng.getrandbits(200) + 1}" for _ in range(2)]
                     for _ in range(8)]}
        for _ in range(12)
    ]
    text = "\n".join(json.dumps(rec) for rec in records)
    total = Fraction(0)
    for line in text.splitlines():
        for a, b in json.loads(line)["support"]:
            lo, hi = Fraction(a), Fraction(b)
            if lo < hi:
                total += hi - lo
    return total


def main() -> None:
    rng = random.Random(0)
    for part in (sort_part, scan_part, parse_part):
        print(part(rng).numerator % 1_000_003)


if __name__ == "__main__":
    main()
