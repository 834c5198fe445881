"""Acceptance gate: one test per criterion, exact (zero-tolerance) checks.

Each test prints a single summary line; run with `pytest -s` to see them.
Randomized inputs use fixed seeds so the gate is reproducible.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import combinations

from linepierce.cli import main
from linepierce.geometry import (
    GENERIC,
    Line3,
    Point3,
    classify_line,
    line_surface_intersection,
    line_to_record,
    ruling_line_x,
    ruling_line_y,
)
from linepierce.intervals import deep_witness, make_cover, remove_intervals
from linepierce.refutation import (
    max_vertical_distance,
    min_line_cover,
    non_piercing_certificate,
    pierce,
)
from oracles import expected_certificate, pieces, prefix, surface_residual_parts


def report(n: int, elapsed: float, message: str) -> None:
    print(f"criterion {n} PASS ({elapsed:.2f}s): {message}")


def test_criterion_1_cover_complements_keep_measure():
    start = time.monotonic()
    rng = random.Random(101)
    total = 0
    for delta in (F(1, 2), F(3, 4)):
        for level in range(1, 6):
            cover = make_cover(delta, level)
            for _ in range(200):
                picks = [rng.randrange(cover.size)
                         for _ in range(cover.picks_per_set)]
                assert remove_intervals(cover, picks).measure() >= delta
                total += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, elapsed, f"{total} random cover-complement sets all have measure >= delta")


def _random_member_sets(rng, delta, count):
    sets = []
    for _ in range(count):
        cover = make_cover(delta, rng.randint(1, 3))
        picks = [rng.randrange(cover.size)
                 for _ in range(cover.picks_per_set)]
        sets.append(remove_intervals(cover, picks))
    return sets


def _brute_best_depth(sets):
    points = {F(0), F(1)}
    for s in sets:
        points.update(s.points)
    ordered = sorted(points)
    candidates = ordered + [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    return max(sum(1 for s in sets if s.contains(x)) for x in candidates)


def test_criterion_2_deep_point_from_pigeonhole():
    start = time.monotonic()
    delta = F(1, 2)
    rng = random.Random(103)
    families = 0
    for t in (2, 3, 4):
        for _ in range(200):
            sets = _random_member_sets(rng, delta, 2 * t - 1)
            got = deep_witness(sets, t)
            assert got is not None, "pigeonhole bound violated"
            x, members = got
            assert len(members) == t
            assert all(sets[i].contains(x) for i in members)
            assert _brute_best_depth(sets) >= t
            families += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, elapsed, f"{families} random families all yield a depth-t point, oracle agrees")


def _probe_values(body, inside_needed=20, outside_needed=20):
    inside, outside = [], []
    for k in range(-30, 211):
        r = F(k, 180)
        if body.support.contains(r):
            if len(inside) < inside_needed:
                inside.append(r)
        elif len(outside) < outside_needed:
            outside.append(r)
        if len(inside) == inside_needed and len(outside) == outside_needed:
            break
    # gap midpoints are the adversarial misses; swap them in at the front
    gaps = [
        (hi + lo2) / 2
        for (_, hi), (lo2, _) in zip(pieces(body.support), pieces(body.support)[1:])
    ]
    outside = (gaps + outside)[:outside_needed]
    return inside, outside


def test_criterion_3_piercing_matches_support_membership():
    start = time.monotonic()
    bodies = prefix(F(1, 2), 50)
    pairs = 0
    for body in bodies:
        inside, outside = _probe_values(body)
        assert len(inside) == 20 and len(outside) == 20
        for r in inside:
            assert pierce(ruling_line_x(r), body)
            pairs += 1
        for r in outside:
            assert not pierce(ruling_line_x(r), body)
            pairs += 1
    elapsed = time.monotonic() - start
    report(3, elapsed, f"{pairs} (line, body) pairs: geometric and interval paths agree")


def test_criterion_4_vertical_distance_closed_form():
    start = time.monotonic()
    bodies = prefix(F(1, 2), 100)
    for body in bodies:
        closed = max_vertical_distance(body)
        span = body.r_max - body.r_min
        assert closed == body.eps * span * span / 4
        assert closed <= body.eps
        mid = (body.r_min + body.r_max) / 2
        samples = [body.r_min + span * k / 999 for k in range(999)] + [mid]
        for u in samples:
            offset = body.top_chord(u) - body.parabola(u)
            assert 0 <= offset <= closed
        assert body.top_chord(mid) - body.parabola(mid) == closed
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(4, elapsed, "100 bodies x 1000 exact samples within the closed-form maximum")


def test_criterion_5_surface_meeting_counts():
    start = time.monotonic()
    rng = random.Random(107)

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    seen = {0: 0, 1: 0, 2: 0, "on": 0}
    for i in range(1000):
        if i % 50 == 0:
            line = ruling_line_x(F(i % 17, 17)) if i % 100 else ruling_line_y(rat())
        else:
            direction = (rat(), rat(), rat())
            if all(c == 0 for c in direction):
                direction = (F(1), F(0), F(0))
            line = Line3(Point3(rat(), rat(), rat()), direction)
        meet = line_surface_intersection(line)
        ruled = classify_line(line).kind != GENERIC
        assert meet.on_surface == ruled
        if meet.on_surface:
            seen["on"] += 1
            continue
        assert len(meet.points) in (0, 1, 2)
        seen[len(meet.points)] += 1
        for p in meet.points:
            assert surface_residual_parts(p) == (0, 0)
    assert all(seen[k] > 0 for k in seen)
    elapsed = time.monotonic() - start
    report(5, elapsed, f"1000 lines: counts {seen}, zero residuals, ruling iff on-surface")


def refutation_fixtures():
    """20 deterministic pools, sizes 1..5, mixing all three line classes."""
    rng = random.Random(109)
    pools = []
    for i in range(20):
        size = i % 5 + 1
        pool = []
        for j in range(size):
            kind = (i + j) % 3
            if kind == 0:
                pool.append(ruling_line_x(F(rng.randint(0, 12), rng.randint(1, 12))))
            elif kind == 1:
                pool.append(ruling_line_y(F(rng.randint(0, 12), rng.randint(1, 12))))
            else:
                while True:
                    base = Point3(F(rng.randint(-4, 4), rng.randint(1, 4)),
                                  F(rng.randint(-4, 4), rng.randint(1, 4)),
                                  F(rng.randint(-4, 4), rng.randint(1, 4)))
                    direction = (F(rng.randint(-4, 4), rng.randint(1, 4)),
                                 F(rng.randint(-4, 4), rng.randint(1, 4)),
                                 F(rng.randint(-4, 4), rng.randint(1, 4)))
                    if all(c == 0 for c in direction):
                        continue
                    line = Line3(base, direction)
                    if classify_line(line).kind == GENERIC:
                        pool.append(line)
                        break
        pools.append(pool)
    return pools


def _run_refute_cli(tmp_path, tag, pool):
    lines = tmp_path / f"{tag}-lines.jsonl"
    out = tmp_path / f"{tag}-report.json"
    lines.write_text(
        "".join(json.dumps(line_to_record(l), sort_keys=True) + "\n" for l in pool),
        encoding="utf-8",
    )
    code = main(["refute", "--delta", "1/2", "--lines", str(lines),
                 "--out", str(out), "--verify"])
    return code, out


def test_criterion_6_refutation_soundness(tmp_path):
    from linepierce.family import body_from_record

    start = time.monotonic()
    worst = 0.0
    deepest = 0
    for k, pool in enumerate(refutation_fixtures()):
        t0 = time.monotonic()
        code, out = _run_refute_cli(tmp_path, f"fix{k}", pool)
        took = time.monotonic() - t0
        assert code == 0, "search budget exhausted on a fixture"
        assert took < 60.0
        data = json.loads(out.read_text(encoding="utf-8"))
        body = body_from_record(data["witness"])
        for line in pool:  # independent of the CLI's own --verify pass
            assert not pierce(line, body)
        assert [cert["line"] for cert in data["certificates"]] == list(range(len(pool)))
        for cert, line in zip(data["certificates"], pool):
            fresh = non_piercing_certificate(line, body)
            assert fresh is not None and fresh.holds()
            # what the certificate states, derived by an oracle of its own
            stated = (cert["case"], F(cert["lhs"]), cert["rel"], F(cert["rhs"]))
            assert stated == expected_certificate(line_to_record(line), data["witness"])
        worst = max(worst, took)
        deepest = max(deepest, data["emission_index"])
    elapsed = time.monotonic() - start
    report(6, elapsed, f"20 pools refuted (worst {worst:.2f}s, deepest witness {deepest})")


def test_criterion_7_monotone_evasion_in_pool_size(tmp_path):
    start = time.monotonic()
    rs = [F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(2, 5)]
    indices = []
    for size in (2, 4, 6):
        pool = [ruling_line_x(r) for r in rs[:size]]
        code, out = _run_refute_cli(tmp_path, f"nest{size}", pool)
        assert code == 0
        indices.append(json.loads(out.read_text(encoding="utf-8"))["emission_index"])
    assert indices == sorted(indices)
    elapsed = time.monotonic() - start
    report(7, elapsed, f"nested pools of 2/4/6 lines: witness emissions {indices}")


def _brute_cover_size(matrix: tuple[tuple[bool, ...], ...]) -> int:
    for size in range(len(matrix[0]) + 1):
        for chosen in combinations(range(len(matrix[0])), size):
            if all(any(row[c] for c in chosen) for row in matrix):
                return size
    raise AssertionError("unreachable for coverable matrices")


def test_criterion_8_cover_solver_matches_enumeration():
    start = time.monotonic()
    rng = random.Random(113)
    for _ in range(100):
        rows = rng.randint(1, 9)
        cols = rng.randint(1, 12)
        entries = [[rng.random() < 0.3 for _ in range(cols)] for _ in range(rows)]
        for row in entries:
            if not any(row):
                row[rng.randrange(cols)] = True
        matrix = tuple(tuple(r) for r in entries)
        assert len(min_line_cover(matrix).columns) == _brute_cover_size(matrix)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(8, elapsed, "100 random matrices: branch-and-bound equals subset enumeration")


def test_criterion_9_pipeline_determinism(tmp_path):
    start = time.monotonic()
    fixture = refutation_fixtures()[0]
    artifacts = []
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        family = d / "family.jsonl"
        witness = d / "witness.json"
        lines = d / "lines.jsonl"
        refutation = d / "refute.json"
        lines.write_text(
            "".join(json.dumps(line_to_record(l), sort_keys=True) + "\n" for l in fixture),
            encoding="utf-8",
        )
        assert main(["construct", "--delta", "1/2", "-N", "100", "--out", str(family)]) == 0
        assert main(["witness", "--t", "3", "--family", str(family), "--out", str(witness)]) == 0
        assert main(["refute", "--delta", "1/2", "--lines", str(lines), "--out", str(refutation)]) == 0
        artifacts.append(
            (family.read_bytes(), witness.read_bytes(), refutation.read_bytes())
        )
    assert artifacts[0] == artifacts[1]
    elapsed = time.monotonic() - start
    report(9, elapsed, "construct/witness/refute artifacts byte-identical across runs")
