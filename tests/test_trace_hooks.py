"""The benchmark's tracer still binds every hook it relies on.

``perfbench/tracer.py`` rebinds functions and methods of the package by
name, and the benchmark's must-hit counters read what those wrappers count.
Four small traced commands here call every hook below, so a refactor that
renames or bypasses a traced name fails in seconds instead of only in the
benchmark's own self-test.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from linepierce.geometry import Line3, Point3, line_to_record, ruling_line_x

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
MUST_HIT = [
    "family.emit",
    "family.assign",
    "intervals.subtract_open",
    "intervals.from_pairs",
    "geometry.line_plane_intersection",
    "geometry.classify_line",
    "refutation.pierce",
    "cli.verify_refutation",
    # the load path and the read commands, which the benchmark's read and
    # construct must-hit counters read
    "exactnum.parse_rational",
    "family.body_from_record",
    # construct's writer must build each record through the traced seam
    "family.body_to_record",
    "cli.load_family",
    "intervals.deep_witness",
    "refutation.piercing_matrix",
    "refutation.min_line_cover",
    # the refute and read must-hit counters of the support queries, the
    # surface meet and the certificates
    "intervals.contains",
    "intervals.remove_intervals",
    "geometry.line_surface_intersection",
    "exactnum.solve_quadratic",
    "refutation.non_piercing_certificate",
    "cli.load_lines",
]
GENERIC_LINE = Line3(Point3(F(0), F(0), F(1)), (F(1), F(1), F(0)))


def write_lines(path, lines):
    path.write_text("".join(json.dumps(line_to_record(line)) + "\n" for line in lines))


def traced_calls(tmp_path, name, argv) -> dict[str, int]:
    trace = tmp_path / f"{name}.trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(TRACER), "--trace-out", str(trace), "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(trace.read_text())["calls"]


def test_traced_commands_hit_every_hook(tmp_path):
    refute_pool, cover_pool = tmp_path / "refute.jsonl", tmp_path / "cover.jsonl"
    write_lines(refute_pool, [ruling_line_x(F(1, 2)), GENERIC_LINE])
    # some x = j/16 meets each body, so the cover exists
    write_lines(cover_pool, [ruling_line_x(F(j, 16)) for j in range(17)] + [GENERIC_LINE])
    runs = {
        "construct": ["construct", "--delta", "1/2", "-N", "12", "--out", "family.jsonl"],
        "refute": ["refute", "--delta", "1/2", "--lines", refute_pool.name, "--out", "r.json"],
        "witness": ["witness", "--family", "family.jsonl", "--t", "2", "--out", "w.json"],
        "cover": ["cover", "--family", "family.jsonl", "--lines", cover_pool.name,
                  "--out", "c.json"],
    }
    totals: dict[str, int] = {}
    for name, argv in runs.items():
        for hook, count in traced_calls(tmp_path, name, [*argv, "--verify"]).items():
            totals[hook] = totals.get(hook, 0) + count
    assert [hook for hook in MUST_HIT if not totals.get(hook)] == []
