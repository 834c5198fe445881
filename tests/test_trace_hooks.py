"""The benchmark's tracer still binds every hook it relies on.

``perfbench/tracer.py`` rebinds functions and methods of the package by
name, and the benchmark's must-hit counters read what those wrappers count.
Four small traced commands here must each call their own hooks below, as
``perfbench/run.py``'s must-hit counters are per workload, so a refactor
that renames or bypasses a traced name in one command fails in seconds
instead of only in the benchmark's own self-test, even where another
command still calls it.
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
# the load path of the three commands that read a file of bodies
LOAD = ["cli.load_family", "family.body_from_record", "exactnum.parse_rational",
        "intervals.from_pairs"]
MUST_HIT = {
    # the write path, with construct's read-back; its writer must build each
    # record through the traced seam
    "construct": ["family.emit", "family.assign", "intervals.remove_intervals",
                  "intervals.subtract_open", "family.body_to_record", *LOAD],
    # every layer: the support queries, the plane and surface meets, the
    # certificates and the verifier
    "refute": ["family.emit", "family.assign", "intervals.remove_intervals",
               "intervals.subtract_open", "intervals.contains",
               "geometry.line_plane_intersection", "geometry.classify_line",
               "geometry.line_surface_intersection", "exactnum.solve_quadratic",
               "refutation.pierce", "refutation.non_piercing_certificate",
               "cli.load_lines", "cli.verify_refutation"],
    # the depth sweep, and the geometric pierce of each member
    "witness": ["intervals.deep_witness", "refutation.pierce", *LOAD],
    # the matrix, the support rule of its x-rulings, and the geometric
    # pierce of its generic cells and of the verifier
    "cover": ["refutation.piercing_matrix", "refutation.min_line_cover",
              "refutation.pierce", "geometry.line_plane_intersection",
              "geometry.classify_line", "intervals.contains", "cli.load_lines", *LOAD],
}
GENERIC_LINE = Line3(Point3(F(0), F(0), F(1)), (F(1), F(1), F(0)))


def write_lines(path, lines):
    path.write_text("".join(json.dumps(line_to_record(line)) + "\n" for line in lines))


def traced(tmp_path, name, argv) -> dict:
    """The trace of one command; the cover pool's classes sidecar, where
    one exists, buckets its ``pierce`` calls by line class."""
    trace, classes = tmp_path / f"{name}.trace.json", tmp_path / "cover.classes.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    sidecar = ["--classes", str(classes)] if name == "cover" else []
    done = subprocess.run(
        [sys.executable, str(TRACER), "--trace-out", str(trace), *sidecar, "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(trace.read_text())


def test_traced_commands_hit_every_hook(tmp_path):
    refute_pool, cover_pool = tmp_path / "refute.jsonl", tmp_path / "cover.jsonl"
    write_lines(refute_pool, [ruling_line_x(F(1, 2)), GENERIC_LINE])
    # some x = j/16 meets each body, so the cover exists
    xs = [ruling_line_x(F(j, 16)) for j in range(17)]
    write_lines(cover_pool, xs + [GENERIC_LINE])
    (tmp_path / "cover.classes.json").write_text(json.dumps(
        [{**line_to_record(x), "class": "x_ruling"} for x in xs]
        + [{**line_to_record(GENERIC_LINE), "class": "generic"}]
    ))
    runs = {
        "construct": ["construct", "--delta", "1/2", "-N", "12", "--out", "family.jsonl"],
        "refute": ["refute", "--delta", "1/2", "--lines", refute_pool.name, "--out", "r.json"],
        "witness": ["witness", "--family", "family.jsonl", "--t", "2", "--out", "w.json"],
        "cover": ["cover", "--family", "family.jsonl", "--lines", cover_pool.name,
                  "--out", "c.json"],
    }
    missed, traces = {}, {}
    for name, argv in runs.items():
        traces[name] = traced(tmp_path, name, [*argv, "--verify"])
        missed[name] = [hook for hook in MUST_HIT[name] if not traces[name]["calls"].get(hook)]
    assert missed == {name: [] for name in runs}
    # the matrix decides each of the 12 bodies' generic cells by ``pierce``,
    # which the benchmark's generic buckets time
    assert traces["cover"]["pierce_buckets"].get("generic.f_lt_100", [0])[0] >= 12
