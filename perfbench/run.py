"""linepierce benchmark: seeded CLI workloads, checked outputs, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload {construct,refute,read} --seed N \
        --seconds S --trace {0,1}

Each op runs the real CLI as its own process (``python -m linepierce.cli``
with ``PYTHONPATH=src``): one client, closed loop, one process at a time.
A *round* is the fixed, seeded list of ops of a workload; the run repeats the
round until ``--seconds`` have passed and at least two rounds are done.
Every op's output is checked, and every round must write the same artifact
bytes as the first; a failed check counts in ``failed`` and is never skipped.

Times are reported at a reference host speed.  On the 2-vCPU VM the
baseline was measured on (``BASELINE.md``), the same op runs up to 30%
slower or faster for stretches of 5-20 seconds, so raw run times spread far
beyond a useful regression bound.  So the untraced pass runs a fixed
exact-rational computation that uses only the standard library
(``reference.py``) as its own process after every timed span (each set-up
and each CLI process), about one reference second per four seconds of span
and at least once, and scales each span by ``REF_NOMINAL_S / median(samples
just before and just after it)``.  A change to the program cannot move the
reference; a slower stretch of the host moves both.  The raw times are
printed on the lines before the JSON.

End-to-end metrics (``--trace 0``), every span scaled as above:
  setup_s      median time of the workload's set-up (inputs, a warm-up CLI
               run, and for ``read`` the family file), repeated >= 3 times
  wall_s       wall time of one round (every op of the workload once),
               median over the run's rounds
  op_p50_s     median wall time of one op (for ``read``, a witness and a
               cover process, each scaled by its own samples)
  peak_rss_mb  largest peak RSS of any op process (per-child rusage)
``op_tail_s`` (highest percentile with 10 ops beyond it) and ``fail_ratio``
are printed on the lines before the JSON, not in it: construct runs have too
few ops for a tail, and ``fail_ratio`` is 0 on a correct program, which is
``failed / attempted`` in the JSON.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (the traced ops run under ``perfbench/tracer.py``,
also one process per op, so in-process caches never carry over), requires
byte-identical artifacts from both, and reports the per-layer metrics.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pools

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
WORK_ROOT = ROOT / ".perfbench_run"

DELTA = "1/2"
CONSTRUCT_N = 2000
CONSTRUCT_SHA256 = "cd43c8de4d90bddc0737e571da7ea113ac5c6a24dc4b75a44db256280d644ecc"
WARMUP_N = 200
READ_N = 1024  # its body file is the first 1024 lines of the construct artifact
READ_FAMILY_SHA256 = "e6abbc84b07d1364b72b53c2d414bd7ffc58751eef721d78c58e86c571a16b72"
READ_SESSIONS = 3
REFUTE_NMAX = 2000  # the latest witness at this commit (K = 40) is emission 861
# set-up runs at least 3 times and for at least 2 s; setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
OP_TIMEOUT_S = 120
RUN_LIMIT_S = 150  # no round starts that would end the run after this
TAIL_BEYOND = 10
MIN_ROUNDS = 2
# reference.py took REF_NOMINAL_S on the 2-vCPU, 2.1 GHz Xeon VM the baseline
# was measured on, and prints REF_CHECK.
REF_NOMINAL_S = 0.1
REF_CHECK = ["170308", "626743", "810798"]
REF_SHARE = 0.25  # reference time per second of a timed span


# --- running one CLI process -------------------------------------------------


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_cli(args: list[str], cwd: Path, trace_out: Path | None = None, classes: Path | None = None) -> Proc:
    if trace_out is None:
        cmd = [sys.executable, "-m", "linepierce.cli", *args]
    else:
        cmd = [sys.executable, str(TRACER), "--trace-out", str(trace_out)]
        cmd += ["--classes", str(classes)] if classes else []
        cmd += ["--", *args]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # per-child rusage
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        rc=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def reference_s() -> float:
    """Wall time of one run of ``reference.py``, checked like an op."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(REFERENCE)], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or done.stdout.split() != REF_CHECK:
        raise RuntimeError(f"reference computation failed: {done.stdout!r} {done.stderr[-200:]!r}")
    return elapsed


class Reference:
    """Reference samples around each timed span, and the span at reference speed.

    The host's speed changes within seconds, so a span is scaled by the
    samples taken just before and just after it, not by a median over the
    whole run.  Disabled, it takes no samples and scales nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.before = [reference_s()] if enabled else []
        self.samples = list(self.before)

    def scale(self, wall: float) -> float:
        if not self.enabled:
            return wall
        after = [reference_s() for _ in range(max(1, round(REF_SHARE * wall / REF_NOMINAL_S)))]
        self.samples += after
        local = statistics.median(self.before + after)
        self.before = after
        return wall * REF_NOMINAL_S / local


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- output checks (independent of the program's code) -----------------------


def check_process(proc: Proc, marker: str) -> str | None:
    if "Traceback (most recent call last)" in proc.stderr:
        return "traceback: " + proc.stderr.strip().splitlines()[-1]
    if proc.rc != 0:
        return f"exit code {proc.rc}: {proc.stderr.strip()[-200:]}"
    if marker not in proc.stdout:
        return f"--verify did not report {marker!r}"
    return None


def _support(body_record: dict) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(a), Fraction(b)) for a, b in body_record["support"]]


def _inside(support, x: Fraction) -> bool:
    return any(lo <= x <= hi for lo, hi in support)


def _holds(cert: dict) -> bool:
    lhs, rhs, rel = Fraction(cert["lhs"]), Fraction(cert["rhs"]), cert["rel"]
    return {"<": lhs < rhs, ">": lhs > rhs, "!=": lhs != rhs}.get(rel, False)


def construct_args(n: int, out: Path) -> list[str]:
    return ["construct", "--delta", DELTA, "-N", str(n), "--out", str(out), "--verify"]


def check_family(proc: Proc, out: Path, n: int, pinned: str | None) -> str | None:
    problem = check_process(proc, f"verified {n} bodies")
    if problem is None and pinned is not None and sha256(out) != pinned:
        problem = f"family sha256 {sha256(out)} != pinned {pinned}"
    return problem


def check_refute(proc: Proc, out: Path, pool: list[tuple[dict, str]]) -> str | None:
    """Soundness only: the witness index and report bytes are not pinned."""
    problem = check_process(proc, "verified refutation report")
    if problem:
        return problem
    report = json.loads(out.read_text(encoding="utf-8"))
    certs = report.get("certificates", [])
    if not report.get("found") or [c["line"] for c in certs] != list(range(len(pool))):
        return "report lacks one certificate per pool line"
    if not all(_holds(c) for c in certs):
        return "a certificate inequality is false"
    witness = report["witness"]
    if Fraction(witness["eps"]) != Fraction(1, 4 ** (witness["f"] + 2)):
        return "witness tilt is not 4^-(f+2)"
    support = _support(witness)
    if any(cls == "x_ruling" and _inside(support, Fraction(rec["base"][0])) for rec, cls in pool):
        return "an x-ruling of the pool lies in the witness support"
    return None


def check_witness(proc: Proc, out: Path, t: int, supports) -> str | None:
    problem = check_process(proc, f"verified {t} pierced bodies")
    if problem:
        return problem
    report = json.loads(out.read_text(encoding="utf-8"))
    indices = [p["index"] for p in report.get("pierced", [])]
    if not report.get("found") or len(set(indices)) != t:
        return f"witness does not name {t} distinct bodies"
    r = Fraction(report["r"])
    if not all(0 <= i < len(supports) and _inside(supports[i], r) for i in indices):
        return "witness point outside a reported body's support"
    return None


def check_cover(proc: Proc, out: Path, n_lines: int) -> str | None:
    problem = check_process(proc, "verified cover")
    if problem:
        return problem
    report = json.loads(out.read_text(encoding="utf-8"))
    cols = report.get("columns", [])
    if report.get("uncoverable") or not report.get("exact"):
        return "cover not exact"
    if report["size"] != len(set(cols)) or not all(0 <= c < n_lines for c in cols):
        return "cover columns inconsistent with its size"
    if (report["n_bodies"], report["n_lines"]) != (READ_N, n_lines):
        return "cover report has the wrong dimensions"
    return None


# --- workloads -------------------------------------------------------------------


@dataclass
class Step:
    """One CLI process of an op: its argv, artifact, check and line classes."""

    args: list[str]
    artifact: Path
    check: Callable[[Proc], str | None]  # returns the problem found, if any
    classes: Path | None = None


@dataclass
class Op:
    name: str
    steps: list[Step]


def warm_up(work: Path) -> None:
    """One small construct: compiles bytecode and warms the file cache."""
    out = work / "warmup.jsonl"
    problem = check_family(run_cli(construct_args(WARMUP_N, out), work), out, WARMUP_N, None)
    if problem:
        raise RuntimeError(f"set-up warm-up failed: {problem}")


def setup_construct(work: Path, seed: int) -> list[Op]:
    warm_up(work)
    out = work / "family.jsonl"
    check = lambda p: check_family(p, out, CONSTRUCT_N, CONSTRUCT_SHA256)
    return [Op("construct", [Step(construct_args(CONSTRUCT_N, out), out, check)])]


def setup_refute(work: Path, seed: int) -> list[Op]:
    ops = []
    for i, pool in enumerate(pools.refute_pools(seed)):
        lines, classes, out = work / f"pool{i}.jsonl", work / f"pool{i}.classes.json", work / f"report{i}.json"
        pools.write_pool(pool, lines, classes)
        args = ["refute", "--delta", DELTA, "--lines", str(lines), "--nmax", str(REFUTE_NMAX), "--out", str(out), "--verify"]
        check = lambda p, out=out, pool=pool: check_refute(p, out, pool)
        ops.append(Op(f"refute #{i} K={sum(cls == 'x_ruling' for _, cls in pool)}", [Step(args, out, check, classes)]))
    warm_up(work)
    return ops


def setup_read(work: Path, seed: int) -> list[Op]:
    family = work / "family.jsonl"
    proc = run_cli(construct_args(READ_N, family), work)
    problem = check_family(proc, family, READ_N, READ_FAMILY_SHA256)
    if problem:
        raise RuntimeError(f"read set-up failed: {problem}")
    supports = [_support(json.loads(line)) for line in family.read_text(encoding="utf-8").splitlines()]
    ops = []
    for i, (t, pool) in enumerate(pools.read_sessions(seed, READ_SESSIONS)):
        xs = [Fraction(rec["base"][0]) for rec, cls in pool if cls == "x_ruling"]
        if not all(any(_inside(s, c) for c in xs) for s in supports):
            raise RuntimeError("read pool x-rulings do not cover the family; cover could fail")
        lines, classes = work / f"pool{i}.jsonl", work / f"pool{i}.classes.json"
        pools.write_pool(pool, lines, classes)
        w_out, c_out = work / f"witness{i}.json", work / f"cover{i}.json"
        witness = ["witness", "--t", str(t), "--family", str(family), "--out", str(w_out), "--verify"]
        cover = ["cover", "--family", str(family), "--lines", str(lines), "--out", str(c_out), "--verify"]
        ops.append(Op(f"session t={t}", [
            Step(witness, w_out, lambda p, o=w_out, t=t: check_witness(p, o, t, supports)),
            Step(cover, c_out, lambda p, o=c_out, n=len(pool): check_cover(p, o, n), classes),
        ]))
    return ops


WORKLOADS = {"construct": setup_construct, "refute": setup_refute, "read": setup_read}

# Per-layer counters each workload must hit, and those its design says stay 0.
MUST_HIT = {
    "construct": [
        "exactnum.fraction_cmp.calls", "exactnum.parse_rational.calls",
        "intervals.remove_intervals.calls", "intervals.subtract_open.calls",
        "intervals.from_pairs.self_s", "family.assign.calls", "family.assign.yield",
        "family.emit_s.at_500", "family.emit_s.at_1000", "family.emit_s.at_2000",
        "family.emit_exponent", "family.body_from_record.self_s",
        "family.body_to_record.self_s", "cli.cmd.self_s", "cli.load_family.self_s",
    ],
    "refute": [
        "exactnum.solve_quadratic.calls", "exactnum.fraction_cmp.calls",
        "intervals.contains.calls", "intervals.remove_intervals.calls",
        "geometry.line_plane_intersection.calls", "geometry.classify_line.calls",
        "geometry.line_surface_intersection.calls", "family.assign.calls",
        "family.emit_s.at_500", "refutation.pierce.calls",
        "refutation.pierce.x_ruling.us_per_call.f_lt_1000",
        "refutation.pierce.y_ruling.us_per_call.f_lt_1000",
        "refutation.pierce.generic.us_per_call.f_lt_1000",
        "refutation.non_piercing_certificate.calls", "refutation.refute.bodies_checked",
        "refutation.refute.pierce_per_body", "cli.load_lines.self_s",
        "cli.verify_refutation.self_s",
    ],
    "read": [
        "exactnum.parse_rational.calls", "intervals.contains.calls",
        "intervals.from_pairs.self_s", "intervals.deep_witness.self_s",
        "geometry.line_plane_intersection.calls", "refutation.pierce.calls",
        *(f"refutation.pierce.{c}.us_per_call.{b}" for c in ("x_ruling", "generic")
          for b in ("f_lt_100", "f_lt_1000", "f_ge_1000")),
        "refutation.piercing_matrix.self_s", "refutation.min_line_cover.self_s",
        "cli.load_family.self_s", "cli.load_lines.self_s", "cli.cmd.self_s",
    ],
}
MUST_STAY_ZERO = {
    "construct": ["refutation.pierce.calls"],  # the write path makes no pierce call
    "refute": [],
    "read": ["family.assign.calls"],  # the timed ops assign no supports
}


# --- measuring -------------------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    rss_mb: float
    problems: list[str]
    digests: list[str]
    traces: list[dict]
    scaled_s: float  # wall_s with each step at the reference speed


def run_op(op: Op, work: Path, traced: bool, ref: Reference) -> OpResult:
    wall, scaled, rss, problems, digests, traces = 0.0, 0.0, 0.0, [], [], []
    for step in op.steps:
        trace_out = work / "trace.json" if traced else None
        if trace_out is not None and trace_out.exists():
            trace_out.unlink()
        proc = run_cli(step.args, work, trace_out, step.classes)
        wall += proc.wall_s
        scaled += proc.wall_s if traced else ref.scale(proc.wall_s)
        rss = max(rss, proc.rss_mb)
        problem = step.check(proc)
        if problem:
            problems.append(f"{op.name}: {step.args[0]}: {problem}")
        digests.append(sha256(step.artifact) if step.artifact.exists() else "missing")
        if traced:
            traces.append(json.loads(trace_out.read_text()) if trace_out.exists() else {})
    return OpResult(wall, rss, problems, digests, traces, scaled)


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest order statistic with TAIL_BEYOND ops above it."""
    n = len(walls)
    rank = n - TAIL_BEYOND  # 1-based
    if rank < 1:
        return None
    return 100 * rank / n, sorted(walls)[rank - 1]


def combine_traces(traces: list[dict]) -> dict:
    """One round's traces summed; emission checkpoints take the median op."""
    calls, self_s, buckets, emit = {}, {}, {}, {}
    checked = pierce_in_refute = 0
    for tr in traces:
        for k, v in tr.get("calls", {}).items():
            calls[k] = calls.get(k, 0) + v
        for k, v in tr.get("self_s", {}).items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, (n, s) in tr.get("pierce_buckets", {}).items():
            old = buckets.get(k, (0, 0.0))
            buckets[k] = (old[0] + n, old[1] + s)
        for k, v in tr.get("emit_at", {}).items():
            emit.setdefault(int(k), []).append(v)
        checked += tr.get("refute_checked", 0)
        pierce_in_refute += tr.get("refute_pierce_calls", 0)
    return {
        "calls": calls, "self_s": self_s, "buckets": buckets,
        "emit": {k: statistics.median(v) for k, v in emit.items()},
        "checked": checked, "pierce_in_refute": pierce_in_refute,
    }


CALL_COUNTS = [
    "exactnum.quadext_sign", "exactnum.solve_quadratic", "exactnum.parse_rational",
    "exactnum.fraction_cmp", "intervals.remove_intervals", "intervals.subtract_open",
    "intervals.contains", "geometry.line_plane_intersection", "geometry.classify_line",
    "geometry.line_surface_intersection", "family.assign", "refutation.pierce",
    "refutation.non_piercing_certificate",
]
SELF_TIMES = [
    "exactnum.quadext_sign", "exactnum.parse_rational", "exactnum.format_rational",
    "intervals.remove_intervals", "intervals.subtract_open", "intervals.contains",
    "intervals.from_pairs", "intervals.deep_witness", "geometry.line_plane_intersection",
    "family.assign", "family.body_from_record", "family.body_to_record",
    "refutation.pierce", "refutation.non_piercing_certificate",
    "refutation.piercing_matrix", "refutation.min_line_cover",
    "cli.cmd", "cli.load_family", "cli.load_lines", "cli.verify_refutation",
]
LINE_CLASSES = ("x_ruling", "y_ruling", "generic")
F_BUCKETS = ("f_lt_100", "f_lt_1000", "f_ge_1000")


def layer_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    calls, self_s = agg["calls"], agg["self_s"]
    m: dict[str, tuple[float, str]] = {}
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    removes = calls.get("intervals.remove_intervals", 0)
    m["family.assign.yield"] = (calls.get("family.assign", 0) / removes if removes else 0.0, "1")
    emit = agg["emit"]
    for n in (500, 1000, 2000):
        m[f"family.emit_s.at_{n}"] = (emit.get(n, 0.0), "s")
    ratio = emit.get(2000, 0.0) / emit[1000] if emit.get(1000) else 0.0
    m["family.emit_exponent"] = (math.log2(ratio) if ratio > 0 else 0.0, "1")
    for cls in LINE_CLASSES:
        for bucket in F_BUCKETS:
            n, s = agg["buckets"].get(f"{cls}.{bucket}", (0, 0.0))
            m[f"refutation.pierce.{cls}.us_per_call.{bucket}"] = (1e6 * s / n if n else 0.0, "us")
    checked = agg["checked"]
    m["refutation.refute.bodies_checked"] = (checked, "count")
    m["refutation.refute.pierce_per_body"] = (agg["pierce_in_refute"] / checked if checked else 0.0, "1")
    return m


def enough_setups(times: list[float], traced: int) -> bool:
    if traced:  # the traced pass reports no setup_s
        return len(times) >= 1
    return len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_S


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="linepierce benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM, unwind so the running op process is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "linepierce" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work_dirs = []
    try:
        ref = Reference(enabled=not args.trace)
        setup_times, setup_scaled, ops = [], [], []
        while not enough_setups(setup_times, args.trace):
            if work_dirs:
                shutil.rmtree(work_dirs.pop(), ignore_errors=True)
            work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
            work_dirs.append(work)
            t0 = time.perf_counter()
            ops = WORKLOADS[args.workload](work, args.seed)
            setup_times.append(time.perf_counter() - t0)
            setup_scaled.append(ref.scale(setup_times[-1]))
        return measure(args, ops, work_dirs[-1], ref, setup_times, setup_scaled, started)
    finally:
        for work in work_dirs:
            shutil.rmtree(work, ignore_errors=True)


def measure(args, ops: list[Op], work: Path, ref: Reference, setup_times: list[float],
            setup_scaled: list[float], started: float) -> int:
    loop_start = time.perf_counter()
    rounds: list[tuple[bool, float, list[OpResult]]] = []  # (traced, wall, results)
    reference: dict[int, list[str]] = {}  # op index -> artifact digests of the first round
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        results = [run_op(op, work, traced, ref) for op in ops]
        last_round = time.perf_counter() - t0
        rounds.append((traced, sum(r.wall_s for r in results), results))
        for i, res in enumerate(results):
            # the first round is untraced; every later round must write the same bytes
            if reference.setdefault(i, res.digests) != res.digests:
                res.problems.append(f"{ops[i].name}: artifacts differ from the first round's")
        now = time.perf_counter()
        done = now - loop_start >= args.seconds and len(rounds) >= MIN_ROUNDS
        if done or (now - started) + last_round > RUN_LIMIT_S and len(rounds) >= 1 + args.trace:
            break

    all_results = [r for _, _, results in rounds for r in results]
    problems = [p for r in all_results for p in r.problems]
    attempted, failed = len(all_results), sum(1 for r in all_results if r.problems)
    untraced = [(wall, results) for traced, wall, results in rounds if not traced]
    walls = [r.wall_s for _, results in untraced for r in results]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per round, "
          f"{len(rounds)} rounds, {attempted} ops, {failed} failed")

    if args.trace:
        per_round = [layer_metrics(combine_traces([t for r in results for t in r.traces]))
                     for traced, _, results in rounds if traced]
        metrics = {name: (statistics.median(pr[name][0] for pr in per_round), unit)
                   for name, (_, unit) in per_round[0].items()}
        overhead = (statistics.median(w for t, w, _ in rounds if t)
                    / statistics.median(w for w, _ in untraced))
        metrics["trace.overhead_ratio"] = (overhead, "1")
        for name in MUST_HIT[args.workload]:
            if metrics[name][0] <= 0:
                problems.append(f"self-test: per-layer metric {name} reads zero")
        for name in MUST_STAY_ZERO[args.workload]:
            if metrics[name][0] != 0:
                problems.append(f"self-test: per-layer metric {name} should stay zero")
    else:
        raw = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(w for w, _ in untraced),
            "op_p50_s": statistics.median(walls),
        }
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(sum(r.scaled_s for r in results) for _, results in untraced), "s"),
            "op_p50_s": (statistics.median(r.scaled_s for _, results in untraced for r in results), "s"),
            "peak_rss_mb": (max(r.rss_mb for _, results in untraced for r in results), "MB"),
        }
        print(f"  reference   {len(ref.samples)} samples, median {statistics.median(ref.samples):.4f} s")
        print(f"  setup_s     median of {len(setup_times)} set-ups, raw {raw['setup_s']:.6f} s")
        print(f"  wall_s      median of {len(untraced)} rounds of {len(ops)} ops, "
              f"raw {raw['wall_s']:.6f} s")
        print(f"  op_p50_s    median of {len(walls)} ops, raw {raw['op_p50_s']:.6f} s")
        found = tail([r.scaled_s for _, results in untraced for r in results])
        if found is None:
            print(f"  op_tail_s   omitted: {len(walls)} ops, fewer than {TAIL_BEYOND + 1}")
        else:
            print(f"  op_tail_s   p{found[0]:.1f} of {len(walls)} ops = {found[1]:.6f} s")
        print(f"  fail_ratio  {failed}/{attempted} = {failed / attempted:.4f}")
        for i, op in enumerate(ops):
            median = statistics.median(results[i].wall_s for _, results in untraced)
            print(f"  op {op.name}: raw median {median:.4f} s over {len(untraced)} rounds")

    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
