"""Run one linepierce CLI command with spans around every layer's public calls.

Usage:
    python perfbench/tracer.py --trace-out TRACE.json [--classes POOL.json] -- CLI ARGS...

The program's package must be importable (``PYTHONPATH=src``).  Before the
command runs, each traced function is replaced by a wrapper in *every*
``linepierce`` namespace that holds it: ``cli``, ``family`` and
``refutation`` import functions by name, so patching only the defining
module would miss their calls.  The wrappers return what the wrapped
function returns, so the command writes the same bytes as an untraced run.

A span's self time is its duration minus the durations of the traced spans
it directly contains.  ``Fraction`` comparisons are counted without spans.
The trace is written as JSON when the command ends, even if it raised.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

EMIT_CHECKPOINTS = (500, 1000, 2000)
FRACTION_COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def f_bucket(f_index: int) -> str:
    if f_index < 100:
        return "f_lt_100"
    if f_index < 1000:
        return "f_lt_1000"
    return "f_ge_1000"


def line_key(coords) -> tuple:
    # integer pairs, so building the key makes no Fraction comparisons
    return tuple((c.numerator, c.denominator) for c in coords)


class Tracer:
    def __init__(self, line_classes: dict[tuple, str]):
        self.line_classes = line_classes
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.pierce_buckets: defaultdict[str, list] = defaultdict(lambda: [0, 0.0])
        self.emit_total = 0.0
        self.emit_at: dict[int, float] = {}
        self.refute_checked = 0
        self.refute_pierce_calls = 0
        self._stack = [0.0]  # per open span: summed durations of its child spans

    def span(self, name: str, fn, on_exit=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
            if on_exit is not None:
                on_exit(args, result, elapsed)
            return result

        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        def wrapper(a, b):
            calls[name] += 1
            return fn(a, b)

        return wrapper

    # --- hooks -----------------------------------------------------------

    def _pierce_exit(self, args, result, elapsed) -> None:
        line, body = args
        cls = self.line_classes.get(line_key((line.base.x, line.base.y, line.base.z, *line.dir)))
        if cls is not None:
            slot = self.pierce_buckets[f"{cls}.{f_bucket(body.f_index)}"]
            slot[0] += 1
            slot[1] += elapsed

    def _emit_exit(self, args, result, elapsed) -> None:
        self.emit_total += elapsed
        n = len(args[0]._bodies)
        if n in EMIT_CHECKPOINTS:
            self.emit_at[n] = self.emit_total

    def counted_refute(self, traced_refute):
        def refute(*args, **kwargs):
            before = self.calls["refutation.pierce"]
            outcome = traced_refute(*args, **kwargs)
            self.refute_checked += outcome.checked
            self.refute_pierce_calls += self.calls["refutation.pierce"] - before
            return outcome

        return refute

    def to_record(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "pierce_buckets": dict(self.pierce_buckets),
            "emit_at": {str(k): v for k, v in self.emit_at.items()},
            "refute_checked": self.refute_checked,
            "refute_pierce_calls": self.refute_pierce_calls,
        }


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def install(tracer: Tracer) -> None:
    import linepierce.cli as cli
    from linepierce import exactnum, family, geometry, intervals, refutation

    modules = [m for n, m in sys.modules.items() if n == "linepierce" or n.startswith("linepierce.")]
    functions = [
        ("exactnum.solve_quadratic", exactnum.solve_quadratic, None),
        ("exactnum.parse_rational", exactnum.parse_rational, None),
        ("exactnum.format_rational", exactnum.format_rational, None),
        ("intervals.remove_intervals", intervals.remove_intervals, None),
        ("intervals.deep_witness", intervals.deep_witness, None),
        ("geometry.line_plane_intersection", geometry.line_plane_intersection, None),
        ("geometry.classify_line", geometry.classify_line, None),
        ("geometry.line_surface_intersection", geometry.line_surface_intersection, None),
        ("family.body_from_record", family.body_from_record, None),
        ("family.body_to_record", family.body_to_record, None),
        ("refutation.pierce", refutation.pierce, tracer._pierce_exit),
        ("refutation.non_piercing_certificate", refutation.non_piercing_certificate, None),
        ("refutation.piercing_matrix", refutation.piercing_matrix, None),
        ("refutation.min_line_cover", refutation.min_line_cover, None),
        ("cli.load_family", cli.load_family, None),
        ("cli.load_lines", cli.load_lines, None),
        ("cli.verify_refutation", cli.verify_refutation, None),
    ]
    functions += [
        ("cli.cmd", fn, None) for name, fn in vars(cli).items() if name.startswith("cmd_")
    ]
    originals = [fn for _, fn, _ in functions] + [refutation.refute]
    for name, fn, on_exit in functions:
        _rebind(modules, fn, tracer.span(name, fn, on_exit))
    _rebind(
        modules,
        refutation.refute,
        tracer.counted_refute(tracer.span("refutation.refute", refutation.refute)),
    )

    methods = [
        ("exactnum.quadext_sign", exactnum.QuadExt, "sign", None),
        ("intervals.subtract_open", intervals.IntervalSet, "subtract_open", None),
        ("intervals.contains", intervals.IntervalSet, "contains", None),
        ("family.assign", family.SupportAssigner, "assign", None),
        # a span, so emission time is not charged to the command that asked for it
        ("family.emit", family.FamilyStream, "_emit", tracer._emit_exit),
    ]
    for name, owner, attr, on_exit in methods:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), on_exit))
    from_pairs = intervals.IntervalSet.from_pairs  # a staticmethod
    intervals.IntervalSet.from_pairs = staticmethod(tracer.span("intervals.from_pairs", from_pairs))
    for attr in FRACTION_COMPARISONS:
        setattr(Fraction, attr, tracer.count("exactnum.fraction_cmp", getattr(Fraction, attr)))

    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, value in vars(mod).items()
        if any(value is fn for fn in originals)
    ]
    if stale:
        raise RuntimeError(f"trace wrappers did not bind: {stale}")


def load_line_classes(path: str | None) -> dict[tuple, str]:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    return {
        line_key(Fraction(v) for v in (*rec["base"], *rec["dir"])): rec["class"]
        for rec in records
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--classes")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(load_line_classes(args.classes))
    install(tracer)
    import linepierce.cli as cli

    try:
        return cli.main(cli_args)
    finally:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_record(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
