"""Command line surface: construct / witness / refute / cover / export-plot.

All core computation is exact; decimals appear only in plot exports.  Every
command writes deterministic artifacts (fixed key order, no timestamps), so
re-running with the same flags reproduces files byte for byte.  Each flag's
rule lives in its argparse type alone, so a bad value is a usage error that
names the flag before any work starts.  Exit codes:
0 success or witness found, 2 search/prefix exhausted, 3 input error
(a command-line usage error included), 4 uncoverable pool, 5 internal error
(two exact decision paths disagreed, or a --verify re-check failed on what
the command just wrote: a defect, never the input's fault).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Callable

from .exactnum import format_rational, parse_integer, parse_rational
from .family import (
    ConvexBody,
    FamilyStream,
    body_from_record,
    body_to_record,
    membership_fault,
    record_line,
)
from .geometry import Line3, line_from_record, line_to_record, ruling_line_x
from .intervals import deep_witness
from .refutation import (
    InternalError,
    UncoverableError,
    min_line_cover,
    pierce,
    piercing_matrix,
    refute,
)

EXIT_OK = 0
EXIT_EXHAUSTED = 2
EXIT_INPUT = 3
EXIT_UNCOVERABLE = 4
EXIT_INTERNAL = 5


class InputError(Exception):
    pass


def _flag(parse: Callable[[str], object], holds: Callable[[object], bool], rule: str):
    """An argparse type that parses the text and requires the value to hold;
    either failure is a usage error naming the flag."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {value}")
        return value
    return convert


# exact rendering and its --verify read-back grow about quadratically in the digits
MAX_PRECISION = 10_000
# an export holds every row of its arcs in memory, so the samples per body are capped
MAX_SAMPLES = 100_000

_delta = _flag(parse_rational, lambda d: 0 < d < 1, "lie strictly between 0 and 1")
_positive = _flag(parse_integer, lambda n: n >= 1, "be positive")
# a count of bodies is an islice bound, which Python caps at sys.maxsize
_count = _flag(parse_integer, lambda n: 1 <= n <= sys.maxsize, f"lie in [1, {sys.maxsize}]")
_precision = _flag(parse_integer, lambda n: 1 <= n <= MAX_PRECISION,
                   f"lie in [1, {MAX_PRECISION}]")
_samples = _flag(parse_integer, lambda n: 1 <= n <= MAX_SAMPLES, f"lie in [1, {MAX_SAMPLES}]")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: str, parts) -> None:
    """Every artifact's one write path: the file opens, then ``parts`` go out in
    order as ``Path.write_text`` writes text; construct renders each as emitted."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(parts)


def _read_jsonl(path: str, kind: str, parse: Callable[[object], object]) -> list:
    """Parse every non-blank line of a JSON-lines file, one line at a time.
    Only "\n" ends a record: a lone "\r", and U+2028, U+2029 and U+0085, which
    a JSON string may hold raw, stay inside it.  Every bad line is named, but a
    file that cannot be read or decoded anywhere is an error of its own."""
    records, problems = [], []
    try:
        with open(path, encoding="utf-8", newline="\n") as lines:
            for ln, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    # without its "\n", so json's messages place a fault as before
                    records.append(parse(json.loads(line.removesuffix("\n"))))
                except (ValueError, RecursionError) as exc:
                    # json raises RecursionError on deeply nested arrays or objects
                    problems.append(f"{path}:{ln}: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {kind} file {path}: {exc}") from exc
    if problems:
        raise InputError("\n".join(problems))
    return records


@contextmanager
def _reading_back(path: str):
    """Around the parse of an artifact the command just wrote, for --verify:
    an artifact that does not parse back is a failed re-check."""
    try:
        yield
    except (InputError, ValueError, LookupError, TypeError, ArithmeticError) as exc:
        first = str(exc).partition("\n")[0]
        raise InternalError(f"verification failed: {path} does not read back: {first}") from exc


def _verify_report(path: str, report: dict) -> dict:
    """--verify of a JSON report: it must read back as the record the
    command computed.  Returns the data read back."""
    with _reading_back(path):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data != report:
        raise InternalError(f"verification failed: {path} does not state the computed report")
    return data


def load_family(path: str) -> list[ConvexBody]:
    bodies = _read_jsonl(path, "family", body_from_record)
    if not bodies:
        raise InputError(f"family file {path} holds no bodies")
    return bodies


def load_lines(path: str) -> list[Line3]:
    return _read_jsonl(path, "line", line_from_record)


def cmd_construct(args) -> int:
    bodies = islice(FamilyStream(args.delta).bodies(), args.count)
    if args.verify:  # kept to compare with the bodies the file reads back as
        bodies = list(bodies)
    _write(args.out, map(record_line, map(body_to_record, bodies)))
    if args.verify:
        with _reading_back(args.out):
            reloaded = load_family(args.out)
        if reloaded != bodies:
            raise InternalError("verification failed: reloaded family differs")
        if any(b.support.measure() < args.delta for b in reloaded):
            raise InternalError("verification failed: support below delta")
        print(f"verified {len(reloaded)} bodies")
    # the stream never ends, so the count asked for is the count written
    print(f"wrote {args.count} bodies to {args.out}")
    return EXIT_OK


def cmd_witness(args) -> int:
    bodies = load_family(args.family)
    found = deep_witness([b.support for b in bodies], args.t)
    if found is None:
        report = {"found": False, "t": args.t, "bodies_searched": len(bodies)}
        _write(args.out, [_dump_json(report)])
        if args.verify:
            _verify_report(args.out, report)
            print("verified exhausted report")
        print(f"no witness in prefix of {len(bodies)} bodies for t={args.t}")
        return EXIT_EXHAUSTED
    r, members = found
    line = ruling_line_x(r)
    # the geometric pierce cross-checks the x-rulings' support rule, once per member
    for i in members:
        if not pierce(line, bodies[i]):
            raise InternalError(
                f"body {i} contains r={format_rational(r)} but is not pierced there"
            )
    report = {
        "found": True,
        "t": args.t,
        "r": format_rational(r),
        "line": line_to_record(line),
        "pierced": [{"index": i, "q": format_rational(bodies[i].q)} for i in members],
        "bodies_searched": len(bodies),
    }
    _write(args.out, [_dump_json(report)])
    if args.verify:
        _verify_report(args.out, report)
        print(f"verified {len(members)} pierced bodies")
    print(f"witness r={format_rational(r)} piercing {len(members)} bodies -> {args.out}")
    return EXIT_OK


def cmd_refute(args) -> int:
    lines = load_lines(args.lines)
    outcome = refute(lines, FamilyStream(args.delta), args.nmax)
    report = outcome.to_record()
    _write(args.out, [_dump_json(report)])
    if args.verify:
        verify_refutation(args.out, report, lines, args.delta)
    if not outcome.found:
        print(f"exhausted after {outcome.checked} bodies")
        return EXIT_EXHAUSTED
    witness = outcome.witness
    print(f"witness q={witness.q} at emission {witness.f_index} -> {args.out}")
    return EXIT_OK


def verify_refutation(report_path: str, report: dict, lines: list[Line3], delta: Fraction) -> None:
    """--verify of a refute report: it must read back as the record refute
    computed, the witness it states must be a member of the family by the
    family's definition, and every pool line must miss that witness."""
    data = _verify_report(report_path, report)
    if data["found"]:
        with _reading_back(report_path):
            body = body_from_record(data["witness"])
        fault = membership_fault(body, delta)
        if fault is not None:
            raise InternalError(f"verification failed: the witness is no family member: {fault}")
        # the geometric pierce cross-checks the support rule behind the
        # rulings' certificates, which refute checked when it built them
        if any(pierce(line, body) for line in lines):
            raise InternalError("verification failed: a pool line pierces the witness")
    print(f"verified {'refutation' if data['found'] else 'exhausted'} report")


def cmd_cover(args) -> int:
    bodies = load_family(args.family)
    lines = load_lines(args.lines)
    shape = {"n_bodies": len(bodies), "n_lines": len(lines)}
    try:
        matrix = piercing_matrix(bodies, lines)
        sol = min_line_cover(matrix)
    except UncoverableError as exc:
        report = {"uncoverable": True, "rows": list(exc.rows), **shape}
        _write(args.out, [_dump_json(report)])
        if args.verify:
            # the matrix decides rulings by the support rule; the geometric
            # pierce cross-checks that every pool line misses each listed body
            for i in exc.rows:
                if any(pierce(line, bodies[i]) for line in lines):
                    raise InternalError(f"verification failed: a pool line pierces body {i}")
            _verify_report(args.out, report)
            print(f"verified {len(exc.rows)} uncoverable rows")
        print(f"uncoverable rows: {list(exc.rows)}")
        return EXIT_UNCOVERABLE
    report = {
        "uncoverable": False,
        "size": len(sol.columns),
        "columns": list(sol.columns),
        "exact": sol.exact,
        "lower_bound": sol.lower_bound,
        **shape,
    }
    _write(args.out, [_dump_json(report)])
    if args.verify:
        # the matrix decides rulings by the support rule; the geometric
        # pierce cross-checks it once per body, on the first cover column
        # the body's row marks
        for i, (body, row) in enumerate(zip(bodies, matrix)):
            c = next((c for c in sol.columns if row[c]), None)
            if c is None:
                raise InternalError(
                    f"verification failed: body {i} is marked by no line of the cover"
                )
            if not pierce(lines[c], body):
                raise InternalError(
                    f"verification failed: body {i} is not pierced by cover line {c}, "
                    "which its row marks"
                )
        _verify_report(args.out, report)
        print("verified cover")
    print(f"cover size {len(sol.columns)} (exact={sol.exact}) -> {args.out}")
    return EXIT_OK


def cmd_export_plot(args) -> int:
    bodies = load_family(args.family)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def dec(x: Fraction) -> str:
        with localcontext() as ctx:
            ctx.prec = args.precision
            return str(Decimal(x.numerator) / Decimal(x.denominator))

    arc_rows = ["body,seq,u,w,x,y,z"]
    hull_rows = ["body,seq,u,w"]
    for bi, body in enumerate(bodies):
        step = (body.r_max - body.r_min) / max(args.samples - 1, 1)
        for k in range(args.samples):
            u = body.r_min + step * k
            w = body.parabola(u)
            pt = body.from_chart(u, w)
            arc_rows.append(f"{bi},{k},{dec(u)},{dec(w)},{dec(pt.x)},{dec(pt.y)},{dec(pt.z)}")
        # the lower walk samples each support interval and crosses each gap
        # by its chord; the top chord closes the hull.  Every vertex lies
        # over the closed support, where the hull meets the parabola.
        points, walk = body.support.points, []
        for j, (a, b) in enumerate(zip(points, points[1:])):
            steps = 8 if j % 2 == 0 and a != b else 1
            walk += (a + (b - a) * k / steps for k in range(steps + 1))
        for seq, u in enumerate(walk + [body.r_max, body.r_min]):
            hull_rows.append(f"{bi},{seq},{dec(u)},{dec(body.parabola(u))}")

    surface_rows = ["x,y,z"]
    grid = [Fraction(k, 8) for k in range(17)]  # [0,2] in steps of 1/8
    for x in grid:
        for y in grid:
            surface_rows.append(f"{dec(x)},{dec(y)},{dec(x * y)}")

    def size(row) -> Fraction:  # 1 + |q| of the row's body bounds its values
        return 1 + abs(bodies[int(row[0])].q)

    # each file's rows, and a row's offset from the curve it samples over the
    # row's size: a value rendered to --precision significant digits is off
    # by a share of its own size, and the surface's values are at most 4
    tables = {
        "arcs": (arc_rows, lambda row: (row[6] - row[4] * row[5]) / size(row)),
        "hull": (hull_rows,
                 lambda row: (row[3] - bodies[int(row[0])].parabola(row[2])) / size(row)),
        "surface": (surface_rows, lambda row: row[2] - row[0] * row[1]),
    }
    for name, (rows, _) in tables.items():
        _write(str(outdir / f"{name}.csv"), ["\n".join(rows) + "\n"])
    if args.verify:
        for name, (rows, offset) in tables.items():
            path = str(outdir / f"{name}.csv")
            with _reading_back(path):
                lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
                # exact, so no digit the export rendered is lost to rounding,
                # and through Decimal, which reads a string of any length
                gaps = [abs(offset([Fraction(Decimal(v)) for v in line.split(",")]))
                        for line in lines]
            if len(gaps) != len(rows) - 1:
                raise InternalError(f"verification failed: {name}.csv does not hold every row")
            if max(gaps) > Fraction(10) ** (3 - args.precision):
                raise InternalError(f"verification failed: a row of {name}.csv is off its curve")
        print(f"verified {len(arc_rows) - 1} arc samples")
    print(f"wrote plot data for {len(bodies)} bodies to {outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linepierce",
        description="Exact construction and line-transversal refutation "
        "of families of thin convex bodies on the surface z = x*y.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command writes one artifact and can re-check it
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", required=True,
                        help="output file (export-plot: output directory)")
    shared.add_argument("--verify", action="store_true",
                        help="read back what was written and re-check it")

    p = sub.add_parser("construct", parents=[shared], help="write a family prefix as JSON lines")
    p.add_argument("--delta", type=_delta, required=True,
                   help="support measure bound in (0,1), e.g. 1/2")
    p.add_argument("--count", "-N", type=_count, required=True, help="number of bodies")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("witness", parents=[shared],
                       help="find one line piercing t bodies of a family file")
    p.add_argument("--t", type=_positive, required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("refute", parents=[shared],
                       help="find a family member missed by every pool line")
    p.add_argument("--delta", type=_delta, required=True)
    p.add_argument("--lines", required=True)
    p.add_argument(
        "--nmax",
        type=_count,
        default=100_000,
        help="stream search budget in bodies (default 100000); a body a pool "
        "x-ruling pierces by construction is skipped, its support unbuilt",
    )
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("cover", parents=[shared],
                       help="minimum piercing line cover over a candidate pool")
    p.add_argument("--family", required=True)
    p.add_argument("--lines", required=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("export-plot", parents=[shared],
                       help="CSV samples of bodies and the surface")
    p.add_argument("--family", required=True)
    p.add_argument("--samples", type=_samples, default=64)
    p.add_argument("--precision", type=_precision, default=12, help="significant digits")
    p.set_defaults(func=cmd_export_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage; its exit code 2 would read as "exhausted"
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
