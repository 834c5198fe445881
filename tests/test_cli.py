import copy
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import MAX_PREC, Decimal
from io import StringIO
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linepierce
from linepierce import cli, intervals, refutation
from linepierce.cli import (
    MAX_PRECISION,
    InputError,
    build_parser,
    load_family,
    load_lines,
    main,
    verify_refutation,
)
from linepierce.exactnum import QuadExt, format_rational
from linepierce.family import ConvexBody, FamilyStream, SupportAssigner, body_to_record
from linepierce.geometry import (
    Line3,
    Point3,
    line_from_record,
    line_surface_intersection,
    line_to_record,
    ruling_line_x,
    ruling_line_y,
)
from linepierce.intervals import IntervalSet
from linepierce.refutation import Certificate, InternalError, pierce, refute
from oracles import clear_read_tables, expected_certificate, interval_set, prefix


def write_lines(path, lines):
    path.write_text(
        "".join(json.dumps(line_to_record(l), sort_keys=True) + "\n" for l in lines),
        encoding="utf-8",
    )


def construct(tmp_path, delta="1/2", count=10, name="family.jsonl", flags=()):
    family = tmp_path / name
    assert main(["construct", "--delta", delta, "-N", str(count),
                 "--out", str(family), *flags]) == 0
    return family


def sizes_at_emissions(monkeypatch, path):
    """Wrap ``FamilyStream._emit`` to record, as each body is emitted, the
    bytes the file at path holds then (None while it does not exist)."""
    sizes, emit = [], FamilyStream._emit

    def watched(stream, skip):
        sizes.append(path.stat().st_size if path.exists() else None)
        return emit(stream, skip)
    monkeypatch.setattr(FamilyStream, "_emit", watched)
    return sizes


class TestConstruct:
    def test_writes_expected_records(self, tmp_path):
        family = construct(tmp_path, count=10)
        records = [json.loads(l) for l in family.read_text().splitlines()]
        assert len(records) == 10
        assert records[0]["q"] == "1/4"
        assert records[0]["f"] == 1
        for rec in records:
            total = sum(
                F(hi) - F(lo) for lo, hi in rec["support"]
            )
            assert total >= F(1, 2)

    def test_deterministic_bytes(self, tmp_path):
        a = construct(tmp_path, name="a.jsonl")
        b = construct(tmp_path, name="b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    # --verify builds the bodies before the write, and without it each is
    # written as it is emitted, so each path is pinned
    @pytest.mark.parametrize("flags", [(), ("--verify",)], ids=["streamed", "verify"])
    def test_prefix_bytes_pinned(self, tmp_path, flags):
        # 300 bodies reach cover level 5, so every enumeration layer shows here
        family = construct(tmp_path, count=300, flags=flags)
        assert hashlib.sha256(family.read_bytes()).hexdigest() == (
            "135bdf3494b33d4f9272f5f9f8edfb4cc892e25575ec2e862fdb1164d5d44f1e"
        )

    def test_benchmark_bytes_pinned(self, tmp_path):
        # perfbench's construct workload checks the same digest
        family = construct(tmp_path, count=2000)
        assert hashlib.sha256(family.read_bytes()).hexdigest() == (
            "cd43c8de4d90bddc0737e571da7ea113ac5c6a24dc4b75a44db256280d644ecc"
        )

    def test_bodies_are_written_as_they_are_emitted(self, tmp_path, monkeypatch):
        family = tmp_path / "f.jsonl"
        sizes = sizes_at_emissions(monkeypatch, family)
        construct(tmp_path, count=300, name=family.name)
        # past the write buffer, so earlier lines are on disk by the last emission
        assert len(sizes) == 300 and sizes[-1]

    def test_an_unopenable_out_exits_3_before_any_emission(self, tmp_path, monkeypatch):
        family = tmp_path / "missing" / "f.jsonl"
        sizes = sizes_at_emissions(monkeypatch, family)
        assert main(["construct", "--delta", "1/2", "-N", "50", "--out", str(family)]) == 3
        assert sizes == []

    def test_verify_flag(self, tmp_path):
        family = tmp_path / "fam.jsonl"
        assert main(["construct", "--delta", "1/2", "-N", "5",
                     "--out", str(family), "--verify"]) == 0

    def test_verify_compares_the_reloaded_bodies(self, tmp_path, monkeypatch, capsys):
        """A writer that drops a support's single-point pieces keeps every
        measure, and the family it writes re-renders to the same text; only
        the comparison with the built bodies catches it."""
        assert prefix(F(1, 2), 1)[0].support.points[:2] == (0, 0)
        record_of = cli.body_to_record

        def without_points(body):
            record = record_of(body)
            record["support"] = [piece for piece in record["support"] if piece[0] != piece[1]]
            return record
        monkeypatch.setattr(cli, "body_to_record", without_points)
        assert main(["construct", "--delta", "1/2", "-N", "12",
                     "--out", str(tmp_path / "f.jsonl"), "--verify"]) == 5
        assert "reloaded family differs" in capsys.readouterr().err
        monkeypatch.undo()

        # and each edit of a field or a line that the writer makes
        def line(rec):
            return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"

        def changed_q(lines):
            rec = json.loads(lines[4])
            rec["q"] = format_rational(F(rec["q"]) + F(1, 2**40))
            return lines[:4] + [line(rec)] + lines[5:]

        def changed_endpoint(lines):
            rec = json.loads(lines[4])
            j = next(j for j, (lo, hi) in enumerate(rec["support"]) if lo != hi)
            lo, hi = map(F, rec["support"][j])
            rec["support"][j][1] = format_rational((lo + hi) / 2)
            return lines[:4] + [line(rec)] + lines[5:]

        write = cli._write
        for edit in (changed_q, changed_endpoint, lambda lines: lines[:-1],
                     lambda lines: lines[:6] + lines[5:]):
            monkeypatch.setattr(cli, "_write", lambda path, parts: write(path, edit(list(parts))))
            assert main(["construct", "--delta", "1/2", "-N", "12",
                         "--out", str(tmp_path / "f.jsonl"), "--verify"]) == 5
            assert "reloaded family differs" in capsys.readouterr().err
        monkeypatch.setattr(cli, "_write", lambda path, parts: write(path, list(parts)))
        assert main(["construct", "--delta", "1/2", "-N", "12",
                     "--out", str(tmp_path / "f.jsonl"), "--verify"]) == 0

    def test_verify_reads_back_without_the_writers_texts(self, tmp_path, monkeypatch, capsys):
        """One end's text in the writer's table is made wrong, yet in order,
        so the file states a support that was not built.  A reader that took
        its texts from the writer's table would read back the one built."""
        support = prefix(F(1, 2), 1)[0].support
        support.to_pairs()  # so the writer's table holds its ends
        lo, hi = next((lo, hi) for lo, hi in zip(support.ends[::2], support.ends[1::2])
                      if lo < hi)
        wrong = format_rational(F(lo + hi, 2 * support.den))
        monkeypatch.setitem(intervals._TEXTS[support.den], hi, wrong)
        assert main(["construct", "--delta", "1/2", "-N", "5",
                     "--out", str(tmp_path / "f.jsonl"), "--verify"]) == 5
        assert "reloaded family differs" in capsys.readouterr().err

    @pytest.mark.parametrize("support, code", [
        (((F(0), F(1, 4)), (F(1, 2), F(3, 4) - F(1, 2**70))), 5),
        (((F(0), F(1, 4)), (F(1, 2), F(3, 4))), 0),
    ], ids=["below-delta", "at-delta"])
    def test_verify_checks_each_support_against_delta(self, tmp_path, monkeypatch, capsys,
                                                      support, code):
        """The assigner hands out one support of measure delta or a hair
        below it, so the file states the bodies built and only the delta
        check can tell them apart."""
        assign, handed = SupportAssigner.assign, []

        def assigning(assigner):
            handed.append(assigner)
            return interval_set(support) if len(handed) == 3 else assign(assigner)
        monkeypatch.setattr(SupportAssigner, "assign", assigning)
        assert main(["construct", "--delta", "1/2", "-N", "5",
                     "--out", str(tmp_path / "f.jsonl"), "--verify"]) == code
        err = capsys.readouterr().err
        assert err == ("internal error: verification failed: support below delta\n" if code else "")
        assert len(handed) == 5

    def test_bad_delta_is_input_error(self, tmp_path):
        out = tmp_path / "x.jsonl"
        assert main(["construct", "--delta", "0", "-N", "3", "--out", str(out)]) == 3
        assert main(["construct", "--delta", "7/5", "-N", "3", "--out", str(out)]) == 3
        assert main(["construct", "--delta", "1/2", "-N", "0", "--out", str(out)]) == 3


class TestWitness:
    def test_body_past_the_int_string_digit_limit(self, tmp_path):
        # eps of emission 7141 has a 4301-digit denominator
        body = ConvexBody(q=F(1, 4), f_index=7141,
                          support=interval_set([(F(0), F(1))]))
        family = tmp_path / "family.jsonl"
        family.write_text(json.dumps(body_to_record(body)) + "\n", encoding="utf-8")
        out = tmp_path / "w.json"
        assert main(["witness", "--t", "1", "--family", str(family),
                     "--out", str(out), "--verify"]) == 0

    def test_pair_overlap_high_delta(self, tmp_path):
        family = construct(tmp_path, delta="3/5", count=2)
        out = tmp_path / "w.json"
        assert main(["witness", "--t", "2", "--family", str(family),
                     "--out", str(out), "--verify"]) == 0
        data = json.loads(out.read_text())
        assert data["found"] and len(data["pierced"]) == 2

    def test_triple_among_five(self, tmp_path):
        family = construct(tmp_path, count=5)
        out = tmp_path / "w.json"
        assert main(["witness", "--t", "3", "--family", str(family),
                     "--out", str(out), "--verify"]) == 0
        data = json.loads(out.read_text())
        assert len(data["pierced"]) == 3
        bodies = prefix(F(1, 2), 5)
        r = F(data["r"])
        for entry in data["pierced"]:
            assert pierce(ruling_line_x(r), bodies[entry["index"]])

    def test_single_body_gives_left_end(self, tmp_path):
        family = construct(tmp_path, count=1)
        out = tmp_path / "w.json"
        assert main(["witness", "--t", "1", "--family", str(family),
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        body = prefix(F(1, 2), 1)[0]
        assert F(data["r"]) == body.r_min
        assert data["pierced"] == [{"index": 0, "q": "1/4"}]

    def test_no_witness_is_exhausted(self, tmp_path):
        family = construct(tmp_path, count=2)
        out = tmp_path / "w.json"
        # the first two bodies share only the point 0... demand depth 3
        assert main(["witness", "--t", "3", "--family", str(family),
                     "--out", str(out)]) == 2
        assert json.loads(out.read_text())["found"] is False


class TestRefuteCommand:
    def test_single_ruling_line(self, tmp_path):
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, [ruling_line_x(F(1, 2))])
        out = tmp_path / "r.json"
        assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                     "--out", str(out), "--verify"]) == 0
        data = json.loads(out.read_text())
        assert data["found"] and data["emission_index"] == 7
        assert data["witness"]["q"] == "1/32"

    def test_mixed_pool_certificates(self, tmp_path):
        from linepierce.geometry import Line3, Point3

        pool = [
            ruling_line_x(F(1, 3)),
            ruling_line_x(F(5, 4)),  # out of range: classified, never pierces
            ruling_line_y(F(3, 7)),
            Line3(Point3(F(0), F(0), F(1)), (F(1), F(1), F(0))),
            Line3(Point3(F(1, 2), F(0), F(0)), (F(0), F(0), F(1))),
        ]
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, pool)
        out = tmp_path / "r.json"
        assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                     "--out", str(out), "--verify"]) == 0
        data = json.loads(out.read_text())
        assert len(data["certificates"]) == 5
        kinds = [e["class"] for e in data["lines"]]
        assert kinds == ["x-ruling", "x-ruling", "y-ruling", "generic", "generic"]

    def test_lines_past_the_int_string_digit_limit(self, tmp_path):
        tiny = F(1, 7**6000)  # 5,071 digits
        pool = [
            ruling_line_x(F(1, 3) + tiny),
            Line3(Point3(F(0), F(0), tiny), (F(1), F(1), F(0))),
        ]
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, pool)
        out = tmp_path / "r.json"
        assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                     "--out", str(out), "--verify"]) == 0
        data = json.loads(out.read_text())
        assert len(data["lines"][1]["surface_points"][0]["z"]) > 5000

    def test_empty_pool_vacuous_report(self, tmp_path):
        lines = tmp_path / "lines.jsonl"
        lines.write_text("", encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["emission_index"] == 1
        assert data["certificates"] == []

    def test_malformed_records_reported_per_line(self, tmp_path, capsys):
        lines = tmp_path / "lines.jsonl"
        lines.write_text(
            '{"base":["0/1","0/1","0/1"],"dir":["0/1","1/1","0/1"]}\n'
            "not json\n"
            '{"base":["0/1","0/1"],"dir":["1/1","0/1","0/1"]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "r.json"
        assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ":2:" in err and ":3:" in err

    def test_exhausted_exit_code(self, tmp_path):
        pool = [ruling_line_x(F(k, 16)) for k in range(17)]
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, pool)
        out = tmp_path / "r.json"
        assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                     "--nmax", "5", "--out", str(out)]) == 2
        data = json.loads(out.read_text())
        assert data == {"found": False, "checked": 5, "n_max": 5}


class TestCoverCommand:
    def test_grid_pool_exact(self, tmp_path):
        family = construct(tmp_path, count=4)
        pool = [ruling_line_x(F(k, 8)) for k in range(9)]
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, pool)
        out = tmp_path / "c.json"
        assert main(["cover", "--family", str(family), "--lines", str(lines),
                     "--out", str(out), "--verify"]) == 0
        data = json.loads(out.read_text())
        assert data["exact"] is True
        bodies = prefix(F(1, 2), 4)
        matrix = [[b.support.contains(F(k, 8)) for k in range(9)] for b in bodies]
        from itertools import combinations
        want = next(
            size for size in range(1, 10)
            if any(
                all(any(row[c] for c in chosen) for row in matrix)
                for chosen in combinations(range(9), size)
            )
        )
        assert data["size"] == want

    def test_all_bodies_share_a_line(self, tmp_path):
        family = construct(tmp_path, delta="3/5", count=3)
        bodies = prefix(F(3, 5), 3)
        common = next(
            F(k, 64) for k in range(65)
            if all(b.support.contains(F(k, 64)) for b in bodies)
        )
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, [ruling_line_x(common)])
        out = tmp_path / "c.json"
        assert main(["cover", "--family", str(family), "--lines", str(lines),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["size"] == 1

    def test_uncoverable_pool(self, tmp_path):
        family = construct(tmp_path, count=4)
        bodies = prefix(F(1, 2), 4)
        target = 2  # drop every line piercing body 2
        pool = [
            ruling_line_x(F(k, 16)) for k in range(17)
            if not bodies[target].support.contains(F(k, 16))
        ]
        assert pool
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, pool)
        out = tmp_path / "c.json"
        assert main(["cover", "--family", str(family), "--lines", str(lines),
                     "--out", str(out)]) == 4
        data = json.loads(out.read_text())
        assert data["uncoverable"] and target in data["rows"]

    def test_greedy_columns_ascend(self, tmp_path):
        """Past the exact limit of 25 lines the cover is greedy, and its
        columns are written in ascending order, as the exact cover's are."""
        family = construct(tmp_path, count=40)
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, [ruling_line_x(F(j, 29)) for j in range(30)])
        out = tmp_path / "c.json"
        assert main(["cover", "--family", str(family), "--lines", str(lines),
                     "--out", str(out), "--verify"]) == 0
        data = json.loads(out.read_text())
        assert data["exact"] is False and data["columns"] == [8, 17]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f03bfbc364a3ef20f7e217cec6441aa164b7a18b94e5d865cf9c8be5ce46cf06"
        )


class TestPinnedReadReports:
    """witness and cover --verify reports on a fixed prefix, pinned at the
    commit before cover decided rulings by the support rule: the x-rulings
    at j/16 and two generic lines that each pierce one body (3 and 40)."""

    def test_reports_pinned(self, tmp_path):
        family = construct(tmp_path, count=256)
        assert hashlib.sha256(family.read_bytes()).hexdigest() == (
            "1c6a4c89b0ef8426aa2110685b0c88cea98bff778a7b93bdf7406a681ba663bf"
        )
        pool = [ruling_line_x(F(j, 16)) for j in range(17)]
        for b in (F(1, 16), F(35, 48)):
            a, dy = F(3, 4), F(5, 7)
            pool.append(Line3(Point3(a, b, a * b), (F(1), dy, a * dy + b + dy / (16 * a))))
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, pool)
        witness, cover = tmp_path / "w.json", tmp_path / "c.json"
        assert main(["witness", "--t", "64", "--family", str(family),
                     "--out", str(witness), "--verify"]) == 0
        assert main(["cover", "--family", str(family), "--lines", str(lines),
                     "--out", str(cover), "--verify"]) == 0
        assert hashlib.sha256(witness.read_bytes()).hexdigest() == (
            "7fe559d25d1814dd26819469f7523558b53e95e7dac259e577c8677e07f964cd"
        )
        assert hashlib.sha256(cover.read_bytes()).hexdigest() == (
            "f8adff6ea3dd6b25036a213704e51390af5cebef7b37de1277a8bcc7ed778fe4"
        )


# two x-rulings, a y-ruling, a line crossing the surface at x = y = -sqrt(2)
# and x = y = sqrt(2), and a line tangent to it at (1/2, 1/2, 1/4)
MIXED_POOL = [
    ruling_line_x(F(1, 3)),
    ruling_line_x(F(2, 3)),
    ruling_line_y(F(3, 7)),
    Line3(Point3(F(0), F(0), F(2)), (F(1), F(1), F(0))),
    Line3(Point3(F(1, 2), F(1, 2), F(1, 4)), (F(1), F(1), F(1))),
]


class TestPinnedRefuteReport:
    """refute --verify on MIXED_POOL, report and stdout pinned at the commit
    before --verify took the pool the command had parsed."""

    def test_report_and_stdout_pinned(self, tmp_path, monkeypatch, capsys):
        self.check_pinned(tmp_path, monkeypatch, capsys)

    def test_crossings_need_no_radical_arithmetic(self, tmp_path, monkeypatch, capsys):
        """Each crossing is formed from its root's rational parts: QuadExt
        has no arithmetic or order, and the pinned report comes out with its
        sign disabled."""
        # vars, not hasattr: object supplies __lt__ and the other orderings
        assert not {"_common_radicand", "__add__", "__radd__", "__neg__", "__sub__",
                    "__rsub__", "__mul__", "__rmul__", "__abs__", "_diff_sign",
                    "__lt__", "__le__", "__gt__", "__ge__"} & set(vars(QuadExt))
        x, y = QuadExt(F(0), F(1), F(2)), QuadExt(F(1), F(0), F(0))
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: -x,
                   lambda: abs(x), lambda: x < y):
            with pytest.raises(TypeError):
                op()

        def refuse(*args):
            raise AssertionError("QuadExt.sign ran")

        monkeypatch.setattr(QuadExt, "sign", refuse)
        meet = line_surface_intersection(MIXED_POOL[3])
        assert [(str(p.x), str(p.y), str(p.z)) for p in meet.points] == [
            ("0/1 + -1/2*sqrt(8/1)", "0/1 + -1/2*sqrt(8/1)", "2/1"),
            ("0/1 + 1/2*sqrt(8/1)", "0/1 + 1/2*sqrt(8/1)", "2/1"),
        ]
        self.check_pinned(tmp_path, monkeypatch, capsys)

    def check_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # relative paths, so stdout is the same anywhere
        write_lines(Path("lines.jsonl"), MIXED_POOL)
        assert main(["refute", "--delta", "1/2", "--lines", "lines.jsonl",
                     "--out", "r.json", "--verify"]) == 0
        report = Path("r.json").read_bytes()
        assert b"sqrt(8/1)" in report
        assert [len(e["surface_points"]) for e in json.loads(report)["lines"][3:]] == [2, 1]
        assert hashlib.sha256(report).hexdigest() == (
            "5662d425240d61f60f4b3121558d95a96f5b84ff01b8c43d21cb89f823ecd6b8"
        )
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "382c6826ba2fd56411a9e3f697e546cd47c8cf871c93375bf7901bca62052d73"
        )


def _benchmark_pools(monkeypatch):
    """``perfbench/pools.py``, imported from its file, which is left as it
    is: no bytecode is written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "benchmark_pools", Path(__file__).resolve().parent.parent / "perfbench" / "pools.py")
    pools = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pools)
    return pools


class TestPinnedBenchmarkRefutes:
    """The refute reports of the benchmark's 26 pools (seeds 0 and 1), at its
    search budget, pinned as one sha256 over the reports in pool order.  A
    refactor of the predicates must leave every report byte-identical; a
    change to the benchmark that changes the pools re-pins this hash."""

    def test_reports_pinned(self, tmp_path, monkeypatch, capsys):
        pools = _benchmark_pools(monkeypatch)
        digest = hashlib.sha256()
        for seed in (0, 1):
            for i, pool in enumerate(pools.refute_pools(seed)):
                lines, out = tmp_path / f"pool{seed}-{i}.jsonl", tmp_path / f"r{seed}-{i}.json"
                lines.write_text("".join(json.dumps(rec) + "\n" for rec, _ in pool))
                assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                             "--nmax", "2000", "--out", str(out), "--verify"]) == 0
                digest.update(out.read_bytes())
        capsys.readouterr()
        assert digest.hexdigest() == (
            "6cf9cd1123560f11fd5211e012069b6b527536cc2c0fdcbeb39855f4a7275593"
        )


def stated_cases(report, line_records):
    """The cases of a found refute report's certificates, after checking
    that each states the case, sides and relation that
    ``expected_certificate`` derives from its pool line and the witness."""
    assert report["found"]
    certs = report["certificates"]
    assert [cert["line"] for cert in certs] == list(range(len(line_records)))
    for cert, record in zip(certs, line_records):
        stated = (cert["case"], F(cert["lhs"]), cert["rel"], F(cert["rhs"]))
        assert stated == expected_certificate(record, report["witness"])
    return {cert["case"] for cert in certs}


class TestCertificatesStateWhatTheyProve:
    """The certificates of the pinned refute reports, each derived again by
    an oracle that shares no code with ``refutation.py``: a wrong value that
    still satisfies its relation fails here, not only the sha256 pins.  The
    reports are ``refute(...).to_record()``, the record the CLI writes."""

    def test_benchmark_pools(self, monkeypatch):
        pools = _benchmark_pools(monkeypatch)
        cases = set()
        for seed in (0, 1):
            for pool in pools.refute_pools(seed):
                records = [record for record, _ in pool]
                lines = [line_from_record(record) for record in records]
                report = refute(lines, FamilyStream(F(1, 2)), 2000).to_record()
                cases |= stated_cases(report, records)
        assert cases == {
            "support-below-range", "support-above-range", "support-gap",
            "plane-slab-below", "plane-slab-above", "point-below-range",
            "point-above-range", "point-above-top-chord", "point-below-envelope",
        }

    def test_mixed_pool(self):
        report = refute(MIXED_POOL, FamilyStream(F(1, 2)), 100_000).to_record()
        stated_cases(report, [line_to_record(line) for line in MIXED_POOL])


def test_a_raw_line_separator_in_a_string_ends_no_record(tmp_path):
    """JSON allows U+2028, U+2029 and U+0085 raw inside a string; only a
    newline ends a JSON-lines record."""
    lines = tmp_path / "lines.jsonl"
    record = {**line_to_record(MIXED_POOL[0]), "note": "a\u2028b\u2029c\x85d"}
    lines.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    assert load_lines(str(lines)) == [MIXED_POOL[0]]
    assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                 "--out", str(tmp_path / "r.json")]) == 0


class TestExportPlot:
    def test_row_counts_and_residuals(self, tmp_path):
        family = construct(tmp_path, count=1)
        plots = tmp_path / "plots"
        assert main(["export-plot", "--family", str(family), "--out", str(plots),
                     "--samples", "64", "--verify"]) == 0
        arcs = (plots / "arcs.csv").read_text().splitlines()
        assert arcs[0] == "body,seq,u,w,x,y,z"
        assert len(arcs) == 1 + 64
        eps = F(1, 64)
        for row in arcs[1:]:
            _, _, _, _, x, y, z = row.split(",")
            assert abs(Decimal(z) - Decimal(x) * Decimal(y)) <= F(
                eps.numerator, eps.denominator
            )
        surface = (plots / "surface.csv").read_text().splitlines()
        assert surface[0] == "x,y,z"
        assert len(surface) == 1 + 17 * 17
        for row in surface[1:]:
            x, y, z = (Decimal(v) for v in row.split(","))
            assert abs(z - x * y) <= Decimal("1e-9")
        hull = (plots / "hull.csv").read_text().splitlines()
        assert hull[0] == "body,seq,u,w"
        assert len(hull) > 3

    # MAX_PREC + 1 is 10^18 on 64-bit builds
    @pytest.mark.parametrize("precision", ["0", str(MAX_PREC + 1), "99999999999999999999"])
    def test_precision_outside_decimal_range_is_input_error(self, tmp_path, precision):
        family = construct(tmp_path, count=1)
        assert main(["export-plot", "--family", str(family), "--out", str(tmp_path / "p"),
                     "--precision", precision]) == 3

    # 4298 renders values of more than 4,300 digits, Python's limit for int(str)
    @pytest.mark.parametrize("precision", ["40", "120", "4298", str(MAX_PRECISION)])
    def test_verify_past_the_default_decimal_precision(self, tmp_path, precision):
        """The surface gap is checked exactly, not in Decimal's default
        28-digit context, and read back through Decimal, which has no digit
        limit, so rendering more digits cannot fail --verify."""
        family = construct(tmp_path, count=24)
        assert main(["export-plot", "--family", str(family), "--out", str(tmp_path / "p"),
                     "--samples", "8", "--precision", precision, "--verify"]) == 0

    def test_precision_past_the_cap_is_refused_before_any_work(self, tmp_path, capsys):
        # body 10 has q = 7/12, whose decimal expansion does not end, so
        # rendering it to decimal.MAX_PREC digits runs out of memory
        family = construct(tmp_path, count=10)
        plots = tmp_path / "p"
        assert main(["export-plot", "--family", str(family), "--out", str(plots),
                     "--samples", "2", "--precision", str(MAX_PREC)]) == 3
        assert "argument --precision" in capsys.readouterr().err
        assert not plots.exists()

    # bodies whose |q| is far past 1, where a fixed bound 10^(3 - precision) fails
    @pytest.mark.parametrize("q", ["10000/3", "1000001/7", "-1000001/7"])
    @pytest.mark.parametrize("precision", ["1", "12", "40"])
    def test_verify_bound_scales_with_the_body(self, tmp_path, q, precision):
        """Each value is rendered to --precision significant digits, so a
        row's offset from its curve grows with the body's |q|."""
        family = tmp_path / "family.jsonl"
        family.write_text(json.dumps({"q": q, "m": 1, "f": 1, "eps": "1/64",
                                      "support": [["0/1", "0/1"], ["1/4", "1/1"]]}) + "\n")
        assert main(["export-plot", "--family", str(family), "--out", str(tmp_path / "p"),
                     "--precision", precision, "--verify"]) == 0

    def test_csv_bytes_pinned(self, tmp_path):
        # 24 bodies: supports with gaps and single points, so the hull walks
        # arcs, gap chords and degenerate arcs; pinned from a run of the
        # pair-list IntervalSet
        family = construct(tmp_path, count=24)
        plots = tmp_path / "plots"
        assert main(["export-plot", "--family", str(family), "--out", str(plots),
                     "--samples", "8"]) == 0
        assert hashlib.sha256((plots / "arcs.csv").read_bytes()).hexdigest() == (
            "635aefb5b7ca69af9bf84a0baf54fbe2a3cf2d6ea74ed8883faf0b47ca6461d5"
        )
        assert hashlib.sha256((plots / "hull.csv").read_bytes()).hexdigest() == (
            "8ae338648c5841a24c385d21537833af0f7e17422906decd591ded8dd4fbf03b"
        )
        assert hashlib.sha256((plots / "surface.csv").read_bytes()).hexdigest() == (
            "09c1bdcfa346c7164018b02685c4368f61c1ef28425411a9d35f0d7d51f3d52a"
        )

    def test_deterministic(self, tmp_path):
        family = construct(tmp_path, count=3)
        for name in ("p1", "p2"):
            assert main(["export-plot", "--family", str(family),
                         "--out", str(tmp_path / name)]) == 0
        for csv in ("arcs.csv", "hull.csv", "surface.csv"):
            assert (tmp_path / "p1" / csv).read_bytes() == (
                tmp_path / "p2" / csv
            ).read_bytes()


class TestPipelineDeterminism:
    def test_full_pipeline_reruns_identically(self, tmp_path):
        artifacts = []
        for tag in ("run1", "run2"):
            d = tmp_path / tag
            d.mkdir()
            family = d / "family.jsonl"
            assert main(["construct", "--delta", "1/2", "-N", "30",
                         "--out", str(family)]) == 0
            witness = d / "witness.json"
            assert main(["witness", "--t", "3", "--family", str(family),
                         "--out", str(witness)]) == 0
            lines = d / "lines.jsonl"
            write_lines(lines, [ruling_line_x(F(1, 2)), ruling_line_y(F(1, 3))])
            report = d / "refute.json"
            assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                         "--out", str(report)]) == 0
            artifacts.append(
                (family.read_bytes(), witness.read_bytes(), report.read_bytes())
            )
        assert artifacts[0] == artifacts[1]


GOOD_LINE = {"base": ["1/2", "0/1", "0/1"], "dir": ["0/1", "1/1", "1/2"]}
GOOD_BODY = {"q": "1/4", "m": 1, "f": 1, "eps": "1/64",
             "support": [["0/1", "0/1"], ["1/4", "1/1"]]}


class TestVerifyRefutation:
    def refuted(self, tmp_path):
        pool = [ruling_line_x(F(1, 2)), ruling_line_y(F(1, 3))]
        lines, out = tmp_path / "lines.jsonl", tmp_path / "r.json"
        write_lines(lines, pool)
        assert main(["refute", "--delta", "1/2", "--lines", str(lines), "--out", str(out)]) == 0
        return load_lines(str(lines)), out, json.loads(out.read_text())

    @pytest.mark.parametrize("tamper", [
        lambda certs: certs.clear(),
        lambda certs: certs[-1].update(line=len(certs)),
        lambda certs: certs.reverse(),
        lambda certs: certs.pop(),
        lambda certs: certs[0].update(lhs="-7/3"),
        lambda certs: certs[1].update(case="plane-parallel"),
    ], ids=["empty", "line-out-of-range", "out-of-order", "one-missing", "lhs-changed",
            "case-changed"])
    def test_certificates_must_match_lines_one_to_one(self, tmp_path, tamper):
        lines, out, report = self.refuted(tmp_path)
        data = copy.deepcopy(report)
        tamper(data["certificates"])
        out.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(InternalError, match="does not state the computed report"):
            verify_refutation(str(out), report, lines, F(1, 2))

    def test_certificates_are_checked_once(self, tmp_path, monkeypatch):
        """refute checks each certificate as it builds it; --verify compares
        the report whole and does not rebuild or re-evaluate them."""
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, MIXED_POOL)
        calls, holds = [], Certificate.holds
        monkeypatch.setattr(Certificate, "holds", lambda cert: calls.append(cert) or holds(cert))
        assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                     "--out", str(tmp_path / "r.json"), "--verify"]) == 0
        assert len(calls) == len(MIXED_POOL)

    def test_a_witness_off_the_family_exits_5(self, tmp_path, monkeypatch, capsys):
        """An assigner that builds a wrong support is caught by --verify
        alone, which checks the witness against the family's definition.
        The pool's x-rulings at r_1 = 0 and r_2 = 1 pierce every body of
        approaches 1 and 2 by construction, so the first support built is
        the witness's, of approach 3, which must hold r_3 = 1/2."""
        lines, out = tmp_path / "lines.jsonl", tmp_path / "r.json"
        write_lines(lines, [ruling_line_x(F(0)), ruling_line_x(F(1))])
        lacking = interval_set([(F(1, 8), F(3, 8)), (F(5, 8), F(7, 8))])
        monkeypatch.setattr(SupportAssigner, "assign", lambda self: lacking)
        assert main(["refute", "--delta", "1/2", "--lines", str(lines), "--out", str(out),
                     "--verify"]) == 5
        assert json.loads(out.read_text())["emission_index"] == 6
        assert capsys.readouterr().err == (
            "internal error: verification failed: the witness is no family member: "
            "support does not hold its base rational r_3 = 1/2\n"
        )

    @pytest.mark.parametrize("witness, rule", [
        ({**GOOD_BODY, "support": [["0/1", "0/1"], ["3/4", "1/1"]]},
         "support has measure below delta = 1/2"),
        ({**GOOD_BODY, "support": [["1/4", "1/1"]]},
         "support does not hold its base rational r_1 = 0/1"),
        ({"q": "3/4", "m": 2, "f": 3, "eps": "1/1024", "support": [["0/1", "0/1"], ["1/2", "1/1"]]},
         "support holds the earlier base rational r_1 = 0/1"),
        ({**GOOD_BODY, "q": "3/8"}, "q = 3/8 is not r_1 +- 2^-j"),
        ({**GOOD_BODY, "q": "1/2"}, "q = 1/2 is not r_1 +- 2^-j"),
        ({**GOOD_BODY, "q": "-1/4"}, "q = -1/4 is not r_1 +- 2^-j"),
        ({**GOOD_BODY, "q": "0/1"}, "q = 0/1 is not r_1 +- 2^-j"),
    ], ids=["measure", "lacks-r_m", "holds-earlier", "not-dyadic", "j-below-2", "below-0",
            "at-target"])
    def test_each_membership_rule_is_checked(self, tmp_path, witness, rule):
        out = tmp_path / "r.json"
        report = {"found": True, "witness": witness}
        out.write_text(json.dumps(report), encoding="utf-8")
        with pytest.raises(InternalError, match=f"no family member: {re.escape(rule)}"):
            verify_refutation(str(out), report, [], F(1, 2))
        good = {"found": True, "witness": GOOD_BODY}
        out.write_text(json.dumps(good), encoding="utf-8")
        verify_refutation(str(out), good, [], F(1, 2))


BAD_CONTENTS = {
    "zero-denominator": {"lines": {**GOOD_LINE, "dir": ["0/1", "1/0", "1/2"]},
                         "family": {**GOOD_BODY, "q": "1/0"}},
    "json-number": {"lines": {**GOOD_LINE, "base": [0.5, "0/1", "0/1"]},
                    "family": {**GOOD_BODY, "eps": 0.015625}},
    "infinite-number": {"lines": {**GOOD_LINE, "dir": ["0/1", 1e400, "1/2"]},
                        "family": {**GOOD_BODY, "f": 1e400}},
    "not-utf8": {"lines": b"\xff\xfe{}\n", "family": b"\xff\xfe{}\n"},
    "exponent-literal": {"lines": {**GOOD_LINE, "dir": ["0/1", "1e100000", "1/2"]},
                         "family": {**GOOD_BODY, "q": "1e100000"}},
    "decimal-literal": {"lines": {**GOOD_LINE, "base": ["0.5", "0/1", "0/1"]},
                        "family": {**GOOD_BODY, "eps": "0.015625"}},
    "deeply-nested": {"lines": b"[" * 100_000 + b"\n", "family": b"[" * 100_000 + b"\n"},
}
COMMANDS = {
    "refute": (["lines"], lambda p: ["refute", "--delta", "1/2", "--lines", p["lines"]]),
    "witness": (["family"], lambda p: ["witness", "--t", "1", "--family", p["family"]]),
    "cover": (["family", "lines"],
              lambda p: ["cover", "--family", p["family"], "--lines", p["lines"]]),
}


def assert_exits_3_without_traceback(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(linepierce.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "linepierce.cli", *argv, "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    return done


@pytest.mark.parametrize("content", sorted(BAD_CONTENTS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bad_input_exits_3_without_traceback(tmp_path, command, content):
    needs, argv = COMMANDS[command]
    for bad in needs:
        # one bad file per run; any other input the command reads is good
        paths = {}
        for kind, good in (("lines", GOOD_LINE), ("family", GOOD_BODY)):
            path = tmp_path / f"{kind}.jsonl"
            data = BAD_CONTENTS[content][kind] if kind == bad else good
            path.write_bytes(data if isinstance(data, bytes) else (json.dumps(data) + "\n").encode())
            paths[kind] = str(path)
        assert_exits_3_without_traceback(tmp_path, argv(paths))


# family records that are well-formed JSON but no body the family emits
BAD_RECORDS = {
    "f-float": {**GOOD_BODY, "f": 1.0},
    "f-bool": {**GOOD_BODY, "f": True},
    "f-string": {**GOOD_BODY, "f": "1"},
    "m-float": {**GOOD_BODY, "m": 2.7},
    "m-mismatch": {**GOOD_BODY, "m": 99},
    "support-reversed": {**GOOD_BODY, "support": [["1/4", "1/1"], ["0/1", "0/1"]]},
    "support-overlapping": {**GOOD_BODY, "support": [["0/1", "1/2"], ["1/4", "1/1"]]},
    "support-touching": {**GOOD_BODY, "support": [["0/1", "1/4"], ["1/4", "1/1"]]},
    # a support is a JSON array of [lo, hi] arrays, not any iterable of pairs
    "support-string-pair": {**GOOD_BODY, "support": ["01"]},
    "support-object-pair": {**GOOD_BODY, "support": [{"0/1": 0, "1/2": 0}]},
    "support-object": {**GOOD_BODY, "support": {"01": 0}},
    # endpoints are strings: a number, null or array never reaches the parser
    "support-number-endpoint": {**GOOD_BODY, "support": [[0, "1/1"]]},
    "support-null-endpoint": {**GOOD_BODY, "support": [[None, "1/1"]]},
    "support-array-endpoint": {**GOOD_BODY, "support": [[["0/1"], "1/1"]]},
}


@pytest.mark.parametrize("record", sorted(BAD_RECORDS))
@pytest.mark.parametrize("command", ["witness", "cover"])
def test_bad_record_exits_3_naming_its_line(tmp_path, command, record):
    family, lines = tmp_path / "family.jsonl", tmp_path / "lines.jsonl"
    family.write_text(json.dumps(GOOD_BODY) + "\n" + json.dumps(BAD_RECORDS[record]) + "\n",
                      encoding="utf-8")
    lines.write_text(json.dumps(GOOD_LINE) + "\n", encoding="utf-8")
    done = assert_exits_3_without_traceback(
        tmp_path, COMMANDS[command][1]({"family": str(family), "lines": str(lines)})
    )
    assert f"{family}:2:" in done.stderr
    assert "unhashable" not in done.stderr


def hostile_support(pieces=1500):
    """A support of 2*pieces increasing endpoints in (0, 1), each over its
    own 64-bit prime: about 135 KB as a record, whose endpoints share no
    denominator of fewer than 2*pieces*64 bits."""
    from sympy import nextprime

    primes = [nextprime(2**63)]
    while len(primes) < 2 * pieces:
        primes.append(nextprime(primes[-1]))
    ends = [f"{(j + 1) * p // (2 * pieces + 1)}/{p}" for j, p in enumerate(primes)]
    return [ends[j : j + 2] for j in range(0, len(ends), 2)]


class TestSupportLiftBound:
    """A support whose endpoints would lift to one denominator only at a
    cost quadratic in its size is an input error, refused at linear cost."""

    def test_witness_refuses_it_naming_its_line(self, tmp_path):
        # twice: the second read finds every text in the reader's tables
        family = tmp_path / "family.jsonl"
        hostile = json.dumps({**GOOD_BODY, "support": hostile_support()})
        family.write_text(json.dumps(GOOD_BODY) + "\n" + hostile + "\n" + hostile + "\n",
                          encoding="utf-8")
        done = assert_exits_3_without_traceback(
            tmp_path, ["witness", "--family", str(family), "--t", "1"]
        )
        for ln in (2, 3):
            assert f"{family}:{ln}: malformed body record: support of 3000 endpoints" in done.stderr
        assert done.stderr.count("does not lift to one denominator") == 2
        assert not (tmp_path / "out.json").exists()

    def test_refusal_stays_small(self):
        support = hostile_support()
        texts = {text for piece in support for text in piece}
        clear_read_tables()
        tracemalloc.start()
        try:
            for read in range(2):  # parsing every text, then finding each in the tables
                assert read == 0 or texts <= intervals._DENS.keys()
                with pytest.raises(ValueError, match="does not lift to one denominator"):
                    IntervalSet.from_strings(support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            clear_read_tables()
        # the parsed endpoints and their tables; lifting them all would take
        # about 3000 ints of 192,000 bits, some 70 MB
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("delta", ["1/3", "2/7"])
    def test_constructed_families_still_load(self, tmp_path, delta):
        family = tmp_path / "family.jsonl"
        assert main(["construct", "--delta", delta, "-N", "600", "--out", str(family),
                     "--verify"]) == 0
        assert main(["witness", "--family", str(family), "--t", "3",
                     "--out", str(tmp_path / "w.json")]) == 0


# line records that are well-formed JSON but no line
BAD_LINE_RECORDS = {
    "base-dir-strings": {"base": "000", "dir": "011"},
    "base-string": {**GOOD_LINE, "base": "123"},
}


@pytest.mark.parametrize("record", sorted(BAD_LINE_RECORDS))
@pytest.mark.parametrize("command", ["refute", "cover"])
def test_bad_line_record_exits_3_naming_its_line(tmp_path, command, record):
    family, lines = tmp_path / "family.jsonl", tmp_path / "lines.jsonl"
    family.write_text(json.dumps(GOOD_BODY) + "\n", encoding="utf-8")
    lines.write_text(json.dumps(GOOD_LINE) + "\n" + json.dumps(BAD_LINE_RECORDS[record]) + "\n",
                     encoding="utf-8")
    done = assert_exits_3_without_traceback(
        tmp_path, COMMANDS[command][1]({"family": str(family), "lines": str(lines)})
    )
    assert f"{lines}:2:" in done.stderr


class TestJsonLinesReader:
    """Every JSON-lines file is read one line at a time, and only "\n" ends
    a record."""

    def test_crlf_a_lone_cr_and_no_final_newline_load(self, tmp_path):
        family = construct(tmp_path, count=5)
        bodies, data = load_family(str(family)), family.read_bytes()
        # a lone "\r" is JSON whitespace inside a record, and ends no line
        for name, variant in (("crlf.jsonl", data.replace(b"\n", b"\r\n")),
                              ("cr.jsonl", data.replace(b",", b",\r")), ("cut.jsonl", data[:-1])):
            (tmp_path / name).write_bytes(variant)
            assert load_family(str(tmp_path / name)) == bodies

    def test_blank_lines_are_skipped_and_a_bad_line_is_named_by_number(self, tmp_path):
        family, good = tmp_path / "family.jsonl", json.dumps(GOOD_BODY)
        family.write_text(f"  \n{good}\n\t \r\n\n{good}\n", encoding="utf-8")
        assert len(load_family(str(family))) == 2
        cut = good[:12]
        family.write_text(f"  \n{good}\n\t \n{cut}\n{good}\n", encoding="utf-8")
        with pytest.raises(InputError) as raised:
            load_family(str(family))
        # the message json gives for the line without its newline
        with pytest.raises(ValueError) as parsed:
            json.loads(cut)
        assert str(raised.value) == f"{family}:4: {parsed.value}"

    @pytest.mark.parametrize("command", ["witness", "cover"])
    def test_a_bad_byte_past_the_first_64_kb_is_unreadable(self, tmp_path, command):
        family, lines = tmp_path / "family.jsonl", tmp_path / "lines.jsonl"
        head = (json.dumps(GOOD_BODY) + "\n").encode() * 1000
        assert len(head) > 65536
        family.write_bytes(head + b'{"q": "1/4\xff"}\n')
        lines.write_text(json.dumps(GOOD_LINE) + "\n", encoding="utf-8")
        done = assert_exits_3_without_traceback(
            tmp_path, COMMANDS[command][1]({"family": str(family), "lines": str(lines)})
        )
        assert f"cannot read family file {family}" in done.stderr

    def test_a_bad_byte_outranks_an_earlier_bad_line(self, tmp_path, capsys):
        # past the first 64 KB, the bad byte is decoded after line 1 is parsed
        family = tmp_path / "family.jsonl"
        family.write_bytes(b"not json\n" + (json.dumps(GOOD_BODY) + "\n").encode() * 1000
                           + b"\xff\n")
        assert main(["witness", "--t", "1", "--family", str(family),
                     "--out", str(tmp_path / "w.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read family file {family}: ")
        assert f"{family}:1:" not in err


@pytest.mark.parametrize("command", ["witness", "cover"])
def test_huge_tilt_index_exits_3_without_traceback(tmp_path, command):
    # the stated eps is checked before 4^(f+2) is computed, so this is quick
    argv = COMMANDS[command][1]
    paths = {}
    for kind, record in (("lines", GOOD_LINE), ("family", {**GOOD_BODY, "f": 10**12})):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        paths[kind] = str(path)
    assert_exits_3_without_traceback(tmp_path, argv(paths))


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--delta", "1/2"],
        ["construct", "--delta", "1/2", "-N", "abc", "--out", "family.jsonl"],
        ["frobnicate"],
    ],
)
def test_usage_error_exits_3(argv, capsys):
    # argparse's own exit code is 2, which the contract reserves for "exhausted"
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "usage: linepierce" in err
    assert "Traceback" not in err


# each integer flag, last on a command line that otherwise runs, with a
# value that makes the command exit 0
INTEGER_FLAGS = {
    "-N": (["construct", "--delta", "1/2", "--out", "@out", "-N"], "3"),
    "--t": (["witness", "--family", "@family", "--out", "@out", "--t"], "1"),
    "--nmax": (["refute", "--delta", "1/2", "--lines", "@lines", "--out", "@out",
                "--nmax"], "40"),
    "--samples": (["export-plot", "--family", "@family", "--out", "@dir", "--samples"], "3"),
    "--precision": (["export-plot", "--family", "@family", "--out", "@dir",
                     "--precision"], "3"),
}


# every flag whose value has a rule, in the same form
RULED_FLAGS = {**INTEGER_FLAGS,
               "--delta": (["construct", "-N", "3", "--out", "@out", "--delta"], "1/2")}


def _flag_argv(tmp_path, flag, text):
    family = construct(tmp_path, count=3)
    lines = tmp_path / "lines.jsonl"
    write_lines(lines, [ruling_line_x(F(1, 2))])
    paths = {"@family": str(family), "@lines": str(lines),
             "@out": str(tmp_path / "out"), "@dir": str(tmp_path / "plots")}
    return [paths.get(token, token) for token in RULED_FLAGS[flag][0]] + [text]


@pytest.mark.parametrize("flag", INTEGER_FLAGS)
@pytest.mark.parametrize("text", ["٣", "３", " 1_0 ", "1_0", "0x10", "1.0", "1e1", "3/1", "",
                                  pytest.param("9" * 4301, id="4301-digits")])
def test_integer_flags_take_ascii_digits_only(tmp_path, capsys, flag, text):
    """Integer flags follow the grammar of a rational's numerator: what
    Python's int() reads beyond it (other digit scripts, underscores) is a
    usage error, and so is a number past int()'s digit limit."""
    assert main(_flag_argv(tmp_path, flag, text)) == 3
    err = capsys.readouterr().err
    assert "usage: linepierce" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", INTEGER_FLAGS)
@pytest.mark.parametrize("form", ["{}", "+{}", " {} ", "0{}"])
def test_integer_flags_accept_sign_and_padding(tmp_path, flag, form):
    assert main(_flag_argv(tmp_path, flag, form.format(INTEGER_FLAGS[flag][1]))) == 0


@pytest.mark.parametrize(
    "flag, text, name",
    [("-N", "0", "--count/-N"), ("--t", "0", "--t"), ("--nmax", "0", "--nmax"),
     ("--samples", "0", "--samples"), ("--precision", "0", "--precision"),
     ("--precision", str(MAX_PRECISION + 1), "--precision"), ("--samples", "100001", "--samples"),
     ("-N", str(sys.maxsize + 1), "--count/-N"), ("--nmax", str(sys.maxsize + 1), "--nmax"),
     ("--delta", "1", "--delta"), ("--delta", "0", "--delta")],
)
def test_flag_rule_is_a_usage_error_naming_the_flag(tmp_path, capsys, flag, text, name):
    """Each flag's rule is checked once, by its argparse type, before the
    command writes anything."""
    assert main(_flag_argv(tmp_path, flag, text)) == 3
    err = capsys.readouterr().err
    assert f"error: argument {name}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "plots").exists()


def test_nmax_takes_sys_maxsize(tmp_path):
    # -N and --nmax bound an islice of the family, so each lies in [1, sys.maxsize]
    assert main(_flag_argv(tmp_path, "--nmax", str(sys.maxsize))) == 0


def test_samples_lie_in_1_to_100000(capsys):
    """An export holds every arc row in memory, so --samples is capped; the
    cap itself parses (and is not run: 100,000 samples take seconds a body)."""
    argv = ["export-plot", "--family", "f.jsonl", "--out", "plots", "--samples"]
    assert build_parser().parse_args([*argv, "100000"]).samples == 100_000
    assert main([*argv, "100001"]) == 3
    err = capsys.readouterr().err
    assert "error: argument --samples: must lie in [1, 100000], got 100001" in err


@pytest.mark.parametrize("command", ["construct", "witness", "refute", "cover", "export-plot"])
def test_every_command_takes_the_shared_flags(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--out OUT" in out and "--verify" in out


@pytest.mark.parametrize("argv", [["--help"], ["construct", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage: linepierce" in capsys.readouterr().out


def _edit_json(edit):
    def corrupt(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)
    return corrupt


# a command, the artifact its --verify reads back, and a corruption of it:
# one that still parses for each command, and two that do not
CORRUPTIONS = {
    "construct": ("construct", "out.jsonl", lambda text: "".join(text.splitlines(True)[:-1])),
    "witness": ("witness", "w.json", _edit_json(lambda data: data.update(r="2"))),
    "refute": ("refute", "r.json",
               _edit_json(lambda data: data["certificates"][0].update(lhs="-7/3"))),
    "refute-emission-index": ("refute", "r.json",
                              _edit_json(lambda data: data.update(emission_index=999))),
    "refute-checked": ("refute", "r.json",
                       _edit_json(lambda data: data.update(checked=data["checked"] + 1))),
    "refute-line-class": ("refute", "r.json",
                          _edit_json(lambda data: data["lines"][0].update({"class": "generic"}))),
    "refute-surface-point": ("refute", "r.json",
                             _edit_json(lambda data: data["lines"][3]["surface_points"][0]
                                        .update(x="0/1"))),
    "cover": ("cover", "c.json", _edit_json(lambda data: data.update(columns=[0]))),
    "export-plot": ("export-plot", "arcs.csv", lambda text: text.rsplit(",", 1)[0] + ",5\n"),
    "export-plot-hull": ("export-plot", "hull.csv",
                         lambda text: "".join(text.splitlines(True)[:-1])),
    "export-plot-surface": ("export-plot", "surface.csv",
                            lambda text: text.rsplit(",", 1)[0] + ",5\n"),
    "construct-unreadable": ("construct", "out.jsonl", lambda text: text + "not json\n"),
    "refute-unreadable": ("refute", "r.json", lambda text: text[:-2]),
}


def counting(monkeypatch, name):
    """Record the arguments of every call to ``cli.<name>``."""
    calls, real = [], getattr(cli, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(cli, name, counted)
    return calls


def test_witness_verify_parses_the_family_once(tmp_path, monkeypatch):
    """--verify re-reads the report, not the family, and the geometric
    pierce runs once per member, before the report is written."""
    family = construct(tmp_path, count=8)
    loads, pierces = counting(monkeypatch, "load_family"), counting(monkeypatch, "pierce")
    assert main(["witness", "--t", "3", "--family", str(family),
                 "--out", str(tmp_path / "w.json"), "--verify"]) == 0
    assert loads == [(str(family),)]
    assert len(pierces) == 3


def test_cover_verify_pierces_once_per_body(tmp_path, monkeypatch):
    """--verify cross-checks each body on one cover line, the first cover
    column its row marks, not on every line of the cover."""
    family = construct(tmp_path, count=40)
    lines = tmp_path / "lines.jsonl"
    write_lines(lines, [ruling_line_x(F(j, 16)) for j in range(17)] + [MIXED_POOL[4]])
    pierces = counting(monkeypatch, "pierce")
    assert main(["cover", "--family", str(family), "--lines", str(lines),
                 "--out", str(tmp_path / "c.json"), "--verify"]) == 0
    bodies = prefix(F(1, 2), 40)
    assert [body for _, body in pierces] == bodies


def test_refute_verify_reads_the_pool_once(tmp_path, monkeypatch):
    lines = tmp_path / "lines.jsonl"
    write_lines(lines, [ruling_line_x(F(1, 2)), ruling_line_y(F(1, 3))])
    loads = counting(monkeypatch, "load_lines")
    assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                 "--out", str(tmp_path / "r.json"), "--verify"]) == 0
    assert loads == [(str(lines),)]


class TestInternalError:
    """A disagreement between two exact decision paths exits 5 with one line
    on stderr; the fuzz tests below check that no input gets here."""

    @pytest.mark.parametrize("wrong", [
        lambda line, body: None,
        lambda line, body: Certificate("point-below-range", F(0), "<", F(0)),
    ], ids=["claims-pierce", "false-inequality"])
    def test_refute_certificate_disagreement(self, tmp_path, monkeypatch, capsys, wrong):
        """The plane meet states every certificate, a ruling's too; one that
        says the support rule's miss pierces, or states a false inequality,
        fails at the witness without ``--verify``."""
        monkeypatch.setattr(refutation, "_geometric_miss", wrong)
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, [ruling_line_x(F(1, 2))])
        assert main(["refute", "--delta", "1/2", "--lines", str(lines),
                     "--out", str(tmp_path / "r.json")]) == 5
        self.assert_one_line(capsys.readouterr().err)

    def test_witness_cross_check_disagreement(self, tmp_path, monkeypatch, capsys):
        family = construct(tmp_path, count=3)
        monkeypatch.setattr(cli, "pierce", lambda line, body: False)
        assert main(["witness", "--t", "1", "--family", str(family),
                     "--out", str(tmp_path / "w.json")]) == 5
        self.assert_one_line(capsys.readouterr().err)

    def test_cover_cross_check_disagreement(self, tmp_path, monkeypatch, capsys):
        family = construct(tmp_path, count=3)
        lines = tmp_path / "lines.jsonl"
        # x = 2 lies outside every support, so the geometric pierce misses
        write_lines(lines, [ruling_line_x(F(2))])
        monkeypatch.setattr(refutation, "_ruling_pierces", lambda cls, body: True)
        assert main(["cover", "--family", str(family), "--lines", str(lines),
                     "--out", str(tmp_path / "c.json"), "--verify"]) == 5
        self.assert_one_line(capsys.readouterr().err)

    def test_cover_cross_check_on_the_first_marked_column(self, tmp_path, monkeypatch, capsys):
        """A support rule that marks x = 2 for body 0 alone puts it in the
        cover beside x = 3/4, which meets every body.  Some cover line
        pierces body 0, but the column its row marks first does not."""
        family = construct(tmp_path, count=4)
        lines = tmp_path / "lines.jsonl"
        outside, shared = ruling_line_x(F(2)), ruling_line_x(F(3, 4))
        write_lines(lines, [outside, shared])
        real = refutation._ruling_pierces
        monkeypatch.setattr(
            refutation, "_ruling_pierces",
            lambda cls, body: cls.param == 2 if body.f_index == 1 else real(cls, body),
        )
        out = tmp_path / "c.json"
        assert main(["cover", "--family", str(family), "--lines", str(lines),
                     "--out", str(out), "--verify"]) == 5
        err = capsys.readouterr().err
        self.assert_one_line(err)
        assert "body 0 is not pierced by cover line 0" in err
        assert json.loads(out.read_text())["columns"] == [0, 1]
        assert pierce(shared, prefix(F(1, 2), 1)[0])

    def test_uncoverable_cross_check_disagreement(self, tmp_path, monkeypatch, capsys):
        """A support rule that misses every body lists them all as
        uncoverable; the geometric pierce finds the x = j/16 meeting each."""
        family = construct(tmp_path, count=3)
        lines = tmp_path / "lines.jsonl"
        write_lines(lines, [ruling_line_x(F(j, 16)) for j in range(17)])
        monkeypatch.setattr(refutation, "_ruling_pierces", lambda cls, body: False)
        assert main(["cover", "--family", str(family), "--lines", str(lines),
                     "--out", str(tmp_path / "c.json"), "--verify"]) == 5
        err = capsys.readouterr().err
        self.assert_one_line(err)
        assert "a pool line pierces body 0" in err

    @pytest.mark.parametrize("command, code", [("witness", 2), ("refute", 2), ("cover", 4)])
    def test_verify_reads_back_exhausted_and_uncoverable_reports(
        self, tmp_path, capsys, command, code
    ):
        """--verify reads back the report of an exhausted search or an
        uncoverable pool too, so one that is not kept fails the re-check."""
        family = construct(tmp_path, count=2)
        lines = tmp_path / "lines.jsonl"
        # x = 2 lies outside every support; the x = j/16 leave no body unpierced
        pool = [ruling_line_x(F(2))] if command == "cover" else [
            ruling_line_x(F(j, 16)) for j in range(17)]
        write_lines(lines, pool)
        argv = {
            # the first two bodies share only the point 0
            "witness": ["witness", "--t", "3", "--family", str(family)],
            "refute": ["refute", "--delta", "1/2", "--lines", str(lines), "--nmax", "5"],
            "cover": ["cover", "--family", str(family), "--lines", str(lines)],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "report.json"), "--verify"]) == code
        assert capsys.readouterr().out.startswith("verified ")
        assert main([*argv, "--out", os.devnull, "--verify"]) == 5
        self.assert_one_line(capsys.readouterr().err)

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_failed_verify_exits_5(self, tmp_path, monkeypatch, capsys, case):
        """--verify reads back what the command wrote: a corrupted artifact
        is a failed re-check, a defect (exit 5), never an input error."""
        family = construct(tmp_path, count=3)
        lines = tmp_path / "lines.jsonl"
        # x = 2 lies outside every support; some x = j/16 meets each body
        write_lines(lines, [ruling_line_x(F(2))] + [ruling_line_x(F(j, 16)) for j in range(17)])
        pool = tmp_path / "pool.jsonl"
        write_lines(pool, MIXED_POOL)
        command, name, corrupt = CORRUPTIONS[case]
        write = cli._write
        monkeypatch.setattr(cli, "_write", lambda path, parts: write(
            path, [corrupt("".join(parts))] if Path(path).name == name else parts))
        argv = {
            "construct": ["construct", "--delta", "1/2", "-N", "3"],
            "witness": ["witness", "--t", "1", "--family", str(family)],
            "refute": ["refute", "--delta", "1/2", "--lines", str(pool)],
            "cover": ["cover", "--family", str(family), "--lines", str(lines)],
            "export-plot": ["export-plot", "--family", str(family), "--samples", "2"],
        }[command]
        out = tmp_path / ("plots" if command == "export-plot" else name)
        assert main([*argv, "--out", str(out), "--verify"]) == 5
        self.assert_one_line(capsys.readouterr().err)

    @staticmethod
    def assert_one_line(err):
        assert err.startswith("internal error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


# --- fuzzing the input boundary -------------------------------------------

LONG_DIGITS = "7" * 5000
GOOD_LINE_RECORDS = [
    line_to_record(line)
    for line in (
        ruling_line_x(F(1, 3)),
        ruling_line_y(F(1, 2)),
        Line3(Point3(F(0), F(0), F(1)), (F(1), F(1), F(0))),
    )
]
GOOD_BODY_RECORDS = [body_to_record(body) for body in prefix(F(1, 2), 3)]
ODD_VALUES = [
    "1/0", "0/0", "1e5", "1e400", "-2E-3", "2.5", "-.5", "1/2.0", "0x10", "1_000",
    "\u0661/\u0662", " 7/3 ", "-3/7", "0/1", "1/1", LONG_DIGITS, "1/" + LONG_DIGITS,
    "-" + LONG_DIGITS + "/3", 0.5, 3, -0.0, float("inf"), True, None, [], {}, ["1/2"],
]
RAW_LINES = [
    b"[" * 10_000,
    b'{"a":' * 10_000,
    b"not json",
    b"",
    b"   ",
    b"\xff\xfe{}",
    b'{"base": ["1/2"',
    b'"1/2"',
    b"null",
    b"[1, 2, 3]",
    # JSON numbers: a 5,000-digit integer and exponent literals where strings belong
    b'{"base":[' + LONG_DIGITS.encode() + b',"0/1","0/1"],"dir":["0/1","1/1","0/1"]}',
    b'{"q":"1/4","m":1,"f":' + LONG_DIGITS.encode()
    + b',"eps":"1/64","support":[["0/1","1/1"]]}',
    b'{"base":[1e5,"0/1","0/1"],"dir":["0/1","1/1",2.5e-3]}',
]


def _node_paths(node, path=()):
    """Paths to every node below the root of a JSON value."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


@st.composite
def mutated_record(draw, records):
    """A good record with one node replaced by an odd value."""
    record = copy.deepcopy(draw(st.sampled_from(records)))
    *parents, key = draw(st.sampled_from(list(_node_paths(record))))
    node = record
    for step in parents:
        node = node[step]
    node[key] = draw(st.sampled_from(ODD_VALUES))
    return json.dumps(record).encode()


def jsonl_file(records):
    """Lines of one record kind: good, mutated, raw, or cut off by a
    non-UTF-8 byte."""
    good = st.sampled_from(records).map(lambda r: json.dumps(r).encode())
    line = st.one_of(
        good,
        mutated_record(records),
        st.sampled_from(RAW_LINES),
        good.map(lambda line: line[:-1] + b"\x80}"),
    )
    return st.lists(line, max_size=3).map(lambda lines: b"".join(ln + b"\n" for ln in lines))


def _run_quietly(argv):
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200)
@given(content=st.one_of(jsonl_file(GOOD_LINE_RECORDS), jsonl_file(GOOD_BODY_RECORDS)))
@example(content=b"[" * 10_000 + b"\n")
@example(content=json.dumps({**GOOD_LINE, "dir": ["0/1", "1e400", "1/2"]}).encode())
@example(content=json.dumps({**GOOD_BODY, "eps": "0.015625"}).encode())
@example(content=json.dumps({**GOOD_LINE, "base": ["1/" + LONG_DIGITS, "0/1", "0/1"]}).encode())
# two bodies, so witness --t 2 reports a 5,001-digit point
@example(content=2 * (json.dumps({**GOOD_BODY, "support": [["1/" + LONG_DIGITS, "1/1"]]})
                      + "\n").encode())
@example(content=RAW_LINES[-3])
@example(content=json.dumps({**GOOD_LINE, "dir": ["0/1", "1/0", "1/2"]}).encode())
@example(content=json.dumps({**GOOD_BODY, "q": 0.25}).encode())
@example(content=b"\xff\xfe{}\n")
def test_any_input_file_exits_with_a_contract_code(content):
    """Whatever bytes a lines or family file holds, refute, witness and cover
    exit 0, 2, 3 or 4 without raising, and --verify never fails."""
    with tempfile.TemporaryDirectory() as tmp:
        fuzzed, lines, family, out = (os.path.join(tmp, name) for name in
                                      ("fuzzed.jsonl", "lines.jsonl", "family.jsonl", "out.json"))
        Path(fuzzed).write_bytes(content)
        Path(lines).write_text(json.dumps(GOOD_LINE) + "\n", encoding="utf-8")
        Path(family).write_text(json.dumps(GOOD_BODY) + "\n", encoding="utf-8")
        for argv in (
            ["refute", "--delta", "1/2", "--nmax", "5", "--lines", fuzzed],
            ["witness", "--t", "2", "--family", fuzzed],
            ["cover", "--family", fuzzed, "--lines", lines],
            ["cover", "--family", family, "--lines", fuzzed],
        ):
            code, err = _run_quietly([*argv, "--out", out, "--verify"])
            assert code in (0, 2, 3, 4), (argv[0], code)
            assert "verification failed" not in err, (argv[0], err)


@pytest.mark.parametrize("record, fault", [
    ({**GOOD_BODY, "support": [["1/1", "1/" + LONG_DIGITS]]}, "interval endpoints out of order"),
    ({**GOOD_BODY, "eps": "1/" + LONG_DIGITS}, "tilt mismatch"),
], ids=["support-out-of-order", "eps-mismatch"])
def test_error_message_names_the_fault_past_the_int_string_digit_limit(
    tmp_path, capsys, record, fault
):
    family = tmp_path / "family.jsonl"
    family.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["witness", "--t", "1", "--family", str(family),
                 "--out", str(tmp_path / "w.json")]) == 3
    err = capsys.readouterr().err
    assert fault in err
    assert LONG_DIGITS in err
    assert "Exceeds the limit" not in err


# --- fuzzing the command line ----------------------------------------------

DIGIT_SCRIPTS = [str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"),
                 str.maketrans("0123456789", "０１２３４５６７８９")]


def mostly(good, odd):
    """Draw from ``good`` three times in four, so that most command lines
    get past the input checks and run."""
    return st.integers(0, 3).flatmap(lambda k: odd if k == 3 else good)


def int_texts(values):
    """Texts that Python's int() reads as the drawn value (plain, signed,
    with underscores between digits, in other digit scripts, padded), or
    texts it rejects, or a huge negative number."""
    def render(n, form):
        sign, digits = ("-" if n < 0 else ""), str(abs(n))
        return [
            sign + digits,
            (sign or "+") + digits,
            sign + "_".join(digits),
            sign + digits.translate(DIGIT_SCRIPTS[0]),
            sign + digits.translate(DIGIT_SCRIPTS[1]),
            f" {sign}{digits} ",
        ][form]
    return mostly(
        st.builds(render, values, st.integers(0, 5)),
        st.sampled_from(["", "1.5", "1e3", "0x10", "_1", "1__0", "abc", "9" * 5000,
                         "-" + "9" * 5000, "-" + "9" * 40]),
    )


# Values that set how much work a command does are capped: -N, --nmax and
# --samples, --precision below its cap MAX_PRECISION (beyond it the command
# refuses before any work), and --delta near 1, which makes covers of many
# short intervals.  --t is not: no depth makes the sweep longer.
COUNT = int_texts(st.integers(-3, 20))
NMAX = int_texts(st.integers(-3, 40))
SAMPLES = int_texts(st.integers(-3, 12))
PRECISION = int_texts(mostly(st.integers(-3, 30), st.integers(MAX_PRECISION + 1, 10**40)))
DEPTH = int_texts(st.integers(-3, 10**40))
DELTA = mostly(
    st.fractions(min_value=F(1, 40), max_value=F(9, 10), max_denominator=40).map(
        lambda x: f"{x.numerator}/{x.denominator}"),
    st.one_of(
        st.fractions(min_value=-2, max_value=3, max_denominator=40).map(
            lambda x: f"{x.numerator}/{x.denominator}").filter(lambda t: t != "0/1"),
        st.sampled_from(["1", "1/1", "7/5", "1/0", "0", "0.5", "1e-1", "½", "١/٢", " 1/2 ",
                         "+1/3", "1/" + LONG_DIGITS, "abc", ""]),
    ),
)
# placeholders, replaced by paths in the example's own directory
PATH = st.sampled_from(["@family", "@lines", "@empty", "@missing", "@dir", "@out", "@nested"])
FLAGS = {
    "construct": [("--delta", DELTA), (("--count", "-N"), COUNT),
                  ("--out", mostly(st.just("@out"), PATH)), ("--verify", None)],
    "witness": [("--t", DEPTH), ("--family", mostly(st.just("@family"), PATH)),
                ("--out", mostly(st.just("@out"), PATH)), ("--verify", None)],
    "refute": [("--delta", DELTA), ("--lines", mostly(st.just("@lines"), PATH)),
               ("--nmax", NMAX), ("--out", mostly(st.just("@out"), PATH)), ("--verify", None)],
    "cover": [("--family", mostly(st.just("@family"), PATH)),
              ("--lines", mostly(st.just("@lines"), PATH)),
              ("--out", mostly(st.just("@out"), PATH)), ("--verify", None)],
    "export-plot": [("--family", mostly(st.just("@family"), PATH)),
                    ("--out", mostly(st.just("@out"), PATH)), ("--samples", SAMPLES),
                    ("--precision", PRECISION), ("--verify", None)],
}
JUNK = ["--bogus", "extra", "-x", "--", "--verify=1", "--help", "--delta"]


@st.composite
def argvs(draw):
    """A command with each of its flags present seven times in eight, in any
    order, and now and then a stray token."""
    command = draw(st.sampled_from([*sorted(FLAGS), "frobnicate"]))
    groups = []
    for flag, values in FLAGS.get(command, []):
        if draw(st.integers(0, 7)) < 7:
            name = draw(st.sampled_from(flag)) if isinstance(flag, tuple) else flag
            groups.append([name] if values is None else [name, draw(values)])
    groups = draw(st.permutations(groups))
    if draw(st.integers(0, 7)) == 7:
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(JUNK))])
    return [command, *(token for group in groups for token in group)]


def _dump_records(path, records):
    Path(path).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@settings(max_examples=300)
@given(argv=argvs())
@example(argv=["export-plot", "--family", "@family", "--out", "@dir",
               "--precision", "1000000000000000000"])
@example(argv=["export-plot", "--family", "@family", "--out", "@dir",
               "--precision", "99999999999999999999"])
@example(argv=["witness", "--t", "1" + "0" * 40, "--family", "@family", "--out", "@out"])
@example(argv=["construct", "--delta", "1/" + LONG_DIGITS, "-N", "٣", "--out", "@out",
               "--verify"])
@example(argv=["construct", "--delta", "1/2", "-N", str(sys.maxsize + 1), "--out", "@out"])
@example(argv=["refute", "--delta", "1/2", "--lines", "@lines", "--nmax", str(sys.maxsize + 1),
               "--out", "@out"])
@example(argv=["export-plot", "--family", "@family", "--out", "@dir",
               "--samples", "1000000000000"])
def test_any_command_line_exits_with_a_contract_code(argv):
    """Whatever the command line, every command exits 0, 2, 3 or 4 without
    raising, and --verify never fails."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {f"@{name}": os.path.join(tmp, name) for name in
                 ("family", "lines", "empty", "missing", "dir", "out")}
        paths["@nested"] = os.path.join(tmp, "missing", "out")
        _dump_records(paths["@family"], GOOD_BODY_RECORDS)
        _dump_records(paths["@lines"], GOOD_LINE_RECORDS)
        Path(paths["@empty"]).write_bytes(b"")
        os.mkdir(paths["@dir"])
        code, err = _run_quietly([paths.get(token, token) for token in argv])
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "verification failed" not in err, (argv, err)

