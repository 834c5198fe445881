import copy
import hashlib
import json
import pickle
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linepierce import family
from linepierce.family import (
    ConvexBody,
    FamilyStream,
    SupportAssigner,
    _LevelCursor,
    _first_of_its_support,
    _sorted_base,
    body_from_record,
    body_to_record,
    dyadic_approach,
    enumerate_Q0,
    eps_of,
    m_of,
    record_line,
)
from linepierce.exactnum import format_rational
from linepierce.geometry import (
    GENERIC,
    Line3,
    LineClass,
    classify_line,
    ruling_line_x,
    ruling_line_y,
)
from linepierce.intervals import IntervalSet, make_cover
from linepierce.refutation import pierce
from oracles import (
    FractionSet,
    base_rationals,
    covering_cursor_tables,
    fraction_schedule,
    greedy_coverable,
    interval_set,
    lower_envelope,
    measure,
    open_span,
    pieces,
    prefix,
    sorted_pairs,
    stated_tilt_fault,
    stored_decisions,
    stored_support_walk,
)


def pierced_at(body, u, w):
    """Is the chart point (u, w) in the body?  Asked of the line through it
    along (0, 1, 0), which crosses the body's plane there."""
    return pierce(Line3(body.from_chart(u, w), (F(0), F(1), F(0))), body)


class TestBaseEnumeration:
    def test_small_table(self):
        want = [F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4),
                F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1, 6), F(5, 6)]
        assert [enumerate_Q0(n) for n in range(1, 14)] == want

    def test_injective_to_ten_thousand(self):
        seen = {enumerate_Q0(n) for n in range(1, 10_001)}
        assert len(seen) == 10_000

    def test_all_in_unit_interval_and_reduced(self):
        for n in range(1, 2000):
            q = enumerate_Q0(n)
            assert 0 <= q <= 1

    def test_index_validation(self):
        with pytest.raises(ValueError):
            enumerate_Q0(0)

    def test_matches_a_generation_by_denominator(self):
        want = list(islice(base_rationals(), 20_000))
        assert [enumerate_Q0(n) for n in range(1, 20_001)] == want


class TestEpsSequence:
    def test_first_values(self):
        assert eps_of(1) == F(1, 64)
        assert eps_of(2) == F(1, 256)

    def test_strictly_decreasing(self):
        values = [eps_of(n) for n in range(1, 1001)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_eventually_below_any_bound(self):
        assert eps_of(49) < F(1, 4**50)


def next_value(approach, registry):
    """The next approach pair the registry does not hold, as the stream takes it."""
    return next(v for v in approach if v not in registry)


class TestDyadicApproacher:
    def test_two_sided_target(self):
        gen = dyadic_approach(F(1, 2))
        registry: set = set()
        got = []
        for _ in range(5):
            v = next_value(gen, registry)
            registry.add(v)
            got.append(v)
        assert got == [(3, 4), (1, 4), (5, 8), (3, 8), (9, 16)]

    def test_boundary_target_one_sided(self):
        gen = dyadic_approach(F(0))
        registry: set = set()
        got = []
        for _ in range(4):
            v = next_value(gen, registry)
            registry.add(v)
            got.append(v)
        assert got == [(1, 4), (1, 8), (1, 16), (1, 32)]

    def test_collision_skipped(self):
        gen = dyadic_approach(F(1, 2))
        registry = {(3, 4)}
        assert next_value(gen, registry) == (1, 4)

    def test_never_emits_target(self):
        gen = dyadic_approach(F(1, 4))
        registry: set = set()
        for _ in range(60):
            v = next_value(gen, registry)
            registry.add(v)
            assert v != (1, 4)
            assert F(*v).as_integer_ratio() == v
            assert 0 <= F(*v) <= 1

    def test_converges_to_target(self):
        gen = dyadic_approach(F(2, 3))
        registry: set = set()
        dist = None
        for _ in range(40):
            v = next_value(gen, registry)
            registry.add(v)
            d = abs(F(*v) - F(2, 3))
            if dist is not None:
                assert d <= dist
            dist = d
        assert dist < F(1, 1000)


def first_fit_oracle(delta: F, m: int, count: int) -> list[list[tuple[F, F]]]:
    """Independent re-enumeration: full lexicographic scan per level.

    Materializes every pick multiset of levels 1 and 2 and cuts each picked
    span from [0,1] in turn, on ``FractionSet``s; validity is judged on the
    resulting point sets, not on pick indices.  Returns the sets' pieces.
    """
    target = enumerate_Q0(m)
    excluded = [enumerate_Q0(k) for k in range(1, m)]
    out: list[list[tuple[F, F]]] = []
    seen: set[FractionSet] = set()
    for level in (1, 2):
        spans = [open_span(delta, level, p) for p in range(make_cover(delta, level).size)]
        for combo in combinations_with_replacement(range(len(spans)), 2**level):
            s = FractionSet((F(0), F(1)))
            for p in combo:
                s = s.subtract_open(*spans[p])
            if not s.contains(target) or any(s.contains(e) for e in excluded) or s in seen:
                continue
            seen.add(s)
            out.append(pieces(s))
            if len(out) == count:
                return out
    return out


class TestSupportAssigner:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_brute_force_enumeration(self, m):
        delta = F(1, 2)
        assigner = SupportAssigner(delta, m)
        want = first_fit_oracle(delta, m, 8)
        got = [pieces(assigner.assign()) for _ in range(8)]
        assert got == want

    def test_matches_brute_force_across_level_bump(self):
        # the ninth valid set for m=2 forces the move from level 1 to level 2
        delta = F(1, 2)
        assigner = SupportAssigner(delta, 2)
        want = first_fit_oracle(delta, 2, 40)
        got = [pieces(assigner.assign()) for _ in range(40)]
        assert got == want
        levels = {len(s) for s in got}
        assert len(levels) > 1  # sets from both cover levels appear

    def test_first_set_for_m1_starts_at_zero(self):
        s = SupportAssigner(F(1, 2), 1).assign()
        assert s.contains(F(0))
        assert s.points[0] == F(0)

    def test_m3_membership_constraints(self):
        assigner = SupportAssigner(F(1, 2), 3)
        for _ in range(6):
            s = assigner.assign()
            assert s.contains(F(1, 2))
            assert not s.contains(F(0))
            assert not s.contains(F(1))

    def test_distinct_values_get_distinct_sets(self):
        assigner = SupportAssigner(F(1, 2), 2)
        sets = [assigner.assign() for _ in range(29)]
        assert len(set(sets)) == len(sets)

    def test_measure_bound(self):
        for m in (1, 2, 3, 5, 8):
            assigner = SupportAssigner(F(3, 4), m)
            for _ in range(4):
                s = assigner.assign()
                assert measure(s) >= F(3, 4)

    # every kind of repeat shows here: a repeated pick at each delta, a
    # redundant last interval at 2/7 and 5/11, and a lower level's support
    # at levels 2 and 3
    @pytest.mark.parametrize("delta", [F(1, 2), F(1, 3), F(2, 7), F(5, 11), F(9, 10)], ids=str)
    def test_matches_the_stored_walk(self, delta):
        for m in range(1, 41):
            assigner = SupportAssigner(delta, m)
            got = [assigner.assign() for _ in range(200)]
            assert got == list(islice(stored_support_walk(delta, m), 200)), m

    # whole levels 1 and 2 reach multisets past the first 200 supports, such
    # as (2, 3, 4, 5) of m = 1, whose cut (1, 6) starts odd; at 9/10 level 2
    # has 81 intervals, and millions of multisets
    @pytest.mark.parametrize("delta", [F(1, 2), F(1, 3), F(2, 7), F(5, 11)], ids=str)
    def test_decides_as_the_stored_walk_over_whole_levels(self, delta):
        for m in (1, 2, 3):
            for cover, combo, first in stored_decisions(delta, m):
                if cover.level > 2:
                    break
                assert _first_of_its_support(cover, combo) == first, (m, combo)


def valid_multisets_oracle(delta, level, target, excluded):
    """Every pick multiset of the level in lexicographic order, kept when its
    support holds the target and none of the excluded points: a point of
    [0,1] leaves the support exactly when a picked open interval holds it."""
    spans = [open_span(delta, level, p) for p in range(make_cover(delta, level).size)]
    hits_target = [lo < target < hi for lo, hi in spans]
    hit_mask = [
        sum(1 << i for i, e in enumerate(excluded) if lo < e < hi) for lo, hi in spans
    ]
    everything = (1 << len(excluded)) - 1
    for combo in combinations_with_replacement(range(len(spans)), 2**level):
        if any(hits_target[p] for p in combo):
            continue
        mask = 0
        for p in combo:
            mask |= hit_mask[p]
        if mask == everything:
            yield combo


unit_rationals = st.integers(1, 24).flatmap(
    lambda den: st.integers(0, den).map(lambda num: F(num, den))
)


class TestLevelCursorWalk:
    @settings(max_examples=60)
    @given(
        delta=st.sampled_from([F(1, 3), F(1, 2), F(3, 5), F(2, 3)]),
        level=st.integers(1, 2),
        target=unit_rationals,
        excluded=st.lists(unit_rationals, max_size=6),
    )
    # filler 3 covers 5/16 but not 0, and every pick after it lies above 0:
    # the walk yields (0, 3) alone
    @example(delta=F(1, 2), level=1, target=F(3, 16), excluded=[F(0), F(5, 16)])
    # repeated points, and a repeated grid node (1/4) that one interval holds
    @example(delta=F(1, 2), level=2, target=F(0), excluded=[F(1, 3), F(1, 3), F(1, 2), F(1, 2)])
    @example(delta=F(1, 2), level=1, target=F(1), excluded=[F(1, 4), F(1, 4), F(3, 5)])
    # the target is an excluded point: the walk yields nothing
    @example(delta=F(1, 3), level=1, target=F(1, 2), excluded=[F(1, 4), F(1, 2)])
    def test_walk_matches_full_enumeration(self, delta, level, target, excluded):
        cover = make_cover(delta, level)
        got = list(_LevelCursor(cover, target, sorted_pairs(excluded)).walk())
        assert got == list(valid_multisets_oracle(delta, level, target, excluded))

    @settings(max_examples=200)
    @given(
        delta=st.sampled_from([F(1, 3), F(1, 2), F(2, 7), F(9, 10)]),
        level=st.integers(1, 4),
        target=unit_rationals,
        excluded=st.lists(unit_rationals, max_size=12),
    )
    # the target is an excluded point, which then has no candidate
    @example(delta=F(1, 2), level=2, target=F(1, 2), excluded=[F(1, 8), F(1, 2), F(7, 8)])
    # twelve points spread over [0,1] need more picks than level 1 has
    @example(delta=F(1, 2), level=1, target=F(0), excluded=[F(k, 12) for k in range(1, 13)])
    def test_coverable_matches_the_greedy_chain(self, delta, level, target, excluded):
        cover = make_cover(delta, level)
        cursor = _LevelCursor(cover, target, sorted_pairs(excluded))
        for low in range(len(excluded) + 1):
            for floor in range(cover.size + 1):
                for slots in range(cursor.size + 1):
                    want = greedy_coverable(cursor, low, floor, slots)
                    assert cursor._coverable(low, floor, slots) == want, (low, floor, slots)

    # sha256 of a "m level combo" line for each of the first 500 multisets of
    # each cursor, m <= 40 and levels 1-3, as the walk yielded them when its
    # feasibility test walked the greedy chain per query
    @pytest.mark.parametrize("delta, digest", [
        (F(1, 2), "de458e3d69075e1eed82774154ed416bf2e1c23d0b64f89c590a3fc6f4175bc1"),
        (F(2, 7), "129c7bbd5a7c8d96961ec58c75743620856afc629d55767e2b0e06b2768d4996"),
    ], ids=["1/2", "2/7"])
    def test_walk_order_is_pinned(self, delta, digest):
        walked = hashlib.sha256()
        for m in range(1, 41):
            target, excluded = enumerate_Q0(m), sorted_pairs(map(enumerate_Q0, range(1, m)))
            for level in (1, 2, 3):
                cursor = _LevelCursor(make_cover(delta, level), target, excluded)
                for combo in islice(cursor.walk(), 500):
                    walked.update(f"{m} {level} {combo}\n".encode())
        assert walked.hexdigest() == digest

    def test_deep_level_does_not_recurse(self):
        # 1024 picks: a walk that recursed once per pick would pass
        # Python's default recursion limit of 1000
        cover = make_cover(F(1, 2), 10)
        combo = next(_LevelCursor(cover, F(0), [(1, 3), (1, 2)]).walk())
        assert len(combo) == 1024
        assert all(a <= b for a, b in zip(combo, combo[1:]))


@st.composite
def cursor_inputs(draw):
    """A cover, and a target and excluded points drawn from rationals of
    [0,1], the cover's grid points in it, and 0 and 1."""
    delta = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 7), F(9, 10)]))
    cover = make_cover(delta, draw(st.integers(1, 6)))
    grid = st.integers(0, int(1 / cover.step)).map(lambda k: k * cover.step)
    points = st.one_of(unit_rationals, grid, st.sampled_from([F(0), F(1)]))
    return cover, draw(points), draw(st.lists(points, max_size=12))


class TestIntegerSetUp:
    @settings(max_examples=300)
    @given(cursor_inputs())
    # both ends of [0,1] as target and points; 1 is the last center at 1/2
    @example((make_cover(F(1, 2), 1), F(1), [F(0), F(1), F(1)]))
    @example((make_cover(F(1, 2), 3), F(0), [F(0), F(1, 16), F(3, 32), F(1)]))
    # at 2/7 no grid point is 1, which lies between the last two centers
    @example((make_cover(F(2, 7), 6), F(1), [F(5, 448), F(1, 2), F(1)]))
    # the target is a grid point and an excluded one, which then has no candidate
    @example((make_cover(F(9, 10), 1), F(1, 40), [F(0), F(1, 40), F(39, 40), F(1)]))
    def test_tables_match_the_covering_indices_build(self, inputs):
        cover, target, excluded = inputs
        cursor = _LevelCursor(cover, target, sorted_pairs(excluded))
        got = (cursor.allowed, cursor.cands, cursor.reach, cursor.need)
        assert got == covering_cursor_tables(cover, target, sorted(excluded))

    @pytest.mark.parametrize("ns", [
        range(0, 90), range(90, -1, -1), [5, 5, 40, 40, 3, 3, 0, 0, 61, 7, 7, 120],
    ], ids=["rising", "falling", "repeated"])
    def test_sorted_prefix_matches_a_fraction_sort(self, monkeypatch, ns):
        monkeypatch.setattr(family, "_last_sorted", (0, []))
        for n in ns:
            want = sorted_pairs(map(enumerate_Q0, range(1, n + 1)))
            assert _sorted_base(n) == want, n
            assert family._last_sorted == (n, want)

    def test_each_prefix_is_a_list_of_its_own_sharing_its_pairs(self, monkeypatch):
        monkeypatch.setattr(family, "_last_sorted", (0, []))
        shorter = _sorted_base(30)
        longer = _sorted_base(31)
        assert len(shorter) == 30 and longer == sorted_pairs(map(enumerate_Q0, range(1, 32)))
        assert {id(pair) for pair in shorter} < {id(pair) for pair in longer}

    def test_set_up_compares_no_fraction(self, monkeypatch):
        monkeypatch.setattr(family, "_last_sorted", (0, []))
        covers = [make_cover(F(1, 2), level) for level in (1, 2, 3)]
        target = enumerate_Q0(80)
        compared = []
        for attr in ("__lt__", "__le__", "__gt__", "__ge__"):
            real = getattr(F, attr)
            monkeypatch.setattr(
                F, attr, lambda a, b, real=real: compared.append((a, b)) or real(a, b)
            )
        cursors = [_LevelCursor(cover, target, _sorted_base(79)) for cover in covers]
        assert compared == [] and all(len(c.cands) == 79 for c in cursors)
        assert F(0) < F(1) and len(compared) == 1  # the count does see a comparison

    def test_a_low_approach_after_high_ones(self):
        delta = F(1, 2)
        assigners = [SupportAssigner(delta, m) for m in range(1, 31)]
        firsts = [a.assign() for a in assigners]  # each walk has taken its points
        low = SupportAssigner(delta, 1)  # asks for a shorter prefix than the last
        assert [low.assign() for _ in range(30)] == list(islice(stored_support_walk(delta, 1), 30))
        for m in range(30, 0, -1):  # and every earlier walk kept its own points
            got = [firsts[m - 1], *(assigners[m - 1].assign() for _ in range(40))]
            assert got == list(islice(stored_support_walk(delta, m), 41)), m


class TestBuildBody:
    def test_full_support_shape(self):
        body = ConvexBody(q=F(1, 2), f_index=1, support=IntervalSet(1, (0, 1)))
        assert body.eps == F(1, 64)
        assert (body.r_min, body.r_max) == (F(0), F(1))
        # extremes on the constant-x lines at 0 and 1
        lo = body.from_chart(F(0), body.parabola(F(0)))
        hi = body.from_chart(F(1), body.parabola(F(1)))
        assert (lo.x, lo.y, lo.z) == (F(0), F(1, 2), F(0))
        assert (hi.x, hi.y, hi.z) == (F(1), F(33, 64), F(33, 64))
        assert body.top_chord(F(0)) == body.parabola(F(0))
        assert body.top_chord(F(1)) == body.parabola(F(1))
        assert body.top_chord(F(1, 2)) > body.parabola(F(1, 2))

    def test_single_point_support_degenerates(self):
        support = interval_set([(F(1, 2), F(1, 2))])
        body = ConvexBody(q=F(1, 3), f_index=2, support=support)
        assert body.r_min == body.r_max == F(1, 2)
        w = body.parabola(F(1, 2))
        assert pierced_at(body, F(1, 2), w)
        assert not pierced_at(body, F(1, 2), w + F(1, 10**9))
        assert not pierced_at(body, F(1, 4), w)

    def test_gap_chord_strictly_above_parabola(self):
        support = interval_set([(F(0), F(1, 4)), (F(3, 4), F(1))])
        body = ConvexBody(q=F(1, 2), f_index=1, support=support)
        u = F(1, 2)
        assert lower_envelope(body, u) > body.parabola(u)
        # chord endpoints rejoin the parabola
        assert lower_envelope(body, F(1, 4)) == body.parabola(F(1, 4))
        assert lower_envelope(body, F(3, 4)) == body.parabola(F(3, 4))

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            ConvexBody(q=F(1, 2), f_index=1, support=interval_set([]))

    @pytest.mark.parametrize("q", [0.3, Decimal("0.3")], ids=["float", "decimal"])
    def test_offset_that_is_not_rational_rejected(self, q):
        # a float q would carry into every certificate of the body
        with pytest.raises(ValueError, match="rational"):
            ConvexBody(q=q, f_index=1, support=IntervalSet(1, (0, 1)))

    def test_record_round_trip(self):
        body = ConvexBody(q=F(2, 5), f_index=3, support=interval_set([(F(0), F(1, 3))]))
        again = body_from_record(body_to_record(body))
        assert again == body

    @pytest.mark.parametrize("f", [7140, 7141, 20000])
    def test_record_round_trip_at_any_tilt_index(self, f):
        # from f = 7141 on, eps's denominator has more than 4300 digits
        body = ConvexBody(q=F(1, 4), f_index=f, support=interval_set([(F(0), F(1))]))
        record = body_to_record(body)
        assert body_from_record(json.loads(json.dumps(record))) == body

    def test_record_tilt_mismatch_rejected(self):
        body = ConvexBody(q=F(2, 5), f_index=3, support=interval_set([(F(0), F(1, 3))]))
        record = body_to_record(body)
        assert record["eps"] == "1/1024"
        # wrong power of two, wrong numerator, not a power of two, f below 1
        for eps, f in (("1/64", 3), ("3/1024", 3), ("1/1023", 3), ("1/16", 0)):
            with pytest.raises(ValueError, match="tilt"):
                body_from_record({**record, "eps": eps, "f": f})

    @pytest.mark.parametrize("field, value", [
        ("f", 3.0), ("f", True), ("f", "3"), ("m", 2.0), ("m", True), ("m", "2"), ("m", None),
    ])
    def test_record_fields_f_and_m_must_be_json_integers(self, field, value):
        body = ConvexBody(q=F(2, 5), f_index=3, support=interval_set([(F(0), F(1, 3))]))
        with pytest.raises(ValueError, match=f"{field} must be a JSON integer"):
            body_from_record({**body_to_record(body), field: value})

    @pytest.mark.parametrize("m", [0, 1, 3, 99, -2])
    def test_record_approach_mismatch_rejected(self, m):
        body = ConvexBody(q=F(2, 5), f_index=3, support=interval_set([(F(0), F(1, 3))]))
        assert body_to_record(body)["m"] == 2
        with pytest.raises(ValueError, match="approach mismatch"):
            body_from_record({**body_to_record(body), "m": m})


CLONES = (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)))


def plane_ints(body: ConvexBody) -> tuple[int, int, int]:
    return body.qn, body.qd, body.k


class TestPlaneInts:
    """A body's plane as the ints ``qn``, ``qd`` and ``k``, and a ruling
    class's constant as ``pn`` and ``pd``, against the ``Fraction`` values
    they stand for."""

    def test_bodies_and_their_read_backs(self, pinned_family):
        for body in pinned_family:
            for b in (body, body_from_record(body_to_record(body))):
                assert {type(v) for v in plane_ints(b)} == {int}
                assert (b.qn, b.qd) == b.q.as_integer_ratio()
                assert F(1, 1 << b.k) == b.eps
                assert plane_ints(b) == plane_ints(body)

    def test_ruling_classes_carry_their_constant(self, pinned_family):
        for body in pinned_family:
            for line in (ruling_line_x(body.q), ruling_line_y(body.q)):
                cls = classify_line(line)
                assert cls.param == body.q
                assert (cls.pn, cls.pd) == cls.param.as_integer_ratio() == (body.qn, body.qd)
        generic = LineClass(GENERIC)
        assert (generic.pn, generic.pd) == (None, None)

    @pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
    def test_clones_keep_the_ints(self, pinned_family, clone):
        for body in (pinned_family[0], pinned_family[1999]):
            again = clone(body)
            assert again == body and plane_ints(again) == plane_ints(body)
        for cls in (classify_line(ruling_line_x(F(3, 7))), classify_line(ruling_line_y(F(-2, 9))),
                    LineClass(GENERIC)):
            again = clone(cls)
            assert again == cls and (again.pn, again.pd) == (cls.pn, cls.pd)
            assert repr(again) == repr(cls)


def digits(n: int) -> str:
    """n in decimal, also past the int-to-str digit limit."""
    return format_rational(F(n)).removesuffix("/1")


@st.composite
def wide_bodies(draw):
    """A body whose support's endpoints lie over one 130-bit denominator,
    with a signed q over it and a tilt index on either side of the 4,300-digit
    limit, so its record's texts are long and may hold a '-'."""
    den = draw(st.integers(2**129, 2**130 - 1))
    ends = sorted(draw(st.sets(st.integers(0, den), min_size=1, max_size=12)))
    ends += ends[-1:] * (len(ends) % 2)  # an odd count ends in a single point
    support = interval_set([(F(a, den), F(b, den)) for a, b in zip(ends[::2], ends[1::2])])
    q = F(draw(st.integers(-den, den)), den)
    return ConvexBody(q=q, f_index=draw(st.sampled_from([1, 7140, 7141, 7142, 20000])),
                      support=support)


@st.composite
def stated_tilts(draw):
    """(f, text): a tilt a record may state for index f, mostly near 2^-(2f+4)
    and in every form the grammar admits or nearly admits."""
    f = draw(st.one_of(st.integers(-2, 40), st.sampled_from([7140, 7141, 7142])))
    power = digits(2 ** max(2 * f + 4 + draw(st.integers(-1, 1)), 0))
    near = digits(2 ** max(2 * f + 4, 0) + draw(st.sampled_from([-1, 1])))
    double = digits(2 ** max(2 * f + 5, 0))
    text = draw(st.one_of(
        st.sampled_from([
            f"1/{power}", f"2/{double}", f"+1/{power}", f"01/0{power}", f"  1/{power} ",
            f"-1/{power}", f"0/{power}", f"1/{near}", "1/0", "1/000", "1", power, f"1/{power}/1",
            f"1.0/{power}", f"1/+{power}", f"1 / {power}",
        ]),
        st.text(alphabet="0124/+- ", max_size=8),
    ))
    return f, text


class TestRecordCodec:
    """A record's line is its JSON dump, and a stated tilt is decided from its
    digits as the ``Fraction`` reading of ``oracles.stated_tilt_fault`` decides it."""

    BODY = ConvexBody(q=F(2, 5), f_index=3, support=interval_set([(F(0), F(1, 3))]))

    @staticmethod
    def dump(record: dict) -> str:
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    def test_line_is_the_json_dump_over_the_pinned_family(self, pinned_family):
        for body in pinned_family:
            record = body_to_record(body)
            assert record_line(record) == self.dump(record)

    @settings(max_examples=60)
    @given(body=wide_bodies())
    def test_line_is_the_json_dump_of_wide_records(self, body):
        record = body_to_record(body)
        assert record_line(record) == self.dump(record)

    @pytest.mark.parametrize("order", [
        list(range(7136, 7146)),
        list(range(7146, 7136, -1)),
        [7141, 7141, 7140, 7140, 7142, 7142, 1, 1],
        random.Random(34).sample(range(1, 7200), 12) + [7141, 7139, 7142],
    ], ids=["rising", "falling", "repeated", "random"])
    def test_tilt_renders_as_format_rational_in_any_order(self, order):
        for f in order:
            body = ConvexBody(q=F(1, 4), f_index=f, support=interval_set([(F(0), F(1))]))
            assert body_to_record(body)["eps"] == format_rational(eps_of(f))

    @settings(max_examples=300)
    @given(case=stated_tilts())
    def test_tilt_check_agrees_with_the_fraction_reading(self, case):
        f, text = case
        record = {**body_to_record(self.BODY), "f": f, "m": m_of(f) if f >= 1 else 1, "eps": text}
        try:
            body_from_record(record)
        except ValueError as exc:
            assert str(exc) == stated_tilt_fault(text, f)
        else:
            assert stated_tilt_fault(text, f) is None

    def test_huge_stated_index_refused_in_little_memory(self):
        # 2^-(2f+4) for f = 10^9 would be a 250 MB int; the 2-digit
        # denominator is too short to state it, so nothing that long is built
        record = {**body_to_record(self.BODY), "f": 10**9, "m": m_of(10**9), "eps": "1/64"}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="tilt mismatch"):
                body_from_record(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def held_points(xs: list[F], support: list[tuple[F, F]]) -> list[F]:
    """The sorted points xs that lie in the sorted closed pieces, by one merge."""
    held, j = [], 0
    for x in xs:
        while j < len(support) and support[j][1] < x:
            j += 1
        if j < len(support) and support[j][0] <= x:
            held.append(x)
    return held


class Everything:
    def __contains__(self, item) -> bool:
        return True


class CountingSkip:
    """A skip container that records every value it is asked about."""

    def __init__(self, held):
        self.held, self.asked = held, []

    def __contains__(self, item) -> bool:
        self.asked.append(item)
        return item in self.held


class TestFamilyStream:
    def test_a_stream_is_read_once(self):
        stream = FamilyStream(F(1, 2))
        list(islice(stream.bodies(), 10))
        with pytest.raises(ValueError, match="read once"):
            stream.bodies()

    def test_skipped_approaches_leave_every_other_body_as_a_full_read_builds_it(self):
        # approaches 2 and 5 interleave with every other one in the dovetail;
        # each body read is the one a full read gives, and a skipped one is None
        skip = {enumerate_Q0(2), enumerate_Q0(5)}
        full = prefix(F(1, 2), 120)
        read = list(islice(FamilyStream(F(1, 2)).bodies(skip=skip), 120))
        assert read == [None if b.m in (2, 5) else b for b in full]

    def test_registry_holds_the_fraction_walks_values(self):
        # every approach skipped: no support is built, only the schedule runs
        stream = FamilyStream(F(1, 2))
        read = list(islice(stream.bodies(skip=Everything()), 20_000))
        assert read == [None] * 20_000
        want = {q.as_integer_ratio() for _, _, q in islice(fraction_schedule(), 20_000)}
        assert stream._bodies == want

    def test_a_full_read_follows_the_fraction_walk(self):
        bodies = prefix(F(1, 2), 2000)
        got = [(b.f_index, b.m, b.q) for b in bodies]
        assert got == list(islice(fraction_schedule(), 2000))
        assert all(type(b.q) is F for b in bodies)

    def test_skip_is_consulted_once_per_opened_approach(self):
        # 100 rounds of the dovetail are 5,050 emissions over approaches 1..100
        bases = [enumerate_Q0(m) for m in range(1, 101)]
        skip = CountingSkip({*bases[:60], *bases[61:]})
        read = list(islice(FamilyStream(F(1, 2)).bodies(skip=skip), 5050))
        assert skip.asked == bases
        assert [b.m for b in read if b is not None] == [61] * 40

    def test_fresh_streams_agree_byte_for_byte(self):
        a = prefix(F(1, 2), 15)
        b = prefix(F(1, 2), 15)
        blob_a = json.dumps([body_to_record(x) for x in a], sort_keys=True)
        blob_b = json.dumps([body_to_record(x) for x in b], sort_keys=True)
        assert blob_a == blob_b

    def test_emitted_values_distinct(self):
        bodies = prefix(F(1, 2), 80)
        values = [b.q for b in bodies]
        assert len(set(values)) == len(values)

    def test_tilt_indices_follow_emission_order(self):
        bodies = prefix(F(1, 2), 40)
        assert [b.f_index for b in bodies] == list(range(1, 41))
        eps = [b.eps for b in bodies]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_approach_index_follows_the_dovetail(self):
        # the dovetail 1; 1, 2; 1, 2, 3; ... written out round by round
        dovetail = [m for s in range(2, 80) for m in range(1, s)][:3000]
        assert [m_of(n) for n in range(1, 3001)] == dovetail
        assert [b.m for b in prefix(F(1, 2), 60)] == dovetail[:60]
        with pytest.raises(ValueError):
            m_of(0)

    def test_membership_constraints_hold(self, pinned_family):
        # each support, read as Fraction pieces so that no IntervalSet query
        # decides, holds its base rational r_m and none of r_1 ... r_(m-1),
        # and has measure at least delta
        bases = [enumerate_Q0(k) for k in range(1, max(b.m for b in pinned_family) + 1)]
        by_value = sorted(range(len(bases)), key=bases.__getitem__)
        for body in pinned_family:
            support = pieces(body.support)
            assert sum(hi - lo for lo, hi in support) >= F(1, 2)
            held = held_points([bases[k] for k in by_value if k < body.m], support)
            assert held == [bases[body.m - 1]]

    def test_supports_meet_measure_bound(self):
        for delta in (F(1, 2), F(3, 4)):
            bodies = prefix(delta, 30)
            assert all(measure(b.support) >= delta for b in bodies)

    def test_bodies_inside_box(self):
        bodies = prefix(F(1, 2), 60)
        for body in bodies:
            # the points over the support's endpoints attain every extreme
            for u in body.support.points:
                pt = body.from_chart(u, body.parabola(u))
                assert 0 <= pt.x <= 2 and 0 <= pt.y <= 2 and 0 <= pt.z <= 2

    def test_every_sequence_revisited(self):
        bodies = prefix(F(1, 2), 60)
        per_m = {}
        for b in bodies:
            per_m.setdefault(b.m, []).append(b.q)
        assert len(per_m[1]) > 5
        assert set(per_m) == set(range(1, 11))
        for m, values in per_m.items():
            target = enumerate_Q0(m)
            dists = [abs(v - target) for v in values]
            assert all(a >= b for a, b in zip(dists, dists[1:]))

    def test_extreme_points_leave_hull_when_interval_removed(self):
        bodies = [b for b in prefix(F(1, 2), 30)
                  if len(pieces(b.support)) >= 2]
        assert bodies
        for body in bodies[:10]:
            for j, (lo, hi) in enumerate(pieces(body.support)):
                rest = [iv for i, iv in enumerate(pieces(body.support)) if i != j]
                reduced = ConvexBody(
                    q=body.q, f_index=body.f_index, support=interval_set(rest)
                )
                probe = (lo + hi) / 2
                assert not pierced_at(reduced, probe, body.parabola(probe))

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            FamilyStream(F(1))
        with pytest.raises(ValueError):
            FamilyStream(F(0))


TINY = F(1, 7**6000)  # its denominator has 5,071 digits, past int-to-str's 4,300


@pytest.mark.parametrize("call, shown", [
    (lambda: interval_set([(F(1), TINY)]), TINY),
    (lambda: IntervalSet(1, (0, 1)).gap_ends(TINY), TINY),
    (lambda: make_cover(1 + TINY, 1), 1 + TINY),
    (lambda: SupportAssigner(1 + TINY, 1).assign(), 1 + TINY),
    (lambda: FamilyStream(-TINY), -TINY),
    (lambda: next(dyadic_approach(1 + TINY)), 1 + TINY),
], ids=["from_pairs", "gap_ends", "make_cover", "assigner",
        "stream", "dyadic_approach"])
def test_error_messages_render_long_rationals(call, shown):
    with pytest.raises(ValueError) as info:
        call()
    assert format_rational(shown) in str(info.value)
