import json
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linepierce.family import (
    ConvexBody,
    FamilyStream,
    SupportAssigner,
    _LevelCursor,
    body_from_record,
    body_to_record,
    dyadic_approach,
    enumerate_Q0,
    eps_of,
    m_of,
)
from linepierce.exactnum import QuadExt, format_rational
from linepierce.geometry import Line3
from linepierce.intervals import IntervalSet, make_cover
from linepierce.refutation import pierce
from oracles import (
    FractionSet,
    base_rationals,
    fraction_schedule,
    interval_set,
    open_span,
    pieces,
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
        assigner = SupportAssigner(delta)
        want = first_fit_oracle(delta, m, 8)
        got = [pieces(assigner.assign(m)) for _ in range(8)]
        assert got == want

    def test_matches_brute_force_across_level_bump(self):
        # the ninth valid set for m=2 forces the move from level 1 to level 2
        delta = F(1, 2)
        assigner = SupportAssigner(delta)
        want = first_fit_oracle(delta, 2, 40)
        got = [pieces(assigner.assign(2)) for _ in range(40)]
        assert got == want
        levels = {len(s) for s in got}
        assert len(levels) > 1  # sets from both cover levels appear

    def test_first_set_for_m1_starts_at_zero(self):
        s = SupportAssigner(F(1, 2)).assign(1)
        assert s.contains(F(0))
        assert s.points[0] == F(0)

    def test_m3_membership_constraints(self):
        assigner = SupportAssigner(F(1, 2))
        for _ in range(6):
            s = assigner.assign(3)
            assert s.contains(F(1, 2))
            assert not s.contains(F(0))
            assert not s.contains(F(1))

    def test_distinct_values_get_distinct_sets(self):
        assigner = SupportAssigner(F(1, 2))
        sets = [assigner.assign(2) for _ in range(29)]
        assert len(set(sets)) == len(sets)

    def test_measure_bound(self):
        assigner = SupportAssigner(F(3, 4))
        for m in (1, 2, 3, 5, 8):
            for _ in range(4):
                s = assigner.assign(m)
                assert s.measure() >= F(3, 4)


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
        got = list(_LevelCursor(cover, target, sorted(excluded)).walk())
        assert got == list(valid_multisets_oracle(delta, level, target, excluded))

    def test_deep_level_does_not_recurse(self):
        # 1024 picks: a walk that recursed once per pick would pass
        # Python's default recursion limit of 1000
        cover = make_cover(F(1, 2), 10)
        combo = next(_LevelCursor(cover, F(0), [F(1, 3), F(1, 2)]).walk())
        assert len(combo) == 1024
        assert all(a <= b for a, b in zip(combo, combo[1:]))


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
        assert body.lower_envelope(u) > body.parabola(u)
        # chord endpoints rejoin the parabola
        assert body.lower_envelope(F(1, 4)) == body.parabola(F(1, 4))
        assert body.lower_envelope(F(3, 4)) == body.parabola(F(3, 4))

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
        stream.truncate(10)
        with pytest.raises(ValueError, match="read once"):
            stream.truncate(10)
        with pytest.raises(ValueError, match="read once"):
            stream.bodies()

    def test_skipped_approaches_leave_every_other_body_as_a_full_read_builds_it(self):
        # approaches 2 and 5 interleave with every other one in the dovetail;
        # each body read is the one a full read gives, and a skipped one is None
        skip = {enumerate_Q0(2), enumerate_Q0(5)}
        full = FamilyStream(F(1, 2)).truncate(120)
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
        bodies = FamilyStream(F(1, 2)).truncate(2000)
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
        a = FamilyStream(F(1, 2)).truncate(15)
        b = FamilyStream(F(1, 2)).truncate(15)
        blob_a = json.dumps([body_to_record(x) for x in a], sort_keys=True)
        blob_b = json.dumps([body_to_record(x) for x in b], sort_keys=True)
        assert blob_a == blob_b

    def test_emitted_values_distinct(self):
        bodies = FamilyStream(F(1, 2)).truncate(80)
        values = [b.q for b in bodies]
        assert len(set(values)) == len(values)

    def test_tilt_indices_follow_emission_order(self):
        bodies = FamilyStream(F(1, 2)).truncate(40)
        assert [b.f_index for b in bodies] == list(range(1, 41))
        eps = [b.eps for b in bodies]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    def test_approach_index_follows_the_dovetail(self):
        # the dovetail 1; 1, 2; 1, 2, 3; ... written out round by round
        dovetail = [m for s in range(2, 80) for m in range(1, s)][:3000]
        assert [m_of(n) for n in range(1, 3001)] == dovetail
        assert [b.m for b in FamilyStream(F(1, 2)).truncate(60)] == dovetail[:60]
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
            bodies = FamilyStream(delta).truncate(30)
            assert all(b.support.measure() >= delta for b in bodies)

    def test_bodies_inside_box(self):
        bodies = FamilyStream(F(1, 2)).truncate(60)
        for body in bodies:
            # the points over the support's endpoints attain every extreme
            for u in body.support.points:
                pt = body.from_chart(u, body.parabola(u))
                assert 0 <= pt.x <= 2 and 0 <= pt.y <= 2 and 0 <= pt.z <= 2

    def test_every_sequence_revisited(self):
        bodies = FamilyStream(F(1, 2)).truncate(60)
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
        bodies = [b for b in FamilyStream(F(1, 2)).truncate(30)
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
SLAB = ConvexBody(q=F(1, 2), f_index=1, support=interval_set([(F(1, 2), F(1))]))


@pytest.mark.parametrize("call, shown", [
    (lambda: interval_set([(F(1), TINY)]), TINY),
    (lambda: IntervalSet(1, (0, 1)).gap_around(TINY), TINY),
    (lambda: SLAB.lower_envelope(TINY), TINY),
    (lambda: make_cover(1 + TINY, 1), 1 + TINY),
    (lambda: SupportAssigner(1 + TINY), 1 + TINY),
    (lambda: FamilyStream(-TINY), -TINY),
    (lambda: next(dyadic_approach(1 + TINY)), 1 + TINY),
    (lambda: QuadExt(F(0), F(1), 2 + TINY) + QuadExt(F(0), F(1), F(3)), 2 + TINY),
], ids=["from_pairs", "gap_around", "lower_envelope", "make_cover", "assigner",
        "stream", "dyadic_approach", "radicands"])
def test_error_messages_render_long_rationals(call, shown):
    with pytest.raises(ValueError) as info:
        call()
    assert format_rational(shown) in str(info.value)
