import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linepierce import intervals
from linepierce.exactnum import format_rational, parse_rational
from linepierce.family import SupportAssigner, m_of
from linepierce.intervals import (
    IntervalSet,
    deep_witness,
    make_cover,
    remove_intervals,
)
from oracles import (
    FractionSet,
    clear_read_tables,
    decode_support,
    depth_profile,
    interval_set,
    intersect_many,
    measure,
    open_span,
    pieces,
)


def open_spans_cover_unit(spans) -> bool:
    """Sweep oracle: does a union of open intervals contain [0,1]?

    Sorted by left end; the covered region grows as an open prefix
    (lo_min, reach), so a next span starting at or beyond `reach` leaves the
    point `reach` itself uncovered.
    """
    spans = sorted(spans)
    if not spans or spans[0][0] >= 0:
        return False
    reach = spans[0][1]
    for lo, hi in spans[1:]:
        if reach > 1:
            break
        if lo >= reach:
            return False
        reach = max(reach, hi)
    return reach > 1


def covers_unit_interval(delta, level) -> bool:
    """Do the level's cover intervals, as many as the cover states, hold [0,1]?"""
    size = make_cover(delta, level).size
    return open_spans_cover_unit([open_span(delta, level, p) for p in range(size)])


def subtraction_oracle(delta, level, picks) -> list[tuple[F, F]]:
    """[0,1] minus each picked interval in turn, by the ``Fraction`` scan."""
    s = FractionSet((F(0), F(1)))
    for p in picks:
        s = s.subtract_open(*open_span(delta, level, p))
    return pieces(s)


@st.composite
def canonical_sets(draw) -> IntervalSet:
    """Canonical sets with endpoints on the 1/12 grid of [0,1], single
    points included: sorted distinct grid values taken one (a point) or
    two (an interval) at a time."""
    values = sorted(draw(st.sets(st.integers(0, 12))))
    pairs = []
    while values:
        lo = values.pop(0)
        hi = values.pop(0) if values and draw(st.booleans()) else lo
        pairs.append((F(lo, 12), F(hi, 12)))
    return interval_set(pairs)


@st.composite
def mixed_denominator_sets(
    draw, endpoints=st.fractions(0, 1, max_denominator=10**4)
) -> IntervalSet:
    """Canonical sets whose endpoints have unrelated denominators, single
    points included, paired up as ``canonical_sets`` pairs its grid values."""
    values = sorted(draw(st.sets(endpoints, max_size=12)))
    pairs = []
    while values:
        lo = values.pop(0)
        hi = values.pop(0) if values and draw(st.booleans()) else lo
        pairs.append((lo, hi))
    return interval_set(pairs)


# 130-bit numerators and denominators, drawn freely
WIDE_FRACTIONS = st.builds(F, st.integers(0, 2**130), st.integers(1, 2**130))


def measures_exactly(s: IntervalSet, value) -> bool:
    """Is the set's measure value?  It is not below value, and it is below
    value plus half the least gap two values over s.den and value's
    denominator can have."""
    tiny = F(1, 2 * s.den * F(value).denominator)
    return not s.measure_below(value) and s.measure_below(value + tiny)


# with delta = 2/5, k_max*step > 1 at every level, so the last two cover
# intervals both hold 1
COVER_DELTAS = [F(1, 2), F(3, 4), F(2, 5)]


@st.composite
def pick_cases(draw):
    """A cover's delta and level and its 2^level picks, unsorted and
    repeated, built around one of the shapes that decide how the picks merge
    into runs: adjacent picks (p, p+1), picks one apart (p, p+2), which keep
    the point between them, and the two end picks."""
    delta, level = draw(st.sampled_from(COVER_DELTAS)), draw(st.integers(1, 4))
    last = make_cover(delta, level).size - 1
    p = draw(st.integers(0, last - 2))
    shape = draw(st.sampled_from([(p, p + 1), (p, p + 2), (0, last), ()]))
    size = 2**level - len(shape)
    rest = draw(st.lists(st.integers(0, last), min_size=size, max_size=size))
    return delta, level, draw(st.permutations([*shape, *rest]))


# cut ends on the 1/24 grid of [-1/2, 3/2]: beyond [0,1], inside pieces,
# and (every other value) on the grid of the set's endpoints
CUT_ENDS = [F(k, 24) for k in range(-12, 37)]


def within(span, x) -> bool:
    """Does the open interval span hold x?"""
    lo, hi = span
    return lo < x < hi


class TestMakeCover:
    def test_level_one_half(self):
        c = make_cover(F(1, 2), 1)
        assert (c.level, c.step, c.size) == (1, F(1, 8), 9)
        assert covers_unit_interval(F(1, 2), 1)

    def test_level_two_half(self):
        c = make_cover(F(1, 2), 2)
        assert (c.level, c.step, c.size) == (2, F(1, 16), 17)
        assert covers_unit_interval(F(1, 2), 2)

    def test_level_one_three_quarters(self):
        c = make_cover(F(3, 4), 1)
        assert (c.level, c.step, c.size) == (1, F(1, 16), 17)
        assert covers_unit_interval(F(3, 4), 1)

    def test_last_center_is_the_first_grid_point_at_or_past_one(self):
        # step 1/10: 1 is the tenth grid point; step 3/40: 1 lies past the
        # thirteenth, so a fourteenth center is needed
        assert make_cover(F(3, 5), 1).size == 11
        assert make_cover(F(7, 10), 1).size == 15

    @pytest.mark.parametrize("delta", [F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(9, 10)])
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_always_covers(self, delta, level):
        assert covers_unit_interval(delta, level)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            make_cover(F(0), 1)
        with pytest.raises(ValueError):
            make_cover(F(1), 1)

    def test_sweep_oracle_detects_gaps(self):
        # touching open intervals miss their shared endpoint
        assert not open_spans_cover_unit([(F(-1), F(1, 2)), (F(1, 2), F(2))])
        assert not open_spans_cover_unit([(F(0), F(2))])  # 0 not interior
        assert not open_spans_cover_unit([(F(-1), F(1))])  # 1 not interior
        assert open_spans_cover_unit([(F(-1), F(1, 2)), (F(1, 4), F(2))])

    @pytest.mark.parametrize("delta", COVER_DELTAS)
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_covering_indices_on_and_between_grid_points(self, delta, level):
        # every half step from two steps below 0 to two steps past the last
        # center: grid points, and the midpoints between them
        c = make_cover(delta, level)
        half_step = c.step / 2
        for j in range(-4, 2 * c.size + 3):
            x = j * half_step
            want = [p for p in range(c.size) if within(open_span(delta, level, p), x)]
            assert c.covering_indices(x) == want

    @settings(max_examples=300)
    @given(
        delta=st.sampled_from(COVER_DELTAS),
        level=st.integers(1, 5),
        x=st.fractions(F(-1, 4), F(5, 4), max_denominator=10**4),
    )
    @example(delta=F(2, 5), level=1, x=F(1))  # interior to the last two intervals
    @example(delta=F(2, 5), level=1, x=F(21, 20))  # the last center, past 1
    @example(delta=F(1, 2), level=5, x=F(-1, 256))  # left of 0, inside interval 0
    def test_covering_indices_match_brute_force(self, delta, level, x):
        c = make_cover(delta, level)
        want = [p for p in range(c.size) if within(open_span(delta, level, p), x)]
        assert c.covering_indices(x) == want

    def test_covering_indices(self):
        c = make_cover(F(1, 2), 1)
        # grid point: a single interval; off grid: two
        assert c.covering_indices(F(0)) == [0]
        assert c.covering_indices(F(1, 2)) == [4]
        assert c.covering_indices(F(1, 5)) == [1, 2]
        for idx in c.covering_indices(F(1, 5)):
            assert within(open_span(F(1, 2), 1, idx), F(1, 5))


class TestRemoveIntervals:
    def test_two_adjacent_removals(self):
        c = make_cover(F(1, 2), 1)
        # centers 1/8 and 3/8 remove (0,1/4) and (1/4,1/2)
        s = remove_intervals(c, [1, 3])
        assert pieces(s) == [(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1))]
        assert measures_exactly(s, F(1, 2))
        assert subtraction_oracle(F(1, 2), 1, [1, 3]) == pieces(s)

    def test_repeated_pick_idempotent(self):
        c = make_cover(F(1, 2), 1)
        s = remove_intervals(c, [3, 3])
        assert measure(s) >= F(3, 4)
        assert pieces(s) == [(F(0), F(1, 4)), (F(1, 2), F(1))]

    def test_endpoint_picks(self):
        c = make_cover(F(1, 2), 1)
        s = remove_intervals(c, [0, 8])
        assert pieces(s) == [(F(1, 8), F(7, 8))]
        assert measure(s) >= F(1, 2)

    @settings(max_examples=300)
    @given(case=pick_cases())
    @example(case=(F(1, 2), 1, [4, 3]))  # adjacent, unsorted
    @example(case=(F(1, 2), 1, [5, 3]))  # one apart: 1/2 survives
    @example(case=(F(1, 2), 2, [3, 3, 5, 4]))  # a run with a repeat
    @example(case=(F(3, 4), 2, [9, 0, 2, 16]))  # both ends, a lone point
    @example(case=(F(2, 5), 1, [7, 0]))  # both end picks
    @example(case=(F(2, 5), 1, [6, 7]))  # the two intervals holding 1
    @example(case=(F(2, 5), 2, [13, 11, 0, 11]))  # one apart below 1
    def test_matches_subtraction_oracle(self, case):
        delta, level, picks = case
        got = pieces(remove_intervals(make_cover(delta, level), picks))
        assert got == subtraction_oracle(delta, level, picks)

    def test_cuts_each_run_once(self, monkeypatch):
        calls = []
        subtract_open = IntervalSet.subtract_open

        def counting(per, cuts):
            calls.append((per, list(cuts)))
            return subtract_open(per, cuts)

        monkeypatch.setattr(IntervalSet, "subtract_open", staticmethod(counting))
        c = make_cover(F(1, 2), 3)
        assert c.step == F(1, 32)
        s = remove_intervals(c, [5, 3, 4, 3, 9, 11, 0, 1])
        # one call: runs 0..1, 3..5, 9 and 11, each one cut (start-1, end+1)
        # in units of the step; the points 2 and 10 between runs survive
        assert calls == [(32, [-1, 2, 2, 6, 8, 10, 10, 12])]
        assert s.contains(F(2, 32)) and s.contains(F(10, 32))

    def test_wrong_pick_count(self):
        c = make_cover(F(1, 2), 2)
        with pytest.raises(ValueError, match="expected 4 picks"):
            remove_intervals(c, [0, 1])

    @pytest.mark.parametrize("bad", [-1, 17])
    def test_pick_out_of_range(self, bad):
        c = make_cover(F(1, 2), 2)  # 17 intervals
        with pytest.raises(ValueError, match=f"pick index {bad} out of range"):
            remove_intervals(c, [3, bad, 0, 16])

    @pytest.mark.parametrize("delta", [F(1, 2), F(3, 4)])
    def test_measure_bound_random(self, delta):
        rng = random.Random(31)
        for level in range(1, 5):
            c = make_cover(delta, level)
            for _ in range(50):
                picks = [rng.randrange(c.size) for _ in range(c.picks_per_set)]
                s = remove_intervals(c, picks)
                assert measure(s) >= delta
                assert pieces(s) == subtraction_oracle(delta, level, picks)


def gap_around(s: IntervalSet, x: F) -> tuple[F, F]:
    """``IntervalSet.gap_ends`` read as ``Fraction``s, to set beside
    ``FractionSet.gap_around``."""
    lo, hi = s.gap_ends(x)
    return F(lo, s.den), F(hi, s.den)


def outcome(call, *args):
    """What a call returns, or the message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


class TestMembership:
    @settings(max_examples=300)
    @given(s=canonical_sets())
    def test_matches_linear_scan(self, s):
        # every endpoint (single points included) and the 1/24 grid of
        # [-1/2, 3/2], which reaches past both ends of [0,1]
        ref = FractionSet(s.points)
        for x in sorted(set(s.points) | set(CUT_ENDS)):
            assert s.contains(x) == ref.contains(x)
            assert outcome(gap_around, s, x) == outcome(ref.gap_around, x)


class TestMeasureAndIntersect:
    def test_full_interval(self):
        assert measures_exactly(IntervalSet(1, (0, 1)), 1)

    def test_additivity(self):
        s = interval_set([(F(0), F(1, 4)), (F(1, 2), F(1))])
        assert measures_exactly(s, F(3, 4))

    def test_empty(self):
        assert measures_exactly(interval_set([]), 0)

    @settings(max_examples=300)
    @given(s=st.one_of(mixed_denominator_sets(), mixed_denominator_sets(WIDE_FRACTIONS)),
           delta=st.one_of(st.fractions(0, 1, max_denominator=10**4), WIDE_FRACTIONS))
    @example(s=IntervalSet(1, ()), delta=F(0))
    @example(s=IntervalSet(3, (1, 1)), delta=F(1, 10**4))  # a single point
    @example(s=interval_set(
        [(F(0), F(1, 3)), (F(3, 7), F(3, 7)), (F(1, 2) + F(1, 2**200), F(1))]
    ), delta=F(5, 6))
    @example(s=IntervalSet(630, (210, 252, 270, 315, 490, 630)), delta=F(1, 2))  # 1/3, 2/5, ... 7/9, 1
    def test_measure_matches_fraction_sum(self, s, delta):
        # the ints' decision against the pieces' lengths summed as Fractions,
        # at the drawn delta and on either side of the measure itself
        want = measure(s)
        assert s.measure_below(delta) == (want < delta)
        assert measures_exactly(s, want)

    @pytest.mark.parametrize("pairs", [
        [(F(1, 2), F(1)), (F(0), F(1, 4))],
        [(F(0), F(1, 2)), (F(1, 4), F(1))],
        [(F(0), F(1, 2)), (F(1, 2), F(1))],
        [(F(1, 3), F(1, 3)), (F(1, 3), F(1, 3))],
        [(F(1, 2), F(1, 4))],
    ], ids=["unsorted", "overlapping", "touching", "repeated-point", "reversed"])
    def test_from_pairs_rejects_noncanonical(self, pairs):
        with pytest.raises(ValueError):
            interval_set(pairs)

    def test_intersect_two(self):
        a = interval_set([(F(0), F(1, 2))])
        b = interval_set([(F(1, 4), F(3, 4))])
        assert pieces(intersect_many([a, b])) == [(F(1, 4), F(1, 2))]

    def test_intersect_touching_gives_point(self):
        a = interval_set([(F(0), F(1, 2))])
        b = interval_set([(F(1, 2), F(1))])
        assert pieces(intersect_many([a, b])) == [(F(1, 2), F(1, 2))]

    def test_intersect_disjoint_empty(self):
        a = interval_set([(F(0), F(1, 4))])
        b = interval_set([(F(1, 2), F(1))])
        assert not intersect_many([a, b]).points

    def test_intersect_requires_input(self):
        with pytest.raises(ValueError):
            intersect_many([])

    def test_serialization_round_trip(self):
        s = interval_set([(F(0), F(0)), (F(1, 3), F(2, 3))])
        assert IntervalSet.from_strings(s.to_pairs()) == s


# small mixed denominators; 130-bit numerators and denominators drawn
# freely, a few of which already pass the lift bound; and 130-bit
# denominators sharing one large factor, which lift cheaply; all signed
BIG = 2**130 - 5
ENDPOINTS = st.one_of(
    st.fractions(-2, 2, max_denominator=10**4),
    st.builds(F, st.integers(-(2**130), 2**130), st.integers(1, 2**130)),
    st.builds(lambda n, k: F(n, k * BIG), st.integers(-(2**131), 2**131), st.integers(1, 12)),
)


@st.composite
def piece_lists(draw):
    """(lo, hi) lists that are canonical, or canonical but for one piece
    made a single point, touching or overlapping the previous piece, or
    reversed; or pieces drawn freely from a few values, so equal ends meet."""
    values = sorted(draw(st.sets(ENDPOINTS, min_size=1, max_size=10)))
    shape = draw(st.sampled_from(
        ["canonical", "point", "touching", "overlapping", "reversed", "free"]
    ))
    if shape == "free":
        value = st.sampled_from(values)
        return draw(st.lists(st.tuples(value, value), max_size=6))
    pairs = []
    while values:
        lo = values.pop(0)
        hi = values.pop(0) if values and draw(st.booleans()) else lo
        pairs.append((lo, hi))
    j = draw(st.integers(0, len(pairs) - 1))
    lo, hi = pairs[j]
    if shape == "point":
        pairs[j] = (lo, lo)
    elif shape == "reversed":
        pairs[j] = (hi, lo)
    elif j and shape == "touching":
        pairs[j] = (pairs[j - 1][1], hi)
    elif j and shape == "overlapping":
        pairs[j] = (pairs[j - 1][0], hi)
    return pairs


TINY = F(1, 2**200)
# pairwise coprime denominators of 33 to 64 bits, powers of the first 64
# primes: the least common denominator of n of them has about 64*n bits
PRIMES = [p for p in range(2, 312) if all(p % d for d in range(2, p))]
COPRIME = [p ** (64 // p.bit_length()) for p in PRIMES]


def single_points(dens, num_bits=0):
    """Single points (2^num_bits + j)/d over the given denominators, in order."""
    values = sorted(F(2**num_bits + j, d) for j, d in enumerate(dens))
    return [(v, v) for v in values]


def points_of(build, pairs):
    return outcome(lambda p: build(p).points, pairs)


class TestFromPairsOrder:
    @settings(max_examples=250)
    @given(pairs=piece_lists())
    @example(pairs=[(F(1, 3), F(1, 3) + TINY), (F(1, 3) + TINY, F(1))])  # touching
    @example(pairs=[(F(1, 3), F(1, 3) + 2 * TINY), (F(1, 3) + TINY, F(1))])  # overlapping
    @example(pairs=[(F(1, 3), F(1, 3) + TINY), (F(1, 3) + 2 * TINY, F(1))])  # canonical
    @example(pairs=[(F(-1, 3), F(-1, 3) - TINY)])  # reversed by a hair
    @example(pairs=[(F(-2), F(-2)), (F(-1, 7), F(-1, 7)), (F(0), F(0))])  # points
    @example(pairs=[(F(1, d), F(1, d)) for d in COPRIME])  # refused, before its order
    @example(pairs=[(F(1, d), F(1, d)) for d in reversed(COPRIME[:24])])  # lifted
    @example(pairs=[(F(j, 7), F(j, 7)) for j in range(4096)])  # one grid: lifted
    # either side of each bound: 2^16 bits, and 4 times the endpoints' own bits
    @example(pairs=single_points(COPRIME[:24]))
    @example(pairs=single_points(COPRIME[:25]))
    @example(pairs=single_points(COPRIME, 840))
    @example(pairs=single_points(COPRIME, 860))
    def test_matches_fraction_comparison(self, pairs):
        assert points_of(interval_set, pairs) == points_of(FractionSet.from_pairs, pairs)

    def test_refuses_a_lift_past_the_bound(self):
        pairs = [(F(1, d), F(1, d)) for d in reversed(COPRIME)]
        with pytest.raises(ValueError, match="does not lift to one denominator"):
            interval_set(pairs)
        # unit fractions over the first eight primes lift, though their ints
        # take more than 4 times their own bits: the bound has a floor
        small = [(F(1, p), F(1, p)) for p in reversed(PRIMES[:8])]
        assert interval_set(small).den == 9699690

    def test_makes_no_fraction_comparison(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("a Fraction comparison")

        for attr in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(F, attr, refuse)
        pairs = [(F(0), F(1, 4)), (F(1, 3), F(1, 3)), (F(1, 2), F(1))]
        assert interval_set(pairs).ends == (0, 3, 4, 4, 6, 12)

    def test_refuses_an_odd_count_of_endpoints(self):
        with pytest.raises(ValueError, match="an even number of endpoints, got 3"):
            IntervalSet.from_pairs(["0/1", "1/2", "1/1"])


# what a record may state where a support's text belongs: well-formed
# texts, malformed ones, and every other JSON type
BAD_TEXTS = st.sampled_from(["1/0", "0.5", "1e5", "", " 1/2", "1/-2", "--1/2", "1//2"])
NON_TEXTS = st.one_of(
    st.integers(-3, 3), st.none(), st.booleans(),
    st.lists(st.just("0/1"), max_size=2), st.dictionaries(st.just("lo"), st.just("0/1")),
)
FAULTS = ["top", "piece", "length", "endpoint", "text", "order"]


@st.composite
def support_records(draw):
    """A support as a family record states it: the texts of sorted values
    paired up, then broken in up to two places.  A fault replaces the top
    level, a piece, a piece's length (0, 1 or 3), an endpoint's type or its
    text, or shuffles the values."""
    values = draw(st.lists(ENDPOINTS, max_size=10))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    if "order" not in faults:
        values.sort()
    texts = [format_rational(v) for v in values[: len(values) // 2 * 2]]
    pieces = [texts[i : i + 2] for i in range(0, len(texts), 2)] or [["0/1", "1/1"]]
    for fault in faults:
        j = draw(st.integers(0, len(pieces) - 1))
        k = draw(st.integers(0, 1))
        if fault == "top":
            return draw(st.one_of(NON_TEXTS, BAD_TEXTS, st.just({"lo": pieces})))
        if fault == "piece":
            pieces[j] = draw(st.one_of(NON_TEXTS.filter(lambda x: type(x) is not list),
                                       BAD_TEXTS, st.just(("0/1", "1/1"))))
        elif fault == "length":
            pieces[j] = draw(st.sampled_from([[], texts[:1] or ["0/1"], ["0/1", "1/2", "1/1"]]))
        elif type(pieces[j]) is list and len(pieces[j]) == 2:
            pieces[j][k] = draw(NON_TEXTS if fault == "endpoint" else BAD_TEXTS)
    return pieces


def spelled(draw, x):
    """A text ``parse_rational`` reads as x: reduced or scaled ("2/4"), its
    numerator signed or not ("+0/5"), padded or not (" 1/3")."""
    n, d = x.as_integer_ratio()
    k = draw(st.integers(1, 3))
    sign = "+" if n >= 0 and draw(st.booleans()) else ""
    return draw(st.sampled_from(["", " ", "\t"])) + f"{sign}{k * n}/{k * d}"


@st.composite
def shared_text_supports(draw):
    """Supports over a few shared values of mixed denominators, each
    endpoint spelled anew, so supports share texts and values; with
    ``support_records`` interleaved, well-formed or broken."""
    values = draw(st.lists(st.fractions(-1, 2, max_denominator=12), min_size=1, max_size=8,
                           unique=True))
    supports = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            supports.append(draw(support_records()))
            continue
        chosen = sorted(draw(st.lists(st.sampled_from(values), max_size=8)))
        texts = [spelled(draw, x) for x in chosen[: len(chosen) // 2 * 2]]
        supports.append([texts[i : i + 2] for i in range(0, len(texts), 2)])
    return supports


def decoded(decode, support):
    """The points a decoder reads a support as, or its ValueError's message."""
    return outcome(lambda s: decode(s).points, support)


class TestFromStrings:
    """The one-pass decoder against the earlier path, which checked the
    whole shape, parsed every text and then paired the values again."""

    @settings(max_examples=400)
    @given(support=support_records())
    @example(support=[])
    @example(support=[["0/1", "1/0"], 5])  # a bad text before a bad piece: the shape
    @example(support=[["0/1", "1/0"], ["1/2", None]])  # and before a bad endpoint
    @example(support=[["1/2", "1/4"]])  # reversed
    @example(support=[["0/1", "1/2"], ["1/2", "1/1"]])  # touching
    @example(support=[[format_rational(F(1, d))] * 2 for d in reversed(COPRIME)])  # lift
    def test_matches_the_earlier_decoder(self, support):
        assert decoded(IntervalSet.from_strings, support) == decoded(decode_support, support)

    def test_names_the_shape_it_refuses(self):
        for support in ({"lo": "0/1"}, "0/1", None, [["0/1"]], [("0/1", "1/1")],
                        [["0/1", "1/1", "1/1"]], [[0, 1]], [[True, "1/1"]], [["0/1", {}]]):
            with pytest.raises(ValueError, match=r"a support must be a JSON array of \[lo, hi\]"):
                IntervalSet.from_strings(support)

    @settings(max_examples=300)
    @given(supports=shared_text_supports())
    @example(supports=[[["0/1", "2/4"], [" 1/2", "1/1"]], [["+0/5", "1/3"]], [["1/2", "1/0"]],
                       [["0/3", " 1/3"], ["2/4", "2/4"]]])
    def test_a_hit_reads_as_the_miss_did(self, supports):
        # each support twice: its new texts parsed on the first read, and
        # every text found in the tables on the second
        clear_read_tables()
        for support in supports:
            want = decoded(decode_support, support)
            assert decoded(IntervalSet.from_strings, support) == want
            assert decoded(IntervalSet.from_strings, support) == want


@st.composite
def grid_cuts(draw):
    """The arguments of one ``subtract_open`` call, as ``remove_intervals``
    makes them: per, small or 130 bits, and sorted cuts a_j < b_j <= a_{j+1}
    whose ends are drawn from [-per, 2*per], near 0 and per more often;
    each cut touches the last one or not.  Cuts that end at or below 0 or
    start at or past per are dropped, so only the first cut may start below
    0 and only the last may end past per."""
    per = draw(st.one_of(st.integers(1, 48), st.integers(2**129, 2**130)))
    near = st.sampled_from([-1, 0, 1, per - 1, per, per + 1])
    ends = st.one_of(st.integers(-per, 2 * per), near)
    marks = sorted(draw(st.sets(ends, min_size=2, max_size=10)))
    cuts, i = [], 0
    while i + 1 < len(marks):
        a, b = marks[i], marks[i + 1]
        if b > 0 and a < per:
            cuts += (a, b)
        i += draw(st.sampled_from([1, 2]))  # 1: the next cut starts where this one ends
    return per, cuts


class TestSubtractOpen:
    @settings(max_examples=400)
    @given(case=grid_cuts())
    @example(case=(4, [-1, 1]))  # the first cut starts below 0
    @example(case=(4, [3, 5]))  # the last cut ends past per
    @example(case=(4, [1, 2, 2, 3]))  # touching: 1/2 survives
    @example(case=(4, [-1, 2]))  # [1/2, 1]: gcd 2 with per
    @example(case=(4, [1, 4]))  # 1 survives as a point
    @example(case=(2, [-1, 3]))  # nothing survives
    @example(case=(3, []))  # no cut
    @example(case=(BIG, [1, BIG - 1]))  # a 130-bit per
    def test_matches_linear_scan(self, case):
        per, cuts = case
        want = FractionSet((F(0), F(1)))
        for a, b in zip(cuts[::2], cuts[1::2]):
            want = want.subtract_open(F(a, per), F(b, per))
        got = IntervalSet.subtract_open(per, cuts)
        assert got.points == want.points
        assert got.den > 0 and gcd(got.den, *got.ends) == 1
        assert interval_set(pieces(got)) == got  # canonical order

    def test_cut_on_endpoints_keeps_them(self):
        cut = IntervalSet.subtract_open
        assert cut(4, [-1, 2]) == IntervalSet(2, (1, 2))
        # touching cuts keep the point between them, and each cut's ends
        assert cut(4, [1, 2, 2, 3]).points == (F(0), F(1, 4), F(1, 2), F(1, 2), F(3, 4), F(1))
        assert cut(4, [-1, 5]) == IntervalSet(1, ())
        assert cut(7, []) == IntervalSet(1, (0, 1))


# pieces [0, 1/4] and [3/4, 1] around the gap (1/4, 3/4), and a single point
GAPPED = [(F(-1, 3), F(-1, 3)), (F(0), F(1, 4)), (F(3, 4), F(1))]


class TestIntegerQueries:
    """Every operation of the integer set against ``FractionSet``."""

    @settings(max_examples=400)
    @given(
        pairs=piece_lists(),
        xs=st.lists(ENDPOINTS, max_size=3),
        cuts=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3),
    )
    @example(pairs=[], xs=[F(1, 2)], cuts=[(0, 0)])  # the empty set
    @example(pairs=GAPPED, xs=[F(1, 2), F(-1), F(2)], cuts=[])  # a gap, below, above
    @example(pairs=GAPPED, xs=[F(-1, 3) + TINY], cuts=[(0, 3)])  # past the single point
    @example(pairs=GAPPED, xs=[], cuts=[(4, 6), (2, 12)])  # cuts at endpoints
    def test_matches_fraction_reference(self, pairs, xs, cuts):
        got, want = outcome(interval_set, pairs), outcome(FractionSet.from_pairs, pairs)
        if isinstance(want, str):
            assert got == want
            return
        ref = want
        # each endpoint, a hair to each side of it, and values drawn freely
        queries = [*xs, *got.points, *(p + d for p in got.points for d in (TINY, -TINY))]
        cut_ends = [(queries[i % len(queries)], queries[j % len(queries)])
                    for i, j in (cuts if queries else [])]
        for lo, hi in [(None, None), *cut_ends]:
            # only the reference is cut; the set under test is built anew
            # from its pieces
            if lo is not None:
                ref = ref.subtract_open(lo, hi)
            s = interval_set(pieces(ref))
            assert s.points == ref.points
            assert s.den > 0 and gcd(s.den, *s.ends) == 1
            assert measures_exactly(s, ref.measure())
            assert [s.measure_below(x) for x in queries] == [ref.measure() < x for x in queries]
            assert s.to_pairs() == ref.to_pairs()
            for x in queries:
                assert s.contains(x) == ref.contains(x)
                # a ratio of ints, unreduced, as the y-ruling rule asks it
                assert s.contains(3 * x.numerator, 3 * x.denominator) == ref.contains(x)
                assert outcome(gap_around, s, x) == outcome(ref.gap_around, x)

    @settings(max_examples=200)
    @given(case=pick_cases(), rng=st.randoms(use_true_random=False))
    def test_cut_orders_build_one_representation(self, case, rng):
        delta, level, picks = case
        # picks are unsorted and may repeat; every order builds one set
        want = interval_set(subtraction_oracle(delta, level, picks))
        cover = make_cover(delta, level)
        for order in (picks, sorted(picks), rng.sample(picks, len(picks))):
            got = remove_intervals(cover, order)
            assert gcd(got.den, *got.ends) == 1
            assert (got.den, got.ends) == (want.den, want.ends)
            assert got == want and hash(got) == hash(want)

    def test_to_pairs_renders_past_the_digit_limit(self):
        huge = 10**5000 + 1  # past Python's 4,300-digit int-to-string limit
        s = interval_set([(F(1, huge), F(1, 2))])
        assert s.to_pairs() == [[format_rational(F(1, huge)), "1/2"]]

    def test_queries_make_no_fraction_ordering_comparison(self, monkeypatch):
        s = interval_set([(F(2 * j, 41), F(2 * j + 1, 41)) for j in range(20)])
        compared = []
        for attr in ("__lt__", "__le__", "__gt__", "__ge__"):
            real = getattr(F, attr)
            monkeypatch.setattr(
                F, attr, lambda a, b, real=real: compared.append((a, b)) or real(a, b)
            )
        queries = [F(k, 82) for k in range(-2, 85)]  # endpoints, gaps and beyond
        assert [s.contains(x) for x in queries] == [
            0 <= k <= 78 and k % 4 in (0, 1, 2) for k in range(-2, 85)
        ]
        assert s.gap_ends(F(3, 82)) == (1, 2) and s.den == 41
        cut = IntervalSet.subtract_open(82, [1, 5, 5, 6])
        assert cut.points == (F(0), F(1, 82), F(5, 82), F(5, 82), F(3, 41), F(1))
        assert compared == []
        assert F(0) < F(1) and len(compared) == 1  # the count does see a comparison


def test_support_walk_hashes_no_fraction(monkeypatch):
    # nor any support: the walk keeps none of those it has yielded
    hashed = []
    for cls in (F, IntervalSet):
        real = cls.__hash__
        monkeypatch.setattr(cls, "__hash__", lambda x, real=real: hashed.append(x) or real(x))
    assigners = [SupportAssigner(F(1, 2), m) for m in range(1, m_of(300) + 1)]
    supports = [assigners[m_of(f) - 1].assign() for f in range(1, 301)]
    assert hashed == []
    assert len(set(supports)) == 300 and len(hashed) == 300  # the count does see a support's hash
    assert hash(F(1, 3)) and hashed[-1] == F(1, 3)  # and a fraction's


# three supports over five distinct endpoint strings
REPEATING_SUPPORTS = [
    [["0/1", "1/4"], ["1/2", "1/1"]],
    [["0/1", "1/4"], ["3/4", "1/1"]],
    [["1/4", "1/2"], ["3/4", "3/4"]],
]


class TestEndpointCache:
    def test_each_distinct_endpoint_is_parsed_once(self, monkeypatch):
        clear_read_tables()
        parsed = Counter()

        def counting(text):
            parsed[text] += 1
            return parse_rational(text)

        monkeypatch.setattr(intervals, "parse_rational", counting)
        sets = [IntervalSet.from_strings(s) for s in REPEATING_SUPPORTS * 2]
        assert parsed == Counter({"0/1": 1, "1/4": 1, "1/2": 1, "3/4": 1, "1/1": 1})
        assert [s.to_pairs() for s in sets] == REPEATING_SUPPORTS * 2
        # other spellings of the same values are texts of their own
        assert IntervalSet.from_strings([["0/2", "2/8"], [" 1/2", "1/1"]]) == sets[0]
        assert parsed == Counter({"0/1": 1, "1/4": 1, "1/2": 1, "3/4": 1, "1/1": 1,
                                  "0/2": 1, "2/8": 1, " 1/2": 1})

    def test_each_distinct_endpoint_is_rendered_once(self, monkeypatch):
        intervals._TEXTS.clear()
        rendered = Counter()

        def counting(x):
            rendered[x] += 1
            return format_rational(x)

        monkeypatch.setattr(intervals, "format_rational", counting)
        sets = [IntervalSet.from_strings(s) for s in REPEATING_SUPPORTS * 2]
        assert [s.to_pairs() for s in sets] == REPEATING_SUPPORTS * 2
        assert rendered == Counter({F(0): 1, F(1, 4): 1, F(1, 2): 1, F(3, 4): 1, F(1): 1})

    def test_to_pairs_renders_every_endpoint_as_format_rational(self, pinned_family):
        for body in pinned_family:
            s = body.support
            flat = [text for pair in s.to_pairs() for text in pair]
            assert flat == [format_rational(F(e, s.den)) for e in s.ends]

    @pytest.mark.parametrize("bad", ["1/0", "0.5", "1e5"])
    def test_bad_endpoint_fails_the_same_way_every_time(self, bad):
        clear_read_tables()
        with pytest.raises(ValueError) as direct:
            parse_rational(bad)
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError) as info:
                IntervalSet.from_strings([["0/1", "1/4"], ["1/2", bad]])
            messages.add(str(info.value))
        assert messages == {str(direct.value)}
        # the good texts only, and no end: the support was never lifted
        assert set(intervals._DENS) == set(intervals._NUMS) == {"0/1", "1/4", "1/2"}
        assert intervals._ENDS == {}

    def test_cache_is_bounded(self):
        assert intervals.TEXTS_BOUND == 4096
        clear_read_tables()
        seen = 0
        for den in (7, 7, 1, 11, 7, 3**40, 1, 11):  # over every table and the bound
            for start in range(0, 3 * intervals.TEXTS_BOUND, 64):
                values = [F(e, den) for e in range(start, start + 64)]
                s = IntervalSet.from_strings([[format_rational(x)] * 2 for x in values])
                assert s.points == tuple(x for x in values for _ in "lh")
                held = len(intervals._DENS) + sum(map(len, intervals._ENDS.values()))
                assert held <= intervals.TEXTS_BOUND
                assert len(intervals._NUMS) == len(intervals._DENS)
                seen = max(seen, held)
        assert seen > intervals.TEXTS_BOUND - 128  # the tables did fill before each clear

    def test_a_clear_mid_file_reads_the_same_sets(self, monkeypatch, pinned_family):
        supports = [body.support.to_pairs() for body in pinned_family[:300]]
        clear_read_tables()
        want = [IntervalSet.from_strings(s) for s in supports]
        # the 300 supports hold 89 distinct texts, and a bound of 200 entries
        # fills and is cleared a few times over them
        monkeypatch.setattr(intervals, "TEXTS_BOUND", 200)
        clear_read_tables()
        clears, held = 0, 0
        for support, s in zip(supports, want):
            assert IntervalSet.from_strings(support) == s
            clears += len(intervals._DENS) < held
            held = len(intervals._DENS)
        assert clears >= 2
        assert want == [body.support for body in pinned_family[:300]]

    @settings(max_examples=200)
    @given(
        den=st.one_of(st.just(1), st.integers(1, 10**30)),
        ends=st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=20),
    )
    @example(den=1, ends=[-3, 0, 0, 1])
    @example(den=6, ends=[-12, -4, -3, 2, 3, 6])
    def test_every_text_is_format_rational(self, den, ends):
        ends = sorted(ends + ends[-1:] if len(ends) % 2 else ends)
        texts = [text for pair in IntervalSet(den, tuple(ends)).to_pairs() for text in pair]
        assert texts == [format_rational(F(e, den)) for e in ends]

    def test_many_denominators_render_their_own_texts(self):
        intervals._TEXTS.clear()
        sets = [IntervalSet(den, (-1, 0, 1, den)) for den in range(1, 600)]
        for s in sets * 2:
            assert s.to_pairs() == [[format_rational(F(e, s.den)) for e in pair]
                                    for pair in ((-1, 0), (1, s.den))]

    def test_tables_stay_within_their_bound(self):
        intervals._TEXTS.clear()
        seen = 0
        for den in (7, 7, 1, 11, 7, 3**40, 1, 11):  # over every table and the bound
            for start in range(0, 3 * intervals.TEXTS_BOUND, 64):
                ends = tuple(range(start, start + 64))
                texts = [text for pair in IntervalSet(den, ends).to_pairs() for text in pair]
                assert texts == [format_rational(F(e, den)) for e in ends]
                held = sum(map(len, intervals._TEXTS.values()))
                assert held <= intervals.TEXTS_BOUND
                seen = max(seen, held)
        assert seen > intervals.TEXTS_BOUND - 64  # the tables did fill before each clear


def random_family(rng, count, max_level=3):
    sets = []
    from linepierce.intervals import make_cover as mk

    for _ in range(count):
        level = rng.randint(1, max_level)
        c = mk(F(1, 2), level)
        picks = [rng.randrange(c.size) for _ in range(c.picks_per_set)]
        sets.append(remove_intervals(c, picks))
    return sets


def brute_depth_at(sets, x):
    return sum(1 for s in sets if s.contains(x))


def brute_max_depth(sets):
    """Depth maximum over all endpoints and midpoints of adjacent endpoints."""
    points = {F(0), F(1)}
    for s in sets:
        points.update(s.points)
    ordered = sorted(points)
    candidates = list(ordered)
    candidates += [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    best_depth, best_point = -1, None
    for x in sorted(candidates):
        d = brute_depth_at(sets, x)
        if d > best_depth:
            best_depth, best_point = d, x
    return best_depth, best_point


class TestDepthProfile:
    def test_three_set_example(self):
        sets = [
            interval_set([(F(0), F(1, 2))]),
            interval_set([(F(1, 4), F(3, 4))]),
            interval_set([(F(1, 2), F(1))]),
        ]
        cells = depth_profile(sets)
        flat = [(c.lo, c.hi, c.depth) for c in cells]
        assert flat == [
            (F(0), F(1, 4), 1),
            (F(1, 4), F(1, 2), 2),
            (F(1, 2), F(1, 2), 3),
            (F(1, 2), F(3, 4), 2),
            (F(3, 4), F(1), 1),
        ]

    def test_single_full_set(self):
        cells = depth_profile([IntervalSet(1, (0, 1))])
        assert len(cells) == 1
        assert cells[0].depth == 1
        assert (cells[0].lo, cells[0].hi) == (F(0), F(1))

    def test_empty_family_zero_profile(self):
        cells = depth_profile([])
        assert [(c.lo, c.hi, c.depth) for c in cells] == [(F(0), F(1), 0)]

    def test_fubini_double_counting(self):
        rng = random.Random(37)
        for _ in range(100):
            sets = random_family(rng, rng.randint(1, 8))
            cells = depth_profile(sets)
            total = sum(c.length() * c.depth for c in cells)
            assert total == sum(map(measure, sets))

    def test_cell_depths_match_point_samples(self):
        rng = random.Random(41)
        for _ in range(50):
            sets = random_family(rng, rng.randint(1, 6))
            for c in depth_profile(sets):
                x = c.lo if c.lo == c.hi else (c.lo + c.hi) / 2
                assert brute_depth_at(sets, x) == c.depth


class TestDeepWitness:
    def test_three_set_example(self):
        sets = [
            interval_set([(F(0), F(1, 2))]),
            interval_set([(F(1, 4), F(3, 4))]),
            interval_set([(F(1, 2), F(1))]),
        ]
        assert deep_witness(sets, 3) == (F(1, 2), (0, 1, 2))

    def test_disjoint_sets_no_witness(self):
        sets = [
            interval_set([(F(0), F(1, 4))]),
            interval_set([(F(1, 2), F(1))]),
        ]
        assert deep_witness(sets, 2) is None

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            deep_witness([IntervalSet(1, (0, 1))], 0)

    def test_pigeonhole_guarantee(self):
        # five sets of measure >= 1/2 always admit a triple point
        rng = random.Random(43)
        for _ in range(100):
            sets = random_family(rng, 5)
            got = deep_witness(sets, 3)
            assert got is not None
            x, members = got
            assert len(members) == 3
            assert all(sets[i].contains(x) for i in members)

    def test_agrees_with_brute_force(self):
        rng = random.Random(47)
        for _ in range(500):
            sets = random_family(rng, rng.randint(1, 7), max_level=2)
            max_depth, _ = brute_max_depth(sets)
            for t in range(1, max_depth + 2):
                got = deep_witness(sets, t)
                if t <= max_depth:
                    assert got is not None
                    x, members = got
                    assert brute_depth_at(sets, x) >= t
                    assert len(members) == t
                    assert all(sets[i].contains(x) for i in members)
                else:
                    assert got is None

    def test_first_cell_of_depth_t_from_depth_profile(self):
        # the witness lies in the leftmost profile cell of depth >= t, and
        # there is none exactly when no cell reaches depth t
        rng = random.Random(59)
        for _ in range(300):
            sets = random_family(rng, rng.randint(1, 7), max_level=2)
            cells = depth_profile(sets)
            for t in range(1, max(c.depth for c in cells) + 2):
                got = deep_witness(sets, t)
                deep = [c for c in cells if c.depth >= t]
                if not deep:
                    assert got is None
                    continue
                x, members = got
                cell = deep[0]
                assert cell.lo <= x <= cell.hi
                assert x != cell.lo or cell.closed_lo
                assert x != cell.hi or cell.closed_hi
                assert members == tuple(i for i, s in enumerate(sets) if s.contains(x))[:t]

    def test_witness_iff_common_intersection(self):
        rng = random.Random(53)
        for _ in range(200):
            sets = random_family(rng, rng.randint(1, 5), max_level=2)
            has_common = bool(intersect_many(sets).points)
            assert (deep_witness(sets, len(sets)) is not None) == has_common
