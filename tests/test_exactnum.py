import random
from decimal import Decimal, localcontext
from fractions import Fraction as F
from math import isqrt

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linepierce.exactnum import QuadExt, format_rational, parse_rational, solve_quadratic


def decimal_sign_oracle(a: F, b: F, d: F) -> int:
    """Sign of a + b*sqrt(d) from 200-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 200
        val = (
            Decimal(a.numerator) / Decimal(a.denominator)
            + Decimal(b.numerator)
            / Decimal(b.denominator)
            * (Decimal(d.numerator) / Decimal(d.denominator)).sqrt()
        )
    if abs(val) < Decimal(10) ** -150:
        return 0
    return 1 if val > 0 else -1


class TestRationals:
    def test_addition(self):
        assert F(1, 3) + F(1, 6) == F(1, 2)

    def test_compare_canonicalizes(self):
        assert (QuadExt.of(F(2, 4)) - F(1, 2)).sign() == 0

    def test_inverse_product(self):
        assert F(3, 7) * F(7, 3) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F(1, 2) / F(0)

    def test_serialization_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            assert parse_rational(format_rational(x)) == x

    @pytest.mark.parametrize("bad", ["1/0", "0/0", 0.5, 3, None, ["1/2"]])
    def test_parse_rejects_with_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", [
        "1e5", "1e10000000", "1E-3", "0.5", ".5", "1/2.0", "1/-2", "--1", "1_000",
        "0x10", "\u0661/\u0662", "1 / 2", "", "/2", "1/", "inf", "nan",
    ])
    def test_parse_accepts_only_ascii_num_den(self, bad):
        with pytest.raises(ValueError, match="num/den"):
            parse_rational(bad)

    @pytest.mark.parametrize("text, value", [
        ("3/4", F(3, 4)), ("-3/4", F(-3, 4)), ("+3/4", F(3, 4)), ("6/8", F(3, 4)),
        ("7", F(7)), ("-0/5", F(0)), (" 1/2\n", F(1, 2)),
    ])
    def test_parse_grammar(self, text, value):
        assert parse_rational(text) == value

    def test_round_trip_past_the_int_string_digit_limit(self):
        # CPython refuses int/str conversions past 4300 digits by default
        for x in (F(1, 7**6000), F(-(10**5000) - 1, 3), F(2**20000)):
            text = format_rational(x)
            assert len(text) > 4300
            assert parse_rational(text) == x

    def test_format_always_explicit(self):
        assert format_rational(F(33, 64)) == "33/64"
        assert format_rational(F(3)) == "3/1"


class TestQuadExt:
    def test_sign_both_positive(self):
        assert QuadExt(F(1), F(1), F(2)).sign() == 1

    def test_perfect_square_normalizes_to_zero(self):
        x = QuadExt(F(-1), F(1), F(1))
        assert x.b == 0 and x.d == 0
        assert x.sign() == 0

    def test_mixed_sign_squaring(self):
        # 3 > 2*sqrt(2) since 9 > 8; checked against the decimal oracle
        x = QuadExt(F(3), F(-2), F(2))
        assert x.sign() == 1
        assert decimal_sign_oracle(F(3), F(-2), F(2)) == 1

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(F(0), F(1), F(-1))

    def test_incompatible_radicands_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(F(0), F(1), F(2)) + QuadExt(F(0), F(1), F(3))

    def test_rational_mixing_allowed(self):
        x = QuadExt(F(0), F(1), F(2)) + F(1, 2)
        assert x == QuadExt(F(1, 2), F(1), F(2))

    def test_sign_multiplicative(self):
        rng = random.Random(11)
        for _ in range(300):
            d = F(rng.randint(0, 30))
            x = QuadExt(F(rng.randint(-9, 9), rng.randint(1, 9)),
                        F(rng.randint(-9, 9), rng.randint(1, 9)), d)
            y = QuadExt(F(rng.randint(-9, 9), rng.randint(1, 9)),
                        F(rng.randint(-9, 9), rng.randint(1, 9)), d)
            assert (x * y).sign() == x.sign() * y.sign()

    def test_sign_matches_decimal_oracle(self):
        rng = random.Random(13)
        for _ in range(1000):
            a = F(rng.randint(-50, 50), rng.randint(1, 50))
            b = F(rng.randint(-50, 50), rng.randint(1, 50))
            d = F(rng.randint(0, 50), rng.randint(1, 50))
            got = QuadExt(a, b, d).sign()
            want = decimal_sign_oracle(a, b, d)
            assert got == want, f"{a} + {b}*sqrt({d})"

    def test_sum_sign_matches_decimal_oracle(self):
        rng = random.Random(17)
        for _ in range(1000):
            d = F(rng.randint(2, 40))
            x = QuadExt(F(rng.randint(-20, 20), rng.randint(1, 20)),
                        F(rng.randint(-20, 20), rng.randint(1, 20)), d)
            y = QuadExt(F(rng.randint(-20, 20), rng.randint(1, 20)),
                        F(rng.randint(-20, 20), rng.randint(1, 20)), d)
            s = x + y
            assert s.sign() == decimal_sign_oracle(s.a, s.b, s.d)

    def test_equality_across_radicands_never_raises(self):
        assert QuadExt(F(0), F(1), F(2)) != QuadExt(F(0), F(1), F(3))
        # 2*sqrt(5) = sqrt(20)
        assert QuadExt(F(0), F(2), F(5)) == QuadExt(F(0), F(1), F(20))
        assert hash(QuadExt(F(0), F(2), F(5))) == hash(QuadExt(F(0), F(1), F(20)))

    def test_rational_hashes_as_its_fraction(self):
        assert hash(QuadExt(F(-1), F(1), F(1))) == hash(F(0))
        assert hash(QuadExt.of(F(3, 7))) == hash(F(3, 7))

    def test_total_order(self):
        x = QuadExt(F(0), F(1), F(2))  # sqrt(2)
        assert F(1) < x < F(3, 2)
        assert x == QuadExt(F(0), F(1), F(2))
        assert abs(-x) == x

    def test_serialization_round_trip(self):
        # reports render radicals as "a + b*sqrt(d)"; sympy reads that text back
        rng = random.Random(19)
        for _ in range(200):
            x = QuadExt(
                F(rng.randint(-99, 99), rng.randint(1, 99)),
                F(rng.randint(-99, 99), rng.randint(1, 99)),
                F(rng.randint(0, 99), rng.randint(1, 99)),
            )
            assert sympy.expand(sympy.sympify(str(x)) - sym(x)) == 0


class TestSolveQuadratic:
    def test_two_roots(self):
        assert solve_quadratic(F(1), F(0), F(-1)) == (F(-1), F(1))

    def test_double_root(self):
        assert solve_quadratic(F(1), F(-2), F(1)) == (F(1),)

    def test_no_real_roots(self):
        assert solve_quadratic(F(1), F(0), F(1)) == ()

    def test_degenerate_rejected_without_flag(self):
        with pytest.raises(ValueError, match="degenerate"):
            solve_quadratic(F(0), F(0), F(0))

    def test_linear_case(self):
        assert solve_quadratic(F(0), F(2), F(-3)) == (F(3, 2),)

    def test_residuals_exactly_zero(self):
        rng = random.Random(23)
        checked = 0
        while checked < 300:
            a = F(rng.randint(-9, 9), rng.randint(1, 9))
            b = F(rng.randint(-9, 9), rng.randint(1, 9))
            c = F(rng.randint(-9, 9), rng.randint(1, 9))
            if a == b == c == 0:
                continue
            for r in solve_quadratic(a, b, c):
                assert (r * r * a + r * b + c).sign() == 0
            checked += 1

    def test_roots_sorted(self):
        rng = random.Random(29)
        for _ in range(200):
            a = F(rng.choice([-1, 1]) * rng.randint(1, 9))
            b = F(rng.randint(-9, 9))
            c = F(rng.randint(-9, 9))
            roots = solve_quadratic(a, b, c)
            if len(roots) == 2:
                assert roots[0] < roots[1]


def sym(x) -> sympy.Expr:
    """A Fraction or a QuadExt as an exact sympy number."""
    if isinstance(x, QuadExt):
        return sym(x.a) + sym(x.b) * sympy.sqrt(sym(x.d))
    return sympy.Rational(x.numerator, x.denominator)


def pell_convergent(n: int) -> tuple[int, int]:
    """The n-th convergent p/q of sqrt(2): 1/1, 3/2, 7/5, 17/12, ..."""
    p, q = 1, 1
    for _ in range(n):
        p, q = p + 2 * q, p + q
    return p, q


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
scales = st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000)
# few small parts, so that equal values over distinct radicands come up
small_quadexts = st.builds(
    QuadExt,
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=0, max_value=20, max_denominator=4),
)


class TestSympyOracle:
    """Exact differential checks: sympy decides the sign of a + b*sqrt(d)
    and the roots of a rational quadratic without the decimal oracle's
    cut-off, which matters most for near-cancelling operands."""

    @settings(max_examples=300)
    @given(a=rationals, b=rationals, d=st.fractions(min_value=0, max_value=50, max_denominator=50))
    def test_sign_matches_sympy(self, a, b, d):
        assert QuadExt(a, b, d).sign() == sympy.sign(sym(a) + sym(b) * sympy.sqrt(sym(d)))

    @settings(max_examples=300)
    @given(
        x=small_quadexts,
        y=small_quadexts,
        square=st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
        rebuild=st.booleans(),
    )
    def test_equality_matches_sympy(self, x, y, square, rebuild):
        if rebuild:  # the same value over the radicand scaled by a square
            y = QuadExt(x.a, x.b / square, x.d * square * square)
        equal = sympy.expand(sym(x) - sym(y)) == 0
        assert (x == y) == (y == x) == equal
        if equal:
            assert hash(x) == hash(y)

    @settings(max_examples=100)
    @given(n=st.integers(0, 80), scale=scales, negate=st.booleans())
    def test_sign_of_pell_gap_matches_sympy(self, n, scale, negate):
        # |p - q*sqrt(2)| is below 1/q: the two terms agree to ~2*log10(q) digits
        p, q = pell_convergent(n)
        x = QuadExt(p * scale, -q * scale, F(2))
        if negate:
            x = -x
        assert x.sign() == sympy.sign(sym(x)) != 0

    @settings(max_examples=100)
    @given(
        d=st.integers(2, 99).filter(lambda d: isqrt(d) ** 2 != d),
        q=st.integers(1, 10**40),
        above=st.booleans(),
        scale=scales,
    )
    def test_sign_of_floor_square_root_gap_matches_sympy(self, d, q, above, scale):
        # p = floor(q*sqrt(d)) (+1): within 1 of q*sqrt(d), of either sign
        p = isqrt(q * q * d) + above
        x = QuadExt(p * scale, -q * scale, F(d))
        assert x.sign() == sympy.sign(sym(x)) == (1 if above else -1)

    @settings(max_examples=150)
    @given(
        coeffs=st.one_of(
            st.tuples(rationals, rationals, rationals),
            # a*(x - r)*(x - s): rational and double roots
            st.tuples(rationals, rationals, rationals).map(
                lambda t: (t[0], -t[0] * (t[1] + t[2]), t[0] * t[1] * t[2])
            ),
        )
    )
    def test_roots_match_sympy_solve(self, coeffs):
        a, b, c = coeffs
        assume(not a == b == c == 0)
        x = sympy.Symbol("x")
        # a polynomial has no denominators to check roots against
        poly = sym(a) * x**2 + sym(b) * x + sym(c)
        want = [r for r in sympy.solve(poly, x, check=False, simplify=False) if r.is_real]
        got = [sym(r) for r in solve_quadratic(a, b, c)]
        assert len(got) == len(want)
        assert {sympy.expand(r) for r in got} == {sympy.expand(r) for r in want}
        assert all(sympy.sign(hi - lo) == 1 for lo, hi in zip(got, got[1:]))
