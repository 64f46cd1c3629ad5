"""Scaled-decimal representation, parsing, and the reference evaluator."""

import math
import random
from fractions import Fraction
from dataclasses import fields
from decimal import (Context, Decimal, DivisionByZero, Inexact, ROUND_DOWN,
                     ROUND_HALF_EVEN, Rounded, localcontext)

import pytest

from geocalc import (DEFAULT_POLICY, DomainError, ExponentOverflow,
                     NoConvergence, ParseError, PrecisionPolicy, SignedScaled,
                     ZeroNotRepresentable, approximate_e, multiply,
                     normalize, oracle_eval, power, rational_power,
                     renormalized, shift10, to_text)
from geocalc.numcore import (_EXACT, EXPONENT_BOUND, MAX_ABS_EXPONENT,
                             Interval, bisect, check_power,
                             check_rational_power)
from conftest import rel_diff


def test_shift10_is_exact_exponent_surgery():
    assert shift10(Decimal("0.1234"), 3) == Decimal("123.4")
    assert shift10(Decimal("5"), -2) == Decimal("0.05")
    assert shift10(Decimal("0.5"), 0) == Decimal("0.5")
    # no precision loss even at extreme shifts
    big = shift10(Decimal("0.123456789123456789"), 400)
    assert shift10(big, -400) == Decimal("0.123456789123456789")


SHIFT_CASES = ["0", "-0", "0.000", "-0E+5", "0.1234", "-0.1234",
               "1.2300", "5", "-5e3", "1000", "0.1000000000",
               "0.123456789012345678901234567890123456789012345678901234567890",
               "9.99999999999999999999999999999e-30"]
SHIFTS = [0, 1, -1, 7, -7, 29, -29, 400, -400]


def test_shift10_keeps_the_coefficient_and_moves_only_the_exponent():
    for text in SHIFT_CASES:
        d = Decimal(text)
        sign, digits, exp = d.as_tuple()
        for k in SHIFTS:
            assert shift10(d, k).as_tuple() == (sign, digits, exp + k), (text, k)


def test_shift10_ignores_the_callers_context():
    want = [str(shift10(Decimal(t), k)) for t in SHIFT_CASES for k in SHIFTS]
    with localcontext(Context(prec=5, rounding=ROUND_DOWN, traps=[Inexact])):
        got = [str(shift10(Decimal(t), k)) for t in SHIFT_CASES for k in SHIFTS]
    assert got == want


@pytest.mark.parametrize("text,sign,mantissa,exponent", [
    ("1", 1, "0.1", 1),
    ("-1", -1, "0.1", 1),
    ("0.5", 1, "0.5", 0),
    ("32357", 1, "0.32357", 5),
    ("-1.602176634e-19", -1, "0.1602176634", -18),
    ("5.972e24", 1, "0.5972", 25),
    ("0.5972e25", 1, "0.5972", 25),
    ("+2.5", 1, "0.25", 1),
    (".25", 1, "0.25", 0),
    ("1000", 1, "0.1", 4),
    ("0.0001", 1, "0.1", -3),
    ("12e0", 1, "0.12", 2),
    ("1E6", 1, "0.1", 7),
])
def test_normalize_grammar(text, sign, mantissa, exponent):
    v = normalize(text)
    assert v.sign == sign
    assert v.mantissa == Decimal(mantissa)
    assert v.exponent == exponent


@pytest.mark.parametrize("text", [
    "", "abc", "1.2.3", "e5", "--1", "1e", "0x10", "1,5", "1 2", "nan", "inf",
])
def test_normalize_rejects_bad_literals(text):
    with pytest.raises(ParseError):
        normalize(text)


@pytest.mark.parametrize("text", ["0", "0.0", "-0", "0e5", "0.000"])
def test_zero_has_no_representation(text):
    with pytest.raises(ZeroNotRepresentable):
        normalize(text)


def test_scaled_exponent_stays_within_the_bound():
    # |exponent| <= 10**9 in the mantissa-in-[0.1, 1) form, for operands
    # as for results
    assert normalize("9.9e999999999").exponent == 10 ** 9
    assert normalize("1e-1000000001").exponent == -(10 ** 9)
    for text in ("1e1000000000", "-1e-1000000002"):
        with pytest.raises(ExponentOverflow,
                           match="^operand exponent out of range"):
            normalize(text)
    with pytest.raises(ExponentOverflow, match="^result exponent"):
        renormalized(1, Decimal(5), 10 ** 9)


def test_value_round_trip_is_exact():
    v = normalize("-1.602176634e-19")
    assert v.value() == Decimal("-1.602176634e-19")
    pos = SignedScaled(1, v.mantissa, v.exponent)
    assert pos.value() == Decimal("1.602176634e-19")


def test_renormalized_accepts_any_positive_mantissa():
    # represents sign * raw * 10**exponent, restated in [0.1, 1)
    v = renormalized(1, Decimal("3.7"), 0)
    assert (v.mantissa, v.exponent) == (Decimal("0.37"), 1)
    assert v.value() == Decimal("3.7")
    v = renormalized(-1, Decimal("0.005"), 2)
    assert (v.mantissa, v.exponent) == (Decimal("0.5"), 0)
    assert v.value() == Decimal("-0.5")
    v = renormalized(1, Decimal("0.25"), -3)
    assert (v.mantissa, v.exponent) == (Decimal("0.25"), -3)


def test_unit_and_power_of_ten_flags():
    assert normalize("1").is_unit
    assert not normalize("10").is_unit
    assert normalize("10").is_power_of_ten
    assert normalize("0.001").is_power_of_ten
    assert not normalize("0.5").is_power_of_ten


def test_from_decimal_matches_normalize():
    for text in ("0.375", "-81.274", "6.6244e23", "1"):
        assert SignedScaled.from_decimal(Decimal(text)) == normalize(text)
    with pytest.raises(ZeroNotRepresentable):
        SignedScaled.from_decimal(Decimal(0))


@pytest.mark.parametrize("text,digits,want", [
    ("32357", 5, "3.2357e4"),
    ("32357", 3, "3.24e4"),
    ("-1.602176634e-19", 8, "-1.6021766e-19"),
    ("0.5", 5, "5.0000e-1"),
    ("1", 1, "1e0"),
    ("999999", 3, "1.00e6"),
])
def test_to_text_formats(text, digits, want):
    assert to_text(normalize(text), digits) == want


@pytest.mark.parametrize("digits", [4300, 4301, 20000, 1000030])
def test_to_text_past_the_int_string_limit(digits):
    # the digit string is built with no int() -> str() round trip, which
    # refuses more than 4300 digits, and the rounding quantum 10**-digits
    # by no context whose exponent floor would cap it near 10**-1000026
    for text, sign, figures, exponent in (
            ("8", "", "8", 0), ("-0.37", "-", "37", -1),
            ("9.9999e4", "", "99999", 4),
            ("9" * (digits + 1), "", "1", digits + 1)):  # up a decade
        want = (f"{sign}{figures[0]}.{figures[1:]}"
                + "0" * (digits - len(figures)) + f"e{exponent}")
        assert to_text(normalize(text), digits) == want


def test_to_text_round_trips_through_normalize():
    rng = random.Random(4101)
    for _ in range(300):
        mant = rng.randint(10**14, 10**15 - 1)
        exp = rng.randint(-40, 40)
        sign = rng.choice("+-")
        text = f"{sign}{mant}e{exp}"
        v = normalize(text)
        again = normalize(to_text(v, 15))
        assert again == v


def test_policy_sets_only_its_working_digits():
    # the search tolerance is one unit of the working digits, read only
    assert [f.name for f in fields(PrecisionPolicy) if f.init] == [
        "working_digits"]
    assert PrecisionPolicy(40).rel_tol == Decimal("1e-39")
    with pytest.raises(TypeError):
        PrecisionPolicy(rel_tol=Decimal("1e-5"))


def test_policy_contexts():
    pol = PrecisionPolicy(working_digits=30)
    assert pol.ctx().prec == 30
    assert pol.oracle_ctx().prec == 60
    # default search tolerance leaves one digit of headroom
    assert DEFAULT_POLICY.rel_tol == Decimal("1e-29")
    # huge exponents stay in range
    assert pol.ctx().Emax >= 10**16
    assert pol.ctx().Emin <= -10**16
    # each call hands out its own context: what one caller changes, the
    # next call does not see
    for policy in (pol, PrecisionPolicy(working_digits=15)):
        for make, prec in ((policy.ctx, policy.working_digits),
                           (policy.oracle_ctx, 2 * policy.working_digits)):
            used = make()
            assert used is not make()
            used.prec, used.rounding = 5, ROUND_DOWN
            used.traps[Inexact] = True
            used.traps[DivisionByZero] = False
            used.flags[Rounded] = True
            fresh = make()
            assert (fresh.prec, fresh.rounding) == (prec, ROUND_HALF_EVEN)
            assert not fresh.traps[Inexact] and fresh.traps[DivisionByZero]
            assert not any(fresh.flags.values())
            assert (fresh.Emin, fresh.Emax) == (pol.ctx().Emin,
                                                pol.ctx().Emax)
    # approximate_e raises its own context's precision to 42 digits here
    x, y = normalize("1.602176634e-19"), normalize("6.02214076e23")
    approximate_e(10 ** 12)
    assert DEFAULT_POLICY.ctx().prec == 30
    assert to_text(multiply(x, y), 30) == "9.64853321233100184000000000004e4"


# (mantissa, exponent, n, passes) about EXPONENT_BOUND = 10**9:
# check_power returns at once while |n|*(|exponent| + 1) is within the
# bound, and past it refuses where the float estimate of the result's
# exponent exceeds 1.01 times the bound.  Rows with |n| above
# MAX_ABS_EXPONENT = 10**6 still pin the estimate's verdict, but
# check_power refuses them on the cap first; each such edge is pinned
# again below at |n| <= 10**6 with a larger exponent.
POWER_EDGES = [
    # |n|*(|e| + 1) = bound - 1, the bound itself, and bound + 1
    ("0.999", 36, 27027027, True),
    ("0.1", 36, 27027027, True),
    ("0.999", 999, 10 ** 6, True),
    ("0.1", 999, 10 ** 6, True),
    ("0.999", 1000, 999001, True),
    ("0.5", 1000, 999001, True),
    ("0.1", 0, EXPONENT_BOUND + 1, True),     # the estimate is |n| * 1
    ("0.5", 0, 2 * EXPONENT_BOUND, True),     # |n| * log10(2)
    ("0.1", 0, 2 * EXPONENT_BOUND, False),
    # the estimate's own edge: |n| * 99 and |n| * 101 about 1.01e9
    ("0.1", 100, 10202020, True),
    ("0.1", 100, 10202021, False),
    ("0.1", -100, 10 ** 7, True),
    ("0.1", -100, 10 ** 7 + 1, False),
    ("0.999999", 1000, 10 ** 6 + 10 ** 4, True),
    ("0.999999", 1000, 10 ** 6 + 10 ** 4 + 1, False),
    # the same edges within the cap: bound - 1 = 333667 * 2997
    ("0.999", 2996, 333667, True),
    ("0.1", 2996, 333667, True),
    ("0.1", 1001, 10 ** 6, True),             # |n| * 1000
    ("0.5", -1010, 999500, True),             # |n| * 1010.301
    ("0.1", -1010, 999500, False),            # |n| * 1011
    ("0.1", 1011, 10 ** 6, True),             # |n| * 1010 and |n| * 1011
    ("0.1", 1012, 10 ** 6, False),
    ("0.1", -1009, 10 ** 6, True),
    ("0.1", -1010, 10 ** 6, False),
    ("0.999999", 2020, 500000, True),
    ("0.999999", 2020, 500001, False),
]


def _estimate_refuses(x: SignedScaled, n: int) -> bool:
    """The float estimate that check_power falls back to."""
    est = abs(n) * abs(x.exponent - 1
                       + math.log10(float(shift10(x.mantissa, 1))))
    return est > EXPONENT_BOUND * 1.01


@pytest.mark.parametrize("mantissa,exponent,n,passes", POWER_EDGES)
def test_check_power_returns_early_only_where_the_estimate_passes(
        mantissa, exponent, n, passes):
    for e in (exponent, -exponent):
        for k in (n, -n):
            x = SignedScaled(1, Decimal(mantissa), e)
            if e == exponent:
                assert _estimate_refuses(x, k) is not passes
            if abs(k) > MAX_ABS_EXPONENT:
                with pytest.raises(DomainError, match="above cap 1000000$"):
                    check_power(x, k)
            elif _estimate_refuses(x, k):
                with pytest.raises(ExponentOverflow):
                    check_power(x, k)
            else:
                check_power(x, k)


@pytest.mark.parametrize("call", [
    lambda x: check_power(x, 3, max_abs_exponent=10 ** 9),
    lambda x: check_rational_power(x, 3, 2, max_abs_exponent=10 ** 9),
    lambda x: power(x, 3, max_abs_exponent=10 ** 9),
    lambda x: rational_power(x, 3, 2, max_abs_exponent=10 ** 9),
], ids=["check_power", "check_rational_power", "power", "rational_power"])
def test_the_power_cap_is_no_keyword(call):
    # MAX_ABS_EXPONENT is the one cap on |n|: no caller sets another
    with pytest.raises(TypeError, match="max_abs_exponent"):
        call(normalize("2"))


FROZEN = {
    # frozen from 60-digit reference computations
    ("pow", ("32357", 10)):
        "1.25800535315486599284781406635277029e45",
    ("recip", ("1.602176634",)):
        "0.624150907446076260777624098093044589988696589617",
    ("div", ("5.972e24", "7.348e22")):
        "81.2738160043549265106151333696243875884594447469",
    ("gmean", ("5.972e24", "7.348e22")):
        "6.62436834724639991467395427747404729662798677472e23",
}


def test_oracle_eval_matches_frozen_references():
    ctx = DEFAULT_POLICY.oracle_ctx()
    for (op, args), want in FROZEN.items():
        ops = tuple(a if isinstance(a, int) else normalize(a) for a in args)
        got = oracle_eval(op, ops)
        assert rel_diff(got.value(), Decimal(want), ctx) < Decimal("1e-30")


def test_oracle_eval_power_is_exact_for_small_cases():
    got = oracle_eval("pow", (normalize("0.6"), 4))
    assert got.value() == Decimal("0.1296")
    got = oracle_eval("pow", (normalize("-2"), 3))
    assert got.value() == Decimal("-8")


CTX = Context(prec=20)
THIRD = CTX.divide(1, 3)


def sign_of(x):
    """side() for a rising objective f(c) = c: positive once c passes x."""
    return lambda c, i: CTX.compare(c, x)


def never(lo, hi):
    """A collapse rule that never stops a search."""
    return False


def test_bisect_accepts_a_midpoint():
    # 0.5 is too high, 0.25 is the solution
    c, lo, hi, accepted = bisect(sign_of(Decimal("0.25")), Decimal(0),
                                 Decimal(1), CTX, "test", never)
    assert (c, lo, hi, accepted) == (Decimal("0.25"), 0, Decimal("0.5"), True)


def test_bisect_stops_on_collapse_and_returns_that_bracket():
    width = Decimal("0.01")
    c, lo, hi, accepted = bisect(
        sign_of(THIRD), Decimal(0), Decimal(1), CTX, "test",
        collapsed=lambda lo, hi: CTX.subtract(hi, lo) < width)
    assert not accepted
    assert lo < THIRD < hi and hi - lo < width <= 2 * (hi - lo)
    assert c == CTX.divide(CTX.add(lo, hi), 2)


def test_bisect_raises_when_the_precision_cannot_split_the_bracket():
    steps = []

    def side(c, i):
        steps.append(i)
        return CTX.compare(c, THIRD) or 1  # never accepts

    with pytest.raises(NoConvergence, match="20 digits"):
        bisect(side, Decimal(0), Decimal(1), CTX, "test", never)
    # 20 digits hold about 66 halvings of the unit bracket, not 200
    assert 60 < len(steps) < 80


@pytest.mark.parametrize("rising", [True, False])
def test_bisect_follows_rising_and_falling_objectives(rising):
    # f(c) = c**2 rising, or f(c) = 1 - c**2 falling, against 0.5
    target = Decimal("0.5")
    tol = Decimal("1e-15")

    def side(c, i):
        f = CTX.multiply(c, c)
        if not rising:
            f = CTX.subtract(1, f)
        err = CTX.subtract(f, target)
        if err.copy_abs() <= tol:
            return 0
        return err if rising else err.copy_negate()

    c, lo, hi, accepted = bisect(side, Decimal(0), Decimal(1), CTX, "test",
                                 never)
    assert accepted and lo < c < hi
    assert abs(CTX.multiply(c, c) - target) <= tol


def test_bisect_passes_step_indices_in_order():
    seen = []

    def side(c, i):
        seen.append(i)
        return sign_of(THIRD)(c, i)

    bisect(side, Decimal(0), Decimal(1), CTX, "test",
           collapsed=lambda lo, hi: CTX.subtract(hi, lo) < Decimal("1e-6"))
    assert seen == list(range(len(seen))) and len(seen) == 20


def test_bisect_midpoint_can_round_past_an_end():
    # at 30 digits lo + hi rounds down across a decade, so the first
    # midpoint, 0.5, lies below lo; the search goes on from that bracket
    ctx = Context(prec=30)
    lo = Decimal("0.500000000000000000000000000001")
    hi = Decimal("0.500000000000000000000000000003")
    x = Decimal("0.500000000000000000000000000002")
    assert ctx.divide(ctx.add(lo, hi), 2) < lo
    with pytest.raises(NoConvergence,
                       match=r"split \[0\.50000000000000000000000000000, "):
        bisect(lambda c, i: ctx.compare(c, x), lo, hi, ctx, "test", never)


def test_bisect_tries_the_guess_first():
    # accepted, the guess is returned on one side call; rejected, the
    # search is the one without it after that call, cut to the window;
    # outside the bracket, it is not asked
    def collapsed(lo, hi):
        return CTX.subtract(hi, lo) < Decimal("1e-12")

    window = (Decimal("0.33333"), Decimal("0.33334"))
    plain = bisect(sign_of(THIRD), Decimal(0), Decimal(1), CTX, "test",
                   collapsed, window + (None,))
    for guess in (THIRD, Decimal("0.333333"), Decimal(2)):
        asked = []

        def side(c, i):
            asked.append(c)
            return sign_of(THIRD)(c, i)
        got = bisect(side, Decimal(0), Decimal(1), CTX, "test", collapsed,
                     window + (guess,))
        if guess == THIRD:
            assert got == (THIRD, 0, 1, True) and asked == [THIRD]
        else:
            assert got == plain and len(asked) > 1
            assert (asked[0] == guess) == (guess < 1)


def test_bisect_cuts_the_bracket_to_newtons_window():
    # a window with a third entry is a bracket: with no point to accept,
    # the search halves [below, above] from its first step; traced, it
    # first draws four midpoints of [lo, hi], then cuts to the same
    def collapsed(lo, hi):
        return CTX.subtract(hi, lo) < Decimal("1e-12")

    asked, draws = [], []

    def side(c, i):
        asked.append(c)
        return sign_of(THIRD)(c, i)
    window = (Decimal("0.33333"), Decimal("0.33334"), None)
    got = bisect(side, Decimal(0), Decimal(1), CTX, "test", collapsed,
                 window)
    assert asked[0] == Decimal("0.333335")
    assert all(window[0] < c < window[1] for c in asked)
    assert window[0] <= got[1] < got[2] <= window[1] and not got[3]
    assert bisect(side, Decimal(0), Decimal(1), CTX, "test", collapsed,
                  window, lambda c, i: draws.append(str(c))) == got
    assert draws == ["0.5", "0.25", "0.375", "0.3125"]


@pytest.mark.parametrize("digits", [60, 5])
def test_interval_sqrt_rounds_outward(digits):
    # lo**2 <= x <= hi**2, squared exactly, for each end of an interval
    rng = random.Random(2525 + digits)
    for _ in range(3000):
        ends = sorted(shift10(Decimal(rng.randrange(10 ** (digits - 1),
                                                    10 ** digits)),
                              rng.randint(-60, 20)) for _ in range(2))
        for x, y in ((ends[0], ends[0]), tuple(ends)):
            root = Interval(x, y).sqrt()
            assert _EXACT.multiply(root.lo, root.lo) <= x
            assert y <= _EXACT.multiply(root.hi, root.hi)


def _integer_and_exponent(d: Decimal) -> tuple[int, int]:
    _, digits, exponent = d.as_tuple()
    return int("".join(map(str, digits))), exponent


@pytest.mark.parametrize("digits, top", [(60, 100), (5, 300)])
def test_interval_pow_int_rounds_outward(digits, top):
    # lo <= x**n <= hi in exact integers, for x = m * 10**-digits in
    # [0.1, 1) and n in 2..top; Context.power is not directed and missed
    # the exact power by a fraction of a unit in 2 and 3 of these cases
    rng = random.Random(2727 + digits)
    for _ in range(4000):
        m = rng.randrange(10 ** (digits - 1), 10 ** digits)
        n = rng.randint(2, top)
        iv = Interval.point(shift10(Decimal(m), -digits)).pow_int(n)
        (lo, a), (hi, b) = map(_integer_and_exponent, (iv.lo, iv.hi))
        # x**n = m**n * 10**(-digits*n), each end = integer * 10**exponent
        assert (lo * 10 ** (a + digits * n) <= m ** n
                <= hi * 10 ** (b + digits * n)), (m, n)


@pytest.mark.parametrize("digits", [60, 5])
def test_interval_ops_enclose_the_exact_result(digits):
    # each end against the exact Fraction result: an end rounded once
    # lies within one 60-digit unit outside it, and pow_int's ends,
    # rounded once per multiply, still enclose it
    rng = random.Random(3131 + digits)
    down, up = Context(prec=60), Context(prec=60)

    def number():
        return shift10(Decimal(rng.randrange(10 ** (digits - 1),
                                             10 ** digits)),
                       rng.randint(-digits - 20, 20))

    def interval():
        return Interval(*sorted((number(), number())))

    def encloses(iv, lo, hi, once=True):
        assert Fraction(iv.lo) <= lo and hi <= Fraction(iv.hi)
        if once:
            assert Fraction(up.next_plus(iv.lo)) > lo
            assert Fraction(down.next_minus(iv.hi)) < hi

    for _ in range(400):
        a, b, x, h, k = interval(), interval(), number(), number(), \
            rng.randint(-50, 50)
        (alo, ahi), (blo, bhi) = map(Fraction, (a.lo, a.hi)), \
            map(Fraction, (b.lo, b.hi))
        encloses(Interval.around(x, h), Fraction(x) - Fraction(h),
                 Fraction(x) + Fraction(h))
        encloses(a.widen(h), alo - Fraction(h), ahi + Fraction(h))
        scaled = a.scale10(k)
        assert (Fraction(scaled.lo), Fraction(scaled.hi)) == (
            alo * Fraction(10) ** k, ahi * Fraction(10) ** k)
        encloses(a.add(b), alo + blo, ahi + bhi)
        encloses(a.mul(b), alo * blo, ahi * bhi)
        encloses(a.div(b), alo / bhi, ahi / blo)
        n = rng.randint(2, 40)
        encloses(a.pow_int(n), alo ** n, ahi ** n, once=False)
        hull = a.hull(b)
        assert (Fraction(hull.lo), Fraction(hull.hi)) == (min(alo, blo),
                                                          max(ahi, bhi))
        c = number()
        width = a.half_width_about(c)
        exact = max(Fraction(c) - alo, ahi - Fraction(c))
        assert Fraction(down.next_minus(width)) < exact <= Fraction(width)


def test_interval_div_refuses_a_divisor_that_reaches_zero():
    # a divisor with lo <= 0 leaves the quotient unbounded; one with
    # lo > 0 gives lo * b.hi <= a.lo and a.hi <= hi * b.lo, exactly
    rng = random.Random(2929)

    def end(sign):
        return shift10(Decimal(sign * rng.randrange(1, 10 ** 12)),
                       rng.randint(-40, 20))

    for b in (Interval(Decimal(0), Decimal(2)),
              Interval(Decimal("-5.0e-6"), Decimal("16.62"))):
        with pytest.raises(DomainError):
            Interval.point(Decimal(1)).div(b)
    for _ in range(3000):
        a = Interval(*sorted((end(1), end(1))))
        lo = end(rng.choice((-1, 1))) if rng.random() < 0.9 else Decimal(0)
        b = Interval(lo, lo + abs(end(1)))
        if lo <= 0:
            with pytest.raises(DomainError):
                a.div(b)
            continue
        q = a.div(b)
        assert _EXACT.multiply(q.lo, b.hi) <= a.lo
        assert a.hi <= _EXACT.multiply(q.hi, b.lo)
