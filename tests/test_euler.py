"""The compound-interest ladder to e, and logarithms riding on it."""

import random
from decimal import (Context, Decimal, Inexact, ROUND_DOWN, localcontext)

import pytest

from geocalc import (DEFAULT_POLICY, DomainError, PrecisionPolicy, antilog,
                     approximate_e, internal_e, multiply, natural_log,
                     normalize)
from conftest import rel_diff

POL = DEFAULT_POLICY
ORACLE_CTX = POL.oracle_ctx()

# e to 40 digits, frozen from a 60-digit reference computation
E_REF = Decimal("2.718281828459045235360287471352662497757")


def test_first_rung_is_two():
    a = approximate_e(1, POL)
    assert a.value == Decimal(2)
    assert a.error_bound >= E_REF - 2


def test_ladder_is_monotone_increasing():
    values = [approximate_e(10 ** k, POL).value for k in range(0, 7)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))
    assert all(v < E_REF for v in values)


def test_error_bound_holds_and_shrinks():
    for k in range(0, 8):
        n = 10 ** k
        a = approximate_e(n, POL)
        assert ORACLE_CTX.subtract(E_REF, a.value) <= a.error_bound
        assert a.error_bound == POL.ctx().divide(E_REF, 2 * Decimal(n))


def test_error_bound_holds_to_n_1e30():
    # the bound's slack is about 11e/(24n**2), so the truth needs far
    # more digits than the value
    ctx = Context(prec=120)
    e = ctx.exp(1)
    rng = random.Random(1030)
    ns = [10 ** k for k in range(8, 31)] + [2 * 10 ** k for k in range(8, 30)]
    ns += [rng.randrange(10 ** (k - 1), 10 ** k) for k in range(9, 31)]
    for n in ns:
        a = approximate_e(n, POL)
        assert 0 < ctx.subtract(e, a.value) <= a.error_bound, n


def test_error_bound_holds_past_the_digits_of_a_fixed_constant():
    # e - value falls below 1e-40 here: the reference e has to carry
    # more digits than any fixed literal
    ctx = Context(prec=250)
    e = ctx.exp(1)
    for n in (10 ** 40 + 12345, 10 ** 60):
        a = approximate_e(n, POL)
        assert 0 < ctx.subtract(e, a.value) <= a.error_bound, n


def test_approximate_e_ignores_the_callers_context():
    ns = [1, 7, 10 ** 6, 10 ** 8, 123456789012, 6500829865468900606471209044]
    want = [approximate_e(n, POL) for n in ns]
    with localcontext(Context(prec=5, rounding=ROUND_DOWN, traps=[Inexact])):
        got = [approximate_e(n, POL) for n in ns]
    assert got == want


def test_frozen_rungs():
    # frozen from 60-digit reference computations
    want6 = Decimal("2.71828046931937688381979970845435639275")
    want8 = Decimal("2.71828181486763621765297724300917669215")
    got6 = approximate_e(10 ** 6, POL).value
    got8 = approximate_e(10 ** 8, POL).value
    assert rel_diff(got6, want6, ORACLE_CTX) <= Decimal("1e-20")
    assert rel_diff(got8, want8, ORACLE_CTX) <= Decimal("1e-20")


def test_internal_base_is_cached_and_below_e():
    e1 = internal_e(POL)
    e2 = internal_e(POL)
    assert e1 is e2
    assert e1.value() < E_REF
    assert rel_diff(e1.value(), E_REF, ORACLE_CTX) <= Decimal("2e-8")


def test_natural_log_special_values():
    assert natural_log(normalize("1"), policy=POL) == 0
    with pytest.raises(DomainError):
        natural_log(normalize("-2"), policy=POL)


def test_natural_log_below_one_mirrors_above():
    down = natural_log(normalize("0.5"), policy=POL)
    up = natural_log(normalize("2"), policy=POL)
    assert down == up.copy_negate()


def test_natural_log_worked_values():
    # frozen from 60-digit reference computations
    ln151 = Decimal("5.01727983681492432879623629948447629026")
    ln2 = Decimal("0.693147180559945309417232121458176568076")
    got = natural_log(normalize("151"), policy=POL)
    assert abs(got - ln151) <= Decimal("1e-7")
    got = natural_log(normalize("2"), policy=POL)
    assert abs(got - ln2) <= Decimal("1e-7")


def test_antilog_special_values():
    assert antilog(Decimal(0), policy=POL).value() == 1
    neg = antilog(Decimal("-2.5"), policy=POL)
    pos = antilog(Decimal("2.5"), policy=POL)
    prod = multiply(neg, pos, POL)
    assert rel_diff(prod.value(), Decimal(1), ORACLE_CTX) <= Decimal("1e-10")


def test_antilog_worked_value():
    # e**2.5, frozen from a 60-digit reference computation
    want = Decimal("12.1824939607034734380701759511679661832")
    got = antilog(Decimal("2.5"), policy=POL)
    assert rel_diff(got.value(), want, ORACLE_CTX) <= Decimal("1e-6")


# (t, working digits, mantissa, exponent) of exp(t).  The first four
# have convergent denominators past 10**6 (the root's index); the
# fraction of 2.0000000000001 rounds to 0/1 and that of 0.999999999999
# to 1/1.
FROZEN_ANTILOG = [
    ("0.470981467447", 30,
     "0.160156530253391173694235701359", 1),
    ("0.470981467447", 45,
     "0.160156530253391173694249517445968012089485817", 1),
    ("-2.576297462704", 30,
     "0.760550811047847895101376438579", -1),
    ("-2.576297462704", 45,
     "0.760550811047847895100289250811537527347139153", -1),
    ("-2.173064683477", 30,
     "0.113828235538640000691378544573", 0),
    ("-2.173064683477", 45,
     "0.113828235538640000691393174305281318634922809", 0),
    ("2.125466606072", 30,
     "0.837680515553289904554999134107", 1),
    ("2.125466606072", 45,
     "0.837680515553289904555250957079311197159245975", 1),
    ("2.0000000000001", 30,
     "0.738905602504009009998047498955", 1),
    ("2.0000000000001", 45,
     "0.738905602504009009998046021143857177403664957", 1),
    ("0.999999999999", 30,
     "0.271828181486763621765297996129", 1),
    ("0.999999999999", 45,
     "0.271828181486763621765297724300917669215351025", 1),
]


@pytest.mark.parametrize("t,digits,mantissa,exponent", FROZEN_ANTILOG)
def test_antilog_frozen_values(t, digits, mantissa, exponent):
    got = antilog(Decimal(t), policy=PrecisionPolicy(digits))
    assert (got.sign, str(got.mantissa), got.exponent) == (1, mantissa,
                                                           exponent)


def test_antilog_of_an_integer_is_a_power_of_the_internal_base():
    # an integer t takes no root: e**2 within the base's bias
    got = antilog(Decimal(2), policy=POL)
    want = ORACLE_CTX.exp(Decimal(2))
    assert rel_diff(got.value(), want, ORACLE_CTX) <= Decimal("2e-8")


def test_round_trip_antilog_of_log():
    for text in ("151", "2.5", "0.37", "98", "1896.998"):
        x = normalize(text)
        t = natural_log(x, policy=POL)
        back = antilog(t, policy=POL)
        assert rel_diff(back.value(), x.value(),
                        ORACLE_CTX) <= Decimal("1e-8"), text


def test_log_homomorphism():
    # ln(ab) = ln a + ln b within the recovery tolerance
    a, b = normalize("3.7"), normalize("41")
    lhs = natural_log(multiply(a, b, POL), policy=POL)
    rhs = natural_log(a, policy=POL) + natural_log(b, policy=POL)
    assert abs(lhs - rhs) <= Decimal("1e-7")
