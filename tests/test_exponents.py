"""Integer and continued-fraction exponent recovery."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from geocalc import (ContinuedFraction, DEFAULT_POLICY, DomainError,
                     NoIntegerExponent, evaluate_cf, normalize,
                     recover_exponent_via_logs, recover_rational_exponent,
                     solve_integer_exponent)
from geocalc.numcore import SignedScaled

POL = DEFAULT_POLICY
ORACLE_CTX = POL.oracle_ctx()


def oracle_power(x: str, num: int, den: int) -> SignedScaled:
    xd = Decimal(x)
    r = ORACLE_CTX.power(xd, ORACLE_CTX.divide(Decimal(num), Decimal(den)))
    return SignedScaled.from_decimal(r)


def test_cf_to_text():
    cf = ContinuedFraction((10, 1, 8, 20), True)
    assert cf.to_text() == "[10; 1, 8, 20]"
    single = ContinuedFraction((7,), True)
    assert single.to_text() == "[7]"


def test_evaluate_cf_known_values():
    assert evaluate_cf(ContinuedFraction((10, 1, 8, 20), True)) == \
        Fraction(1971, 181)
    assert evaluate_cf(ContinuedFraction((1, 2, 2, 2, 2, 2), True)) == \
        Fraction(99, 70)
    assert evaluate_cf(ContinuedFraction((0, 2), True)) == Fraction(1, 2)
    assert evaluate_cf(ContinuedFraction((5,), True)) == Fraction(5)


def test_solve_integer_exponent_basic():
    x, a = normalize("1.1"), normalize("5.05447028499293771")
    assert solve_integer_exponent(x, a, 100, POL) == 17
    assert solve_integer_exponent(normalize("2"), normalize("1024"),
                                  50, POL) == 10
    # below-one base, below-one target
    assert solve_integer_exponent(normalize("0.5"), normalize("0.0625"),
                                  50, POL) == 4


def test_solve_integer_exponent_sign_rules():
    assert solve_integer_exponent(normalize("-2"), normalize("-8"),
                                  10, POL) == 3
    assert solve_integer_exponent(normalize("-2"), normalize("4"),
                                  10, POL) == 2
    with pytest.raises(NoIntegerExponent):
        solve_integer_exponent(normalize("-2"), normalize("8"), 10, POL)


def test_solve_integer_exponent_no_match():
    with pytest.raises(NoIntegerExponent):
        solve_integer_exponent(normalize("2"), normalize("1000"), 100, POL)
    with pytest.raises(NoIntegerExponent):
        solve_integer_exponent(normalize("2"), normalize("0.5"), 100, POL)


def test_recover_rational_exponent_canonical_terms():
    a = oracle_power("2", 1971, 181)
    cf = recover_rational_exponent(normalize("2"), a, policy=POL)
    assert cf.terms == (10, 1, 8, 20)
    assert cf.terminated
    assert evaluate_cf(cf) == Fraction(1971, 181)


def test_recover_folds_a_trailing_one():
    # 2**t = 4 - 1e-15 closes as [1; 1], written canonically as [2]
    cf = recover_rational_exponent(normalize("2"),
                                   normalize("3.999999999999999"), policy=POL)
    assert cf.terms == (2,)
    assert cf.terminated


def test_recover_handles_exponent_below_one():
    a = oracle_power("2", 3, 4)
    cf = recover_rational_exponent(normalize("2"), a, policy=POL)
    assert cf.terms[0] == 0
    assert evaluate_cf(cf) == Fraction(3, 4)


def test_recover_both_sides_of_one():
    # bases below 1 recover the same exponent as their reciprocals above 1
    a = oracle_power("0.37", 7, 5)
    cf = recover_rational_exponent(normalize("0.37"), a, policy=POL)
    assert evaluate_cf(cf) == Fraction(7, 5)


def test_recover_rejects_mixed_sides():
    with pytest.raises(DomainError):
        recover_rational_exponent(normalize("2"), normalize("0.5"),
                                  policy=POL)
    with pytest.raises(DomainError):
        recover_rational_exponent(normalize("1"), normalize("2"), policy=POL)
    with pytest.raises(DomainError):
        recover_rational_exponent(normalize("-2"), normalize("8"), policy=POL)


def test_recover_truncates_irrational_exponent():
    # 3**sqrt(2), frozen from a 60-digit reference computation
    a = normalize("4.72880438783741494789428334041600536683971642425484")
    cf = recover_rational_exponent(normalize("3"), a, max_depth=8, policy=POL)
    assert cf.terms == (1, 2, 2, 2, 2, 2, 2, 2)
    assert not cf.terminated
    got = evaluate_cf(cf)
    assert abs(float(got) - math.sqrt(2)) < 1e-4


def test_change_of_base_ratio():
    # ln151/ln98, frozen from a 60-digit reference computation
    want = Decimal("1.09428907841887309475328099934199930522543871469692")
    p_cf, q_cf, ratio = recover_exponent_via_logs(normalize("98"),
                                                  normalize("151"),
                                                  policy=POL)
    assert isinstance(p_cf, ContinuedFraction)
    assert isinstance(q_cf, ContinuedFraction)
    diff = abs(ratio.value() - want)
    assert diff <= Decimal("1e-4")


def test_random_coprime_recovery_seeded():
    rng = random.Random(1812)
    done = 0
    while done < 30:
        m, n = rng.randint(1, 50), rng.randint(1, 50)
        if math.gcd(m, n) != 1:
            continue
        base = f"{rng.randint(2, 9)}.{rng.randint(0, 999):03d}"
        a = oracle_power(base, m, n)
        cf = recover_rational_exponent(normalize(base), a, policy=POL)
        assert evaluate_cf(cf) == Fraction(m, n), (base, m, n)
        done += 1
