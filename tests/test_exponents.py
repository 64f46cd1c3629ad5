"""Integer and continued-fraction exponent recovery."""

import math
import random
from collections import Counter
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest

from geocalc import (ContinuedFraction, DEFAULT_POLICY, DomainError,
                     NoIntegerExponent, PrecisionPolicy, evaluate_cf,
                     normalize, recover_exponent_via_logs,
                     recover_rational_exponent, solve_integer_exponent)
from geocalc.exponents import _floor_exponent
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
    with pytest.raises(NoIntegerExponent):     # no power of 2 is negative
        solve_integer_exponent(normalize("2"), normalize("-8"), 10, POL)


def test_solve_integer_exponent_no_match():
    with pytest.raises(NoIntegerExponent):
        solve_integer_exponent(normalize("2"), normalize("1000"), 100, POL)
    with pytest.raises(NoIntegerExponent):
        solve_integer_exponent(normalize("2"), normalize("0.5"), 100, POL)
    # not even the first power of 0.5 reaches 0.9
    with pytest.raises(NoIntegerExponent):
        solve_integer_exponent(normalize("0.5"), normalize("0.9"), 10, POL)


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


def test_recover_stops_at_the_term_cap():
    # t = 1 + 1e-9: the second term, about 1e9, lies past MAX_TERM
    a = Context(prec=80).power(Decimal(2), 1 + Decimal("1e-9"))
    cf = recover_rational_exponent(normalize("2"), normalize(str(a)),
                                   policy=POL)
    assert cf == ContinuedFraction((1,), terminated=False)


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


def floor_by_powers(u: Decimal, v: Decimal, ctx: Context,
                    fuzz: Decimal) -> int:
    """Largest N with ctx.power(u, N) >= v*(1 - fuzz), each probe a fresh
    power: gallop by doubling, then bisect."""
    vt = ctx.multiply(v, ctx.subtract(1, fuzz))

    def reaches(n: int) -> bool:
        return ctx.power(u, Decimal(n)) >= vt

    lo, hi = 0, 1
    while reaches(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if reaches(mid) else (lo, mid)
    return lo


def test_floor_exponent_matches_power_by_power_reference():
    # u over decades and within 1e-9 of 1; v = u**k exact at the working
    # digits and nudged by 10**(10 - prec) either way, well inside the
    # fuzz; caps just below, at and above N, and natural_log's 10**17.
    # prec 30 is the oracle context of PrecisionPolicy(15).
    rng = random.Random(3303)
    pairs = 0
    for prec in (60, 30):
        ctx = PrecisionPolicy(prec // 2).oracle_ctx()
        fuzz = Decimal(1).scaleb(20 - prec)
        nudge = Decimal(1).scaleb(10 - prec)
        for _ in range(340):
            m = Decimal(rng.randrange(1, 10 ** 12)).scaleb(-12)
            if rng.random() < 0.5:
                u = ctx.multiply(m, Decimal(1).scaleb(-rng.randint(0, 40)))
                k = rng.randint(0, 300)
            else:
                u = ctx.subtract(1, m.scaleb(-rng.randint(0, 9)))
                k = int(10 ** rng.uniform(0, 6.5))
            exact = ctx.power(u, k)
            for v in (exact, ctx.multiply(exact, ctx.add(1, nudge)),
                      ctx.multiply(exact, ctx.subtract(1, nudge))):
                if v > 1:
                    continue
                n = floor_by_powers(u, v, ctx, fuzz)
                for cap in {max(n - 1, 0), n, n + 1, 10 ** 17}:
                    want = n if n <= cap else None
                    got = _floor_exponent(
                        u, ctx.multiply(v, ctx.subtract(1, fuzz)), ctx, cap)
                    assert got == want, (prec, u, v, cap)
                pairs += 1
    assert pairs >= 2000


@pytest.mark.parametrize("x, a, policy, want", [
    ("1.622521",
     "13.4825799712363220243368839665079564217904530096376071739258",
     POL, ContinuedFraction((5, 2, 1, 2), True)),
    ("1.874101",
     "23467736847222363865623063995.4845850846051463553636705705944",
     PrecisionPolicy(15), ContinuedFraction((104,), False)),
])
def test_exact_recovery_residual_is_a_fresh_quotient(x, a, policy, want):
    # With cf_tol = 0 these residuals w = v / u**n sit where a w taken
    # from the walk's chained product instead of ctx.power would round
    # across 1 and flip `terminated`.
    got = recover_rational_exponent(normalize(x), normalize(a),
                                    cf_tol=Decimal(0), max_depth=30,
                                    policy=policy)
    assert got == want


class CountingContext(Context):
    """A decimal context that counts its power and multiply calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = Counter()

    def power(self, *args, **kwargs):
        self.calls["power"] += 1
        return super().power(*args, **kwargs)

    def multiply(self, *args, **kwargs):
        self.calls["multiply"] += 1
        return super().multiply(*args, **kwargs)


def test_floor_exponent_cost_is_logarithmic():
    ctx = CountingContext(prec=60, rounding=ROUND_HALF_EVEN)
    n = 1_000_003
    u = Decimal("0.99999873")
    v = Context(prec=60).power(u, n)
    got = _floor_exponent(
        u, ctx.multiply(v, ctx.subtract(1, Decimal("1e-40"))), ctx, 10 ** 12)
    assert got == n
    assert ctx.calls["power"] == 0
    assert ctx.calls["multiply"] <= 2 * math.ceil(math.log2(n)) + 2


@pytest.mark.parametrize("x, a, depth, want", [
    ("2", oracle_power("2", 1971, 181), 16, (10, 1, 8, 20)),
    ("3", normalize("4.72880438783741494789428334041600536683971642425484"),
     8, (1, 2, 2, 2, 2, 2, 2, 2)),
    ("1.622521", normalize(
        "13.4825799712363220243368839665079564217904530096376071739258"),
     16, (5, 2, 1, 2)),
], ids=["1971/181", "sqrt 2", "5 2 1 2"])
def test_recovery_raises_no_power_for_a_unit_term(monkeypatch, x, a, depth,
                                                  want):
    # u**1 is u rounded once: the residual takes ctx.plus, not ctx.power
    ctx = CountingContext(prec=60, rounding=ROUND_HALF_EVEN)
    monkeypatch.setattr(PrecisionPolicy, "oracle_ctx", lambda self: ctx)
    cf = recover_rational_exponent(normalize(x), a, max_depth=depth,
                                   policy=POL)
    assert cf.terms == want
    assert ctx.calls["power"] == sum(t > 1 for t in cf.terms)


@pytest.mark.parametrize("prec", [30, 60])
def test_power_to_one_is_plus(prec):
    # bit for bit, with the coefficient and exponent of each result, for
    # operands of fewer and of more digits than the context holds
    rng = random.Random(3636 + prec)
    ctx = Context(prec=prec, rounding=ROUND_HALF_EVEN)
    for _ in range(4000):
        digits = rng.randint(5, 120)
        u = Decimal(rng.randrange(10 ** (digits - 1), 10 ** digits)).scaleb(
            rng.randint(-40, 5) - digits)
        assert ctx.power(u, Decimal(1)).as_tuple() == ctx.plus(u).as_tuple()
