"""Roots and rational powers driven by cosine search."""

import random
from decimal import Context, Decimal

import pytest

from geocalc import (DEFAULT_POLICY, DomainError, EvenRootOfNegative,
                     GeocalcError, PrecisionPolicy, RootQuery, TraceRecorder,
                     normalize, nth_root, oracle_eval, power, rational_power,
                     rel_diff, solve_cos_power)
from geocalc.numcore import (_ONE, bisect, cosine_bracket, newton_window,
                             shift10)
from geocalc.roots import _assert_root_between

POL = DEFAULT_POLICY
ORACLE_CTX = POL.oracle_ctx()


def rel(got, want) -> Decimal:
    return rel_diff(got.value(), want.value(), ORACLE_CTX)


def test_exact_roots():
    for text, n, want in [("4", 2, "2"), ("27", 3, "3"), ("0.25", 2, "0.5"),
                          ("1024", 10, "2")]:
        got = nth_root(RootQuery(normalize(text), n), POL)
        assert rel_diff(got.value(), Decimal(want),
                        ORACLE_CTX) <= Decimal("1e-25")


def test_root_of_negative_radicand():
    got = nth_root(RootQuery(normalize("-8"), 3), POL)
    assert got.sign == -1
    assert rel_diff(got.value(), Decimal(-2), ORACLE_CTX) <= Decimal("1e-25")
    with pytest.raises(EvenRootOfNegative):
        nth_root(RootQuery(normalize("-4"), 2), POL)


def test_root_index_one_is_identity():
    x = normalize("0.37e5")
    assert nth_root(RootQuery(x, 1), POL) == x


def test_root_index_must_be_positive():
    with pytest.raises(DomainError):
        nth_root(RootQuery(normalize("2"), 0), POL)
    with pytest.raises(DomainError):
        nth_root(RootQuery(normalize("2"), -3), POL)


def test_sixth_root_worked_value():
    # frozen from a 60-digit reference computation
    want = Decimal("13469.5566088142231314550250910414987657")
    got = nth_root(RootQuery(normalize("0.5972e25"), 6), POL)
    assert rel_diff(got.value(), want, ORACLE_CTX) <= Decimal("1e-20")


def test_root_exponent_residue_paths():
    # exponent not divisible by the index exercises the residue factor
    for text, n in [("1e7", 3), ("2.5e11", 5), ("0.004", 7), ("3.1e-8", 4)]:
        x = normalize(text)
        got = nth_root(RootQuery(x, n), POL)
        want = oracle_eval("root", (x, n), POL)
        assert rel(got, want) <= Decimal("1e-20")


def test_root_trace_ends_with_cosine_measure():
    rec = TraceRecorder()
    nth_root(RootQuery(normalize("0.5972e25"), 6), POL, recorder=rec)
    kinds = [s.kind for s in rec.steps]
    assert "rotate-hypotenuse" in kinds
    assert rec.steps[-1].kind == "measure-length"
    assert rec.steps[-1].values[0] == "cosine"


def test_solve_cos_power_matches_oracle():
    target = Decimal("0.4")
    c = solve_cos_power(5, target, POL.ctx(), POL.rel_tol)
    want = ORACLE_CTX.power(target, ORACLE_CTX.divide(Decimal(1), Decimal(5)))
    assert rel_diff(c, want, ORACLE_CTX) <= Decimal("1e-25")


@pytest.mark.parametrize("n, target", [(1, "1e-20"), (1, "1e-400"),
                                       (2, "1e-700"), (3, "0.99e-45")])
def test_solve_cos_power_rejects_a_root_below_the_bracket_floor(n, target):
    # the root lies below 1e-15, the bottom of the cosine bracket, which
    # the search used to return as if it were the root
    with pytest.raises(DomainError, match="floor"):
        solve_cos_power(n, Decimal(target), POL.ctx(), POL.rel_tol)


def test_solve_cos_power_reaches_the_bracket_floor():
    c = solve_cos_power(2, Decimal("1e-30"), POL.ctx(), POL.rel_tol)
    assert rel_diff(c, Decimal("1e-15"), ORACLE_CTX) <= POL.rel_tol


def _reference_solve_cos_power(n, target, ctx, rel_tol):
    """The root search without the Newton window: a power at every midpoint."""
    if not (0 < target < 1):
        raise DomainError("bisection target must be in (0, 1)")
    nn = Decimal(n)
    tol = ctx.multiply(rel_tol, target)

    def side(c, i):
        p = ctx.power(c, nn)
        if ctx.subtract(p, target).copy_abs() <= tol:
            return 0
        return 1 if p > target else -1

    lo, hi = cosine_bracket(target, nn, ctx)
    return bisect(side, lo, hi, ctx, "root",
                  lambda lo, hi: ctx.subtract(hi, lo)
                  <= ctx.multiply(rel_tol, lo))[0]


def _search_outcome(search, n, target, ctx, rel_tol):
    try:
        return str(search(n, target, ctx, rel_tol))
    except GeocalcError as exc:
        return type(exc).__name__


def test_newton_window_leaves_every_search_bit_identical():
    rng = random.Random(1313)
    cases = 0
    for digits in (30, 50, 62):
        ctx = PrecisionPolicy(digits).ctx()
        tols = [Decimal(1).scaleb(1 - digits), Decimal("1e-5"),
                Decimal("1e-12"), Decimal("0.3"), Decimal("0.9"),
                Decimal(1).scaleb(-digits - 3)]
        for n in (1, 2, 3, 5, 7, 9, 11, 12, 40, 300, 12345, 99991,
                  999999937):
            for rel_tol in tols:
                targets = [Decimal(f"0.{rng.randrange(10 ** 11, 10 ** 12)}")
                           for _ in range(2)]
                targets += [Decimal("0." + "9" * rng.randint(1, digits + 2))
                            for _ in range(2)]
                if n > 1:
                    targets.append(shift10(_ONE, -rng.randint(1, n - 1)))
                for target in targets:
                    want = _search_outcome(_reference_solve_cos_power, n,
                                           target, ctx, rel_tol)
                    got = _search_outcome(solve_cos_power, n, target, ctx,
                                          rel_tol)
                    assert got == want, (digits, n, str(rel_tol), str(target))
                    cases += 1
    assert cases == 3 * 6 * (13 * 5 - 1)


def test_loose_tolerance_search_gets_no_window():
    # at rel_tol 0.9999 side accepts 0.75**40 ~ 1e-5 for a target of
    # 0.0814, a midpoint below the window r(1 - 8*rel_tol/40) ~ 0.751
    ctx = POL.ctx()
    target = Decimal("0.0814425175230")
    for rel_tol in (Decimal("0.9999"), Decimal("0.99999")):
        assert newton_window(40, target, ctx, rel_tol) is None
        assert (solve_cos_power(40, target, ctx, rel_tol)
                == _reference_solve_cos_power(40, target, ctx, rel_tol)
                == Decimal("0.7499999999999995"))
    assert newton_window(40, target, ctx, Decimal("0.5")) is not None


def test_root_of_an_index_past_newtons_basin():
    # past about 10**16 Newton's float seed may leave its basin, and then
    # there is no window: the bracketed search alone must find the root
    x, n = normalize("0.1"), 9721136870520942972
    got = nth_root(RootQuery(x, n), POL)
    ctx = Context(prec=80)
    want = ctx.power(x.value(), ctx.divide(1, n))
    assert rel_diff(got.value(), want, ctx) <= POL.rel_tol


@pytest.mark.parametrize("text", ["0.9999999999999999", "0.99999999999999",
                                  "0.99999999999999999999"])
@pytest.mark.parametrize("n", [2, 3, 7, 14])
def test_root_of_a_radicand_next_to_one(text, n):
    # the root lies above 1 - 1e-15, the top of the usual cosine bracket
    x = normalize(text)
    got = nth_root(RootQuery(x, n), POL)
    assert rel(got, oracle_eval("root", (x, n), POL)) <= 2 * POL.rel_tol


def test_root_with_a_residue_past_the_default_exponent_range():
    # the residue 10**-r of 1e-5000000 lies below the default context's
    # exponent range
    x = normalize("1e-5000000")
    got = nth_root(RootQuery(x, 10 ** 7), POL)
    assert rel(got, oracle_eval("root", (x, 10 ** 7), POL)) <= 2 * POL.rel_tol


@pytest.mark.parametrize("text", ["1.00000000000000000000000000001",
                                  "0.99999999999999999999999999999"])
def test_root_rounding_onto_one_is_not_a_domain_error(text):
    # the 11th root lies within one working unit of 1 and rounds onto it
    x = normalize(text)
    got = nth_root(RootQuery(x, 11), POL)
    assert rel(got, oracle_eval("root", (x, 11), POL)) <= POL.rel_tol


def test_loose_tolerance_root_may_leave_the_interval():
    # at rel_tol 0.3 both cosine searches stop at 0.8125, so the root is
    # 1, just outside (1, x) but well within the tolerance of 1.0388...
    x = normalize("1.51916535023")
    loose = PrecisionPolicy(rel_tol=Decimal("0.3"))
    got = nth_root(RootQuery(x, 11), loose)
    assert rel(got, oracle_eval("root", (x, 11), POL)) <= loose.rel_tol


def test_root_far_outside_the_interval_is_rejected():
    x = normalize("1.51916535023")
    loose = PrecisionPolicy(rel_tol=Decimal("0.3"))
    for forged, policy in (("0.99", POL), ("1.52", POL), ("0.5", loose),
                           ("3", loose)):
        with pytest.raises(DomainError, match="monotonicity interval"):
            _assert_root_between(x, normalize(forged), policy)
    _assert_root_between(x, normalize("1.0388"), POL)


def test_rational_power_strategies_agree():
    cases = [("0.5972e25", 19, 7), ("2", 3, 2), ("81.274", -2, 3),
             ("0.004", 5, 4)]
    for text, m, n in cases:
        x = normalize(text)
        a = rational_power(x, m, n, POL, strategy="compose")
        b = rational_power(x, m, n, POL, strategy="split")
        assert rel_diff(a.value(), b.value(), ORACLE_CTX) <= Decimal("1e-10")
        want = oracle_eval("powfrac", (x, m, n), POL)
        assert rel(a, want) <= Decimal("1e-10")


def test_rational_power_worked_value():
    # frozen from a 60-digit reference computation
    want = Decimal("1.77610250174044150690047146817516100989822980612e67")
    got = rational_power(normalize("0.5972e25"), 19, 7, POL)
    assert rel_diff(got.value(), want, ORACLE_CTX) <= Decimal("1e-15")


def test_rational_power_reductions():
    x = normalize("7.3")
    whole = rational_power(x, 6, 3, POL)
    assert rel(whole, power(x, 2, POL)) <= Decimal("1e-20")
    half = rational_power(x, 2, 4, POL)
    root2 = nth_root(RootQuery(x, 2), POL)
    assert rel(half, root2) <= Decimal("1e-15")


def test_rational_power_split_with_an_index_dividing_m():
    # 3**(6/3): the split strategy takes no root when n divides m
    got = rational_power(normalize("3"), 6, 3, POL, strategy="split")
    assert got == normalize("9")


@pytest.mark.parametrize("text", ["3", "-2", "0.004"])
def test_rational_power_of_zero_m_is_one(text):
    x, one = normalize(text), normalize("1")
    for strategy in ("compose", "split"):
        assert rational_power(x, 0, 3, POL, strategy=strategy) == one
    assert oracle_eval("powfrac", (x, 0, 3), POL) == one


def test_rational_power_negative_exponent():
    x = normalize("2")
    got = rational_power(x, -3, 2, POL)
    want = oracle_eval("powfrac", (x, -3, 2), POL)
    assert rel(got, want) <= Decimal("1e-10")


def test_rational_power_domain_errors():
    with pytest.raises(EvenRootOfNegative):
        rational_power(normalize("-2"), 1, 2, POL)
    with pytest.raises(DomainError):
        rational_power(normalize("2"), 1, 0, POL)


def test_root_power_round_trip_seeded():
    rng = random.Random(606)
    for _ in range(60):
        x = normalize(f"0.{rng.randint(10**8, 10**9 - 1)}e{rng.randint(-5, 5)}")
        n = rng.randint(2, 9)
        y = power(x, n, POL)
        back = nth_root(RootQuery(y, n), POL)
        assert rel(back, x) <= Decimal("1e-10")
