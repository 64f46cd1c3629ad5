"""Roots and rational powers driven by cosine search."""

import math
import random
from decimal import Context, Decimal

import pytest

from geocalc import (DEFAULT_POLICY, DomainError, EvenRootOfNegative,
                     GeocalcError, PrecisionPolicy, RootQuery,
                     TraceRecorder, antilog, geometric_mean, normalize,
                     nth_root, oracle_eval, power, rational_power,
                     solve_cos_power)
from geocalc import numcore, roots
from geocalc.numcore import (_NEG_INF, _ONE, _POS_INF, bisect,
                             cosine_bracket, newton_window, shift10)
from geocalc.roots import _assert_root_between
from conftest import rel_diff

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


@pytest.mark.parametrize("policy", [POL, PrecisionPolicy(40)])
def test_residue_cosine_is_a_fresh_search(policy):
    # the cached residue cosine, on its first call and on a repeat, is
    # what the search on 10**-r returns afresh
    roots._residue_cosine.cache_clear()
    ctx = policy.ctx()
    for n in range(2, 41):
        for r in range(1, n):
            want = solve_cos_power(n, shift10(_ONE, -r), ctx)
            assert roots._residue_cosine(n, r, policy) == want, (n, r)
            assert roots._residue_cosine(n, r, policy) == want, (n, r)


def test_residue_cache_is_keyed_on_the_index_and_residue_only():
    # 500 radicands, each a new mantissa, leave one entry per residue
    # (n, r) with r != 0: at most 1 + 2 + ... + 11 = 66 for n in 2..12
    roots._residue_cosine.cache_clear()
    rng = random.Random(2828)
    residues = set()
    for _ in range(500):
        x = normalize(f"0.{rng.randrange(10 ** 11, 10 ** 12)}"
                      f"e{rng.randint(-30, 30)}")
        n = rng.randint(2, 12)
        nth_root(RootQuery(x, n), POL)
        if x.exponent % n:
            residues.add((n, x.exponent % n))
    size = roots._residue_cosine.cache_info().currsize
    assert size == len(residues) <= 66


def test_root_trace_ends_with_cosine_measure():
    rec = TraceRecorder()
    nth_root(RootQuery(normalize("0.5972e25"), 6), POL, recorder=rec)
    kinds = [s.kind for s in rec.steps]
    assert "rotate-hypotenuse" in kinds
    assert rec.steps[-1].kind == "measure-length"
    assert rec.steps[-1].values[0] == "cosine"


def test_solve_cos_power_matches_oracle():
    target = Decimal("0.4")
    c = solve_cos_power(5, target, POL.ctx())
    want = ORACLE_CTX.power(target, ORACLE_CTX.divide(Decimal(1), Decimal(5)))
    assert rel_diff(c, want, ORACLE_CTX) <= Decimal("1e-25")


@pytest.mark.parametrize("n, target", [(1, "1e-20"), (1, "1e-400"),
                                       (2, "1e-700"), (3, "0.99e-45")])
def test_solve_cos_power_rejects_a_root_below_the_bracket_floor(n, target):
    # the root lies below 1e-15, the bottom of the cosine bracket, which
    # the search used to return as if it were the root
    with pytest.raises(DomainError, match="floor"):
        solve_cos_power(n, Decimal(target), POL.ctx())


def test_solve_cos_power_reaches_the_bracket_floor():
    c = solve_cos_power(2, Decimal("1e-30"), POL.ctx())
    assert rel_diff(c, Decimal("1e-15"), ORACLE_CTX) <= POL.rel_tol


def _reference_solve_cos_power(n, target, ctx):
    """The root search without the Newton window's edges: Newton's point
    first, then a power at every midpoint of the bracket cut to the
    window."""
    if not (0 < target < 1):
        raise DomainError("bisection target must be in (0, 1)")
    nn, unit = Decimal(n), shift10(_ONE, 1 - ctx.prec)
    tol = ctx.multiply(unit, target)

    def side(c, i):
        p = ctx.power(c, nn)
        if ctx.subtract(p, target).copy_abs() <= tol:
            return 0
        return 1 if p > target else -1

    lo, hi = cosine_bracket(target, nn, ctx)
    window = newton_window(n, target, ctx)
    if window:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    return bisect(side, lo, hi, ctx, "root",
                  lambda lo, hi: ctx.subtract(hi, lo)
                  <= ctx.multiply(unit, lo),
                  window and (_NEG_INF, _POS_INF) + window[2:])[0]


def _search_outcome(search, n, target, ctx):
    try:
        return str(search(n, target, ctx))
    except GeocalcError as exc:
        return type(exc).__name__


def test_newton_window_leaves_every_search_bit_identical():
    rng = random.Random(1313)
    cases = 0
    for digits in (30, 50, 62):
        ctx = PrecisionPolicy(digits).ctx()
        for n in (1, 2, 3, 5, 7, 9, 11, 12, 40, 300, 12345, 99991,
                  999999937):
            for _ in range(6):  # rounds of targets, from one seeded rng
                targets = [Decimal(f"0.{rng.randrange(10 ** 11, 10 ** 12)}")
                           for _ in range(2)]
                targets += [Decimal("0." + "9" * rng.randint(1, digits + 2))
                            for _ in range(2)]
                if n > 1:
                    targets.append(shift10(_ONE, -rng.randint(1, n - 1)))
                for target in targets:
                    want = _search_outcome(_reference_solve_cos_power, n,
                                           target, ctx)
                    got = _search_outcome(solve_cos_power, n, target, ctx)
                    assert got == want, (digits, n, str(target))
                    cases += 1
    assert cases == 3 * 6 * (13 * 5 - 1)


def test_newton_window_carries_a_point_with_every_window():
    # the point is r rounded under ctx; at small n it lies inside the
    # window, at large n the window can be narrower than one unit
    rng = random.Random(1316)
    windows = 0
    for digits in (15, 30, 62):
        ctx = PrecisionPolicy(digits).ctx()
        for n in (1, 2, 3, 12, 40, 12345, 999999937, 10 ** 300):
            for _ in range(10):
                target = Decimal(f"0.{rng.randrange(10 ** 11, 10 ** 12)}")
                window = newton_window(n, target, ctx)
                if window is None:
                    continue
                below, above, point = window
                assert point is not None and ctx.plus(point) == point
                assert below <= above
                if n <= 12:
                    assert below < point < above
                windows += 1
    assert windows == 3 * 8 * 10


def _searches(monkeypatch, run):
    """run(); then, for every engine search it made, (side, window, the
    side calls, [bisect's result] or [] if it raised).  The residue cache
    starts empty, so the searches do not depend on earlier tests."""
    roots._residue_cosine.cache_clear()
    searches = []

    def recording(side, lo, hi, ctx, what, collapsed, window=None,
                  draw=None):
        calls, result = [], []
        searches.append((side, window, calls, result))

        def counted(c, i):
            calls.append(c)
            return side(c, i)
        result.append(bisect(counted, lo, hi, ctx, what, collapsed, window,
                             draw))
        return result[0]
    monkeypatch.setattr(numcore, "bisect", recording)
    run()
    return searches


def _search_corpus():
    """Root, powfrac and rotating-mean calls over random 12-digit operands,
    with root indices 2..12 and powfrac indices 2..7."""
    rng = random.Random(2626)

    def number():
        return normalize(f"0.{rng.randrange(10 ** 11, 10 ** 12)}"
                         f"e{rng.randint(-12, 12)}")
    for _ in range(75):
        nth_root(RootQuery(number(), rng.randint(2, 12)), POL)
        rational_power(number(), rng.randint(-9, 9) or 1, rng.randint(2, 7),
                       POL)
        geometric_mean(number(), number(), POL, method="rotate")


def test_searches_end_on_newtons_point(monkeypatch):
    """At the default policy almost every search ends on one side call, at
    Newton's point, and none returns a point side rejects."""
    searches = _searches(monkeypatch, _search_corpus)
    assert len(searches) >= 250
    one_call = [s for s in searches if len(s[2]) == 1]
    assert len(one_call) >= 0.95 * len(searches)
    for side, window, calls, [(c, lo, hi, accepted)] in searches:
        assert side(c, 0) == 0 or not accepted
        if len(calls) == 1:
            assert c == calls[0] == window[2] and accepted


def test_searches_past_newtons_point_end_in_its_window(monkeypatch):
    """Where side rejects Newton's point (one unit of c moves c**n by n
    units), the search cuts its bracket to the window.  Over root indices
    13..10**9 and antilog's two searches at n = 10**9, each search makes
    at most 3 side calls and ends inside the window rounded to ctx: on
    the point, or with the cut bracket inside the window.  A collapsed
    search returns that bracket's rounded midpoint (lo + hi)/2 clamped
    to [lo, hi]: when lo + hi rounds, the midpoint can land a unit or two
    outside the bracket."""
    ctx = POL.ctx()

    def run():
        rng = random.Random(2727)
        for _ in range(100):
            n = int(10 ** rng.uniform(math.log10(13), 9))
            nth_root(RootQuery(normalize(
                f"0.{rng.randrange(10 ** 11, 10 ** 12)}"
                f"e{rng.randint(-12, 12)}"), n), POL)
        antilog(Decimal("0.123456789"), POL)  # e**(123456789/10**9)
    searches = _searches(monkeypatch, run)
    assert len(searches) >= 150
    for side, (below, above, point), calls, [(c, lo, hi, accepted)] in (
            searches):
        assert len(calls) <= 3
        if accepted and c == point:
            assert below < c < above
        else:
            assert below <= lo < hi <= above
        if not accepted:
            assert c == min(max(ctx.divide(ctx.add(lo, hi), 2), lo), hi)
            assert lo <= c <= hi
        assert side(c, 0) == 0 or not accepted
    # at n = 10**9 the window is already collapsed: no halving at all
    for side, window, calls, [(c, lo, hi, accepted)] in searches[-2:]:
        assert calls == [window[2]] and not accepted
        assert (lo, hi) == window[:2]


def test_root_of_an_index_past_newtons_basin():
    # the seed 1 + expm1(ln(target)/n) keeps Newton in its basin at this
    # index too, so the search runs in its window
    x, n = normalize("0.1"), 9721136870520942972
    got = nth_root(RootQuery(x, n), POL)
    ctx = Context(prec=80)
    want = ctx.power(x.value(), ctx.divide(1, n))
    assert rel_diff(got.value(), want, ctx) <= POL.rel_tol


@pytest.mark.parametrize("n", [10 ** 400, 2 * 10 ** 308],
                         ids=["10^400", "2e308"])
def test_root_of_an_index_past_the_float_range(n):
    # the float seed cannot hold n, so there is no window: the bracketed
    # search alone must find the root
    x = normalize("0.5")
    assert newton_window(n, x.mantissa, POL.ctx()) is None
    got = nth_root(RootQuery(x, n), POL)
    assert rel(got, oracle_eval("root", (x, n), POL)) <= POL.rel_tol


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


def test_root_far_outside_the_interval_is_rejected():
    x = normalize("1.51916535023")
    for forged in ("0.99", "1.52", "0.5", "3"):
        with pytest.raises(DomainError, match="monotonicity interval"):
            _assert_root_between(x, normalize(forged), POL)
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
