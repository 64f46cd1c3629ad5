"""Exponent recovery: which power of x gives a?

Integer exponents come from stepping a cascade until it meets the
target.  Rational exponents m/n come from the Euclidean idea applied to
exponents: find the largest N with x**N still short of a, by repeated
squaring and one multiply per bit, divide out, and recurse on the
residual with the roles of base and target swapped.  The partial
quotients form a continued fraction for m/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction

from .errors import DomainError, NoIntegerExponent
from .numcore import (_ONE, DEFAULT_POLICY, Interval, PrecisionPolicy,
                      SignedScaled, shift10)

MAX_TERM = 10 ** 6
DEFAULT_MATCH_TOL = Decimal("1e-9")
DEFAULT_CF_TOL = Decimal("1e-12")
DEFAULT_MAX_DEPTH = 16


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients [N; N1, N2, ...] plus a termination flag.

    `terminated` means the recursion closed exactly (residual hit 1
    within tolerance); otherwise the listing is a truncation.
    """

    terms: tuple[int, ...]
    terminated: bool

    def __post_init__(self):
        if not self.terms:
            raise DomainError("a continued fraction needs at least one term")
        if self.terms[0] < 0:
            raise DomainError("leading term must be >= 0")
        if any(t < 1 for t in self.terms[1:]):
            raise DomainError("terms after the first must be >= 1")

    def to_text(self) -> str:
        head = str(self.terms[0])
        if len(self.terms) == 1:
            return f"[{head}]"
        return f"[{head}; " + ", ".join(str(t) for t in self.terms[1:]) + "]"


def evaluate_cf(cf: ContinuedFraction) -> Fraction:
    """Exact value by back-substitution from the last term."""
    num, den = cf.terms[-1], 1
    for t in reversed(cf.terms[:-1]):
        num, den = t * num + den, num
    return Fraction(num, den)


def _floor_exponent(u: Decimal, vt: Decimal, ctx: Context,
                    cap: int) -> int | None:
    """Largest N >= 0 with u**N >= vt, for 0 < u < 1 and 0 < vt <= 1.
    vt is the target fuzzed to v*(1 - fuzz), so an exact boundary is a
    hit; the walk forms it once, shared with the residual check before
    it.  Returns None when N would exceed `cap`.

    Binary powering (Knuth, TAOCP vol. 2, 4.6.3): gallop by squaring,
    keeping each u**k, k = 2**j, that still reaches vt, then descend from
    the top square with one multiply per bit; no power is raised anew.
    Each square doubles its factor's relative error, so a chained u**n
    is within about n + 2*log2(n) half-units of the exact power: about
    10**(18 - prec) for n up to 2*10**17, twice natural_log's cap, a
    factor of 100 below a `fuzz` of 10**(20 - prec) at any precision.
    Every comparison therefore decides as ctx.power(u, n) would, and an
    exact hit u**N == v still sits a whole `fuzz` above vt.
    """
    mul = ctx.multiply
    p = ctx.plus(u)
    if p < vt:
        return 0
    squares, n = [], 1  # p is u**n; squares holds each (u**k, k) below
    while True:
        q = mul(p, p)
        if q < vt:
            break
        squares.append((p, n))
        p, n = q, n + n
        if n > cap:
            return None
    for s, k in reversed(squares):
        q = mul(p, s)
        if q >= vt:
            n, p = n + k, q
    return n if n <= cap else None


def solve_integer_exponent(x: SignedScaled, a: SignedScaled, max_n: int,
                           policy: PrecisionPolicy = DEFAULT_POLICY) -> int:
    """Integer n in [1, max_n] with x**n == a to DEFAULT_MATCH_TOL, else
    error."""
    if max_n < 1:
        raise DomainError("max_n must be at least 1")
    ctx = policy.oracle_ctx()
    xd, ad = x.value().copy_abs(), a.value().copy_abs()
    if xd == 1:
        raise DomainError("base magnitude 1 cannot reach a target")
    # orient both below 1 so the cascade length shrinks with n
    if xd > 1:
        u, v = ctx.divide(_ONE, xd), ctx.divide(_ONE, ad)
    else:
        u, v = xd, ad
    if not (0 < v <= 1):
        raise NoIntegerExponent(
            "target is on the wrong side of 1 for this base")
    vt = ctx.multiply(v, ctx.subtract(_ONE, shift10(_ONE, 20 - ctx.prec)))
    floor_n = _floor_exponent(u, vt, ctx, max(max_n * 2, 8))
    candidates = []
    if floor_n is not None:
        candidates = [n for n in (floor_n, floor_n + 1) if 1 <= n <= max_n]
    tol = ctx.multiply(DEFAULT_MATCH_TOL, v)
    for n in candidates:
        # a's sign must be that of x**n
        if (a.sign == (x.sign if n % 2 else 1) and ctx.subtract(
                ctx.power(u, Decimal(n)), v).copy_abs() <= tol):
            return n
    raise NoIntegerExponent(
        f"no exponent in [1, {max_n}] matches within {DEFAULT_MATCH_TOL}")


def first_level(x: SignedScaled, a: SignedScaled, ctx: Context
                ) -> tuple[Decimal, Decimal, list[int]]:
    """(u, v, terms) that start the walk of t with x**t == a, on the engine
    and the device alike: x and a, both inverted when above 1, then
    swapped behind a 0 term when t < 1.  Raises unless both are positive,
    neither is 1, and they sit on the same side of 1."""
    xd, ad = x.value(), a.value()
    if xd <= 0 or ad <= 0:
        raise DomainError("exponent recovery needs positive values")
    if xd == 1 or ad == 1:
        raise DomainError("exponent recovery is degenerate at 1")
    if (xd > 1) != (ad > 1):
        raise DomainError("base and target must sit on the same side of 1")
    u, v = ((ctx.divide(_ONE, xd), ctx.divide(_ONE, ad)) if xd > 1
            else (xd, ad))
    return (v, u, [0]) if v > u else (u, v, [])


def cf_interval(terms: list[int], tail: Interval) -> Interval:
    """Outward interval of [t0; t1, ..., tk, r] for r in `tail`, by
    back-substituting level = t + 1/level from the last term."""
    one, level = Interval.point(_ONE), tail
    for t in reversed(terms):
        level = Interval.point(Decimal(t)).add(one.div(level))
    return level


def recover_rational_exponent(x: SignedScaled, a: SignedScaled,
                              max_depth: int = DEFAULT_MAX_DEPTH,
                              cf_tol: Decimal = DEFAULT_CF_TOL,
                              policy: PrecisionPolicy = DEFAULT_POLICY,
                              max_term: int = MAX_TERM) -> ContinuedFraction:
    """Continued fraction of the exponent t with x**t == a.

    Requires x and a on the same side of 1 (positive exponent).  When
    the exponent is below 1 the listing starts with a 0 term.  Each
    level's u*(1 - fuzz) floors the residual w = v/u**n and is the next
    level's threshold.  A unit term divides by ctx.plus(u), which is
    ctx.power(u, 1) bit for bit: w rounds as a fresh power's quotient.
    """
    if max_depth < 1:
        raise DomainError("max_depth must be at least 1")
    if not (0 <= cf_tol < 1):
        raise DomainError("cf_tol must be in [0, 1)")
    ctx = policy.oracle_ctx()
    u, v, terms = first_level(x, a, ctx)
    keep = ctx.subtract(_ONE, shift10(_ONE, 20 - ctx.prec))  # 1 - fuzz
    vt = ctx.multiply(v, keep)
    terminated = False
    while len(terms) < max_depth:
        n = _floor_exponent(u, vt, ctx, max_term)
        if n is None:
            break
        if n == 0:
            raise DomainError("internal: residual ordering violated")
        terms.append(n)
        w = ctx.divide(v, ctx.plus(u) if n == 1 else ctx.power(u, Decimal(n)))
        if w > 1:  # fuzzed boundary: clamp
            w = _ONE
        if ctx.subtract(w, _ONE).copy_abs() <= cf_tol:
            terminated = True
            break
        vt = ctx.multiply(u, keep)  # the old base: w's floor, next target
        if w < vt:
            raise DomainError("internal: residual left its interval")
        u, v = w, u
    if not terms:
        raise DomainError(f"exponent's leading term above cap {max_term}")
    if terms == [0]:  # t < 1, and the walk stopped before its next term
        raise DomainError(f"depth {max_depth} ends at the exponent's leading 0"
                          if max_depth == 1 else "exponent's term after the "
                          f"leading 0 above cap {max_term}")
    if terminated and len(terms) > 1 and terms[-1] == 1:
        # canonical form: fold a trailing 1 into the previous term
        terms[-2] += 1
        terms.pop()
    return ContinuedFraction(tuple(terms), terminated)


def recover_exponent_via_logs(x: SignedScaled, a: SignedScaled,
                              policy: PrecisionPolicy = DEFAULT_POLICY
                              ) -> tuple[ContinuedFraction, ContinuedFraction,
                                         SignedScaled]:
    """log_x(a) as a ratio of two natural-log recoveries to a common base.

    Both logarithms run against the internally constructed Euler base, so
    the base bias cancels in the ratio.
    """
    from .euler import internal_e  # local import: euler builds on cascades

    e = internal_e(policy)
    p_cf = recover_rational_exponent(e, a, policy=policy)
    q_cf = recover_rational_exponent(e, x, policy=policy)
    p = evaluate_cf(p_cf)
    q = evaluate_cf(q_cf)
    ctx = policy.ctx()
    ratio = ctx.divide(Decimal(p.numerator * q.denominator),
                       Decimal(p.denominator * q.numerator))
    return p_cf, q_cf, SignedScaled.from_decimal(ratio)
