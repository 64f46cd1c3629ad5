"""Roots and rational powers by angle search.

An nth root is the cascade run in reverse: find the apex cosine whose
depth-n perpendicular equals the radicand mantissa.  The objective
cos**n C is monotone on (0, 1), so a bracketed bisection suffices, once
Newton's point has been tried.  The radicand's exponent splits as
E = n*k + r; the 10**(r/n) residue is itself a root search on 10**-r,
a fixed scale built once per (n, r, policy), like euler.internal_e.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from functools import lru_cache, partial

from .cascade import draw_power, multiply, power
from .errors import DomainError
from .numcore import (_ONE, _TENTH, DEFAULT_POLICY, PrecisionPolicy,
                      SignedScaled, check_rational_power, check_root,
                      renormalized, search_cosine, shift10)
from .trace import TraceRecorder

_RESIDUE_CACHE_SIZE = 256


@dataclass(frozen=True)
class RootQuery:
    """Radicand and index of an nth root."""

    radicand: SignedScaled
    index: int

    def __post_init__(self):
        check_root(self.radicand, self.index)


def solve_cos_power(n: int, target: Decimal, ctx: Context,
                    recorder: TraceRecorder | None = None) -> Decimal:
    """Cosine c with c**n == target, 0 < target < 1, by
    numcore.search_cosine: side accepts c when |c**n - target| <=
    u*target, u = 10**(1 - prec) one unit of ctx."""
    if not (0 < target < 1):
        raise DomainError("bisection target must be in (0, 1)")
    if target.adjusted() < -15 * n:  # target < 10**(-15n)
        raise DomainError(f"index {n} root of {target} lies below the "
                          "cosine bracket's floor 1e-15")
    ctx_pow, ctx_sub = ctx.power, ctx.subtract
    nn = Decimal(n)
    tol = ctx.multiply(shift10(_ONE, 1 - ctx.prec), target)

    def side(c, i):
        p = ctx_pow(c, nn)
        if ctx_sub(p, target).copy_abs() <= tol:
            return 0
        return 1 if p > target else -1

    draw = None if recorder is None else partial(recorder.rotate, "C")
    return search_cosine(side, n, target, ctx, "root", draw)


@lru_cache(maxsize=_RESIDUE_CACHE_SIZE)
def _residue_cosine(n: int, r: int, policy: PrecisionPolicy) -> Decimal:
    """The untraced cosine c with c**n == 10**-r, so 10**(r/n) = 1/c."""
    return solve_cos_power(n, shift10(_ONE, -r), policy.ctx())


def nth_root(query: RootQuery,
             policy: PrecisionPolicy = DEFAULT_POLICY,
             recorder: TraceRecorder | None = None) -> SignedScaled:
    """Principal nth root (negative radicand allowed for odd n).  The
    residue 10**(r/n) comes from _residue_cosine, once per (n, r, policy)."""
    x, n = query.radicand, query.index
    if n == 1 or x.is_unit:
        return x  # n == 1 or |x| == 1: the root is x itself
    ctx = policy.ctx()
    k, r = divmod(x.exponent, n)
    c_m = solve_cos_power(n, x.mantissa, ctx, recorder)
    if recorder is not None:
        # verification cascade at the accepted angle
        draw_power(c_m, n, policy, recorder)
        recorder.measure("cosine", c_m)
    if r:
        mant = ctx.divide(c_m, _residue_cosine(n, r, policy))
    else:
        mant = c_m
    result = renormalized(x.sign, mant, k)
    _assert_root_between(x, result, policy)
    return result


def _assert_root_between(x: SignedScaled, root: SignedScaled,
                         policy: PrecisionPolicy):
    """A root of |x| != 1 lies between |x| and 1, up to the factor
    (1 + rel_tol)/(1 - rel_tol) that its two cosine searches explain."""
    ctx, t = policy.oracle_ctx(), policy.rel_tol
    slack = ctx.divide(ctx.add(_ONE, t), ctx.subtract(_ONE, t))
    xm = x.value().copy_abs()
    lo, hi = (xm, _ONE) if xm < 1 else (_ONE, xm)
    if not (ctx.divide(lo, slack) < root.value().copy_abs()
            < ctx.multiply(hi, slack)):
        raise DomainError("root escaped the monotonicity interval")


def rational_power(x: SignedScaled, m: int, n: int,
                   policy: PrecisionPolicy = DEFAULT_POLICY,
                   recorder: TraceRecorder | None = None,
                   strategy: str = "compose") -> SignedScaled:
    """x**(m/n) with n >= 1; negative x requires odd n, and x**m must
    pass check_power whatever the strategy."""
    check_rational_power(x, m, n)
    if m == 0:
        return SignedScaled(1, _TENTH, 1)
    if strategy == "compose":
        y = power(x, m, policy=policy, recorder=recorder)
        return nth_root(RootQuery(y, n), policy=policy, recorder=recorder)
    if strategy == "split":
        # m/n = m1 + m2/n with 0 <= m2 < n, so only a sub-unit root is
        # raised to a power below the index
        m1, m2 = divmod(m, n)
        root = (nth_root(RootQuery(x, n), policy=policy, recorder=recorder)
                if m2 else None)
        frac = (power(root, m2, policy=policy, recorder=recorder)
                if m2 and m2 != 1 else root)
        whole = (power(x, m1, policy=policy, recorder=recorder)
                 if m1 else None)
        if whole is None:
            return frac
        if frac is None:
            return whole
        return multiply(whole, frac, policy=policy, recorder=recorder)
    raise DomainError(f"unknown strategy {strategy!r}")
