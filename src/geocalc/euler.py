"""Euler's number from a cascade, and logarithms built on it.

A cascade with cos C = n/(n+1) and unit perpendicular has depth-n length
(n/(n+1))**n = 1/(1+1/n)**n, so its reciprocal walks the classic
compound-interest approach to e from below.  Natural logs are exponent
recoveries against that internal base; antilog runs the recovery
backwards, raising a root of that base by one cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

from .cascade import _cascade_power, multiply, power, reciprocal
from .errors import DomainError
from .exponents import evaluate_cf, recover_rational_exponent
from .numcore import (_ONE, _TENTH, DEFAULT_POLICY, PrecisionPolicy,
                      SignedScaled)
from .roots import RootQuery, nth_root

INTERNAL_E_STEPS = 10 ** 8
_CONVERGENT_DEN_CAP = 10 ** 9


@lru_cache(maxsize=16)
def _e_ref(digits: int) -> Decimal:
    """e with 10 guard digits over `digits`, for the error bound only."""
    return Context(prec=digits + 10).exp(_ONE)


@dataclass(frozen=True)
class EulerApprox:
    """One rung of the (1+1/n)**n ladder with its error bound;
    approximate_e checks that n_steps >= 1 and that value < e."""

    n_steps: int
    value: Decimal
    error_bound: Decimal


def approximate_e(n_steps: int,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> EulerApprox:
    """(1 + 1/n)**n via the cascade with cos C = n/(n+1), with the bound
    e/(2n).  Refuses n_steps < 1, and a value not below e."""
    if n_steps < 1:
        raise DomainError("n_steps must be at least 1")
    # Rounding n/(n+1) costs about n * 10**-p relative after the n-th
    # power, but the bound e/(2n) has only about 11e/(24n**2) of slack,
    # so the working digits grow like 3*log10(n); below 10**9 the
    # policy's 30 digits already suffice.
    ctx = policy.ctx()
    ctx.prec = max(ctx.prec, 3 * (len(str(n_steps)) - 1) + 6)
    n = Decimal(n_steps)
    cos_c = ctx.divide(n, ctx.add(n, _ONE))
    p_n = ctx.power(cos_c, n)
    value = ctx.divide(_ONE, p_n)
    e = _e_ref(ctx.prec)
    if not value < e:
        raise DomainError("approximation must stay below e")
    bound = ctx.divide(e, Decimal(2 * n_steps))
    return EulerApprox(n_steps=n_steps, value=value, error_bound=bound)


@lru_cache(maxsize=8)
def internal_e(policy: PrecisionPolicy = DEFAULT_POLICY) -> SignedScaled:
    """The package's own Euler base (1 + 1e-8)**1e8, built once per policy."""
    return SignedScaled.from_decimal(
        approximate_e(INTERNAL_E_STEPS, policy).value)


def natural_log(a: SignedScaled,
                policy: PrecisionPolicy = DEFAULT_POLICY) -> Decimal:
    """ln(a) relative to the internal Euler base (bias below 2e-8).

    The exponent walk runs to DEFAULT_MAX_DEPTH terms, each at most
    10**17, so a value closer to 1 than about 10**-17 is refused: its
    term after the leading 0 passes the cap.  Returns a plain Decimal: a
    logarithm, unlike a cascade length, can legitimately be zero.
    """
    if a.sign < 0:
        raise DomainError("logarithm of a negative value")
    if a.is_unit:
        return Decimal(0)
    if a.value() < 1:
        return natural_log(reciprocal(a, policy=policy),
                           policy=policy).copy_negate()
    cf = recover_rational_exponent(internal_e(policy), a, policy=policy,
                                   max_term=10 ** 17)
    val = evaluate_cf(cf)
    ctx = policy.ctx()
    return ctx.divide(Decimal(val.numerator), Decimal(val.denominator))


def antilog(t: Decimal,
            policy: PrecisionPolicy = DEFAULT_POLICY) -> SignedScaled:
    """exp(t) for a Decimal exponent, via the internal base."""
    if t == 0:
        return SignedScaled(1, _TENTH, 1)
    if t < 0:
        pos = antilog(t.copy_negate(), policy=policy)
        return reciprocal(pos, policy=policy)
    e = internal_e(policy)
    ctx = policy.ctx()
    whole = int(t)
    frac = ctx.subtract(t, Decimal(whole))
    if frac == 0:
        return power(e, whole, policy=policy)
    # cap the convergent denominator so the root index stays tractable;
    # the replacement error is below 1e-9 relative
    approx = Fraction(frac).limit_denominator(_CONVERGENT_DEN_CAP)
    p, q = approx.numerator, approx.denominator
    part = SignedScaled(1, _TENTH, 1)  # p = 0: frac rounded to 0
    if p:
        # e**(p/q), 0 < p <= q: e's qth root raised to p by one cascade
        root = nth_root(RootQuery(e, q), policy=policy)
        part = _cascade_power(1, root.mantissa, root.exponent, p, policy, None)
    if whole == 0:
        return part
    return multiply(power(e, whole, policy=policy), part, policy=policy)
