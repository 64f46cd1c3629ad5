"""Perpendicular cascades inside a right triangle.

Dropping a perpendicular from the right-angle vertex of a right triangle
onto the hypotenuse, then another from its foot onto the base, and so on,
scales each successive segment by cos C.  With the working mantissa cast
as that cosine, repeated perpendiculars multiply; run backwards (unit
perpendicular, mantissa as a shorter segment) they divide; bisecting the
apex angle takes geometric means.  Exponents ride along as exact integer
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from functools import partial

from .errors import DegenerateAngle, DomainError
from .numcore import (_EXACT, _ONE, _TENTH, _TWO, DEFAULT_POLICY,
                      PrecisionPolicy, SignedScaled, check_power,
                      check_same_sign, renormalized, search_cosine, shift10)
from .trace import TraceRecorder, foot_label

# A trace draws a power's cascade foot by foot up to this depth; past
# it, the trace records only the angle and the depth.
VIRTUAL_DEPTH = 10 ** 4


def _check_cosine(cos_c: Decimal):
    if not (0 < cos_c < 1):
        raise DegenerateAngle(f"cosine {cos_c} leaves no acute angle")


@dataclass(frozen=True)
class Construction:
    """An assembled triangle: apex cosine, first perpendicular, depth."""

    cos_c: Decimal
    perpendicular: Decimal
    depth: int

    def __post_init__(self):
        _check_cosine(self.cos_c)
        if self.perpendicular <= 0:
            raise DomainError("perpendicular length must be positive")
        if self.depth < 1:
            raise DomainError("depth must be at least 1")


@dataclass(frozen=True)
class Cascade:
    """Lengths p_1..p_depth produced by a construction."""

    construction: Construction
    lengths: tuple[Decimal, ...]

    def validate(self, policy: PrecisionPolicy = DEFAULT_POLICY) -> bool:
        """Check p_{i+1}/p_i == cos C and p_1^2 == AB * p_2 within tolerance.

        Each ratio is tested without a quotient: |p - prev*cos C| <=
        ratio_tol*prev, with ratio_tol = 10*rel_tol*cos C, is p between
        prev*(cos C - ratio_tol) and prev*(cos C + ratio_tol).  Those
        products are exact (m- and n-digit factors have at most m + n
        digits), and p enters only a comparison.  The edges cos C -/+
        ratio_tol round outward to the oracle digits, which leaves them
        exact for a cosine of up to the working digits.
        """
        ctx = policy.oracle_ctx()
        c = self.construction
        tol = ctx.multiply(policy.rel_tol, 10)  # one guard digit
        ratio_tol = ctx.multiply(tol, c.cos_c)
        if len(self.lengths) >= 2:
            lhs = ctx.multiply(self.lengths[0], self.lengths[0])
            rhs = ctx.multiply(c.perpendicular, self.lengths[1])
            if ctx.subtract(lhs, rhs).copy_abs() > ctx.multiply(tol, rhs):
                return False
        ctx.rounding = ROUND_FLOOR
        below = ctx.subtract(c.cos_c, ratio_tol)
        ctx.rounding = ROUND_CEILING
        above = ctx.add(c.cos_c, ratio_tol)
        mul, prev = _EXACT.multiply, c.perpendicular
        for p in self.lengths:
            if not mul(prev, below) <= p <= mul(prev, above):
                return False
            prev = p
        return True


def build_cascade(construction: Construction,
                  policy: PrecisionPolicy = DEFAULT_POLICY,
                  recorder: TraceRecorder | None = None) -> Cascade:
    """Drop `depth` successive perpendiculars and record each length; a
    recorder draws the drops after the multiply loop, at those lengths."""
    mul, cos_c = policy.ctx().multiply, construction.cos_c
    p, lengths = construction.perpendicular, []
    for _ in range(construction.depth):
        p = mul(p, cos_c)
        lengths.append(p)
    if recorder is not None:
        recorder.angle(cos_c)
        prev = "B"
        for i, length in enumerate(lengths, 1):
            foot = foot_label(i)
            recorder.drop(prev, "CX" if i % 2 == 0 else "CA", foot, length)
            prev = foot
        recorder.measure(f"{prev}-perpendicular", p)
    return Cascade(construction=construction, lengths=tuple(lengths))


def draw_power(m: Decimal, n: int, policy: PrecisionPolicy,
               recorder: TraceRecorder):
    """Draw m**n's cascade, 0 < m < 1: foot by foot up to VIRTUAL_DEPTH,
    past it only its angle and depth.  Callers take m**n from ctx.power."""
    if n <= VIRTUAL_DEPTH:
        build_cascade(Construction(m, _ONE, n), policy, recorder)
    else:
        recorder.angle(m)
        recorder.measure("virtual-cascade", Decimal(n))


def power(x: SignedScaled, n: int,
          policy: PrecisionPolicy = DEFAULT_POLICY,
          recorder: TraceRecorder | None = None) -> SignedScaled:
    """x**n for integer n != 0: check_power's rule, once, a reciprocal
    first when n < 0, then the depth-|n| cascade of _cascade_power."""
    check_power(x, n)
    if n < 0:
        x, n = reciprocal(x, policy=policy, recorder=recorder), -n
    sign = -1 if (x.sign < 0 and n % 2) else 1
    return _cascade_power(sign, x.mantissa, x.exponent, n, policy, recorder)


def _cascade_power(sign: int, m: Decimal, exponent: int, n: int,
                   policy: PrecisionPolicy,
                   recorder: TraceRecorder | None) -> SignedScaled:
    """sign * (m * 10**exponent)**n for n >= 1 and m in [0.1, 1), with no
    rule check: a decade 0.1**n needs no geometry, any other m is the
    cosine of a depth-n cascade whose value is one ctx.power.  Range is
    SignedScaled's to refuse."""
    if m == _TENTH:
        return SignedScaled(sign, _TENTH, (exponent - 1) * n + 1)
    if recorder is not None:
        draw_power(m, n, policy, recorder)
    return renormalized(sign, policy.ctx().power(m, Decimal(n)), exponent * n)


def reciprocal(x: SignedScaled,
               policy: PrecisionPolicy = DEFAULT_POLICY,
               recorder: TraceRecorder | None = None,
               method: str = "angle") -> SignedScaled:
    """1/x.  Both methods set a cosine of 1/R with R = 10*mantissa in (1,10)."""
    if x.is_power_of_ten:
        return SignedScaled(x.sign, _TENTH, 2 - x.exponent)
    ctx = policy.ctx()
    hyp = shift10(x.mantissa, 1)  # in (1, 10)
    if method == "angle":
        cos_c = ctx.divide(_ONE, hyp)
        _check_cosine(cos_c)
        if recorder is not None:
            recorder.angle(cos_c)
            recorder.drop("B", "CA", "D", cos_c)
            recorder.measure("BD", cos_c)
        mant = cos_c
    elif method == "unit-perpendicular":
        # fix p2 = mantissa/10; then cos C = p2, p1 = 1 exactly, and
        # p1*p1 == AB*p2 recovers AB = 1/p2
        p2 = shift10(x.mantissa, -1)
        ab = ctx.divide(_ONE, p2)
        if recorder is not None:
            recorder.angle(p2)
            recorder.drop("B", "CA", "D", _ONE)
            recorder.drop("D", "CX", "E", p2)
            recorder.measure("AB", ab)
        return renormalized(x.sign, ab, -1 - x.exponent)
    else:
        raise DomainError(f"unknown reciprocal method {method!r}")
    return renormalized(x.sign, mant, 1 - x.exponent)


def _parity_adjust(a: SignedScaled, b: SignedScaled):
    """Return mantissas and a common half-exponent with even exponent sum.

    When the exponent sum is odd the operand with the larger exponent is
    rewritten a decade down, putting its mantissa in [0.01, 0.1).
    """
    m1, k1 = a.mantissa, a.exponent
    m2, k2 = b.mantissa, b.exponent
    if (k1 + k2) % 2:
        if k1 >= k2:
            m1, k1 = shift10(m1, -1), k1 + 1
        else:
            m2, k2 = shift10(m2, -1), k2 + 1
    return m1, m2, (k1 + k2) // 2


def geometric_mean(a: SignedScaled, b: SignedScaled,
                   policy: PrecisionPolicy = DEFAULT_POLICY,
                   recorder: TraceRecorder | None = None,
                   method: str = "bisect") -> SignedScaled:
    """sqrt(a*b): check_same_sign's rule, then _mean's construction under
    the operands' sign; both negative gives the negative mean."""
    check_same_sign(a, b)
    return renormalized(a.sign, *_mean(a, b, policy, recorder, method))


def _mean(a: SignedScaled, b: SignedScaled, policy: PrecisionPolicy,
          recorder: TraceRecorder | None,
          method: str = "bisect") -> tuple[Decimal, int]:
    """sqrt(|a|*|b|) as (raw mantissa, half-exponent), signs unread: the
    mean is mantissa * 10**half-exponent, the mantissa in [0.01, 1)."""
    m1, m2, half = _parity_adjust(a, b)
    if m1 == m2:
        # equal mantissas: the mean is the operand scale itself
        return m1, half
    ctx = policy.ctx()
    big, small = (m1, m2) if m1 > m2 else (m2, m1)
    if method == "bisect":
        # p2 = AB*cos(2C): halve that angle, BD = AB*cos(C)
        cos_full = ctx.divide(ctx.subtract(ctx.multiply(_TWO, small), big), big)
        cos_half = ctx.sqrt(ctx.divide(ctx.add(_ONE, cos_full), _TWO))
        _check_cosine(cos_half)
        bd = ctx.multiply(big, cos_half)
        if recorder is not None:
            recorder.angle(cos_full)
            recorder.bisect(cos_full, cos_half)
            recorder.drop("B", "CY", "D", bd)
            recorder.drop("D", "CX", "E", small)
            recorder.measure("BD", bd)
    elif method == "rotate":
        bd = _rotate_to_mean(big, small, ctx, recorder)
    else:
        raise DomainError(f"unknown geometric mean method {method!r}")
    return bd, half


def _rotate_to_mean(big: Decimal, small: Decimal, ctx: Context,
                    recorder: TraceRecorder | None) -> Decimal:
    """Search the apex cosine until the implied hypotenuse cut equals `big`.

    With DE fixed at `small`, a trial cosine c puts the enclosing
    perpendicular at small/c**2; the bracket is monotone decreasing in c.
    Both operands here share a decade, so the solution cosine
    sqrt(small/big) is interior: numcore.search_cosine with n = 2, side
    accepting a cut within one unit of ctx of `big`.
    """
    ctx_div, ctx_mul = ctx.divide, ctx.multiply
    tol = ctx_mul(shift10(_ONE, 1 - ctx.prec), big)

    def side(c, i):
        ab = ctx_div(small, ctx_mul(c, c))
        if ctx.subtract(ab, big).copy_abs() <= tol:
            return 0
        return -1 if ab > big else 1  # cut too long: open the angle

    draw = None if recorder is None else partial(recorder.rotate, "D")
    c = search_cosine(side, 2, ctx_div(small, big), ctx, "rotation", draw)
    bd = ctx_div(small, c)
    if recorder is not None:
        recorder.measure("BD", bd)
    return bd


def multiply(a: SignedScaled, b: SignedScaled,
             policy: PrecisionPolicy = DEFAULT_POLICY,
             recorder: TraceRecorder | None = None) -> SignedScaled:
    """a*b: the square of the geometric mean of |a| and |b|.  The mean's
    mantissa, shifted into [0.1, 1), is the cosine of the depth-2 cascade
    directly, and the product is the one SignedScaled built."""
    bd, half = _mean(a, b, policy, recorder)
    shift = bd.adjusted() + 1
    return _cascade_power(a.sign * b.sign, shift10(bd, -shift), half + shift,
                          2, policy, recorder)


def divide(num: SignedScaled, den: SignedScaled,
           policy: PrecisionPolicy = DEFAULT_POLICY,
           recorder: TraceRecorder | None = None,
           method: str = "hypotenuse") -> SignedScaled:
    """num/den via a unit-base triangle whose hypotenuse is the denominator."""
    sign = num.sign * den.sign
    ctx = policy.ctx()
    if den.is_power_of_ten:
        return SignedScaled(sign, num.mantissa,
                            num.exponent - den.exponent + 1)
    if method == "hypotenuse":
        # denominator a decade up is the hypotenuse of a unit-base angle
        hyp = shift10(den.mantissa, 1)  # in (1, 10)
        cos_c = ctx.divide(_ONE, hyp)
        _check_cosine(cos_c)
        bd = ctx.multiply(num.mantissa, cos_c)
        if recorder is not None:
            recorder.angle(cos_c)
            recorder.drop("B", "CA", "D", bd)
            recorder.measure("BD", bd)
        exponent = num.exponent - (den.exponent - 1)
    elif method == "similar-triangles":
        # scale the numerator below the denominator, read the cosine
        p, drop_shift = num.mantissa, 0
        if p >= den.mantissa:
            p, drop_shift = shift10(p, -1), 1
        cos_c = ctx.divide(p, den.mantissa)
        _check_cosine(cos_c)
        if recorder is not None:
            recorder.angle(cos_c)
            recorder.drop("B", "CA", "D", p)
            recorder.measure("cosine", cos_c)
        bd = cos_c
        exponent = num.exponent - den.exponent + drop_shift
    else:
        raise DomainError(f"unknown division method {method!r}")
    return renormalized(sign, bd, exponent)
