"""Scaled decimal numbers and the high-precision reference evaluator.

Every quantity in the engine is a sign/mantissa/exponent triple with the
mantissa in [0.1, 1), so that any mantissa can act as the cosine of an
acute angle.  Exponent bookkeeping is exact integer arithmetic; only
mantissa arithmetic rounds, and always under an explicit context.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING,
                     ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal)

from .errors import (DomainError, EvenRootOfNegative, ExponentOverflow,
                     NoConvergence, ParseError, SignMismatch,
                     ZeroNotRepresentable)

_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)
_INTEGER_RE = re.compile(r"[+-]?\d+", re.ASCII)

# Wide exponent window: cascades reach 10**k exponents far past the
# default context limits without ever denormalizing.
_EMAX = 10 ** 17

# The largest |n| of an integer power, and of every number's scaled
# exponent: operands, results and what lies between.
MAX_ABS_EXPONENT = 10 ** 6
EXPONENT_BOUND = 10 ** 9

_ONE = Decimal(1)
_TWO = Decimal(2)
_TENTH = Decimal("0.1")
_HALF = Decimal("0.5")
_NEG_INF, _POS_INF = Decimal("-Infinity"), Decimal("Infinity")

# Nothing rounds or clamps for lack of precision or exponent range
# here: shift10 moves only the exponent, and to_text rounds a mantissa
# to any number of places (the thread's default 28-digit context cannot
# hold 29 or more).
_EXACT = Context(prec=MAX_PREC, rounding=ROUND_HALF_EVEN,
                 Emin=MIN_EMIN, Emax=MAX_EMAX)


def shift10(d: Decimal, k: int) -> Decimal:
    """Multiply a Decimal by 10**k exactly: only the exponent moves."""
    return d.scaleb(k, _EXACT)


_IV_PREC = 60
_DOWN = Context(prec=_IV_PREC, rounding=ROUND_FLOOR, Emin=-_EMAX, Emax=_EMAX)
_UP = Context(prec=_IV_PREC, rounding=ROUND_CEILING, Emin=-_EMAX, Emax=_EMAX)


@dataclass(frozen=True)
class Interval:
    """Closed interval of nonnegative Decimals, hi possibly infinite,
    rounded outward so that a bound never shrinks (R. E. Moore, 1966)."""

    lo: Decimal
    hi: Decimal

    @classmethod
    def point(cls, x: Decimal) -> "Interval":
        return cls(x, x)

    @classmethod
    def around(cls, x: Decimal, h: Decimal) -> "Interval":
        """[x - h, x + h]: a value trusted to within h."""
        return cls(_DOWN.subtract(x, h), _UP.add(x, h))

    def widen(self, h: Decimal) -> "Interval":
        return Interval(_DOWN.subtract(self.lo, h), _UP.add(self.hi, h))

    def scale10(self, k: int) -> "Interval":
        return Interval(shift10(self.lo, k), shift10(self.hi, k))

    def mul(self, other: "Interval") -> "Interval":
        return Interval(_DOWN.multiply(self.lo, other.lo),
                        _UP.multiply(self.hi, other.hi))

    def add(self, other: "Interval") -> "Interval":
        return Interval(_DOWN.add(self.lo, other.lo),
                        _UP.add(self.hi, other.hi))

    def div(self, other: "Interval") -> "Interval":
        return Interval(_DOWN.divide(self.lo, other.hi),
                        _UP.divide(self.hi, other.lo))

    def pow_int(self, n: int) -> "Interval":
        return Interval(_DOWN.power(self.lo, n), _UP.power(self.hi, n))

    def sqrt(self) -> "Interval":
        return Interval(_DOWN.sqrt(self.lo), _UP.sqrt(self.hi))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def half_width_about(self, center: Decimal) -> Decimal:
        return max(_UP.subtract(center, self.lo),
                   _UP.subtract(self.hi, center))


# bisect's tight loop asks collapsed once per _CHUNK halvings; a traced
# search draws its first _DRAWN midpoints as rotations.
_CHUNK, _DRAWN = 16, 4


def bisect(side, lo: Decimal, hi: Decimal, ctx: Context, what: str,
           collapsed, window: tuple[Decimal, Decimal] | None = None,
           draw=None) -> tuple[Decimal, Decimal, Decimal, bool]:
    """Halve [lo, hi] under ctx; return (c, lo, hi, accepted).

    Each step takes the midpoint c, stops if collapsed(lo, hi), then asks
    side(c, i), i = 0, 1, ...: 0 accepts c, > 0 sets hi = c, < 0 lo = c.
    A known-side window (below, above) answers for side: c < below is
    < 0 and c > above is > 0, so side is called only inside the window.
    No step cap: a midpoint that rounds onto an end raises NoConvergence.
    A midpoint can also round past an end, when lo + hi rounds across a
    decade; the search then goes on from the bracket that step leaves.
    draw(c, i), if given, sees the first _DRAWN midpoints that pass the
    collapse check, before they are decided.

    With a window, later halvings outside it run in a tight loop that
    asks collapsed only after every _CHUNK of them and before side calls.
    A chunk that ends collapsed, or a midpoint outside (lo, hi), sends
    the step loop back to the state saved at the chunk's start, or just
    after the last side call, to replay it.  This is exact for a
    collapsed that stays true once true while the brackets nest, as
    hi - lo <= rel_tol*lo does (rounded subtract and multiply are
    monotone): a chunk that ends uncollapsed held no collapsed step, and
    side is called with the same (c, i) in the same order.
    """
    add, divide = ctx.add, ctx.divide
    below, above = window or (_NEG_INF, _POS_INF)
    drawn = 0 if draw is None else _DRAWN
    i = 0
    while True:
        if i == drawn and window is not None:  # once: each step adds 1 to i
            saved = lo, hi, i
            while True:
                for i in range(i, i + _CHUNK):
                    c = divide(add(lo, hi), _TWO)
                    if not lo < c < hi:
                        break
                    if c < below:
                        lo = c
                    elif c > above:
                        hi = c
                    elif collapsed(lo, hi):
                        break
                    else:
                        s = side(c, i)
                        if not s:
                            return c, lo, hi, True
                        lo, hi = (lo, c) if s > 0 else (c, hi)
                        saved = lo, hi, i + 1
                else:
                    i += 1
                    if not collapsed(lo, hi):
                        saved = lo, hi, i
                        continue
                break
            lo, hi, i = saved
        c = divide(add(lo, hi), _TWO)
        if collapsed(lo, hi):
            return c, lo, hi, False
        if i < drawn:
            draw(c, i)
        s = -1 if c < below else 1 if c > above else side(c, i)
        if not s:
            return c, lo, hi, True
        if c == lo or c == hi:
            raise NoConvergence(f"{what} search: {ctx.prec} digits cannot "
                                f"split [{lo}, {hi}]")
        lo, hi = (lo, c) if s > 0 else (c, hi)
        i += 1


def cosine_bracket(target: Decimal, n: Decimal, ctx: Context):
    """Bracket the cosine c**n == target: above 1 - 1e-15 only if it must."""
    top = Decimal("0.999999999999999")  # 1 - 1e-15, rounded by no context
    if target > ctx.power(top, n):
        return top, _ONE
    return Decimal("1e-15"), top


def newton_window(n: int, target: Decimal, ctx: Context, rel_tol: Decimal):
    """(below, above) around the root r of r**n == target, or None.

    With t = max(rel_tol, u), u = 10**(1 - prec), the half-width is
    8*t*r/n.  Newton runs at prec + 12 digits, plus the digits of n so
    that one unit of r stays far inside the window, from a float seed.
    From the second step on, a correction that fails to halve the
    previous one means the seed lies outside Newton's basin (n beyond
    about 10**16): then there is no window.  Otherwise Newton stops once
    a correction is below a quarter of the half-width, which leaves r
    far closer to the root than the half-width.

    Every midpoint c outside the window misses by more than rel_tol, in
    the window's direction, for both objectives that use one:
    - the root search's c**n against target: c > r(1 + 8t/n) gives
      c**n > target(1 + 8t), and c < r(1 - 8t/n) gives c**n <
      target*e**(-8t);
    - the rotating mean's small/c**2 against big, with n = 2 and target
      small/big rounded (which moves r by u/4): c > r(1 + 4t) gives
      small/c**2 < big/(1 + 8t), and c < r(1 - 4t) gives more than
      big(1 + 8t).
    For t <= 1/2 each miss exceeds the tolerance by more than 3t up to
    t = 0.1 and by more than 0.25 beyond, relative: more than the few
    units u that the power, or the product c*c and the quotient, round
    by.  So side would return the window's sign.  A looser rel_tol gets
    no window: near 1, side accepts midpoints outside it.
    """
    if rel_tol > _HALF:
        return None
    wctx = ctx.copy()
    wctx.prec = ctx.prec + 12 + len(str(n))
    sub, mul, div = wctx.subtract, wctx.multiply, wctx.divide
    e = target.adjusted()
    log10 = e + math.log10(float(shift10(target, -e)))
    r = wctx.create_decimal_from_float(10 ** (log10 / n))
    nn, n1 = Decimal(n), Decimal(n - 1)
    unit = shift10(_ONE, 1 - ctx.prec)
    scale = div(mul(8, max(rel_tol, unit)), nn)  # half-width / r
    quarter, prev = div(scale, 4), None
    while True:
        q = wctx.power(r, n1)
        step = div(sub(mul(q, r), target), mul(nn, q))
        r = sub(r, step)
        size = step.copy_abs()
        if prev is not None:
            if wctx.add(size, size) > prev:
                return None
            if size < mul(quarter, r):
                break
        prev = size
    half = mul(scale, r)
    return sub(r, half), wctx.add(r, half)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Working precision plus the default tolerance; the reference
    (oracle) context runs at twice the working digits.

    rel_tol defaults to 10**(1 - working_digits): one unit in the last
    working mantissa place, relative.
    """

    working_digits: int = 30
    rel_tol: Decimal | None = None

    def __post_init__(self):
        if self.working_digits < 15:
            raise DomainError("working_digits must be at least 15")
        if self.rel_tol is None:
            object.__setattr__(
                self, "rel_tol", Decimal(1).scaleb(1 - self.working_digits)
            )
        elif not (0 < self.rel_tol < 1):
            raise DomainError("rel_tol must be in (0, 1)")

    def ctx(self) -> Context:
        return Context(prec=self.working_digits, rounding=ROUND_HALF_EVEN,
                       Emin=-_EMAX, Emax=_EMAX)

    def oracle_ctx(self) -> Context:
        return Context(prec=2 * self.working_digits, rounding=ROUND_HALF_EVEN,
                       Emin=-_EMAX, Emax=_EMAX)


DEFAULT_POLICY = PrecisionPolicy()


@dataclass(frozen=True)
class SignedScaled:
    """A nonzero decimal number sign * mantissa * 10**exponent, with
    |exponent| at most EXPONENT_BOUND."""

    sign: int
    mantissa: Decimal
    exponent: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise DomainError("sign must be -1 or +1")
        if not isinstance(self.mantissa, Decimal):
            raise DomainError("mantissa must be a Decimal")
        if not (_TENTH <= self.mantissa < _ONE):
            raise DomainError("mantissa must lie in [0.1, 1)")
        if abs(self.exponent) > EXPONENT_BOUND:
            raise ExponentOverflow("result exponent out of range")

    def value(self) -> Decimal:
        """Exact Decimal value (no rounding: pure exponent shift)."""
        # copy_negate, not unary minus: minus rounds via the thread context
        v = shift10(self.mantissa, self.exponent)
        return v.copy_negate() if self.sign < 0 else v

    def magnitude(self) -> "SignedScaled":
        return SignedScaled(1, self.mantissa, self.exponent)

    def with_sign(self, sign: int) -> "SignedScaled":
        return SignedScaled(sign, self.mantissa, self.exponent)

    @property
    def is_unit(self) -> bool:
        """True when the magnitude is exactly 1."""
        return self.exponent == 1 and self.mantissa == _TENTH

    @property
    def is_power_of_ten(self) -> bool:
        return self.mantissa == _TENTH

    @classmethod
    def from_decimal(cls, d: Decimal) -> "SignedScaled":
        if not d.is_finite():
            raise DomainError("value must be finite")
        if d == 0:
            raise ZeroNotRepresentable("zero cannot be scaled")
        exponent = d.adjusted() + 1
        mantissa = shift10(d.copy_abs(), -exponent)
        return cls(-1 if d < 0 else 1, mantissa, exponent)


def renormalized(sign: int, mantissa: Decimal, exponent: int) -> SignedScaled:
    """Rebuild a SignedScaled from a raw positive mantissa of any size."""
    if mantissa <= 0:
        raise DomainError("mantissa must be positive")
    shift = mantissa.adjusted() + 1
    return SignedScaled(sign, shift10(mantissa, -shift), exponent + shift)


# --- domain rules: the engine, the oracle and the device run these ----

def check_power(x: SignedScaled, n: int,
                max_abs_exponent: int = MAX_ABS_EXPONENT):
    """Raise unless n is nonzero and within the cap, and x**n in range."""
    if n == 0:
        raise DomainError("exponent must be nonzero")
    if abs(n) > max_abs_exponent:
        raise DomainError(f"|exponent| above cap {max_abs_exponent}")
    # cheap estimate first, so a hopeless request fails before any
    # cascade work; SignedScaled checks the exact exponent of the result
    est = abs(n) * abs(x.exponent - 1 + math.log10(float(shift10(x.mantissa, 1))))
    if est > EXPONENT_BOUND * 1.01:
        raise ExponentOverflow("result exponent out of range")


def check_root(x: SignedScaled, n: int):
    """Raise unless x has a real nth root: n >= 1, and odd when x < 0."""
    if n < 1:
        raise DomainError("root index must be at least 1")
    if x.sign < 0 and n % 2 == 0:
        raise EvenRootOfNegative(f"index {n} root of a negative radicand")


def check_rational_power(x: SignedScaled, m: int, n: int,
                         max_abs_exponent: int = MAX_ABS_EXPONENT):
    """Raise unless x**(m/n) is an nth root of a power x**m in range."""
    check_root(x, n)
    if m:
        check_power(x, m, max_abs_exponent)


def check_same_sign(a: SignedScaled, b: SignedScaled):
    """Raise unless a and b share a sign, as their geometric mean needs."""
    if a.sign != b.sign:
        raise SignMismatch("geometric mean needs matching signs")


def parse_decimal(text: str) -> Decimal:
    """Parse a plain or scientific decimal literal, zero included: the one
    number grammar, with no NaN, Infinity or digit separators."""
    s = text.strip()
    if not _NUMBER_RE.fullmatch(s):
        raise ParseError(f"not a decimal literal: {text!r}")
    return Decimal(s)


def parse_integer(text: str) -> int:
    """Parse an integer literal: ASCII digits after an optional sign."""
    s = text.strip()
    try:
        if _INTEGER_RE.fullmatch(s):
            return int(s)       # ValueError past int()'s digit limit
    except ValueError:
        pass
    raise ParseError(f"not an integer: {text!r}")


def normalize(text: str) -> SignedScaled:
    """Parse a nonzero decimal literal into scaled form."""
    try:
        return SignedScaled.from_decimal(parse_decimal(text))
    except ExponentOverflow:
        raise ExponentOverflow("operand exponent out of range") from None


def to_text(v: SignedScaled, digits: int) -> str:
    """Render as d.ddd...e<k>, round-half-even to `digits` significant digits."""
    if digits < 1:
        raise DomainError("digits must be at least 1")
    q = _EXACT.quantize(v.mantissa, Decimal(1).scaleb(-digits))
    exponent = v.exponent
    if q == _ONE:
        # 0.9999... rounded up a decade
        q = _TENTH
        exponent += 1
    digits_str = str(int(shift10(q, digits)))  # integer string, `digits` long
    head, tail = digits_str[0], digits_str[1:]
    body = f"{head}.{tail}" if tail else head
    sign = "-" if v.sign < 0 else ""
    return f"{sign}{body}e{exponent - 1}"


def _root_power(ctx: Context, x: Decimal, m: int, n: int) -> Decimal:
    """x**(m/n), negative only when x < 0 and m is odd; n = 1 raises to
    Decimal(m) exactly instead of a rounded quotient."""
    if m == 0:
        return _ONE
    e = Decimal(m) if n == 1 else ctx.divide(Decimal(m), Decimal(n))
    r = ctx.power(x.copy_abs(), e)
    return r.copy_negate() if x < 0 and m % 2 else r


def _oracle_gmean(ctx: Context, a: Decimal, b: Decimal) -> Decimal:
    r = ctx.sqrt(ctx.multiply(a.copy_abs(), b.copy_abs()))
    return r.copy_negate() if a < 0 else r


# The one table of operations, read by the CLI, the device and the oracle.
# op: (operand names, domain rule or None, oracle formula or None); m and
# n are ints, the others decimals.  The rule sees SignedScaled operands,
# formula(ctx, ...) their Decimal values.  cf refuses in first_level.
OPS = {
    "pow": ("xn", check_power, lambda ctx, x, n: _root_power(ctx, x, n, 1)),
    "root": ("xn", check_root, lambda ctx, x, n: _root_power(ctx, x, 1, n)),
    "powfrac": ("xmn", check_rational_power, _root_power),
    "recip": ("x", None, lambda ctx, x: ctx.divide(_ONE, x)),
    "mul": ("ab", None, Context.multiply),
    "div": ("ab", None, Context.divide),
    "gmean": ("ab", check_same_sign, _oracle_gmean),
    "cf": ("xa", None, None),
}


def oracle_eval(op: str, args: tuple, policy: PrecisionPolicy = DEFAULT_POLICY) -> SignedScaled:
    """Reference evaluation at oracle precision, bypassing all geometry,
    behind the op's domain rule.  Numeric operands are SignedScaled."""
    _, check, formula = OPS.get(op, ("", None, None))
    if formula is None:
        raise DomainError(f"unknown oracle op: {op!r}")
    if check is not None:
        check(*args)
    values = (a.value() if isinstance(a, SignedScaled) else a for a in args)
    return SignedScaled.from_decimal(formula(policy.oracle_ctx(), *values))


def rel_diff(a: Decimal, b: Decimal, ctx: Context | None = None) -> Decimal:
    """|a - b| / |b| under an oracle-sized default context."""
    if ctx is None:
        ctx = DEFAULT_POLICY.oracle_ctx()
    return ctx.divide(ctx.subtract(a, b).copy_abs(), b.copy_abs())
