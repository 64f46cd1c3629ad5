"""Scaled decimal numbers and the high-precision reference evaluator.

Every quantity in the engine is a sign/mantissa/exponent triple with the
mantissa in [0.1, 1), so that any mantissa can act as the cosine of an
acute angle.  Exponent bookkeeping is exact integer arithmetic; only
mantissa arithmetic rounds, and always under an explicit context.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING,
                     ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal)
from functools import lru_cache

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
_NEG_INF, _POS_INF = Decimal("-Infinity"), Decimal("Infinity")
_LN10, _LOG10_HALF = math.log(10), math.log10(0.5)
# the cosine bracket [1e-15, 1 - 1e-15], each end rounded by no context
COSINE_BRACKET = (Decimal("1e-15"), Decimal("0.999999999999999"))

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
        if other.lo <= 0:
            raise DomainError("a divisor whose band reaches 0 leaves the "
                              "quotient unbounded")
        return Interval(_DOWN.divide(self.lo, other.hi),
                        _UP.divide(self.hi, other.lo))

    def pow_int(self, n: int) -> "Interval":
        """[lo**n, hi**n] for n >= 1 by square-and-multiply: each directed
        multiply is correctly rounded, where power is not directed."""
        lo, hi = self.lo, self.hi
        for bit in bin(n)[3:]:
            lo, hi = _DOWN.multiply(lo, lo), _UP.multiply(hi, hi)
            if bit == "1":
                lo, hi = _DOWN.multiply(lo, self.lo), _UP.multiply(hi, self.hi)
        return Interval(lo, hi)

    def sqrt(self) -> "Interval":
        # Decimal rounds sqrt half-even in every context: one unit outward
        # covers that rounding (a zero end stays zero)
        lo = _DOWN.sqrt(self.lo)
        return Interval(_DOWN.next_minus(lo) if lo else lo,
                        _UP.next_plus(_UP.sqrt(self.hi)))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def half_width_about(self, center: Decimal) -> Decimal:
        return max(_UP.subtract(center, self.lo),
                   _UP.subtract(self.hi, center))


# a traced search draws its first _DRAWN midpoints as rotations
_DRAWN = 4


def bisect(side, lo: Decimal, hi: Decimal, ctx: Context, what: str,
           collapsed, window: tuple | None = None,
           draw=None) -> tuple[Decimal, Decimal, Decimal, bool]:
    """Halve [lo, hi] under ctx; return (c, lo, hi, accepted).

    Each step takes the midpoint c, stops if collapsed(lo, hi), then asks
    side(c, i), i = 0, 1, ...: 0 accepts c, > 0 sets hi = c, < 0 lo = c.
    No step cap: a midpoint that rounds onto an end raises NoConvergence.
    A midpoint can also round past an end, when lo + hi rounds across a
    decade; the search then goes on from the bracket that step leaves,
    and a collapsed search returns its midpoint clamped to [lo, hi].
    draw(c, i), if given, sees the first _DRAWN midpoints that pass the
    collapse check, before they are decided.

    A window (below, above, point) is a bracket, side < 0 below it and
    > 0 above it, and point, unless None, a guess: before any midpoint,
    side(point, 0) is asked once, if lo < point < hi.  Where the search
    would take its first undrawn midpoint, at once untraced, or stop
    collapsed before that, it returns (point, lo, hi, True) if side
    accepted the point, and otherwise cuts [lo, hi] to [max(lo, below),
    min(hi, above)] and halves on from there.  Its edges decide a drawn
    midpoint outside it, so a traced search halves the untraced one's
    cut bracket unless side decided one of its drawn midpoints.
    """
    add, divide = ctx.add, ctx.divide
    below, above, guess = window or (_NEG_INF, _POS_INF, None)
    hit = guess is not None and lo < guess < hi and not side(guess, 0)
    cut = window is not None  # cut to the window once
    drawn = 0 if draw is None else _DRAWN
    i = 0
    while True:
        if cut and (i == drawn or collapsed(lo, hi)):
            if hit:
                return guess, lo, hi, True
            lo, hi, cut = max(lo, below), min(hi, above), False
        c = divide(add(lo, hi), _TWO)
        if collapsed(lo, hi):
            return min(max(c, lo), hi), lo, hi, False
        if i < drawn:
            draw(c, i)
        s = -1 if c < below else 1 if c > above else side(c, i)
        if not s:
            return guess if hit else c, lo, hi, True
        if c == lo or c == hi:
            raise NoConvergence(f"{what} search: {ctx.prec} digits cannot "
                                f"split [{lo}, {hi}]")
        lo, hi = (lo, c) if s > 0 else (c, hi)
        i += 1


def cosine_bracket(target: Decimal, n: Decimal, ctx: Context):
    """Bracket the cosine c**n == target: above 1 - 1e-15 only if it must."""
    top = COSINE_BRACKET[1]
    return (top, _ONE) if target > ctx.power(top, n) else COSINE_BRACKET


def newton_window(n: int, target: Decimal, ctx: Context):
    """(below, above, point) around the root r of r**n == target, or None.

    With u = 10**(1 - prec), one unit of ctx, the half-width is 8*u*r/n.
    Newton runs at prec + 12 digits, plus the digits of n so that one
    unit of r stays far inside the window.  Its float seed is
    1 + expm1(ln(target)/n) for a root above 1/2, which keeps the digits
    of r - 1 at large n, and 10**(log10(target)/n) below; n past the
    float range gets no window.  From the second step on, a correction
    that fails to halve the previous one would mean the seed left
    Newton's basin, and then there is no window.  Otherwise Newton stops
    once a correction is below a quarter of the half-width, which leaves
    r far closer to the root than the half-width.

    Every c outside the window misses by more than u, in the window's
    direction, for both objectives that use one:
    - the root search's c**n against target: c > r(1 + 8u/n) gives
      c**n > target(1 + 8u), and c < r(1 - 8u/n) gives c**n <
      target*e**(-8u);
    - the rotating mean's small/c**2 against big, with n = 2 and target
      small/big rounded (which moves r by u/4): c > r(1 + 4u) gives
      small/c**2 < big/(1 + 8u), and c < r(1 - 4u) gives more than
      big(1 + 8u).
    Each miss exceeds the tolerance u by more than 3u, relative: more
    than the few units that the power, or the product c*c and the
    quotient, round by.  So side would return the window's sign.  The
    edges are rounded outward to ctx, so side < 0 at below and > 0 at
    above, and [below, above] is a bracket that bisect can cut to.

    The third entry, point, is r rounded under ctx, for bisect to try
    before any midpoint: r lies far inside the window, so side almost
    always accepts it and the search ends on one side call.
    """
    if n > sys.float_info.max:
        return None
    wctx = ctx.copy()
    wctx.prec = ctx.prec + 12 + len(str(n))
    sub, mul, div = wctx.subtract, wctx.multiply, wctx.divide
    e = target.adjusted()
    log10 = e + math.log10(float(shift10(target, -e)))
    if log10 > _LOG10_HALF * n:
        r = wctx.add(_ONE, wctx.create_decimal_from_float(
            math.expm1(log10 * _LN10 / n)))
    else:
        r = wctx.create_decimal_from_float(10 ** (log10 / n))
    nn, n1 = Decimal(n), Decimal(n - 1)
    scale = div(mul(8, shift10(_ONE, 1 - ctx.prec)), nn)  # half-width / r
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
    wctx.prec, wctx.rounding = ctx.prec, ROUND_FLOOR
    below = wctx.subtract(r, half)
    wctx.rounding = ROUND_CEILING
    return below, wctx.add(r, half), ctx.plus(r)


def search_cosine(side, n: int, target: Decimal, ctx: Context, what: str,
                  draw=None) -> Decimal:
    """The engine's angle search, for an objective solved by c**n ==
    target: side(c, i) is 0 when c meets it within one unit of ctx,
    u = 10**(1 - prec), > 0 when c is too large, < 0 when too small.
    Newton's point (newton_window) is asked first and returned if side
    accepts it; otherwise bisect halves the cosine bracket, cut to
    Newton's window if there is one, until side accepts or the bracket
    is narrower than u relative.  draw(c, i) sees the first midpoints,
    as in bisect."""
    lo, hi = cosine_bracket(target, Decimal(n), ctx)
    unit = shift10(_ONE, 1 - ctx.prec)
    return bisect(side, lo, hi, ctx, what,
                  lambda lo, hi: ctx.subtract(hi, lo)
                  <= ctx.multiply(unit, lo),
                  newton_window(n, target, ctx), draw)[0]


@dataclass(frozen=True)
class PrecisionPolicy:
    """Working precision; the reference (oracle) context runs at twice
    the working digits.

    rel_tol, set from working_digits, is 10**(1 - working_digits): one
    unit in the last working mantissa place, relative, which is the
    tolerance of every engine search.  ctx() and oracle_ctx() hand out a
    fresh copy of a context built once per precision on each call, so a
    caller may change its precision, rounding, traps or flags freely.
    """

    working_digits: int = 30
    rel_tol: Decimal = field(init=False)

    def __post_init__(self):
        if self.working_digits < 15:
            raise DomainError("working_digits must be at least 15")
        object.__setattr__(self, "rel_tol",
                           shift10(_ONE, 1 - self.working_digits))

    def ctx(self) -> Context:
        return _context(self.working_digits).copy()

    def oracle_ctx(self) -> Context:
        return _context(2 * self.working_digits).copy()


@lru_cache(maxsize=16)
def _context(prec: int) -> Context:
    """The template for PrecisionPolicy's contexts at prec digits: built
    once, and only ever handed out as a copy."""
    return Context(prec=prec, rounding=ROUND_HALF_EVEN,
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

def check_power(x: SignedScaled, n: int):
    """Raise unless 0 < |n| <= MAX_ABS_EXPONENT and x**n is in range."""
    if n == 0:
        raise DomainError("exponent must be nonzero")
    if abs(n) > MAX_ABS_EXPONENT:
        raise DomainError(f"|exponent| above cap {MAX_ABS_EXPONENT}")
    # the estimate below never exceeds |n|*(|exponent| + 1), so up to
    # the bound it cannot refuse
    if abs(n) * (abs(x.exponent) + 1) <= EXPONENT_BOUND:
        return
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


def check_rational_power(x: SignedScaled, m: int, n: int):
    """Raise unless x**(m/n) is an nth root of a power x**m in range."""
    check_root(x, n)
    if m:
        check_power(x, m)


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
    q = _EXACT.quantize(v.mantissa, shift10(_ONE, -digits))
    exponent = v.exponent
    # q is 0.ddd... with `digits` digits, or 1.000... when 0.9999...
    # rounds up a decade; str() has no int()'s length limit
    text = str(q)
    if q == _ONE:
        text, exponent = "0.1" + text[2:-1], exponent + 1
    head, tail = text[2], text[3:]
    body = f"{head}.{tail}" if tail else head
    sign = "-" if v.sign < 0 else ""
    return f"{sign}{body}e{exponent - 1}"


def fmt_bound(d: Decimal) -> str:
    """A nonnegative bound to 3 digits, rounded up so it stays a bound."""
    if d == 0:
        return "0"
    v = SignedScaled.from_decimal(d)
    up = _UP.quantize(v.mantissa, Decimal("0.001"))
    return to_text(renormalized(1, up, v.exponent), 3)


def _root_power(ctx: Context, x: Decimal, m: int, n: int) -> Decimal:
    """x**(m/n), negative only when x < 0 and m is odd.  n = 1 raises to
    Decimal(m) exactly; n > 1 raises to the rounded quotient m/n at ten
    more digits and rounds once into ctx, so that an exact root such as
    421.875**(1/3) = 7.5 comes out exact and rounds its ties right."""
    if m == 0:
        return _ONE
    if n == 1:
        r = ctx.power(x.copy_abs(), Decimal(m))
    else:
        wide = ctx.copy()
        wide.prec += 10
        r = ctx.plus(wide.power(x.copy_abs(),
                                wide.divide(Decimal(m), Decimal(n))))
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
