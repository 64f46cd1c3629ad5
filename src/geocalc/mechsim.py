"""Simulator for a jointed-arm calculator with graduated readouts.

The device is a right triangle of main arms (AB, BC, AC) with
telescopic perpendicular arms folding between hypotenuse and base.
Lengths the operator sets or reads are quantized to the instrument
graduation (round half even); the perpendicular lengths themselves
follow exactly from the assembled geometry, and search rotations are
continuous.  Main arms take any length; telescopic arms have a range.

Every scripted measurement reports a worst-case half width from
interval propagation: settings and readings are trusted only to half a
graduation, and the band is built so the ideal construction's value
lies inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR

from .cascade import _parity_adjust, check_power
from .errors import (ArmOutOfRange, DegenerateAngle, DepthExceeded,
                     DomainError, EvenRootOfNegative, GeocalcError,
                     ParseError, SignMismatch)
from .numcore import (_ONE, _TENTH, _TWO, DEFAULT_POLICY, PrecisionPolicy,
                      SignedScaled, bisect, normalize, parse_decimal,
                      renormalized, shift10)
from .trace import foot_label

DEFAULT_RESOLUTION = Decimal("1e-5")

# Graduations of the instrument ladder, coarse to fine, in metres:
# vernier caliper, screw micrometer, optical comparator, interferometric
# stage.
RESOLUTION_LADDER = (Decimal("1e-5"), Decimal("5e-7"),
                     Decimal("2e-7"), Decimal("1e-10"))

N_ARMS = 10                   # telescopic perpendiculars on the device
_LEVEL_STEP_CAP = 10 ** 4
_CF_TERM_FLOOR = Decimal("1e-12")
_CF_MAX_DEPTH = 16


def arm_id(i: int) -> str:
    """Name of the i-th perpendicular arm (1-based): BD, DE, EF, ..."""
    head = "B" if i == 1 else foot_label(i - 1)
    return head + foot_label(i)


@dataclass(frozen=True)
class MeasurementModel:
    """Graduation size and telescopic range of the perpendicular arms."""

    resolution: Decimal = DEFAULT_RESOLUTION
    arm_min: Decimal = Decimal("0.01")
    arm_max: Decimal = Decimal("2.0")

    def __post_init__(self):
        if not (0 < self.resolution < self.arm_min < self.arm_max):
            raise DomainError("need 0 < resolution < arm_min < arm_max")
        object.__setattr__(self, "_ratio", self.resolution.as_integer_ratio())

    def quantize(self, length: Decimal) -> Decimal:
        """Snap a nonnegative length to the nearest graduation.

        Exact integer arithmetic: length / resolution is the ratio of two
        integers, split by one divmod and rounded half to even.  A
        finite-precision division here could double-round a length just
        below a midpoint onto the wrong graduation.
        """
        if length < 0:
            raise DomainError("lengths are nonnegative")
        ln, ld = length.as_integer_ratio()
        rn, rd = self._ratio
        den = ld * rn
        n, rem = divmod(ln * rd, den)
        twice = 2 * rem
        if twice > den or (twice == den and n & 1):
            n += 1  # ties to even
        return _UP.multiply(Decimal(n), self.resolution)

    @property
    def half_step(self) -> Decimal:
        return _UP.divide(self.resolution, _TWO)


@dataclass
class DeviceState:
    """An assembled triangle: the set main arms and the true lengths of
    its first `depth` perpendiculars, BD, DE, ... (unquantized)."""

    model: MeasurementModel
    bc_set: Decimal
    ac_set: Decimal
    cos_c: Decimal            # bc_set / ac_set, known exactly once set
    perp_ab: Decimal          # AB as set
    arm_lengths: list[Decimal]


def assemble(cos_c: Decimal, perp: Decimal, depth: int,
             model: MeasurementModel,
             policy: PrecisionPolicy = DEFAULT_POLICY,
             settings: tuple[Decimal, Decimal] | None = None) -> DeviceState:
    """Set the angle and AB on the graduations, fasten `depth` arms.

    `settings` names the (BC, AC) pair the operator dials in; by
    default BC = cos_c against a unit AC.  Perpendicular lengths are
    geometric consequences and must stay inside the telescopic range.
    """
    if depth > N_ARMS:
        raise DepthExceeded(f"{depth} perpendiculars on {N_ARMS} arms")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    ctx = policy.oracle_ctx()
    bc_req, ac_req = settings if settings is not None else (cos_c, _ONE)
    bc = model.quantize(bc_req)
    ac = model.quantize(ac_req)
    if bc <= 0 or ac <= 0 or bc >= ac:
        raise DegenerateAngle(f"settings BC={bc} AC={ac} leave no triangle")
    cos_true = ctx.divide(bc, ac)
    ab = model.quantize(perp)
    if ab <= 0:
        raise DegenerateAngle("AB quantized to zero")
    lengths, p = [], ab
    for i in range(1, depth + 1):
        p = ctx.multiply(p, cos_true)
        if not (model.arm_min <= p <= model.arm_max):
            raise ArmOutOfRange(f"arm {arm_id(i)} would be {p}")
        lengths.append(p)
    return DeviceState(model=model, bc_set=bc, ac_set=ac, cos_c=cos_true,
                       perp_ab=ab, arm_lengths=lengths)


@dataclass(frozen=True)
class MeasuredResult:
    """A script outcome: value, worst-case half width, reading log.

    true_lengths mirrors `readings` with the pre-quantization lengths,
    for error-model diagnostics.
    """

    value: SignedScaled
    half_width: Decimal
    readings: tuple[tuple[str, Decimal], ...]
    true_lengths: tuple[Decimal, ...]


# endpoint contexts round outward only, so a bound can never shrink
_IV_PREC = 60
_DOWN = Context(prec=_IV_PREC, rounding=ROUND_FLOOR,
                Emin=-10 ** 17, Emax=10 ** 17)
_UP = Context(prec=_IV_PREC, rounding=ROUND_CEILING,
              Emin=-10 ** 17, Emax=10 ** 17)


@dataclass(frozen=True)
class _Iv:
    """Closed interval of positive Decimals."""

    lo: Decimal
    hi: Decimal

    def widen(self, h: Decimal) -> "_Iv":
        return _Iv(_DOWN.subtract(self.lo, h), _UP.add(self.hi, h))

    def scale10(self, k: int) -> "_Iv":
        return _Iv(shift10(self.lo, k), shift10(self.hi, k))

    def mul(self, other: "_Iv") -> "_Iv":
        return _Iv(_DOWN.multiply(self.lo, other.lo),
                   _UP.multiply(self.hi, other.hi))

    def div(self, other: "_Iv") -> "_Iv":
        return _Iv(_DOWN.divide(self.lo, other.hi),
                   _UP.divide(self.hi, other.lo))

    def pow_int(self, n: int) -> "_Iv":
        nn = Decimal(n)
        return _Iv(_DOWN.power(self.lo, nn), _UP.power(self.hi, nn))

    def sqrt(self) -> "_Iv":
        return _Iv(_DOWN.sqrt(self.lo), _UP.sqrt(self.hi))

    def hull(self, other: "_Iv") -> "_Iv":
        return _Iv(min(self.lo, other.lo), max(self.hi, other.hi))

    def half_width_about(self, center: Decimal) -> Decimal:
        return max(_UP.subtract(center, self.lo),
                   _UP.subtract(self.hi, center))


def _point(x: Decimal) -> _Iv:
    return _Iv(x, x)


class _Log:
    """Reading log shared by the script bodies."""

    def __init__(self, model: MeasurementModel):
        self.model = model
        self.readings: list[tuple[str, Decimal]] = []
        self.trues: list[Decimal] = []

    def read(self, name: str, true_length: Decimal) -> Decimal:
        q = self.model.quantize(true_length)
        self.readings.append((name, q))
        self.trues.append(true_length)
        return q


def _package(sign: int, mantissa: Decimal, exponent: int, iv: _Iv,
             log: _Log, ctx: Context) -> MeasuredResult:
    """Result from a raw mantissa + interval at 10**exponent scale."""
    value = renormalized(sign, mantissa, exponent)
    half = iv.half_width_about(mantissa)
    half_width = shift10(ctx.plus(half), exponent).copy_abs()
    return MeasuredResult(value=value, half_width=half_width,
                          readings=tuple(log.readings),
                          true_lengths=tuple(log.trues))


def _renorm_shift(q: Decimal) -> int:
    """Decades to lift a reading back into [0.1, 1)."""
    return -1 - q.adjusted()


# --- cascade scripts ----------------------------------------------------

def _staged_power(x_mant: Decimal, n: int, model: MeasurementModel,
                  policy: PrecisionPolicy, log: _Log
                  ) -> tuple[Decimal, int, _Iv]:
    """Run n perpendiculars at the quantized angle cos C = Q(x)/Q(1).

    Returns (final stage reading, decade shift J accumulated by stage
    renormalization, telescoped interval containing both the chain and
    the ideal x**n).  Telescoped value of the result: reading * 10**-J.
    """
    ctx = policy.oracle_ctx()
    h = model.half_step
    state = assemble(x_mant, _ONE, 1, model, policy=policy)
    cos_true = state.cos_c
    ac = state.ac_set
    cos_iv = _Iv(_DOWN.divide(_DOWN.subtract(x_mant, h), ac),
                 _UP.divide(_UP.add(x_mant, h), ac))
    ab = state.perp_ab            # set exactly on a graduation
    ab_iv = _point(ab)
    shift_j = 0
    done = 0
    reading = iv = None
    while done < n:
        d, p = 0, ab
        while d < min(N_ARMS, n - done):
            nxt = ctx.multiply(p, cos_true)
            if nxt < model.arm_min:
                break
            d, p = d + 1, nxt
        if d == 0:
            raise ArmOutOfRange(
                f"cos {cos_true} collapses below arm_min from {ab}")
        reading = log.read(arm_id(d), p)
        iv = ab_iv.mul(cos_iv.pow_int(d)).widen(shift10(h, -shift_j))
        done += d
        if done < n:
            j = _renorm_shift(reading)
            ab = shift10(reading, j)
            ab_iv = iv.scale10(j)
            shift_j += j
    return reading, shift_j, iv


def _device_reciprocal(mantissa: Decimal, exponent: int, band: Decimal,
                       model: MeasurementModel, policy: PrecisionPolicy,
                       log: _Log) -> tuple[Decimal, int, _Iv]:
    """Reciprocal of mantissa * 10**exponent: BC = 1, AC = Q(10m), read BD.

    `band` widens the hypotenuse for an uncertain input mantissa.
    Returns (BD reading, result exponent, interval at that scale).
    """
    ctx = policy.oracle_ctx()
    h = model.half_step
    if band == 0 and mantissa == _TENTH:
        return _TENTH, 2 - exponent, _point(_TENTH)
    hyp = shift10(mantissa, 1)
    hyp_iv = _Iv(_DOWN.subtract(shift10(_DOWN.subtract(mantissa, band), 1), h),
                 _UP.add(shift10(_UP.add(mantissa, band), 1), h))
    state = assemble(_ONE, _ONE, 1, model, settings=(_ONE, hyp),
                     policy=policy)
    bd = log.read("BD", state.arm_lengths[0])
    cos_iv = _Iv(_DOWN.divide(_ONE, hyp_iv.hi), _UP.divide(_ONE, hyp_iv.lo))
    return bd, 1 - exponent, cos_iv.widen(h)


def _script_power(x: SignedScaled, n: int, model: MeasurementModel,
                  policy: PrecisionPolicy) -> MeasuredResult:
    check_power(x, n)
    ctx = policy.oracle_ctx()
    log = _Log(model)
    sign = -1 if (x.sign < 0 and n % 2) else 1
    if n < 0:
        inner = _script_power(x.magnitude(), -n, model, policy)
        log.readings = list(inner.readings)
        log.trues = list(inner.true_lengths)
        band = shift10(inner.half_width, -inner.value.exponent)
        bd, exponent, iv = _device_reciprocal(
            inner.value.mantissa, inner.value.exponent, band,
            model, policy, log)
        return _package(sign, bd, exponent, iv, log, ctx)
    reading, shift_j, iv = _staged_power(x.mantissa, n, model, policy, log)
    return _package(sign, reading, x.exponent * n - shift_j, iv, log, ctx)


def _script_recip(x: SignedScaled, model: MeasurementModel,
                  policy: PrecisionPolicy) -> MeasuredResult:
    ctx = policy.oracle_ctx()
    log = _Log(model)
    bd, exponent, iv = _device_reciprocal(x.mantissa, x.exponent, Decimal(0),
                                          model, policy, log)
    return _package(x.sign, bd, exponent, iv, log, ctx)


def _script_multiply(a: SignedScaled, b: SignedScaled,
                     model: MeasurementModel,
                     policy: PrecisionPolicy) -> MeasuredResult:
    """One perpendicular: AB = Q(a), cos C = Q(b)/Q(1), read BD = a*b."""
    ctx = policy.oracle_ctx()
    h = model.half_step
    log = _Log(model)
    state = assemble(b.mantissa, a.mantissa, 1, model, policy=policy)
    bd = log.read("BD", state.arm_lengths[0])
    ac = state.ac_set
    cos_iv = _Iv(_DOWN.divide(_DOWN.subtract(b.mantissa, h), ac),
                 _UP.divide(_UP.add(b.mantissa, h), ac))
    ab_iv = _point(a.mantissa).widen(h)
    iv = ab_iv.mul(cos_iv).widen(h)
    return _package(a.sign * b.sign, bd, a.exponent + b.exponent, iv, log, ctx)


def _script_divide(num: SignedScaled, den: SignedScaled,
                   model: MeasurementModel,
                   policy: PrecisionPolicy) -> MeasuredResult:
    ctx = policy.oracle_ctx()
    h = model.half_step
    log = _Log(model)
    sign = num.sign * den.sign
    if den.is_power_of_ten:
        r = log.read("AB", num.mantissa)
        iv = _point(num.mantissa).widen(h)
        return _package(sign, r, num.exponent - den.exponent + 1, iv, log, ctx)
    # BC = 1 against AC = 10 * den mantissa; lift AB a decade when the
    # perpendicular would leave the telescopic range
    exp_adj = 0
    ab_req = num.mantissa
    if num.mantissa < ctx.multiply(Decimal("0.12"), den.mantissa):
        ab_req = shift10(num.mantissa, 1)
        exp_adj = -1
    hyp = shift10(den.mantissa, 1)
    state = assemble(_ONE, ab_req, 1, model, settings=(_ONE, hyp),
                     policy=policy)
    bd = log.read("BD", state.arm_lengths[0])
    hyp_iv = _point(hyp).widen(h)
    cos_iv = _Iv(_DOWN.divide(_ONE, hyp_iv.hi), _UP.divide(_ONE, hyp_iv.lo))
    ab_iv = _point(ab_req).widen(h)
    iv = ab_iv.mul(cos_iv).widen(h)
    return _package(sign, bd, num.exponent - den.exponent + 1 + exp_adj,
                    iv, log, ctx)


def _rotate(side, model: MeasurementModel, ctx: Context):
    """Bisect the apex cosine in [1e-6, 1 - 1e-6] down to one graduation."""
    return bisect(side, Decimal("1e-6"), Decimal("0.999999"), ctx, "rotation",
                  lambda lo, hi: ctx.subtract(hi, lo) < model.resolution)


def _script_gmean(a: SignedScaled, b: SignedScaled,
                  model: MeasurementModel,
                  policy: PrecisionPolicy) -> MeasuredResult:
    if a.sign != b.sign:
        raise SignMismatch("geometric mean needs matching signs")
    ctx = policy.oracle_ctx()
    h = model.half_step
    log = _Log(model)
    sign = a.sign
    m1, m2, half_exp = _parity_adjust(a, b)
    if m1 == m2:
        r = log.read("ED", m1)
        return _package(sign, r, half_exp, _point(m1).widen(h), log, ctx)
    big, small = (m1, m2) if m1 > m2 else (m2, m1)
    ed = log.read("ED", small)
    target = log.read("AB", big)
    # rotate until the hypotenuse-side arm AB = ED / cos^2 C matches the
    # larger operand; AB is a main arm, ED a set perpendicular
    def side(c, i):
        r = model.quantize(ctx.divide(ed, ctx.multiply(c, c)))
        if r == target:
            return 0
        return -1 if r > target else 1

    c, lo, hi, accepted = _rotate(side, model, ctx)
    ab_final = ctx.divide(ed, ctx.multiply(c, c))
    if accepted or model.quantize(ab_final) == target:
        ab_iv = _point(big).widen(_UP.multiply(_TWO, h))
    else:
        ends = _Iv(min(ab_final, ctx.divide(ed, ctx.multiply(hi, hi))),
                   max(ab_final, ctx.divide(ed, ctx.multiply(lo, lo))))
        ab_iv = ends.hull(_point(big)).widen(_UP.multiply(_TWO, h))
    bd = log.read("BD", ctx.divide(ed, c))
    ed_iv = _point(small).widen(h)
    iv = ed_iv.mul(ab_iv).sqrt().widen(h)
    return _package(sign, bd, half_exp, iv, log, ctx)


def _script_root(x: SignedScaled, n: int, model: MeasurementModel,
                 policy: PrecisionPolicy) -> MeasuredResult:
    if n < 1:
        raise DomainError("root index must be at least 1")
    if x.sign < 0 and n % 2 == 0:
        raise EvenRootOfNegative(f"index {n} root of a negative radicand")
    ctx = policy.oracle_ctx()
    h = model.half_step
    log = _Log(model)
    if n == 1:
        r = log.read("AB", x.mantissa)
        return _package(x.sign, r, x.exponent, _point(x.mantissa).widen(h),
                        log, ctx)
    k = -((-x.exponent) // n)           # ceil(exponent / n)
    target = shift10(x.mantissa, x.exponent - n * k)   # telescoped, < 1

    def chain(c: Decimal, with_log: bool):
        # continuous rotation; only re-anchor readings quantize
        p, j, d_since = _ONE, 0, 0
        rel = _point(_ONE)
        for i in range(n):
            p = ctx.multiply(p, c)
            d_since += 1
            if i + 1 < n and (ctx.multiply(p, c) < model.arm_min
                              or d_since == N_ARMS):
                q = log.read(arm_id(d_since), p) if with_log \
                    else model.quantize(p)
                rel = rel.mul(_Iv(_DOWN.divide(q, _UP.add(q, h)),
                                  _UP.divide(q, _DOWN.subtract(q, h))))
                jj = _renorm_shift(q)
                p, j, d_since = shift10(q, jj), j + jj, 0
        return p, j, rel

    def side(c, i):
        p, j, _rel = chain(c, False)
        return -1 if shift10(p, -j) < target else 1

    c, lo, hi, _ = _rotate(side, model, ctx)
    p_fin, j_fin, rel_iv = chain(c, True)
    # the ideal cosine sits within: half the bracket, plus the reading
    # envelope and the residual mismatch divided through the slope of c^n
    mismatch = ctx.divide(ctx.subtract(shift10(p_fin, -j_fin), target).copy_abs(),
                          target)
    eps_rel = ctx.add(rel_iv.half_width_about(_ONE), mismatch)
    slack = ctx.divide(ctx.multiply(c, eps_rel), Decimal(n))
    c_iv = _Iv(_DOWN.subtract(lo, slack), _UP.add(hi, slack))
    sin_c = ctx.sqrt(ctx.subtract(_ONE, ctx.multiply(c, c)))
    ab_set = model.quantize(_ONE)
    bc = log.read("BC", ctx.divide(ctx.multiply(ab_set, c), sin_c))
    ac = log.read("AC", ctx.divide(ab_set, sin_c))
    ratio = ctx.divide(bc, ac)
    noise = ctx.multiply(ratio, ctx.add(ctx.divide(h, bc), ctx.divide(h, ac)))
    iv = c_iv.widen(noise)
    return _package(x.sign, ratio, k, iv, log, ctx)


# --- exponent recovery on the device ------------------------------------

def _corner_exponent(u_iv: _Iv, w_iv: _Iv, ctx: Context) -> _Iv:
    """Interval of ln w / ln u over interval corners, u and w in (0, 1)."""
    vals = []
    for u in (u_iv.lo, u_iv.hi):
        if not 0 < u < 1:
            continue
        lu = ctx.ln(u)
        for w in (w_iv.lo, w_iv.hi):
            if not 0 < w < 1:
                continue
            vals.append(ctx.divide(ctx.ln(w), lu))
    if not vals:
        raise DomainError("interval collapsed out of (0, 1)")
    return _Iv(min(vals), max(vals))


def _cf_level_steps(u_set: Decimal, u_iv: _Iv, v: Decimal,
                    model: MeasurementModel, policy: PrecisionPolicy,
                    log: _Log):
    """Step arms at cos C = Q(u_set) until a reading drops below v.

    Comparisons against the target stick are visual and unlogged; the
    log keeps re-anchor readings and the crossing pair.  A stage that
    ends without crossing re-anchors on its last reading, at the same
    scale.  Returns (N, reading at N, chain interval at N), or None when
    the crossing lies past the step budget or past a reading below 0.1:
    re-anchoring there would need a decade shift, and the caller bands
    the level by corner exponents instead.
    """
    ctx = policy.oracle_ctx()
    h = model.half_step
    state = assemble(u_set, _ONE, 1, model, settings=(u_set, _ONE),
                     policy=policy)
    cos_true = state.cos_c
    anchor = state.perp_ab
    cur_iv = _point(anchor)
    n = 0
    prev = None                   # (n, reading, interval, true length)
    while True:
        d, p = 0, anchor
        while d < N_ARMS:
            nxt = ctx.multiply(p, cos_true)
            if nxt < model.arm_min:
                if d:
                    break
                raise ArmOutOfRange("arm collapsed below range at "
                                    f"cos C = {cos_true}")
            d, p = d + 1, nxt
            n += 1
            q = model.quantize(p)
            iv = cur_iv.mul(u_iv.pow_int(d)).widen(h)
            if q < v:
                if prev is None:
                    return None
                log.read(arm_id(max(1, d - 1)), prev[3])
                log.read(arm_id(d), p)
                return prev[:3]
            prev = (n, q, iv, p)
            if n >= _LEVEL_STEP_CAP:
                return None
        # stage exhausted without crossing: re-anchor on the last read,
        # unless it sits below 0.1 and would need a decade shift
        log.read(arm_id(d), p)
        if q < _TENTH:
            return None
        anchor, cur_iv = q, iv


def _script_cf(x: SignedScaled, a: SignedScaled, model: MeasurementModel,
               policy: PrecisionPolicy) -> MeasuredResult:
    """Recover t with x**t = a by arm counting, as a banded interval."""
    ctx = policy.oracle_ctx()
    h = model.half_step
    log = _Log(model)
    if x.sign < 0 or a.sign < 0:
        raise DomainError("exponent recovery needs positive values")
    xd, ad = x.value(), a.value()
    if xd == 1 or ad == 1:
        raise DomainError("exponent recovery is degenerate at 1")
    if (xd > 1) != (ad > 1):
        raise DomainError("base and target must sit on the same side of 1")
    u = ctx.divide(_ONE, xd) if xd > 1 else xd
    v = ctx.divide(_ONE, ad) if ad > 1 else ad
    swapped = v > u
    if swapped:
        u, v = v, u
    u_iv = _point(u).widen(h)     # settings put the realized cosine here
    v_iv = _point(v)
    term_tol = max(_CF_TERM_FLOOR, ctx.multiply(20, model.resolution))
    terms: list[int] = []
    tail: _Iv | None = None
    for _ in range(_CF_MAX_DEPTH):
        got = _cf_level_steps(u, u_iv, v, model, policy, log)
        if got is None:
            break
        n_steps, reading, ch_iv = got
        certain = (ctx.power(u_iv.lo, Decimal(n_steps)) >= v_iv.hi
                   and ctx.power(u_iv.hi, Decimal(n_steps + 1)) < v_iv.lo)
        if not certain:
            break
        w = ctx.divide(v, reading)
        if w > 1:
            w = _ONE
        w_iv = v_iv.div(ch_iv)
        if w_iv.hi > 1:
            w_iv = _Iv(min(w_iv.lo, _ONE), _ONE)
        if ctx.subtract(_ONE, w) <= term_tol:
            # residual indistinguishable from 1: close with a tail bound
            w_lo = min(w, w_iv.lo)
            if w_lo >= 1:
                tail = _point(Decimal(n_steps))
            else:
                r_hi = ctx.divide(ctx.ln(w_lo), ctx.ln(u_iv.hi))
                if r_hi >= 1:
                    t_hi = _ONE
                else:
                    t_hi = ctx.divide(_ONE,
                                      Decimal(int(ctx.divide(_ONE, r_hi))))
                tail = _Iv(Decimal(n_steps), _UP.add(n_steps, t_hi))
            break
        terms.append(n_steps)
        u_iv, v_iv = w_iv.hull(_point(w).widen(h)), u_iv
        u, v = w, u
    if tail is None:
        # stopped without resolving the level: cover its whole exponent
        lvl = _corner_exponent(u_iv, v_iv, ctx)
        tail = _Iv(max(_ONE, lvl.lo), lvl.hi)
    level = tail
    for t in reversed(terms):
        level = _Iv(ctx.add(Decimal(t), ctx.divide(_ONE, level.hi)),
                    ctx.add(Decimal(t), ctx.divide(_ONE, level.lo)))
    if swapped:
        level = _Iv(ctx.divide(_ONE, level.hi), ctx.divide(_ONE, level.lo))
    mid = ctx.divide(ctx.add(level.lo, level.hi), _TWO)
    half = ctx.divide(ctx.subtract(level.hi, level.lo), _TWO)
    return MeasuredResult(value=SignedScaled.from_decimal(mid),
                          half_width=ctx.plus(half),
                          readings=tuple(log.readings),
                          true_lengths=tuple(log.trues))


# --- script driver ------------------------------------------------------

# op: (script, operand kinds); "num" operands are decimal literals
SCRIPTS = {"pow": (_script_power, ("num", "int")),
           "root": (_script_root, ("num", "int")),
           "mul": (_script_multiply, ("num", "num")),
           "div": (_script_divide, ("num", "num")),
           "gmean": (_script_gmean, ("num", "num")),
           "recip": (_script_recip, ("num",)),
           "cf": (_script_cf, ("num", "num"))}


def _script(op: str, n_args: int):
    """The script and operand kinds of `op`, checking its arity."""
    if op not in SCRIPTS:
        raise ParseError(f"unknown device operation {op!r}")
    script, kinds = SCRIPTS[op]
    if n_args != len(kinds):
        raise ParseError(f"{op} takes {len(kinds)} arguments, got {n_args}")
    return script, kinds


def parse_script_line(line: str):
    """Split `op arg... [resolution=R]`; returns (op, args, resolution)."""
    tokens = line.split()
    op, rest = tokens[0], tokens[1:]
    resolution = None
    if rest and rest[-1].startswith("resolution="):
        resolution = parse_decimal(rest.pop().split("=", 1)[1])
    _script(op, len(rest))
    return op, rest, resolution


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"not an integer: {text!r}") from None


def run_op(op: str, args: list[str], model: MeasurementModel,
           policy: PrecisionPolicy = DEFAULT_POLICY) -> MeasuredResult:
    script, kinds = _script(op, len(args))
    operands = [normalize(a) if kind == "num" else _integer(a)
                for a, kind in zip(args, kinds)]
    return script(*operands, model, policy)


def run_script(script, model: MeasurementModel | None = None,
               policy: PrecisionPolicy = DEFAULT_POLICY
               ) -> list[MeasuredResult]:
    """Run a measurement script: one operation per line.

    Lines are `op arg... [resolution=R]`; blank lines and # comments
    are skipped.  A resolution field swaps the graduation for that line.
    An error keeps its type and is prefixed with its 1-based line number.
    """
    lines = script.splitlines() if isinstance(script, str) else list(script)
    base = model if model is not None else MeasurementModel()
    out = []
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            op, args, resolution = parse_script_line(line)
            m = base if resolution is None else replace(
                base, resolution=resolution)
            out.append(run_op(op, args, m, policy))
        except GeocalcError as e:
            raise type(e)(f"line {number}: {e}") from e
    return out
