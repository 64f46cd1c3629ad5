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
from decimal import Context, Decimal

from .cascade import _parity_adjust
from .errors import (ArmOutOfRange, DegenerateAngle, DomainError,
                     GeocalcError, ParseError)
from .exponents import (DEFAULT_CF_TOL, DEFAULT_MAX_DEPTH, cf_interval,
                        first_level)
from .numcore import (_ONE, _POS_INF, _TENTH, _TWO, _UP, DEFAULT_POLICY, OPS,
                      Interval, PrecisionPolicy, SignedScaled, bisect,
                      normalize, parse_decimal, parse_integer, renormalized,
                      shift10, to_text)
from .trace import foot_label, numbered_lines

DEFAULT_RESOLUTION = Decimal("1e-5")

# Graduations of the instrument ladder, coarse to fine, in metres:
# vernier caliper, screw micrometer, optical comparator, interferometric
# stage.
RESOLUTION_LADDER = (Decimal("1e-5"), Decimal("5e-7"),
                     Decimal("2e-7"), Decimal("1e-10"))

N_ARMS = 10                   # telescopic perpendiculars on the device
ARM_MIN, ARM_MAX = Decimal("0.01"), Decimal("2.0")   # their range, metres
_LEVEL_STEP_CAP = 10 ** 4


def arm_id(i: int) -> str:
    """Name of the i-th perpendicular arm (1-based): BD, DE, EF, ..."""
    head = "B" if i == 1 else foot_label(i - 1)
    return head + foot_label(i)


@dataclass(frozen=True)
class MeasurementModel:
    """Graduation size of every length the operator sets or reads."""

    resolution: Decimal = DEFAULT_RESOLUTION

    def __post_init__(self):
        if not (0 < self.resolution < ARM_MIN):
            raise DomainError(f"need 0 < resolution < {ARM_MIN}, the "
                              "shortest arm")
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
    """An assembled triangle: the set main arms and the true length of
    its arm BD (unquantized)."""

    bc_set: Decimal
    ac_set: Decimal
    cos_c: Decimal            # bc_set / ac_set, known exactly once set
    perp_ab: Decimal          # AB as set
    bd: Decimal


def assemble(bc: Decimal, ac: Decimal, perp: Decimal,
             model: MeasurementModel,
             policy: PrecisionPolicy = DEFAULT_POLICY) -> DeviceState:
    """Set BC, AC and AB on the graduations and fasten the arm BD.

    BD is a geometric consequence and must stay inside the telescopic
    range [ARM_MIN, ARM_MAX].
    """
    ctx = policy.oracle_ctx()
    bc, ac = model.quantize(bc), model.quantize(ac)
    if bc <= 0 or ac <= 0 or bc >= ac:
        raise DegenerateAngle(f"settings BC={bc} AC={ac} leave no triangle")
    cos_true = ctx.divide(bc, ac)
    ab = model.quantize(perp)
    if ab <= 0:
        raise DegenerateAngle("AB quantized to zero")
    bd = ctx.multiply(ab, cos_true)
    if not (ARM_MIN <= bd <= ARM_MAX):
        raise ArmOutOfRange(f"arm BD would be {bd}")
    return DeviceState(bc_set=bc, ac_set=ac, cos_c=cos_true, perp_ab=ab,
                       bd=bd)


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


class _Run:
    """One device run: model, policy, oracle context, half step, and the
    readings its script takes."""

    def __init__(self, model: MeasurementModel, policy: PrecisionPolicy):
        self.model, self.policy = model, policy
        self.ctx = policy.oracle_ctx()
        self.h = model.half_step
        self.readings, self.trues = [], []       # (name, q), true lengths

    def read(self, name: str, true_length: Decimal) -> Decimal:
        q = self.model.quantize(true_length)
        self.readings.append((name, q))
        self.trues.append(true_length)
        return q

    def package(self, sign: int, mantissa: Decimal, exponent: int,
                iv: Interval) -> MeasuredResult:
        """Result from a raw mantissa + interval at 10**exponent scale.
        Refuses a band wider than its value, which says nothing of it."""
        half = iv.half_width_about(mantissa)
        value = renormalized(sign, mantissa, exponent)
        if half > mantissa:
            band = to_text(renormalized(1, half, exponent), 3)
            raise DomainError(f"the band +/- {band} is wider than the value "
                              f"{to_text(value, 5)}")
        return MeasuredResult(value=value,
                              half_width=shift10(half, exponent).copy_abs(),
                              readings=tuple(self.readings),
                              true_lengths=tuple(self.trues))


def _renorm_shift(q: Decimal) -> int:
    """Decades to lift a reading back into [0.1, 1)."""
    return -1 - q.adjusted()


# --- cascade scripts ----------------------------------------------------

def _staged_power(run: _Run, x_mant: Decimal, n: int
                  ) -> tuple[Decimal, int, Interval]:
    """Run n perpendiculars at the quantized angle cos C = Q(x)/Q(1).

    Returns (final stage reading, decade shift J accumulated by stage
    renormalization, telescoped interval containing both the chain and
    the ideal x**n).  Telescoped value of the result: reading * 10**-J.
    """
    ctx, h, model = run.ctx, run.h, run.model
    state = assemble(x_mant, _ONE, _ONE, model, run.policy)
    cos_true = state.cos_c
    cos_iv = Interval.around(x_mant, h).div(Interval.point(state.ac_set))
    ab = state.perp_ab            # set exactly on a graduation
    ab_iv = Interval.point(ab)
    shift_j = done = 0
    reading = iv = None
    while done < n:
        d, p = 0, ab
        while d < min(N_ARMS, n - done):
            nxt = ctx.multiply(p, cos_true)
            if nxt < ARM_MIN:
                break
            d, p = d + 1, nxt
        if d == 0:
            raise ArmOutOfRange(
                f"cos {cos_true} collapses below {ARM_MIN} from {ab}")
        reading = run.read(arm_id(d), p)
        iv = ab_iv.mul(cos_iv.pow_int(d)).widen(shift10(h, -shift_j))
        done += d
        if done < n:
            j = _renorm_shift(reading)
            ab = shift10(reading, j)
            ab_iv = iv.scale10(j)
            shift_j += j
    return reading, shift_j, iv


def _quotient(run: _Run, ab: Decimal, ab_iv: Interval, hyp: Decimal,
              hyp_iv: Interval) -> tuple[Decimal, Interval]:
    """AB over AC: BC = 1 against AC = Q(hyp), read BD = AB / AC.

    Returns the reading and its interval, for AB in `ab_iv` and the
    hypotenuse in `hyp_iv`.
    """
    bd = run.read("BD", assemble(_ONE, hyp, ab, run.model, run.policy).bd)
    return bd, ab_iv.mul(Interval.point(_ONE).div(hyp_iv)).widen(run.h)


def _device_reciprocal(run: _Run, mantissa: Decimal, exponent: int,
                       band: Decimal) -> tuple[Decimal, int, Interval]:
    """Reciprocal of mantissa * 10**exponent: AB = 1 over AC = Q(10m).

    `band` widens the hypotenuse for an uncertain input mantissa.
    Returns (BD reading, result exponent, interval at that scale).
    """
    if band == 0 and mantissa == _TENTH:
        return _TENTH, 2 - exponent, Interval.point(_TENTH)
    hyp_iv = Interval.around(mantissa, band).scale10(1).widen(run.h)
    bd, iv = _quotient(run, _ONE, Interval.point(_ONE), shift10(mantissa, 1),
                       hyp_iv)
    return bd, 1 - exponent, iv


def _script_power(run: _Run, x: SignedScaled, n: int) -> MeasuredResult:
    sign = -1 if (x.sign < 0 and n % 2) else 1
    reading, shift_j, iv = _staged_power(run, x.mantissa, abs(n))
    res = run.package(sign, reading, x.exponent * abs(n) - shift_j, iv)
    if n > 0:
        return res
    # x**n = 1 / x**|n|: the measured power's band widens the hypotenuse
    m, e = res.value.mantissa, res.value.exponent
    return run.package(sign, *_device_reciprocal(
        run, m, e, shift10(res.half_width, -e)))


def _script_recip(run: _Run, x: SignedScaled) -> MeasuredResult:
    return run.package(x.sign, *_device_reciprocal(
        run, x.mantissa, x.exponent, Decimal(0)))


def _script_multiply(run: _Run, a: SignedScaled,
                     b: SignedScaled) -> MeasuredResult:
    """One perpendicular: AB = Q(a), cos C = Q(b)/Q(1), read BD = a*b.
    No half step for the reading: around(a, h) * around(b, h) / Q(1) holds
    a*b (b < 1, |Q(1) - 1| <= h), and `package` measures from the reading."""
    h = run.h
    state = assemble(b.mantissa, _ONE, a.mantissa, run.model, run.policy)
    bd = run.read("BD", state.bd)
    cos_iv = Interval.around(b.mantissa, h).div(Interval.point(state.ac_set))
    iv = Interval.around(a.mantissa, h).mul(cos_iv)
    return run.package(a.sign * b.sign, bd, a.exponent + b.exponent, iv)


def _script_divide(run: _Run, num: SignedScaled,
                   den: SignedScaled) -> MeasuredResult:
    h = run.h
    sign = num.sign * den.sign
    exponent = num.exponent - den.exponent + 1
    if den.is_power_of_ten:
        r = run.read("AB", num.mantissa)
        return run.package(sign, r, exponent, Interval.around(num.mantissa, h))
    # BC = 1 against AC = 10 * den mantissa; lift AB a decade when the
    # perpendicular would leave the telescopic range
    ab = num.mantissa
    if num.mantissa < run.ctx.multiply(Decimal("0.12"), den.mantissa):
        ab = shift10(num.mantissa, 1)
        exponent -= 1
    hyp = shift10(den.mantissa, 1)
    bd, iv = _quotient(run, ab, Interval.around(ab, h), hyp,
                       Interval.around(hyp, h))
    return run.package(sign, bd, exponent, iv)


def _rotate(run: _Run, side):
    """Bisect the apex cosine in [1e-6, 1 - 1e-6] down to one graduation."""
    ctx, resolution = run.ctx, run.model.resolution
    return bisect(side, Decimal("1e-6"), Decimal("0.999999"), ctx, "rotation",
                  lambda lo, hi: ctx.subtract(hi, lo) < resolution)


def _script_gmean(run: _Run, a: SignedScaled,
                  b: SignedScaled) -> MeasuredResult:
    ctx, h, quantize = run.ctx, run.h, run.model.quantize
    m1, m2, half_exp = _parity_adjust(a, b)
    if m1 == m2:
        r = run.read("ED", m1)
        return run.package(a.sign, r, half_exp, Interval.around(m1, h))
    big, small = (m1, m2) if m1 > m2 else (m2, m1)
    ed = run.read("ED", small)
    target = run.read("AB", big)
    # rotate until the hypotenuse-side arm AB = ED / cos^2 C matches the
    # larger operand; AB is a main arm, ED a set perpendicular
    def side(c, i):
        r = quantize(ctx.divide(ed, ctx.multiply(c, c)))
        if r == target:
            return 0
        return -1 if r > target else 1

    c, lo, hi, accepted = _rotate(run, side)
    ab_final = ctx.divide(ed, ctx.multiply(c, c))
    if accepted or quantize(ab_final) == target:
        ab_iv = Interval.around(big, _UP.multiply(_TWO, h))
    else:
        ends = Interval(min(ab_final, ctx.divide(ed, ctx.multiply(hi, hi))),
                        max(ab_final, ctx.divide(ed, ctx.multiply(lo, lo))))
        ab_iv = ends.hull(Interval.point(big)).widen(_UP.multiply(_TWO, h))
    bd = run.read("BD", ctx.divide(ed, c))
    iv = Interval.around(small, h).mul(ab_iv).sqrt().widen(h)
    return run.package(a.sign, bd, half_exp, iv)


def _script_root(run: _Run, x: SignedScaled, n: int) -> MeasuredResult:
    ctx, h, model = run.ctx, run.h, run.model
    if n == 1:
        r = run.read("AB", x.mantissa)
        return run.package(x.sign, r, x.exponent,
                           Interval.around(x.mantissa, h))
    k = -((-x.exponent) // n)           # ceil(exponent / n)
    target = shift10(x.mantissa, x.exponent - n * k)   # telescoped, < 1
    quantize = model.quantize

    def chain(c: Decimal, with_log: bool):
        # continuous rotation; only re-anchor readings quantize
        p, j, d_since, anchors = _ONE, 0, 0, []
        for i in range(n):
            p = ctx.multiply(p, c)
            d_since += 1
            if i + 1 < n and (ctx.multiply(p, c) < ARM_MIN
                              or d_since == N_ARMS):
                q = run.read(arm_id(d_since), p) if with_log else quantize(p)
                anchors.append(q)
                jj = _renorm_shift(q)
                p, j, d_since = shift10(q, jj), j + jj, 0
        return p, j, anchors

    def side(c, i):
        p, j, _ = chain(c, False)
        return -1 if shift10(p, -j) < target else 1

    c, lo, hi, _ = _rotate(run, side)
    p_fin, j_fin, anchors = chain(c, True)
    # a re-anchor reading q stands for a length in q -+ h, so the chain's
    # relative envelope is the product of q / (q -+ h)
    rel_iv = Interval.point(_ONE)
    for q in anchors:
        rel_iv = rel_iv.mul(Interval.point(q).div(Interval.around(q, h)))
    # the ideal cosine sits within: half the bracket, plus the reading
    # envelope and the residual mismatch divided through the slope of c^n
    mismatch = ctx.divide(ctx.subtract(shift10(p_fin, -j_fin), target).copy_abs(),
                          target)
    eps_rel = ctx.add(rel_iv.half_width_about(_ONE), mismatch)
    slack = ctx.divide(ctx.multiply(c, eps_rel), Decimal(n))
    c_iv = Interval(lo, hi).widen(slack)
    sin_c = ctx.sqrt(ctx.subtract(_ONE, ctx.multiply(c, c)))
    ab_set = model.quantize(_ONE)
    bc = run.read("BC", ctx.divide(ctx.multiply(ab_set, c), sin_c))
    ac = run.read("AC", ctx.divide(ab_set, sin_c))
    ratio = ctx.divide(bc, ac)
    noise = ctx.multiply(ratio, ctx.add(ctx.divide(h, bc), ctx.divide(h, ac)))
    return run.package(x.sign, ratio, k, c_iv.widen(noise))


# --- exponent recovery on the device ------------------------------------

def _corner_exponent(u_iv: Interval, w_iv: Interval, ctx: Context) -> Interval:
    """Interval of ln w / ln u for u in u_iv and w in w_iv, with u.lo and
    w.lo in (0, 1).  It starts at 0 when w reaches 1 and is unbounded
    above when u reaches 1."""
    lo = (Decimal(0) if w_iv.hi >= 1
          else ctx.divide(ctx.ln(w_iv.hi), ctx.ln(u_iv.lo)))
    hi = (_POS_INF if u_iv.hi >= 1
          else ctx.divide(ctx.ln(w_iv.lo), ctx.ln(u_iv.hi)))
    return Interval(lo, hi)


def _cf_level_steps(run: _Run, u_set: Decimal, u_iv: Interval, v: Decimal):
    """Step arms at cos C = Q(u_set) until a reading drops below v.

    Comparisons against the target stick are visual and unlogged; the
    log keeps re-anchor readings and the crossing pair.  A stage that
    ends without crossing re-anchors on its last reading, at the same
    scale.  Returns (N, reading at N, chain interval at N), or None when
    the crossing lies past the step budget or past a reading below 0.1:
    re-anchoring there would need a decade shift, and the caller bands
    the level by corner exponents instead.
    """
    ctx, h, model = run.ctx, run.h, run.model
    state = assemble(u_set, _ONE, _ONE, model, run.policy)
    cos_true = state.cos_c
    anchor = state.perp_ab
    cur_iv = Interval.point(anchor)
    n = 0
    prev = None                   # (n, reading, interval, true length)
    while True:
        d, p = 0, anchor
        while d < N_ARMS:
            nxt = ctx.multiply(p, cos_true)
            if nxt < ARM_MIN:
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
                run.read(arm_id(max(1, d - 1)), prev[3])
                run.read(arm_id(d), p)
                return prev[:3]
            prev = (n, q, iv, p)
            if n >= _LEVEL_STEP_CAP:
                return None
        # stage exhausted without crossing: re-anchor on the last read,
        # unless it sits below 0.1 and would need a decade shift
        run.read(arm_id(d), p)
        if q < _TENTH:
            return None
        anchor, cur_iv = q, iv


def _script_cf(run: _Run, x: SignedScaled, a: SignedScaled) -> MeasuredResult:
    """Recover t with x**t = a by arm counting, as a banded interval."""
    ctx, h = run.ctx, run.h
    u, v, terms = first_level(x, a, ctx)
    u_iv = Interval.around(u, h)     # settings put the realized cosine here
    v_iv = Interval.point(v)
    term_tol = max(DEFAULT_CF_TOL, ctx.multiply(20, run.model.resolution))
    tail = None
    for _ in range(DEFAULT_MAX_DEPTH):
        got = _cf_level_steps(run, u, u_iv, v)
        if got is None:
            break
        n_steps, reading, ch_iv = got
        certain = (ctx.power(u_iv.lo, Decimal(n_steps)) >= v_iv.hi
                   and ctx.power(u_iv.hi, Decimal(n_steps + 1)) < v_iv.lo)
        if not certain:
            break
        w = min(ctx.divide(v, reading), _ONE)
        w_iv = v_iv.div(ch_iv)
        if w_iv.hi > 1:
            w_iv = Interval(min(w_iv.lo, _ONE), _ONE)
        if ctx.subtract(_ONE, w) <= term_tol:
            # residual indistinguishable from 1: close with a tail bound
            w_lo = min(w, w_iv.lo)
            if w_lo >= 1:
                tail = Interval.point(Decimal(n_steps))
            else:
                # the next term is at least floor(1 / r_hi), and at least 1
                r_hi = ctx.divide(ctx.ln(w_lo), ctx.ln(u_iv.hi))
                t_hi = ctx.divide(_ONE, Decimal(max(
                    1, int(ctx.divide(_ONE, r_hi)))))
                tail = Interval(Decimal(n_steps), _UP.add(n_steps, t_hi))
            break
        terms.append(n_steps)
        u_iv, v_iv = w_iv.hull(Interval.around(w, h)), u_iv
        u, v = w, u
    if tail is None:
        # stopped without resolving the level: cover its whole exponent
        lvl = _corner_exponent(u_iv, v_iv, ctx)
        tail = Interval(max(_ONE, lvl.lo), lvl.hi)
    level = cf_interval(terms, tail)
    if level.hi == _POS_INF:
        raise DegenerateAngle("the cosine band reaches 1, so the exponent "
                              "has no upper bound")
    return run.package(1, ctx.divide(ctx.add(level.lo, level.hi), _TWO), 0,
                       level)


# --- script driver ------------------------------------------------------

# op: script; its operand names and domain rule are the op's row of OPS
SCRIPTS = {"pow": _script_power, "root": _script_root,
           "mul": _script_multiply, "div": _script_divide,
           "gmean": _script_gmean, "recip": _script_recip, "cf": _script_cf}


def _script(op: str, n_args: int):
    """The script, operand names and rule of `op`, checking its arity."""
    if op not in SCRIPTS:
        raise ParseError(f"unknown device operation {op!r}")
    names, rule, _ = OPS[op]
    if n_args != len(names):
        raise ParseError(f"{op} takes {len(names)} arguments, got {n_args}")
    return SCRIPTS[op], names, rule


def parse_script_line(line: str):
    """Split `op arg... [resolution=R]`; returns (op, args, resolution)."""
    tokens = line.split()
    op, rest = tokens[0], tokens[1:]
    resolution = None
    if rest and rest[-1].startswith("resolution="):
        resolution = parse_decimal(rest.pop().split("=", 1)[1])
    _script(op, len(rest))
    return op, rest, resolution


def run_op(op: str, args: list[str], model: MeasurementModel,
           policy: PrecisionPolicy = DEFAULT_POLICY) -> MeasuredResult:
    """Run `op` on its operand texts; its rule runs before any arm is set."""
    script, names, rule = _script(op, len(args))
    operands = [parse_integer(a) if name in "mn" else normalize(a)
                for a, name in zip(args, names)]
    if rule is not None:
        rule(*operands)
    return script(_Run(model, policy), *operands)


def run_script(script, model: MeasurementModel | None = None,
               policy: PrecisionPolicy = DEFAULT_POLICY
               ) -> list[MeasuredResult]:
    """Run a measurement script: one operation per line.

    Lines are `op arg... [resolution=R]`; blank lines and # comments
    are skipped.  A resolution field swaps the graduation for that line.
    An error keeps its type and is prefixed with its 1-based line number.
    """
    lines = script.splitlines() if isinstance(script, str) else script
    base = model if model is not None else MeasurementModel()
    out = []
    for number, line in numbered_lines(lines):
        try:
            op, args, resolution = parse_script_line(line)
            m = base if resolution is None else replace(
                base, resolution=resolution)
            out.append(run_op(op, args, m, policy))
        except GeocalcError as e:
            raise type(e)(f"line {number}: {e}") from e
    return out
