"""Simulated telescopic-arm device: quantization, scripts, error bounds."""

import importlib
import itertools
import math
import random
from decimal import (Context, Decimal, Inexact, ROUND_CEILING, ROUND_DOWN,
                     localcontext)
from fractions import Fraction
from pathlib import Path

import pytest

from geocalc import (ArmOutOfRange, DEFAULT_POLICY, DEFAULT_RESOLUTION,
                     DegenerateAngle, EvenRootOfNegative, GeocalcError,
                     MeasurementModel, ParseError, PrecisionPolicy,
                     RESOLUTION_LADDER, RootQuery, assemble, divide,
                     geometric_mean, multiply, normalize, nth_root,
                     oracle_eval, power, rational_power,
                     recover_rational_exponent, run_op, run_script,
                     shift10)
from geocalc import mechsim, numcore
from geocalc.mechsim import (ARM_MIN, RESOLUTION_MIN, SCRIPTS, arm_id,
                             parse_script_line)
from conftest import rel_diff

POL = DEFAULT_POLICY
ORACLE_CTX = POL.oracle_ctx()
ONE = Decimal(1)


def oracle_for(op: str, args: list) -> Decimal:
    if op == "cf":
        x, a = (normalize(s).value() for s in args)
        return ORACLE_CTX.divide(ORACLE_CTX.ln(a), ORACLE_CTX.ln(x))
    if op in ("pow", "root"):
        operands = (normalize(args[0]), int(args[1]))
    else:
        operands = tuple(normalize(s) for s in args)
    return oracle_eval(op, operands, POL).value()


def test_quantize_snaps_to_graduations():
    m = MeasurementModel()
    assert m.resolution == DEFAULT_RESOLUTION
    assert m.quantize(Decimal("0.123456789")) == Decimal("0.12346")
    assert m.quantize(Decimal("0.12344999")) == Decimal("0.12345")
    assert m.quantize(Decimal("0.5")) == Decimal("0.5")


def fraction_quantize(length: Decimal, resolution: Decimal) -> Decimal:
    """Rational reference for graduation snapping, ties to even."""
    steps = Fraction(length) / Fraction(resolution)
    n = math.floor(steps)
    frac = steps - n
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and n % 2):
        n += 1
    return Context(prec=60, rounding=ROUND_CEILING).multiply(Decimal(n),
                                                             resolution)


def quantize_cases(res: Decimal, rng: random.Random) -> list[Decimal]:
    """0, random 60-digit lengths, lengths from 1e-40 to 1e3, and every
    kind of exact midpoint k*res + res/2 with its two neighbours."""
    cases = [Decimal(0), Decimal("-0"), Decimal("0E-80")]
    cases += [Decimal(f"0.{rng.randrange(10 ** 59, 10 ** 60)}e{rng.randint(-2, 1)}")
              for _ in range(300)]
    for e in range(-40, 4):
        cases.append(Decimal(f"1e{e}"))
        cases += [Decimal(f"{rng.randrange(1, 10 ** 20)}e{e - 20}")
                  for _ in range(5)]
    exact = Context(prec=100)
    half, tiny = res / 2, Decimal("1e-70")
    for k in (0, 1, 2, 3, 10, 11, 12345, 12346, 10 ** 7, 10 ** 7 + 1,
              *(rng.randrange(10 ** 12) for _ in range(40))):
        mid = exact.add(exact.multiply(k, res), half)
        cases += [mid, exact.subtract(mid, tiny), exact.add(mid, tiny)]
    return cases


def test_quantize_matches_rational_reference_on_every_rung():
    rng = random.Random(6021)
    for res in RESOLUTION_LADDER:
        m = MeasurementModel(resolution=res)
        for x in quantize_cases(res, rng):
            assert str(m.quantize(x)) == str(fraction_quantize(x, res)), (res, x)


def test_quantize_ignores_the_callers_context():
    rng = random.Random(6022)
    for res in RESOLUTION_LADDER:
        m = MeasurementModel(resolution=res)
        cases = quantize_cases(res, rng)
        want = [str(m.quantize(x)) for x in cases]
        with localcontext(Context(prec=5, rounding=ROUND_DOWN,
                                  traps=[Inexact])):
            got = [str(m.quantize(x)) for x in cases]
        assert got == want


def test_quantize_matches_rational_reference_off_the_ladder():
    # lengths up to 10 put the step count past 5 digits, up to 16 at the
    # floor 4e-15, so a sum, tie test or increment under the caller's
    # prec-5 context would trap
    rng, exact, tiny = random.Random(6023), Context(prec=100), Decimal("1e-70")
    for text in ("3e-7", "1.5e-6", "7e-12", "4e-15"):
        res = Decimal(text)
        m = MeasurementModel(resolution=res)
        cases = [Decimal("-0"), Decimal("0E-80")]
        cases += [Decimal(f"{rng.randrange(10 ** 60)}e-59")
                  for _ in range(200)]
        top = int(Fraction(10) / Fraction(res))
        for k in (0, 1, 2, 3, top - 2, top - 1,
                  *(rng.randrange(top) for _ in range(60))):
            mid = exact.add(exact.multiply(k, res), exact.divide(res, 2))
            cases += [mid, exact.subtract(mid, tiny), exact.add(mid, tiny)]
        want = [str(fraction_quantize(x, res)) for x in cases]
        with localcontext(Context(prec=5, rounding=ROUND_DOWN,
                                  traps=[Inexact])):
            got = [str(m.quantize(x)) for x in cases]
        assert got == want, text


def test_unit_length_is_on_grid_at_every_resolution():
    for res in RESOLUTION_LADDER:
        m = MeasurementModel(resolution=res)
        assert m.quantize(ONE) == ONE
        assert m.half_step == res / 2


def test_arm_ids_walk_the_foot_labels():
    assert [arm_id(i) for i in (1, 2, 3, 4)] == ["BD", "DE", "EF", "FG"]


def test_assemble_quantizes_settings_and_fastens():
    m = MeasurementModel()
    st = assemble(Decimal("0.654321987"), ONE, ONE, m)
    assert st.bc_set == Decimal("0.65432")
    assert st.ac_set == ONE
    # realized cosine comes from the set lengths, not the request
    assert st.cos_c == ORACLE_CTX.divide(st.bc_set, st.ac_set)
    assert st.bd == ORACLE_CTX.multiply(st.perp_ab, st.cos_c)
    assert m.quantize(st.bc_set) == st.bc_set


def test_assemble_rejects_degenerate_settings():
    m = MeasurementModel()
    with pytest.raises(DegenerateAngle):
        assemble(ONE, ONE, ONE, m)
    with pytest.raises(DegenerateAngle):
        assemble(Decimal("0.000001"), ONE, ONE, m)


def test_arm_range_guard():
    m = MeasurementModel()
    # BD = 0.02 * 0.2 = 0.004 falls below the 0.01 telescopic minimum
    with pytest.raises(ArmOutOfRange):
        assemble(Decimal("0.02"), ONE, Decimal("0.2"), m)


def test_readings_sit_on_the_grid():
    m = MeasurementModel()
    st = assemble(Decimal("0.654321"), ONE, ONE, m)
    r = m.quantize(st.bd)
    assert (r / m.resolution) == int(r / m.resolution)


def test_non_integer_operand_is_a_parse_error():
    with pytest.raises(ParseError, match="not an integer"):
        run_op("pow", ["2", "x"], MeasurementModel())
    with pytest.raises(ParseError, match="not an integer"):
        run_script("root 2 1.5")


# The engine functions of each op.  The oracle and the device, where
# they have the op, must refuse the same operands with the same error.
ENGINE_CALLS = {
    "cf": [recover_rational_exponent],
    "root": [lambda x, n: nth_root(RootQuery(x, n))],
    "pow": [power],
    "powfrac": [rational_power, lambda x, m, n: rational_power(
        x, m, n, strategy="split")],
    "gmean": [geometric_mean], "mul": [multiply], "div": [divide],
}


@pytest.mark.parametrize("op, args", [
    ("cf", ["-2", "0.5"]), ("cf", ["0.5", "-0.2"]), ("cf", ["1", "2"]),
    ("cf", ["2", "1"]), ("cf", ["2", "0.5"]), ("cf", ["0.5", "2"]),
    ("root", ["2", "0"]), ("root", ["-8", "2"]), ("pow", ["2", "0"]),
    ("pow", ["2", "1000001"]), ("pow", ["2", "-1000001"]),
    ("pow", ["2", "2000000"]), ("pow", ["1e900000", "2000"]),
    ("root", ["-16", "4"]), ("powfrac", ["-8", "1", "2"]),
    ("powfrac", ["2", "1", "0"]), ("powfrac", ["2", "2000000", "3"]),
    ("powfrac", ["1e900000", "2000", "3"]), ("gmean", ["-2", "3"]),
    ("mul", ["1e900000000", "1e900000000"]),
    ("div", ["1e900000000", "1e-900000000"]),
])
def test_device_and_engine_refuse_alike(op, args):
    operands = [int(a) if i and op in ("pow", "root", "powfrac")
                else normalize(a) for i, a in enumerate(args)]
    refusals = [lambda f=f: f(*operands) for f in ENGINE_CALLS[op]]
    if op != "cf":
        refusals.append(lambda: oracle_eval(op, tuple(operands)))
    if op in SCRIPTS:
        refusals.append(lambda: run_op(op, args, MeasurementModel()))
    errors = set()
    for refuse in refusals:
        with pytest.raises(GeocalcError) as e:
            refuse()
        errors.add((type(e.value), str(e.value)))
    assert len(errors) == 1, errors


def test_script_line_parsing():
    assert parse_script_line("pow 0.97 12") == ("pow", ["0.97", "12"], None)
    op, args, res = parse_script_line("div 5.972e24 7.348e22 resolution=2e-7")
    assert (op, args, res) == ("div", ["5.972e24", "7.348e22"],
                               Decimal("2e-7"))
    with pytest.raises(ParseError):
        parse_script_line("sqrt 2")
    with pytest.raises(ParseError):
        parse_script_line("pow 2")
    with pytest.raises(ParseError):
        parse_script_line("pow 2 3 resolution=abc")


def test_run_script_skips_blanks_and_comments():
    script = """
# telescoped power, then a quotient
pow 0.97 12

div 5.972e24 7.348e22 resolution=1e-10
"""
    results = run_script(script, policy=POL)
    assert len(results) == 2
    # the per-line override tightens the second result far below the first
    assert results[1].half_width < results[0].half_width


@pytest.mark.parametrize("script", [
    "# roots\n\nroot -8 2\n",
    "# roots\r\n\r\nroot -8 2\r\n",
], ids=["script0", "script1"])
def test_script_lines_count_blanks_and_comments(script):
    # LF and CRLF line endings number the lines alike
    with pytest.raises(EvenRootOfNegative, match="^line 3: index 2 root of "
                       "a negative radicand$"):
        run_script(script, policy=POL)


def test_script_results_are_deterministic():
    script = "gmean 0.5972 0.7348\nroot 0.8 3\n"
    r1 = run_script(script, policy=POL)
    r2 = run_script(script, policy=POL)
    assert r1 == r2


def test_power_of_ten_reciprocal_is_exact():
    m = MeasurementModel()
    res = run_op("recip", ["1000"], m, POL)
    assert res.value.value() == Decimal("0.001")
    assert res.half_width == 0


def test_every_reading_is_within_half_step():
    m = MeasurementModel()
    for op, args in [("pow", ["0.87", "8"]), ("root", ["0.3", "4"]),
                     ("gmean", ["0.2", "0.9"]), ("div", ["3.7", "8.1"])]:
        res = run_op(op, args, m, POL)
        assert res.readings, op
        for (_, reading), true in zip(res.readings, res.true_lengths):
            assert abs(reading - true) <= m.half_step


def test_soundness_on_mixed_ops_at_default_resolution():
    rng = random.Random(5150)
    m = MeasurementModel()
    for _ in range(150):
        pick = rng.random()
        if pick < 0.25:
            op = "pow"
            args = [f"0.{rng.randint(30, 97)}", str(rng.randint(2, 10))]
        elif pick < 0.45:
            op = "mul"
            args = [f"0.{rng.randint(100, 999)}", f"0.{rng.randint(100, 999)}"]
        elif pick < 0.65:
            op = "div"
            args = [f"{rng.randint(1, 999)}e{rng.randint(-3, 3)}",
                    f"{rng.randint(1, 999)}e{rng.randint(-3, 3)}"]
        elif pick < 0.8:
            op = "gmean"
            args = [f"0.{rng.randint(100, 999)}", f"0.{rng.randint(100, 999)}"]
        elif pick < 0.9:
            op = "recip"
            args = [f"{rng.uniform(1.05, 9.9):.4f}"]
        else:
            op = "root"
            args = [f"0.{rng.randint(150, 950)}", str(rng.randint(2, 5))]
        res = run_op(op, args, m, POL)
        truth = oracle_for(op, args)
        err = (res.value.value() - truth).copy_abs()
        assert err <= res.half_width, (op, args, err, res.half_width)


def test_cf_interval_contains_true_exponent():
    m = MeasurementModel()
    res = run_op("cf", ["2", "1896.998"], m, POL)
    truth = oracle_for("cf", ["2", "1896.998"])
    err = (res.value.value() - truth).copy_abs()
    assert err <= res.half_width


def test_cf_soundness_across_bases_targets_and_ladder():
    # random bases plus some below 0.1 and above 10; only a cosine below
    # the telescopic minimum may leave the device without a band
    ctx = Context(prec=80)
    rng = random.Random(1618)
    for res in RESOLUTION_LADDER:
        m = MeasurementModel(resolution=res)
        bases = [f"{rng.uniform(1.01, 9.9):.4f}" for _ in range(25)]
        bases += ["2", "3", "5", "20", "50", "1000", "0.01", "0.05", "0.09"]
        for x in bases:
            t = Decimal(f"{rng.uniform(1.1, 40):.6f}")
            a = f"{ctx.power(Decimal(x), t):.30e}"
            cos_c = min(Decimal(x), ctx.divide(ONE, Decimal(x)))
            try:
                got = run_op("cf", [x, a], m, POL)
            except ArmOutOfRange:
                assert cos_c < ARM_MIN, (x, a, res)
                continue
            truth = ctx.divide(ctx.ln(Decimal(a)), ctx.ln(Decimal(x)))
            err = ctx.subtract(got.value.value(), truth).copy_abs()
            assert err <= got.half_width, (x, a, res)
            assert got.half_width < truth / 100, (x, a, res)


def test_cf_level_stops_at_a_reading_below_a_tenth():
    # 0.5**6 is the last reading of the first stage and 2**-t crosses at
    # 10 arms: the level is banded by corner exponents after one reading
    x, a = "2", "1896.99842083110790327"
    truth = oracle_for("cf", [x, a])
    for res in RESOLUTION_LADDER:
        got = run_op("cf", [x, a], MeasurementModel(resolution=res), POL)
        assert len(got.readings) < 20, res
        err = (got.value.value() - truth).copy_abs()
        assert err <= got.half_width, res


def _eager_level_steps(run, u_set, u_iv, v):
    """Reference walk for `_cf_level_steps`: a chain interval at every
    arm.  Returns its result and the number of stages walked."""
    ctx, h, model = run.ctx, run.h, run.model
    state = mechsim.assemble(u_set, ONE, ONE, model, run.policy)
    anchor, cur_iv, n, prev, stages = (state.perp_ab,
                                       numcore.Interval.point(state.perp_ab),
                                       0, None, 1)
    while True:
        d, p = 0, anchor
        while d < mechsim.N_ARMS:
            nxt = ctx.multiply(p, state.cos_c)
            if nxt < ARM_MIN:
                assert d, "arm collapsed"
                break
            d, p, n = d + 1, nxt, n + 1
            q = model.quantize(p)
            iv = cur_iv.mul(u_iv.pow_int(d)).widen(h)
            if q < v:
                if prev is None:
                    return None, stages
                run.read(arm_id(max(1, d - 1)), prev[3])
                run.read(arm_id(d), p)
                return prev[:3], stages
            prev = (n, q, iv, p)
            if n >= mechsim._LEVEL_STEP_CAP:
                return None, stages
        run.read(arm_id(d), p)
        if q < Decimal("0.1"):
            return None, stages
        anchor, cur_iv, stages = q, iv, stages + 1


def test_cf_walk_forms_chain_intervals_only_where_read(monkeypatch):
    # the walk returns and logs what a walk with an interval at every arm
    # does, over device-ladder's cf lines at every rung and two long
    # walks, one re-anchoring ~700 times and one stopped at the step cap;
    # it takes at most one pow_int per stage plus one for its result
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    device = importlib.import_module("device")
    lines = [(spec[2], spec[3]) for seed in range(1, 6)
             for spec in device.specs(seed) if spec[1] == "cf"]
    runs = [(line, res) for line in lines for res in RESOLUTION_LADDER]
    runs += [(("1.0001", "2"), Decimal("1e-10")),
             (("1.00002", "2"), DEFAULT_RESOLUTION)]
    walk, pow_int = mechsim._cf_level_steps, numcore.Interval.pow_int
    calls, levels = [0], []

    def counted(iv, n):
        calls[0] += 1
        return pow_int(iv, n)

    def both(run, u_set, u_iv, v):
        ref = mechsim._Run(run.model, run.policy)
        want, stages = _eager_level_steps(ref, u_set, u_iv, v)
        start, calls[0] = len(run.readings), 0
        got = walk(run, u_set, u_iv, v)
        assert got == want
        assert run.readings[start:] == ref.readings
        assert run.trues[start:] == ref.trues
        assert calls[0] <= stages + 1, (calls[0], stages)
        levels.append((stages, got))
        return got

    monkeypatch.setattr(numcore.Interval, "pow_int", counted)
    monkeypatch.setattr(mechsim, "_cf_level_steps", both)
    for (x, a), res in runs:
        run_op("cf", [x, a], MeasurementModel(resolution=res), POL)
    assert len(lines) == 40 and len(levels) > 2 * len(runs)
    assert max(stages for stages, got in levels if got) > 600
    assert max(stages for stages, got in levels if got is None) >= 1000


@pytest.mark.parametrize("op, args", [
    ("gmean", ["0.5", "0.50000000000000000001"]),
    ("gmean", ["0.999999999999996", "0.999999999999992"]),
    ("gmean", ["0.999999999999999", "0.9999999999999995"]),
    ("root", ["0.99999999999999", "2"]),
    ("root", ["0.999999999999999999999", "3"]),
])
def test_resolution_floor_keeps_bands_near_one_graduation(op, args):
    # below the floor a cosine above the bracket top 1 - 1e-15 ended the
    # search collapsed at the top: gmean 0.5 0.50000000000000000001 at
    # 1e-20 printed a band of 5.01e-16, about 10**4 graduations
    got = run_op(op, args, MeasurementModel(resolution=RESOLUTION_MIN), POL)
    truth = oracle_for(op, args)
    assert abs(got.value.value() - truth) <= got.half_width
    assert got.half_width < 2 * RESOLUTION_MIN


def test_half_width_tightens_down_the_ladder():
    script = "pow 0.87 6"
    widths = []
    for res in RESOLUTION_LADDER:
        m = MeasurementModel(resolution=res)
        widths.append(run_script(script, model=m, policy=POL)[0].half_width)
    assert all(a >= b for a, b in zip(widths, widths[1:]))


def test_root_soundness_across_exponents_indices_and_ladder():
    # radicand exponents that are not multiples of the index telescope
    # the arm chain through several re-anchors
    ctx = Context(prec=80)
    rng = random.Random(2718)
    for res in RESOLUTION_LADDER:
        m = MeasurementModel(resolution=res)
        for n in range(2, 13):
            for e in range(-8, 9):
                x = f"0.{rng.randint(1000, 9999)}e{e}"
                got = run_op("root", [x, str(n)], m, POL)
                truth = ctx.power(Decimal(x), ctx.divide(ONE, Decimal(n)))
                err = ctx.subtract(got.value.value(), truth).copy_abs()
                assert err <= got.half_width, (x, n, res)
                assert got.half_width < truth / 100, (x, n, res)


def test_half_width_covers_the_interval_at_few_oracle_digits(monkeypatch):
    # at 30 oracle digits, fewer than the interval's 60, the reported
    # half-width still covers the outward interval
    seen = []
    package = mechsim._Run.package

    def spy(run, sign, mantissa, exponent, iv):
        res = package(run, sign, mantissa, exponent, iv)
        bound = shift10(iv.half_width_about(mantissa), exponent).copy_abs()
        seen.append((res.half_width, bound))
        return res

    monkeypatch.setattr(mechsim._Run, "package", spy)
    rng = random.Random(709)
    m, pol = MeasurementModel(), PrecisionPolicy(15)
    for _ in range(20):
        a, b = (f"0.{rng.randrange(10 ** 11, 10 ** 12)}e{rng.randint(-9, 9)}"
                for _ in range(2))
        for op, args in (("mul", [a, b]), ("div", [a, b]), ("gmean", [a, b]),
                         ("root", [a, "3"]), ("pow", [a, "4"]),
                         ("recip", [a])):
            run_op(op, args, m, pol)
    assert len(seen) >= 120
    assert all(half >= bound for half, bound in seen)


def _exponent_of(x: str, t: Decimal) -> str:
    return f"{Context(prec=80).power(Decimal(x), t):.30e}"


def _truth80(op: str, args: list) -> Decimal:
    ctx, x = Context(prec=80), Decimal(args[0])
    if op == "pow":
        return ctx.power(x, Decimal(args[1]))
    if op == "root":
        return ctx.power(x, ctx.divide(ONE, Decimal(args[1])))
    if op == "gmean":
        return ctx.sqrt(ctx.multiply(x, Decimal(args[1])))
    return ctx.divide(ctx.ln(Decimal(args[1])), ctx.ln(x))


# solution cosines above 0.999999: the rotation's bracket reaches past
# them, so the band is under 2 graduations at every rung.  A bracket
# topped at 1 - 1e-6 gave 4 501 and 10 000 graduations at 1e-10, and one
# topped at 1 - resolution 2.25 for gmean at 1e-5.
NEAR_ONE = [("gmean", ["0.5", "0.5000001"]), ("root", ["0.9999999999", "2"])]


@pytest.mark.parametrize("op, args", [
    ("pow", ["0.87", "-6"]), ("pow", ["-3.7e2", "-3"]),
    ("pow", ["0.5", "-10"]), ("pow", ["7.31e-4", "-2"]),
    ("root", ["2.5", "1"]), ("root", ["-0.3e-4", "1"]),
    ("root", ["0.12345e9", "1"]),
    # exponent below 1: the level is recovered for 1/t and swapped back
    ("cf", ["2", _exponent_of("2", Decimal(2) / 3)]),
    ("cf", ["0.3", _exponent_of("0.3", Decimal("0.45"))]),
    ("cf", ["7.5", _exponent_of("7.5", Decimal("0.8125"))]),
] + NEAR_ONE)
def test_device_branches_are_sound_at_every_rung(op, args):
    # rotations near cos C = 1, negative powers, first roots and swapped
    # continued fractions
    truth = _truth80(op, args)
    for res in RESOLUTION_LADDER:
        got = run_op(op, args, MeasurementModel(resolution=res), POL)
        err = (got.value.value() - truth).copy_abs()
        assert err <= got.half_width, (op, args, res)
        assert (op, args) not in NEAR_ONE or got.half_width < 2 * res, res


# t = 3 + d with d just above the half step at each rung: the residual
# after three arms is within the term tolerance of 1
CF_TAIL = dict(zip(RESOLUTION_LADDER, ("1e-4", "1e-5", "3e-6", "1e-9")))


@pytest.mark.parametrize("x", ["2", "0.5", "1.5"])
def test_device_cf_tail_bound_is_sound_at_every_rung(monkeypatch, x):
    corner_exponent = mechsim._corner_exponent

    def corner(u, w, ctx):
        # the tail bound takes r_hi at the point residual, at oracle digits
        if w.lo != w.hi or ctx.prec != POL.oracle_ctx().prec:
            raise AssertionError("the level was banded by corner exponents")
        return corner_exponent(u, w, ctx)

    monkeypatch.setattr(mechsim, "_corner_exponent", corner)
    for res, d in CF_TAIL.items():
        args = [x, _exponent_of(x, 3 + Decimal(d))]
        got = run_op("cf", args, MeasurementModel(resolution=res), POL)
        err = (got.value.value() - _truth80("cf", args)).copy_abs()
        assert err <= got.half_width, (args, res)


def test_device_cf_tail_r_hi_bounds_the_exact_ratio(monkeypatch):
    # r_hi bounds ln w_lo / ln u from above for every u in the level's
    # cosine band, on 230 tail levels over every rung; a half-even
    # quotient of half-even logs falls below the exact ratio on 118
    ref, seen = Context(prec=110), []
    corner_exponent = mechsim._corner_exponent

    def spy(u, w, ctx):
        got = corner_exponent(u, w, ctx)
        if w.lo == w.hi and ctx.prec == POL.oracle_ctx().prec:
            seen.append((u.hi, w.lo, got.hi))
        return got

    monkeypatch.setattr(mechsim, "_corner_exponent", spy)
    for x, k, (res, d), f in itertools.product(
            ("2", "0.5", "1.5", "0.9", "1.05", "1.25", "0.75", "0.95", "1.1",
             "0.8"), (1, 2, 3, 5), CF_TAIL.items(), ("1", "1.5")):
        args = [x, _exponent_of(x, k + Decimal(d) * Decimal(f))]
        got = run_op("cf", args, MeasurementModel(resolution=res), POL)
        err = (got.value.value() - _truth80("cf", args)).copy_abs()
        assert err <= got.half_width, (args, res)
    assert len(seen) >= 200, "the tail bound took no outward r_hi"
    for u_hi, w_lo, r_hi in seen:
        assert r_hi >= ref.divide(ref.ln(w_lo), ref.ln(u_hi)), (u_hi, w_lo)


def test_cf_level_with_a_cosine_band_reaching_one_is_sound():
    # the second level's residual is clamped at 1, so its exponent has
    # no upper bound and the first term alone bounds the band
    args = ["3", "27.0035597384564737318340895954"]
    got = run_op("cf", args, MeasurementModel(), POL)
    err = (got.value.value() - _truth80("cf", args)).copy_abs()
    assert err <= got.half_width


def test_corner_exponent_spans_zero_to_unbounded_at_one():
    iv, ctx = numcore.Interval, POL.oracle_ctx()
    u, w = iv(Decimal("0.5"), Decimal("0.6")), iv(Decimal("0.1"), Decimal("0.2"))
    got = mechsim._corner_exponent(u, w, ctx)
    # just outside the half-even corner quotients
    lo = ctx.divide(ctx.ln(w.hi), ctx.ln(u.lo))
    hi = ctx.divide(ctx.ln(w.lo), ctx.ln(u.hi))
    assert got.lo < lo and got.hi > hi
    assert rel_diff(got.lo, lo, ctx) < Decimal("1e-58")
    assert rel_diff(got.hi, hi, ctx) < Decimal("1e-58")
    got = mechsim._corner_exponent(iv(u.lo, ONE), iv(w.lo, ONE), ctx)
    assert got.lo == 0 and got.hi == Decimal("Infinity")


def test_corner_exponent_is_sound_where_a_top_log_cancels():
    # from 0.5 to 1 - 1e-40, ln lo + ln(hi / lo) at 30 digits cannot tell
    # ln hi = -1e-40 from 0: that side is unbounded for u, 0 for w
    iv, ctx = numcore.Interval, POL.ctx()
    near_one = iv(Decimal("0.5"), Decimal("0." + "9" * 40))
    other = iv(Decimal("0.1"), Decimal("0.2"))
    got = mechsim._corner_exponent(near_one, other, ctx)
    assert got.lo > 0 and got.hi == Decimal("Infinity")
    got = mechsim._corner_exponent(other, near_one, ctx)
    assert got.lo == 0 and got.hi > 0


@pytest.mark.parametrize("policy", [POL, PrecisionPolicy(15)])
def test_corner_exponent_rounds_outward(policy):
    # the band holds the corner quotients ln w.hi / ln u.lo and
    # ln w.lo / ln u.hi, taken at 110 digits, for random u and w in (0, 1)
    # at oracle digits; the logs run at oracle digits and at the working
    # digits that device cf passes
    rng, digits = random.Random(2929), policy.oracle_ctx().prec
    ref = Context(prec=110)

    def interval():
        lo, hi = sorted(Decimal(rng.randrange(1, 10 ** digits)).scaleb(
            -digits) for _ in range(2))
        return numcore.Interval(lo, hi)
    for _ in range(500):
        u, w = interval(), interval()
        for ctx in (policy.oracle_ctx(), policy.ctx()):
            got = mechsim._corner_exponent(u, w, ctx)
            assert got.lo <= ref.divide(ref.ln(w.hi), ref.ln(u.lo)), (u, w)
            assert got.hi >= ref.divide(ref.ln(w.lo), ref.ln(u.hi)), (u, w)


@pytest.mark.parametrize("policy", [POL, PrecisionPolicy(15)])
def test_corner_exponent_is_tight_on_narrow_bands(policy):
    # device bands are narrow: u and w of relative width 1e-12 to 1e-3,
    # and points, at oracle digits.  The band holds the corner quotients
    # taken at 110 digits, and each end lies within 6 units of ctx of
    # them, relative (4.2 is the most seen); a bound on ln(1 + d) as
    # loose as d, which is off by d**2 / 2, shows here
    rng, digits = random.Random(3131), policy.oracle_ctx().prec
    ref, cut = Context(prec=110), Context(prec=digits)

    def band():
        lo = Decimal(rng.randrange(2, 98) * 10 ** (digits - 2)
                     + rng.randrange(10 ** (digits - 2))).scaleb(
                         -digits - rng.choice((0, 0, 0, 1, 4)))
        if rng.random() < 0.2:
            return numcore.Interval(lo, lo)
        width = Decimal(10) ** Decimal(rng.uniform(-12, -3))
        return numcore.Interval(lo, cut.multiply(lo, 1 + width))
    for _ in range(400):
        u, w = band(), band()
        q_lo = ref.divide(ref.ln(w.hi), ref.ln(u.lo))
        q_hi = ref.divide(ref.ln(w.lo), ref.ln(u.hi))
        for ctx in (policy.oracle_ctx(), policy.ctx()):
            got = mechsim._corner_exponent(u, w, ctx)
            assert got.lo <= q_lo and got.hi >= q_hi, (u, w, ctx.prec)
            units = Decimal(6).scaleb(1 - ctx.prec)
            assert q_lo - got.lo <= ref.multiply(units, q_lo), (u, w)
            assert got.hi - q_hi <= ref.multiply(units, q_hi), (u, w)


@pytest.mark.parametrize("x, t", [("1.234567", Decimal(3) / 2),
                                  ("1.7", Decimal(5) / 3),
                                  ("1.05", Decimal(8) / 5)])
def test_device_cf_corner_levels_hold_the_truth_at_15_digits(monkeypatch, x,
                                                             t):
    # the deepest level is banded by corner logs at the 15 working digits
    policy, precs = PrecisionPolicy(15), []
    corner = mechsim._corner_exponent

    def spy(u, w, ctx):
        precs.append(ctx.prec)
        return corner(u, w, ctx)
    monkeypatch.setattr(mechsim, "_corner_exponent", spy)
    args = [x, _exponent_of(x, t)]
    truth = _truth80("cf", args)
    for res in RESOLUTION_LADDER:
        got = run_op("cf", args, MeasurementModel(resolution=res), policy)
        assert (got.value.value() - truth).copy_abs() <= got.half_width, res
    assert set(precs) == {15}


def test_device_cf_refuses_a_level_bounded_by_nothing(monkeypatch):
    unbounded = numcore.Interval(ONE, Decimal("Infinity"))
    monkeypatch.setattr(mechsim, "_cf_level_steps", lambda *_: None)
    monkeypatch.setattr(mechsim, "_corner_exponent", lambda *_: unbounded)
    with pytest.raises(DegenerateAngle, match="no upper bound"):
        run_op("cf", ["2", "8"], MeasurementModel(), POL)
    # a swapped level is the reciprocal: t in [0, 1]
    got = run_op("cf", ["8", "2"], MeasurementModel(), POL)
    assert got.value.value() == Decimal("0.5") == got.half_width
