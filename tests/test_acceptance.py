"""Acceptance gate: one test per shipped guarantee.

Each test wraps its checks in the `criterion` reporter so the run
prints a single PASS/FAIL line per guarantee.  Expected values were
frozen from an independent 60-digit reference computation.
"""

import math
import random
import time
from decimal import Decimal
from fractions import Fraction

from geocalc import (Construction, DEFAULT_POLICY, MeasurementModel,
                     RESOLUTION_LADDER, RootQuery, SignedScaled, TraceRecorder,
                     approximate_e, build_cascade, divide, evaluate_cf,
                     geometric_mean, multiply, normalize, nth_root,
                     oracle_eval, power, rational_power, reciprocal,
                     recover_exponent_via_logs, recover_rational_exponent,
                     render_svg, run_script, to_text)

POL = DEFAULT_POLICY
ORACLE_CTX = POL.oracle_ctx()

E_REF = Decimal("2.718281828459045235360287471352662497757")
A_2_1971_181 = normalize(
    "1896.99842083110790327024929966961121487868624225173871384836")
A_3_SQRT2 = normalize(
    "4.72880438783741494789428334041600536683971642425484")


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def gap(a: Decimal, b) -> Decimal:
    return ORACLE_CTX.subtract(a, Decimal(b)).copy_abs()


def test_c1_worked_examples(criterion):
    with criterion("C1 worked examples"):
        x = normalize("32357")
        up, dt = timed(lambda: power(x, 10, POL))
        assert dt < 1.0
        assert to_text(up, 12) == "1.25800535315e45"
        down, dt = timed(lambda: power(x, -10, POL))
        assert dt < 1.0
        assert to_text(down, 12) == "7.94909177049e-46"

        r, dt = timed(lambda: reciprocal(normalize("-1.602176634e-19"), POL))
        assert dt < 1.0
        # 1 ulp of the 8-digit rendering -6.2415091e18
        assert gap(r.value(), "-6.2415091e18") <= Decimal("1e11")

        earth, moon = normalize("5.972e24"), normalize("7.348e22")
        q, dt = timed(lambda: divide(earth, moon, POL))
        assert dt < 1.0
        assert gap(q.value(), "81.274") <= Decimal("0.001")

        g, dt = timed(lambda: geometric_mean(earth, moon, POL))
        assert dt < 1.0
        assert gap(g.value(), "6.6244e23") <= Decimal("1e20")

        rt, dt = timed(lambda: nth_root(RootQuery(earth, 6), POL))
        assert dt < 1.0
        assert gap(rt.value(), "1.34697e4") <= 1

        frac, dt = timed(lambda: rational_power(earth, 19, 7, POL))
        assert dt < 1.0
        assert to_text(frac, 10) == "1.776102502e67"


def test_c2_cf_recovery(criterion):
    with criterion("C2 continued-fraction exponent recovery"):
        cf = recover_rational_exponent(normalize("2"), A_2_1971_181,
                                       policy=POL)
        assert cf.terms == (10, 1, 8, 20) and cf.terminated
        assert evaluate_cf(cf) == Fraction(1971, 181)

        irr = recover_rational_exponent(normalize("3"), A_3_SQRT2,
                                        max_depth=8, policy=POL)
        assert irr.terms == (1, 2, 2, 2, 2, 2, 2, 2)
        assert not irr.terminated

        def sweep():
            rng = random.Random(2026)
            done = 0
            while done < 200:
                m, n = rng.randint(1, 50), rng.randint(1, 50)
                if math.gcd(m, n) != 1:
                    continue
                base = f"{rng.randint(2, 9)}.{rng.randint(0, 999):03d}"
                a = SignedScaled.from_decimal(ORACLE_CTX.power(
                    Decimal(base), ORACLE_CTX.divide(Decimal(m), Decimal(n))))
                got = recover_rational_exponent(normalize(base), a,
                                                policy=POL)
                assert evaluate_cf(got) == Fraction(m, n), (base, m, n)
                done += 1

        _, dt = timed(sweep)
        assert dt < 60.0


def test_c3_euler_ladder(criterion):
    with criterion("C3 Euler's number bound"):
        near = approximate_e(10 ** 6, policy=POL)
        assert gap(near.value, "2.7182818") <= Decimal("2e-6")

        def ladder():
            for k in range(8):
                n = 10 ** k
                a = approximate_e(n, policy=POL)
                err = ORACLE_CTX.subtract(E_REF, a.value).copy_abs()
                cap = ORACLE_CTX.divide(E_REF, 2 * Decimal(n))
                assert err <= cap, n

        _, dt = timed(ladder)
        assert dt < 10.0


def test_c4_change_of_base(criterion):
    with criterion("C4 change-of-base ratio"):
        want = Decimal("1.09428907841887309475328099934199930522543871469692")
        _, _, ratio = recover_exponent_via_logs(normalize("98"),
                                                normalize("151"),
                                                policy=POL)
        assert gap(ratio.value(), want) <= Decimal("1e-4")


def test_c5_property_suites(criterion):
    with criterion("C5 construction property suites"):
        rng = random.Random(41020)
        for _ in range(10 ** 4):
            cos_c = Decimal(f"0.{rng.randint(10 ** 8, 10 ** 9 - 1)}")
            perp = Decimal(f"0.{rng.randint(10 ** 8, 10 ** 9 - 1)}")
            c = Construction(cos_c, perp, depth=rng.randint(1, 12))
            assert build_cascade(c, POL).validate(POL)

        tol = Decimal("1e-10")
        for _ in range(200):
            x = normalize(f"{rng.randint(1, 9999)}.{rng.randint(0, 999):03d}")
            n = rng.randint(2, 9)
            back = nth_root(RootQuery(power(x, n, POL), n), POL)
            rel = ORACLE_CTX.divide(
                ORACLE_CTX.subtract(back.value(), x.value()).copy_abs(),
                x.value())
            assert rel <= tol, (x, n)

        for _ in range(200):
            a = normalize(f"{rng.randint(1, 999)}e{rng.randint(-9, 9)}")
            b = normalize(f"{rng.randint(1, 999)}e{rng.randint(-9, 9)}")
            g1 = geometric_mean(a, b, POL, method="bisect").value()
            g2 = geometric_mean(a, b, POL, method="rotate").value()
            d1 = divide(a, b, POL, method="hypotenuse").value()
            d2 = divide(a, b, POL, method="similar-triangles").value()
            assert ORACLE_CTX.divide(
                ORACLE_CTX.subtract(g1, g2).copy_abs(), g1) <= tol
            assert ORACLE_CTX.divide(
                ORACLE_CTX.subtract(d1, d2).copy_abs(), d1.copy_abs()) <= tol

        a, b = normalize("3.7"), normalize("0.52")
        base_mul = multiply(a, b, POL)
        base_div = divide(a, b, POL)
        for sa in (1, -1):
            for sb in (1, -1):
                sx = normalize(f"{'-' if sa < 0 else ''}3.7")
                sy = normalize(f"{'-' if sb < 0 else ''}0.52")
                prod = multiply(sx, sy, POL)
                quot = divide(sx, sy, POL)
                assert prod.sign == sa * sb and quot.sign == sa * sb
                assert prod.mantissa == base_mul.mantissa
                assert quot.mantissa == base_div.mantissa


def _mech_scripts(count: int):
    rng = random.Random(8128)
    lines = []
    for _ in range(count):
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
        lines.append((op, args))
    return lines


def _mech_truth(op: str, args: list) -> Decimal:
    if op in ("pow", "root"):
        operands = (normalize(args[0]), int(args[1]))
    else:
        operands = tuple(normalize(s) for s in args)
    return oracle_eval(op, operands, POL).value()


def test_c6_mechanical_soundness(criterion):
    with criterion("C6 measurement-model soundness"):
        scripts = _mech_scripts(10 ** 4)
        truths = [_mech_truth(op, args) for op, args in scripts]
        text = "\n".join(f"{op} {' '.join(args)}" for op, args in scripts)
        widths = []
        for resolution in RESOLUTION_LADDER:
            model = MeasurementModel(resolution=Decimal(resolution))
            results = run_script(text, model=model, policy=POL)
            assert len(results) == len(scripts)
            half_step = model.half_step
            for res, truth in zip(results, truths):
                for (_, reading), true_len in zip(res.readings,
                                                  res.true_lengths):
                    assert ORACLE_CTX.subtract(
                        reading, true_len).copy_abs() <= half_step
                assert ORACLE_CTX.subtract(
                    res.value.value(), truth).copy_abs() <= res.half_width
            widths.append([r.half_width for r in results])
        for coarse, fine in zip(widths, widths[1:]):
            assert all(c >= f for c, f in zip(coarse, fine))


GOLDEN_RECIPES = {
    "power_cascade": lambda r: power(normalize("0.6"), 4, POL, recorder=r),
    "mean_bisect": lambda r: geometric_mean(normalize("2"), normalize("18"),
                                            POL, method="bisect", recorder=r),
    "divide_hyp": lambda r: divide(normalize("5.972e24"),
                                   normalize("7.348e22"), POL, recorder=r),
    "root_fan": lambda r: nth_root(RootQuery(normalize("0.5972e25"), 6),
                                   POL, recorder=r),
    # two panels laid side by side by the renderer's _combine
    "multiply_panels": lambda r: multiply(normalize("0.5972"),
                                          normalize("0.7348"), POL,
                                          recorder=r),
    # a cascade, then rotation trials that travel with the root's angle
    "powfrac_compose": lambda r: rational_power(normalize("0.6"), 5, 4, POL,
                                                recorder=r,
                                                strategy="compose"),
    # feet past the letter pool: T11, T12
    "power_deep": lambda r: power(normalize("0.93"), 12, POL, recorder=r),
}


def test_c7_renderer(criterion, right_angle_checker, request):
    with criterion("C7 renderer golden match"):
        golden_dir = request.path.parent / "data" / "golden"
        for name, build in GOLDEN_RECIPES.items():
            rec = TraceRecorder()
            build(rec)
            svg = render_svg(rec.steps)
            assert svg == (golden_dir / f"{name}.svg").read_text(), name
            assert right_angle_checker(svg) <= 1e-6, name
