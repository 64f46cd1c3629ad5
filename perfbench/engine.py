"""engine-mix: library calls on the construction backend, no recorder.

One round is a fixed list of operation kinds and depths; the seed picks
only the operand values, so the cost of a round barely depends on it.
Every operation parses its text inputs with `normalize`, computes, and
formats the result with `to_text`, as a library user would.
"""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import refs
from refs import D, REF

DIGITS = 28   # to_text quantizes under the 28-digit default context

POWER_DEPTHS = (2, 3, 4, 5, 7, 10, 16, 25, 50, 100, 200, 500, 1000, 2000,
                5000, 10000, 10001, 20000, 100000)
CASCADE_DEPTHS = (3, 10, 50, 200)
ROOT_EXPONENTS = (-12, -7, -3, 0, 2, 5, 11, 12)
# Exponents are fixed per slot and the seed draws only the operands, so
# that the cost of a round, and where its median falls, barely depend on
# the seed.
POWFRAC_EXPONENTS = ((3, 2), (-2, 3), (5, 4), (7, 5), (-1, 6), (9, 7),
                     (2, 5), (-7, 3), (4, 7), (1, 2), (-9, 4), (8, 3))
SOLVE_N = (2, 3, 7, 12, 25, 40, 64, 99, 150, 200, 256, 300)
SOLVE_MN = ((3, 2), (7, 3), (22, 7), (17, 5), (1, 3), (5, 8), (40, 9),
            (13, 11), (101, 40), (2, 37), (97, 13), (119, 30))
LN_EXPONENTS = (-5, -3, -1, 2, 4, 6) * 2
EULER_STEPS = tuple(10 ** k for k in range(1, 16))
# approximate_e rounds n/(n+1) to the working digits before the n-th
# power; from n = 2e10 on, e - value exceeds the returned bound e/(2n).
EULER_FAULT_FROM = 2 * 10 ** 10

# Tolerances, in units of the policy's rel_tol.  A literal cascade of
# depth n rounds n times, each by at most half a unit of rel_tol; a
# search stops within rel_tol of its target; composed operations add.
# A rational power's tolerance is SLACK["powfrac"] per unit of |m|.
SLACK = {"mul": 4, "div": 2, "recip": 2, "gmean": 4, "root": 4,
         "powfrac": 8}
# ln and antilog are relative to the internal base (1 + 1e-8)**1e8,
# whose documented bias is below 2e-8.
LOG_BIAS = Decimal("2e-8")


def _mantissa(rng: random.Random, digits: int = 12) -> str:
    return "0." + str(rng.randrange(10 ** (digits - 1), 10 ** digits))


def _number(rng: random.Random, lo_exp: int, hi_exp: int,
            signed: bool = True) -> str:
    m = _mantissa(rng)
    e = rng.randint(lo_exp, hi_exp)
    sign = "-" if signed and rng.random() < 0.5 else ""
    return f"{sign}{m}e{e}"


def _fmt(d: Decimal, sig: int = 40) -> str:
    return format(d, f".{sig - 1}e")


def specs(seed: int) -> list[tuple]:
    """The operation list of one round, as plain data."""
    rng = random.Random(f"engine-mix:{seed}")
    out: list[tuple] = []
    # Basic arithmetic is the majority, so the median falls among the
    # cheap operations where parsing and formatting weigh most.
    for _ in range(60):
        out.append(("mul", _number(rng, -20, 20), _number(rng, -20, 20)))
    for method in ("hypotenuse", "similar-triangles"):
        for _ in range(30):
            out.append(("div", method, _number(rng, -20, 20),
                        _number(rng, -20, 20)))
    for method in ("angle", "unit-perpendicular"):
        for _ in range(24):
            out.append(("recip", method, _number(rng, -30, 30)))
    for method, count in (("bisect", 36), ("rotate", 12)):
        for _ in range(count):
            sign = rng.choice(("", "-"))
            out.append(("gmean", method,
                        sign + _number(rng, -20, 20, signed=False),
                        sign + _number(rng, -20, 20, signed=False)))
    for n in POWER_DEPTHS:
        # the deepest literal cascade is the tail: enough of them that
        # the tail percentile falls inside their block
        for _ in range(4 if n == 10000 else 2):
            out.append(("pow", _number(rng, -3, 3), n))
    for n in (-3, -40):
        out.append(("pow", _number(rng, -3, 3), n))
    for depth in CASCADE_DEPTHS:
        for _ in range(2):
            cos = "0." + str(rng.randrange(5 * 10 ** 8, 999 * 10 ** 6))
            out.append(("cascade", cos, _mantissa(rng), depth))
    for n in range(2, 13):
        for e in ROOT_EXPONENTS:
            sign = "-" if n % 2 and rng.random() < 0.5 else ""
            out.append(("root", f"{sign}{_mantissa(rng)}e{e}", n))
    for strategy in ("compose", "split"):
        for m, n in POWFRAC_EXPONENTS:
            out.append(("powfrac", strategy, _number(rng, -4, 4, signed=False),
                        m, n))
    for n in SOLVE_N:
        x = D(rng.choice(("1.", "0.")) + str(rng.randrange(10 ** 5, 10 ** 6)))
        out.append(("solve-n", str(x), _fmt(refs.pow_int(x, n)), n))
    for p, q in SOLVE_MN:
        x = D("1." + str(rng.randrange(10 ** 5, 10 ** 6)))
        out.append(("solve-mn", str(x), _fmt(refs.pow_frac(x, p, q)), p, q))
    for e in LN_EXPONENTS:
        out.append(("ln", f"{_mantissa(rng)}e{e}"))
    for _ in range(12):
        t = rng.randrange(-3 * 10 ** 9, 3 * 10 ** 9)
        out.append(("antilog", str(Decimal(t).scaleb(-9))))
    for n in EULER_STEPS:
        out.append(("euler", n))
    rng.shuffle(out)
    return out


def is_fault(spec: tuple) -> bool:
    return spec[0] == "euler" and spec[1] >= EULER_FAULT_FROM


def make_op(g, spec: tuple):
    """A zero-argument callable running one operation through geocalc."""
    P = g.DEFAULT_POLICY
    nz, txt, ss = g.normalize, g.to_text, g.SignedScaled.from_decimal
    kind = spec[0]

    def sig(v):
        return txt(v, DIGITS), v

    if kind == "mul":
        _, a, b = spec
        return lambda: sig(g.multiply(nz(a), nz(b), P))
    if kind == "div":
        _, method, a, b = spec
        return lambda: sig(g.divide(nz(a), nz(b), P, method=method))
    if kind == "recip":
        _, method, x = spec
        return lambda: sig(g.reciprocal(nz(x), P, method=method))
    if kind == "gmean":
        _, method, a, b = spec
        return lambda: sig(g.geometric_mean(nz(a), nz(b), P, method=method))
    if kind == "pow":
        _, x, n = spec
        return lambda: sig(g.power(nz(x), n, P))
    if kind == "cascade":
        _, cos, perp, depth = spec

        def run():
            c = g.Construction(Decimal(cos), Decimal(perp), depth)
            casc = g.build_cascade(c, P)
            return (txt(ss(casc.lengths[-1]), DIGITS), casc.lengths,
                    casc.validate(P))
        return run
    if kind == "root":
        _, x, n = spec
        return lambda: sig(g.nth_root(g.RootQuery(nz(x), n), P))
    if kind == "powfrac":
        _, strategy, x, m, n = spec
        return lambda: sig(g.rational_power(nz(x), m, n, P,
                                            strategy=strategy))
    if kind == "solve-n":
        _, x, a, _n = spec
        return lambda: g.solve_integer_exponent(nz(x), nz(a), 1000, P)
    if kind == "solve-mn":
        _, x, a, _p, _q = spec

        def run():
            cf = g.recover_rational_exponent(nz(x), nz(a), policy=P)
            return cf.to_text(), g.evaluate_cf(cf)
        return run
    if kind == "ln":
        _, a = spec

        def run():
            d = g.natural_log(nz(a), policy=P)
            return txt(ss(d), DIGITS), d
        return run
    if kind == "antilog":
        _, t = spec
        return lambda: sig(g.antilog(Decimal(t), policy=P))
    if kind == "euler":
        _, n = spec

        def run():
            approx = g.approximate_e(n, P)
            return txt(ss(approx.value), DIGITS), approx.value, \
                approx.error_bound
        return run
    raise ValueError(f"unknown engine op {kind!r}")


def _value_ok(out, want: Decimal, tol: Decimal) -> str | None:
    text, value = out[0], out[1]
    v = value.value() if hasattr(value, "value") else value
    if refs.rel_err(v, want) > tol:
        return f"value {v} vs {want}: rel err {refs.rel_err(v, want):.2e}"
    if not refs.text_matches(text, want, tol):
        return f"text {text} vs {want}"
    return None


def check(g, spec: tuple, out) -> str | None:
    """None when the output is right, else what is wrong with it."""
    rel_tol = g.DEFAULT_POLICY.rel_tol
    kind = spec[0]
    if kind == "mul":
        return _value_ok(out, REF.multiply(D(spec[1]), D(spec[2])),
                         SLACK["mul"] * rel_tol)
    if kind == "div":
        return _value_ok(out, REF.divide(D(spec[2]), D(spec[3])),
                         SLACK["div"] * rel_tol)
    if kind == "recip":
        return _value_ok(out, REF.divide(1, D(spec[2])),
                         SLACK["recip"] * rel_tol)
    if kind == "gmean":
        a, b = D(spec[2]), D(spec[3])
        want = refs.sqrt(REF.multiply(a, b)).copy_sign(a)
        return _value_ok(out, want, SLACK["gmean"] * rel_tol)
    if kind == "pow":
        x, n = spec[1], spec[2]
        # depths past the literal cascade are one correctly rounded power
        depth = abs(n) if abs(n) <= 10000 else 1
        return _value_ok(out, refs.pow_int(x, n),
                         REF.multiply(depth + 2, rel_tol))
    if kind == "cascade":
        _, cos, perp, depth = spec
        _text, lengths, valid = out
        if not valid:
            return "validate() rejected its own cascade"
        if len(lengths) != depth:
            return f"{len(lengths)} lengths for depth {depth}"
        c, prev = D(cos), D(perp)
        for i, p in enumerate(lengths, 1):
            want = REF.multiply(D(perp), refs.pow_int(c, i))
            if refs.rel_err(p, want) > REF.multiply(i, rel_tol):
                return f"length {i}: {p} vs {want}"
            if refs.rel_err(REF.divide(p, prev), c) > REF.multiply(2 * i,
                                                                 rel_tol):
                return f"ratio {i} off cos C"
            prev = p
        if not refs.text_matches(out[0], lengths[-1], Decimal(0)):
            return f"text {out[0]} vs {lengths[-1]}"
        return None
    if kind == "root":
        return _value_ok(out, refs.root(spec[1], spec[2]),
                         SLACK["root"] * rel_tol)
    if kind == "powfrac":
        _, _s, x, m, n = spec
        return _value_ok(out, refs.pow_frac(x, m, n),
                         REF.multiply(SLACK["powfrac"] * abs(m), rel_tol))
    if kind == "solve-n":
        return None if out == spec[3] else f"solve-n gave {out}, not {spec[3]}"
    if kind == "solve-mn":
        want = Fraction(spec[3], spec[4])
        return None if out[1] == want else f"solve-mn gave {out[0]}, not {want}"
    if kind == "ln":
        return _value_ok(out, refs.ln(spec[1]), LOG_BIAS)
    if kind == "antilog":
        t = D(spec[1])
        return _value_ok(out, refs.exp(t),
                         REF.multiply(LOG_BIAS, max(1, t.copy_abs())))
    if kind == "euler":
        n = spec[1]
        _text, value, bound = out
        gap = REF.subtract(refs.E, value)
        limit = REF.divide(refs.E, 2 * n)
        if not 0 < gap <= limit:
            return f"e - value = {gap:.3e} outside (0, e/2n = {limit:.3e}]"
        if bound < REF.multiply(limit, REF.subtract(1, rel_tol)):
            return f"returned bound {bound} below e/2n"
        return None
    raise ValueError(f"unknown engine op {kind!r}")
