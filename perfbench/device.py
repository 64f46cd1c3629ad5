"""device-ladder: one script line at a time through the public run_script,
at each rung of RESOLUTION_LADDER.

The seed picks the operands of pow, mul, div, gmean, recip and cf lines.
The 17 root lines are fixed: radicand exponents -8..8 once each, indices
2..12, spread across the four rungs.  Most of them fail today because of
the sign error in mechsim's root chain; keeping their inputs fixed keeps
the failure count the same for every seed.
"""

from __future__ import annotations

import random
from decimal import Decimal

import refs
from refs import D, REF

RESOLUTIONS = ("1e-5", "5e-7", "2e-7", "1e-10")   # RESOLUTION_LADDER
# A band wider than this share of |truth| says nothing about the value.
WIDTH_FRACTION = Decimal("0.01")
# Exponents p/q with small continued-fraction terms: about 1 ms each.
# Deep terms such as t = 1971/181 cost a few hundred ms and would
# swamp the mix.
CF_EXPONENTS = ((3, 2), (5, 3), (2, 3), (7, 4), (4, 3), (5, 2), (3, 4),
                (8, 5))
# Depths and exponents are fixed per slot; the seed draws the operands.
POW_DEPTHS = (2, 4, 6, 8, 10, 12, -2, 20)


def _mantissa(rng: random.Random) -> str:
    return "0." + str(rng.randrange(10 ** 11, 10 ** 12))


def _root_lines() -> list[tuple]:
    """Fixed (resolution, "root", radicand, index) lines: exponents -8..8
    once each, indices 2..12, spread over the rungs."""
    rng = random.Random("device-ladder:root")
    return [(RESOLUTIONS[k % 4], "root", f"{_mantissa(rng)}e{k - 8}",
             2 + (5 * k) % 11) for k in range(17)]


def specs(seed: int) -> list[tuple]:
    """(resolution, op, args...) for one round."""
    rng = random.Random(f"device-ladder:{seed}")
    out = _root_lines()
    for r, res in enumerate(RESOLUTIONS):
        lines = []
        for n in POW_DEPTHS:
            lines.append(("pow", f"{_mantissa(rng)}e{rng.randint(-3, 3)}", n))
        # the one-perpendicular operations are the majority, so the
        # median falls inside that block rather than at its edge
        for op, count in (("mul", 10), ("div", 10), ("gmean", 5)):
            for _ in range(count):
                lines.append((op, f"{_mantissa(rng)}e{rng.randint(-9, 9)}",
                              f"{_mantissa(rng)}e{rng.randint(-9, 9)}"))
        for _ in range(10):
            lines.append(("recip", f"{_mantissa(rng)}e{rng.randint(-9, 9)}"))
        for p, q in CF_EXPONENTS[r::4]:
            x = D("1." + str(rng.randrange(10 ** 5, 10 ** 6)))
            a = format(refs.pow_frac(x, p, q), ".29e")
            lines.append(("cf", str(x), a))
        out.extend((res,) + line for line in lines)
    rng.shuffle(out)
    return out


def line_of(spec: tuple) -> str:
    return " ".join(str(a) for a in spec[1:])


def is_fault(spec: tuple) -> bool:
    return spec[1] == "root"


def make_op(g, spec: tuple):
    model = g.MeasurementModel(resolution=Decimal(spec[0]))
    line = line_of(spec)
    return lambda: g.run_script(line, model)[0]


def truth(op: str, args: list) -> Decimal:
    if op == "pow":
        return refs.pow_int(args[0], int(args[1]))
    if op == "root":
        return refs.root(args[0], int(args[1]))
    if op == "mul":
        return REF.multiply(D(args[0]), D(args[1]))
    if op == "div":
        return REF.divide(D(args[0]), D(args[1]))
    if op == "gmean":
        return refs.sqrt(REF.multiply(D(args[0]), D(args[1])))
    if op == "recip":
        return REF.divide(1, D(args[0]))
    if op == "cf":
        return REF.divide(refs.ln(args[1]), refs.ln(args[0]))
    raise ValueError(f"unknown device op {op!r}")


def band_problem(value: Decimal, half_width: Decimal, want: Decimal,
                 slack: Decimal = Decimal(0)) -> str | None:
    """The band value +/- half_width must hold the truth and be narrower
    than WIDTH_FRACTION of it; `slack` covers printed rounding."""
    if REF.subtract(value, want).copy_abs() > REF.add(half_width, slack):
        return f"band {value} +/- {half_width} misses {want}"
    if half_width > REF.multiply(WIDTH_FRACTION, want.copy_abs()):
        return f"band {half_width} wider than {WIDTH_FRACTION} of {want}"
    return None


def check(g, spec: tuple, out) -> str | None:
    half = REF.divide(D(spec[0]), 2)
    for (name, q), t in zip(out.readings, out.true_lengths):
        if REF.subtract(q, t).copy_abs() > half:
            return f"reading {name}={q} off its length {t}"
    return band_problem(out.value.value(), out.half_width,
                        truth(spec[1], list(spec[2:])))
