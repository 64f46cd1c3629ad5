"""Whole-domain sweep of the construction engine against oracle_eval.

Seeded below, it draws operands with decimal exponents -300..300 for the
seven engine ops and C5's alternative div, recip and gmean methods, at
30, 50 and 62 working digits, three seed streams each.  Two properties
are checked: valid input never raises, and every result agrees with
oracle_eval within the op's multiple of rel_tol, one working unit.
"""

import random

import pytest

from geocalc import (PrecisionPolicy, RootQuery, divide, geometric_mean,
                     multiply, normalize, nth_root, oracle_eval, power,
                     rational_power, reciprocal)
from conftest import rel_diff

SEED = 20260412
DIGITS = (30, 50, 62)
# Seed streams, named for the tolerances the sweep drew them at when a
# policy's tolerance could be set; every draw now runs at one unit.
STREAMS = ("None", "0.00001", "0.3")
POW_DEPTHS = (9999, 10 ** 4, 10 ** 4 + 1, -3, -40)
ROOT_INDICES = range(2, 41)
DRAWS = 10   # operands per op and method at each digits/stream pair

# Allowed distance from oracle_eval, in units of rel_tol.  A positive
# power is one rounding; a negative one raises the reciprocal's
# rounding to the |n|th power.  A search stops within rel_tol of its
# solution, and the root divides two of them; a product squares a mean.
TOL_UNITS = {"mul": 4, "div": 2, "recip": 2, "gmean": 2, "root": 3}
POWFRAC_UNITS = 8   # per unit of |m|, as the benchmark holds it


def pow_units(n: int) -> int:
    return 1 if n > 0 else abs(n) + 2


def number(rng: random.Random, digits: int, sign: int = 0) -> str:
    """A nonzero literal: 12 or `digits` mantissa digits, exponent in
    -300..300; sign 0 draws one."""
    width = rng.choice((12, digits))
    mant = rng.randrange(10 ** (width - 1), 10 ** width)
    if sign == 0:
        sign = rng.choice((1, -1))
    return f"{'-' if sign < 0 else ''}0.{mant}e{rng.randint(-300, 300)}"


def cases(rng: random.Random, digits: int):
    """(label, oracle op, oracle args, call) for one digits/stream pair."""
    nz = normalize
    for _ in range(DRAWS):
        a, b = nz(number(rng, digits)), nz(number(rng, digits))
        yield "mul", "mul", (a, b), lambda p, a=a, b=b: multiply(a, b, p)
        for method in ("hypotenuse", "similar-triangles"):
            yield (f"div {method}", "div", (a, b),
                   lambda p, a=a, b=b, m=method: divide(a, b, p, method=m))
        for method in ("angle", "unit-perpendicular"):
            yield (f"recip {method}", "recip", (a,),
                   lambda p, a=a, m=method: reciprocal(a, p, method=m))
        s = rng.choice((1, -1))
        a, b = nz(number(rng, digits, s)), nz(number(rng, digits, s))
        for method in ("bisect", "rotate"):
            yield (f"gmean {method}", "gmean", (a, b),
                   lambda p, a=a, b=b, m=method: geometric_mean(a, b, p,
                                                                method=m))
    for n in POW_DEPTHS:
        for _ in range(2):
            x = nz(number(rng, digits))
            yield f"pow {n}", "pow", (x, n), lambda p, x=x, n=n: power(x, n, p)
    for n in [*ROOT_INDICES] * 2:
        x = nz(number(rng, digits, -1 if n % 2 and rng.random() < 0.5 else 1))
        yield (f"root {n}", "root", (x, n),
               lambda p, x=x, n=n: nth_root(RootQuery(x, n), p))
    for _ in range(2 * DRAWS):
        n = rng.randint(1, 40)
        m = rng.choice((1, -1)) * rng.randint(1, 12)
        x = nz(number(rng, digits, -1 if n % 2 and rng.random() < 0.5 else 1))
        yield (f"powfrac {m}/{n}", "powfrac", (x, m, n),
               lambda p, x=x, m=m, n=n: rational_power(x, m, n, p))


def units(label: str, args: tuple) -> int:
    op = label.split()[0]
    if op == "pow":
        return pow_units(args[1])
    if op == "powfrac":
        return POWFRAC_UNITS * abs(args[1])
    return TOL_UNITS[op]


@pytest.mark.parametrize("stream", STREAMS, ids=("default", "1e-5", "0.3"))
@pytest.mark.parametrize("digits", DIGITS)
def test_engine_agrees_with_the_oracle_over_the_domain(digits, stream):
    policy = PrecisionPolicy(working_digits=digits)
    ctx = policy.oracle_ctx()
    rng = random.Random(f"{SEED}:{digits}:{stream}")
    bad = []
    for label, op, args, call in cases(rng, digits):
        try:
            got = call(policy)
        except Exception as exc:   # valid input must never raise
            bad.append(f"{label} {args}: {type(exc).__name__}: {exc}")
            continue
        want = oracle_eval(op, args, policy)
        err = ctx.divide(rel_diff(got.value(), want.value(), ctx),
                         policy.rel_tol)
        if err > units(label, args):
            bad.append(f"{label} {args}: {err:.3g} rel_tol")
    assert not bad, "\n".join(bad)
