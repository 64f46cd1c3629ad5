"""Whole-domain sweep of the graduated device against 80-digit truths.

The device counterpart of test_domain_sweep.py.  Seeded below, it runs
the seven device ops at every rung of RESOLUTION_LADDER with operand
decades -300..300 (-30..30 for pow), pow n drawn log-uniformly from
-5000..9999, root index from 1..4999, and cf targets 1..300 decades
from 1, so that t runs from near 0 to about 3e4.  To keep the sweep
near half a second, the drawn depths are the shallow half of those
ranges, |n| and the index up to about their square roots; the deepest
pow runs come in as fixed cases at every rung, and so do negative
powers whose measured positive power reads a power of ten.

Each run either keeps two properties, or ends in the device's refusal
of a band wider than its value:
- the band holds the truth: |value - truth| <= half_width;
- every reading lies within half a step of the length it reads.
"""

import math
import random
from decimal import Context, Decimal

import pytest

from geocalc import DomainError, MeasurementModel, RESOLUTION_LADDER, run_op

SEED = 20261019
ROUNDS = 40     # draws of every op per rung
CTX = Context(prec=80, Emin=-10 ** 9, Emax=10 ** 9)
ONE = Decimal(1)
# the deepest pow runs, whose bands grow the most
DEEP_POW = (["0.987654321098e-30", "9999"], ["-0.55e7", "-5000"])
# negative powers whose positive power reads 0.1 * 10**k: recip would
# set AC = BC, so the reciprocal is a decade with no triangle set
DECADE_POW = [[x, str(n)] for x in ("1", "10", "0.1", "-100", "1e-5")
              for n in (-1, -2, -3)] + [["1.0000001", "-1"]]


def number(rng: random.Random, decades: int, sign: int = 0) -> str:
    """A 12-digit literal within `decades` decades of 1; sign 0 draws one."""
    sign = sign or rng.choice((1, -1))
    return (f"{'-' if sign < 0 else ''}0.{rng.randrange(10 ** 11, 10 ** 12)}"
            f"e{rng.randint(-decades, decades)}")


def shallow(rng: random.Random, top: int) -> int:
    """An integer in [1, sqrt(top)], log-uniform: the shallow half of a
    log-uniform draw from [1, top]."""
    return int(10 ** rng.uniform(0, math.log10(top) / 2))


def cases(rng: random.Random):
    for _ in range(ROUNDS):
        n = shallow(rng, 9999) if rng.random() < 0.7 else -shallow(rng, 5000)
        yield "pow", [number(rng, 30), str(n)]
        k = shallow(rng, 4999)
        yield "root", [number(rng, 300, -1 if k % 2 and rng.random() < 0.5
                              else 1), str(k)]
        yield "mul", [number(rng, 300), number(rng, 300)]
        yield "div", [number(rng, 300), number(rng, 300)]
        s = rng.choice((1, -1))
        yield "gmean", [number(rng, 300, s), number(rng, 300, s)]
        yield "recip", [number(rng, 300)]
        # a base the arms can set (a cosine of at least ARM_MIN) and a
        # target 1..300 decades away on the same side of 1: t < 1 too
        x = CTX.power(10, Decimal(f"{rng.uniform(0.01, 1.99):.6f}"))
        k = int(10 ** rng.uniform(0, math.log10(300)))
        if rng.random() < 0.5:
            x, k = CTX.divide(ONE, x), 1 - k
        yield "cf", [f"{x:.11e}", f"0.{rng.randrange(10 ** 11, 10 ** 12)}e{k}"]
    for args in DEEP_POW:
        yield "pow", args


def truth(op: str, args: list) -> Decimal:
    x = Decimal(args[0])
    if op == "pow":
        return CTX.power(x, int(args[1]))
    if op == "root":
        r = CTX.power(x.copy_abs(), CTX.divide(ONE, Decimal(args[1])))
        return r.copy_negate() if x < 0 else r
    if op == "cf":
        return CTX.divide(CTX.ln(Decimal(args[1])), CTX.ln(x))
    if op == "recip":
        return CTX.divide(ONE, x)
    y = Decimal(args[1])
    if op == "gmean":
        r = CTX.sqrt(CTX.multiply(x.copy_abs(), y.copy_abs()))
        return r.copy_negate() if x < 0 else r
    return CTX.multiply(x, y) if op == "mul" else CTX.divide(x, y)


def faults(op: str, args: list, got, model) -> list[str]:
    """A band that misses the truth, and readings off their lengths."""
    out = []
    err = CTX.subtract(got.value.value(), truth(op, args)).copy_abs()
    if err > got.half_width:
        out.append(f"{op} {args}: off by {err:.3e}, band "
                   f"{got.half_width:.3e}")
    for (name, q), length in zip(got.readings, got.true_lengths):
        if CTX.subtract(q, length).copy_abs() > model.half_step:
            out.append(f"{op} {args}: reading {name} = {q} of {length}")
    return out


@pytest.mark.parametrize("resolution", RESOLUTION_LADDER, ids=str)
def test_device_bands_hold_the_truth_over_the_domain(resolution):
    model = MeasurementModel(resolution=resolution)
    rng = random.Random(f"{SEED}:{resolution}")
    bad, refused = [], 0
    for op, args in cases(rng):
        try:
            got = run_op(op, args, model)
        except DomainError as exc:
            if "is wider than the value" not in str(exc):
                bad.append(f"{op} {args}: {exc}")
            refused += 1
            continue
        except Exception as exc:   # valid input must never raise
            bad.append(f"{op} {args}: {type(exc).__name__}: {exc}")
            continue
        bad.extend(faults(op, args, got, model))
    assert not bad, "\n".join(bad)
    assert refused < ROUNDS


@pytest.mark.parametrize("resolution", RESOLUTION_LADDER, ids=str)
def test_decade_readings_have_a_reciprocal(resolution):
    model = MeasurementModel(resolution=resolution)
    bad = []
    for args in DECADE_POW:
        bad.extend(faults("pow", args, run_op("pow", args, model), model))
    assert not bad, "\n".join(bad)
