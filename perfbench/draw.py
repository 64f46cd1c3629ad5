"""traced-draw: constructions run with a TraceRecorder, then dumps,
parse_trace and render_svg.

The same cascade and root code as engine-mix, but through the recorder
path, with the trace and diagram layers doing most of the work.  Traces
range from the four golden recipes (4-13 steps) to a few hundred steps.
"""

from __future__ import annotations

import random

import refs

POWER_DEPTHS = (4, 8, 16, 32, 64, 128, 256, 320)

GOLDEN = (
    ("pow", "0.6", 4),
    ("gmean", "bisect", "2", "18"),
    ("div", "hypotenuse", "5.972e24", "7.348e22"),
    ("root", "0.5972e25", 6),
)


def _mantissa(rng: random.Random, lo: int = 10 ** 11) -> str:
    return "0." + str(rng.randrange(lo, 10 ** 12))


def _number(rng: random.Random) -> str:
    return f"{_mantissa(rng)}e{rng.randint(-6, 6)}"


def specs(seed: int) -> list[tuple]:
    rng = random.Random(f"traced-draw:{seed}")
    out = list(GOLDEN)
    for n in POWER_DEPTHS:
        # mantissas from 0.5 keep depth-320 feet inside float range
        out.append(("pow", f"{_mantissa(rng, 5 * 10 ** 11)}e"
                           f"{rng.randint(-3, 3)}", n))
    for _ in range(3):
        for method in ("bisect", "rotate"):
            for _ in range(2):
                out.append(("gmean", method, _number(rng), _number(rng)))
        for method in ("hypotenuse", "similar-triangles"):
            for _ in range(2):
                out.append(("div", method, _number(rng), _number(rng)))
        for method in ("angle", "unit-perpendicular"):
            for _ in range(2):
                out.append(("recip", method, _number(rng)))
        for _ in range(2):
            out.append(("mul", _number(rng), _number(rng)))
        for n in range(2, 13):
            # every other root has an exponent residue
            out.append(("root", f"{_mantissa(rng)}e{n * (n % 3) + n % 2}", n))
        for strategy in ("compose", "split"):
            for m, n in ((2, 3), (5, 4), (7, 8)):
                out.append(("powfrac", strategy, _mantissa(rng), m, n))
    rng.shuffle(out)
    return out


def is_fault(spec: tuple) -> bool:
    return False


def make_op(g, spec: tuple):
    P = g.DEFAULT_POLICY
    nz = g.normalize
    kind = spec[0]
    if kind == "pow":
        def build(rec):
            g.power(nz(spec[1]), spec[2], P, recorder=rec)
    elif kind == "gmean":
        def build(rec):
            g.geometric_mean(nz(spec[2]), nz(spec[3]), P, recorder=rec,
                             method=spec[1])
    elif kind == "div":
        def build(rec):
            g.divide(nz(spec[2]), nz(spec[3]), P, recorder=rec,
                     method=spec[1])
    elif kind == "recip":
        def build(rec):
            g.reciprocal(nz(spec[2]), P, recorder=rec, method=spec[1])
    elif kind == "mul":
        def build(rec):
            g.multiply(nz(spec[1]), nz(spec[2]), P, recorder=rec)
    elif kind == "root":
        def build(rec):
            g.nth_root(g.RootQuery(nz(spec[1]), spec[2]), P, recorder=rec)
    elif kind == "powfrac":
        def build(rec):
            g.rational_power(nz(spec[2]), spec[3], spec[4], P, recorder=rec,
                             strategy=spec[1])
    else:
        raise ValueError(f"unknown draw op {kind!r}")

    def run():
        rec = g.TraceRecorder()
        build(rec)
        text = rec.dumps()
        parsed = g.parse_trace(text)
        return rec.steps, text, parsed, g.render_svg(parsed)
    return run


def perpendiculars(spec: tuple) -> int | None:
    """How many perpendiculars the construction must draw, where the
    construction fixes it."""
    if spec[0] in ("pow", "root"):
        return spec[2]
    return None


def drawing_problems(g, trace_text: str, svg: str | None,
                     perps: int | None, title: str | None = None) -> list[str]:
    """Checks shared with cli-oneshot's written trace and SVG files."""
    bad = []
    parsed = g.parse_trace(trace_text)
    if [s.to_line() for s in parsed] != refs.trace_lines(trace_text):
        bad.append("trace lines do not round-trip")
    drops = sum(s.kind == "drop-perpendicular" for s in parsed)
    if perps is not None and drops != perps:
        bad.append(f"{drops} perpendiculars recorded, want {perps}")
    if svg is not None:
        bad.extend(refs.svg_problems(svg))
        if g.render_svg(parsed, title=title) != svg:
            bad.append("rendering the trace again gives other bytes")
        if perps is not None and refs.count_perps(svg) != perps:
            bad.append(f"{refs.count_perps(svg)} perpendiculars drawn, "
                       f"want {perps}")
    return bad


def check(g, spec: tuple, out) -> str | None:
    steps, text, parsed, svg = out
    if parsed != steps:
        return "parse_trace(dumps()) does not reproduce the steps"
    bad = drawing_problems(g, text, svg, perpendiculars(spec))
    return "; ".join(bad) or None
