"""Independent references: stdlib decimal at 80 digits, never geocalc.

Also the structural checks on traces and SVGs that both traced-draw and
cli-oneshot apply.  All arithmetic goes through REF's methods, never
through operators: those round under the thread's default context,
which belongs to the program under test.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from decimal import Context, Decimal, ROUND_HALF_EVEN

REF = Context(prec=80, rounding=ROUND_HALF_EVEN, Emin=-10 ** 9, Emax=10 ** 9)
E = REF.exp(Decimal(1))


def D(text) -> Decimal:
    return Decimal(text) if not isinstance(text, Decimal) else text


def pow_int(x, n: int) -> Decimal:
    return REF.power(D(x), n)


def root(x, n: int) -> Decimal:
    x = D(x)
    r = REF.exp(REF.divide(REF.ln(x.copy_abs()), n))
    return r.copy_negate() if x < 0 else r


def pow_frac(x, m: int, n: int) -> Decimal:
    x = D(x)
    r = REF.exp(REF.divide(REF.multiply(REF.ln(x.copy_abs()), m), n))
    return r.copy_negate() if (x < 0 and m % 2) else r


def sqrt(x) -> Decimal:
    return REF.sqrt(D(x))


def ln(x) -> Decimal:
    return REF.ln(D(x))


def exp(x) -> Decimal:
    return REF.exp(D(x))


def rel_err(got, want) -> Decimal:
    want = D(want)
    return REF.divide(REF.subtract(D(got), want).copy_abs(), want.copy_abs())


def last_unit(text: str) -> Decimal:
    """One unit in the last printed digit of a `d.ddde<k>` literal."""
    mant, _, exp_part = text.lower().partition("e")
    digits = len(mant.lstrip("-").replace(".", ""))
    return Decimal(1).scaleb(int(exp_part or 0) - digits + 1)


def text_matches(text: str, want, rel_tol: Decimal) -> bool:
    """A printed value is within half a unit of its last digit, plus the
    computation's own tolerance, of the reference."""
    want = D(want)
    slack = REF.add(REF.divide(last_unit(text), 2),
                    REF.multiply(rel_tol, want.copy_abs()))
    return REF.subtract(Decimal(text), want).copy_abs() <= slack


# --- traces and SVGs -----------------------------------------------------

_MARK_RE = re.compile(r'<polyline class="mark"[^>]*points="([^"]+)"')


def max_mark_cos(svg: str) -> float:
    """Largest |cos| between the two arms of any right-angle mark."""
    worst = 0.0
    for points in _MARK_RE.findall(svg):
        (ax, ay), (mx, my), (bx, by) = [
            tuple(float(c) for c in p.split(",")) for p in points.split()]
        ux, uy, vx, vy = ax - mx, ay - my, bx - mx, by - my
        nu = (ux * ux + uy * uy) ** 0.5
        nv = (vx * vx + vy * vy) ** 0.5
        worst = max(worst, abs(ux * vx + uy * vy) / (nu * nv))
    return worst


def svg_problems(svg: str) -> list[str]:
    """Why an SVG is unacceptable; empty when it is fine."""
    bad = []
    try:
        ET.fromstring(svg)
    except ET.ParseError as exc:
        bad.append(f"svg does not parse: {exc}")
    if _MARK_RE.search(svg) and max_mark_cos(svg) > 1e-6:
        bad.append("right-angle mark off perpendicular")
    return bad


def trace_lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


def count_perps(svg: str) -> int:
    return svg.count('<line class="perp"')
