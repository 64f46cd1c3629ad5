"""Shared fixtures and the acceptance-criteria reporter."""

import contextlib
import re
from decimal import Context, Decimal

import pytest

ACCEPTANCE: list = []


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion.

    Usage: `with criterion("C1 ..."):` around the body of the check.
    The line prints immediately and again in the terminal summary.
    """

    @contextlib.contextmanager
    def runner(name: str):
        try:
            yield
        except BaseException:
            ACCEPTANCE.append((name, "FAIL"))
            print(f"{name}: FAIL")
            raise
        ACCEPTANCE.append((name, "PASS"))
        print(f"{name}: PASS")

    return runner


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in ACCEPTANCE:
        terminalreporter.write_line(f"{name}: {status}")


def rel_diff(a: Decimal, b: Decimal, ctx: Context) -> Decimal:
    """|a - b| / |b| under `ctx`; the test modules import it from here."""
    return ctx.divide(ctx.subtract(a, b).copy_abs(), b.copy_abs())


_MARK_RE = re.compile(
    r'<polyline class="mark"[^>]*points="([^"]+)"')


def max_mark_dot(svg_text: str) -> float:
    """Largest |cos| between the two arms of any right-angle mark.

    Marks are three-point polylines: corner points a, m, b around the
    foot with a-m and b-m along the two segments meeting there.
    """
    worst = 0.0
    hits = _MARK_RE.findall(svg_text)
    if not hits:
        raise AssertionError("no right-angle marks in SVG")
    for points in hits:
        (ax, ay), (mx, my), (bx, by) = [
            tuple(float(c) for c in p.split(",")) for p in points.split()]
        ux, uy = ax - mx, ay - my
        vx, vy = bx - mx, by - my
        nu = (ux * ux + uy * uy) ** 0.5
        nv = (vx * vx + vy * vy) ** 0.5
        worst = max(worst, abs(ux * vx + uy * vy) / (nu * nv))
    return worst


@pytest.fixture
def right_angle_checker():
    return max_mark_dot
