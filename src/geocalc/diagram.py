"""Deterministic SVG rendering of construction traces.

Coordinates come from plain float arithmetic restricted to the four
operations and sqrt, all IEEE-754 correctly rounded, and are printed
with a fixed format, so the same trace yields byte-identical SVG on
any platform.  No trigonometric calls: ray directions are built from
(cos, sqrt(1 - cos^2)) pairs.

A trace may hold several constructions in sequence (a product is a
mean followed by a squaring cascade); each becomes its own panel,
height-normalized and laid out left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InconsistentTrace
from .trace import STEP_KINDS, TraceStep, parse_trace, step_line

_W, _H = 640.0, 480.0
_MARGIN = 52.0
_REL_TOL = 1e-6
_PANEL_GAP = 0.18

_STYLE = (
    "text{font-family:monospace;font-size:12px;fill:#222}"
    ".main{stroke:#0f3460;stroke-width:1.6;fill:none}"
    ".perp{stroke:#e94560;stroke-width:1.2;fill:none}"
    ".trial{stroke:#999;stroke-width:1.0;stroke-dasharray:6 4;fill:none}"
    ".aux{stroke:#2a9d8f;stroke-width:1.2;stroke-dasharray:6 4;fill:none}"
    ".mark{stroke:#777;stroke-width:0.8;fill:none}"
    ".pt{fill:#1a1a2e}"
)
_HEAD = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         f'width="{int(_W)}" height="{int(_H)}" '
         f'viewBox="0 0 {int(_W)} {int(_H)}">\n<style>{_STYLE}</style>\n'
         '<rect width="100%" height="100%" fill="#fdfdfd"/>')


@dataclass
class _Scene:
    """World vertices, and what is drawn on them by vertex index."""

    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    segments: list = field(default_factory=list)  # (i, j, cls)
    # (k, ax, ay, bx, by, foot, onto, back): unit arms a, b at vertex k
    marks: list = field(default_factory=list)
    points: list = field(default_factory=list)    # (label, k)
    captions: list = field(default_factory=list)

    def vertex(self, x: float, y: float) -> int:
        self.xs.append(x)
        self.ys.append(y)
        return len(self.xs) - 1

    def bounds(self):
        if not self.xs:
            raise InconsistentTrace("nothing to draw")
        xs, ys = self.xs, self.ys
        x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
        # coordinates come from the trace's finite numbers by + - * / and
        # sqrt, so a NaN follows an infinite coordinate, which makes a span
        # infinite; finite spans also keep the screen mapping finite
        if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
            raise InconsistentTrace("the construction overflows a float")
        return x0, y0, x1, y1


def _refusal(step: TraceStep, message: str) -> InconsistentTrace:
    """An InconsistentTrace that keeps the step it refuses, so that
    render_svg can name the step's line in a trace text."""
    err = InconsistentTrace(message)
    err.step = step
    return err


def _num(step: TraceStep, i: int) -> float:
    """The i-th attribute of step: finite, or the trace is inconsistent."""
    text = step.values[i]
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise _refusal(step, f"{step.kind} needs a finite "
                             f"{STEP_KINDS[step.kind][i]}=, got {text!r}")
    return v


def _cos_sin(cos_v: float, step: TraceStep):
    if not -1.0 < cos_v < 1.0:
        raise _refusal(step, f"cosine {cos_v} out of range")
    return cos_v, math.sqrt(1.0 - cos_v * cos_v)


def _split_groups(steps: list[TraceStep]) -> list[list[TraceStep]]:
    """Cut the trace before each construct-angle step, letting a run of
    rotations that immediately precedes the angle travel with it."""
    cuts = [0]
    for i, st in enumerate(steps):
        if st.kind != "construct-angle-from-cosine":
            continue
        j = i
        while j > cuts[-1] and steps[j - 1].kind == "rotate-hypotenuse":
            j -= 1
        if j > cuts[-1]:
            cuts.append(j)
    return [steps[a:b] for a, b in zip(cuts, cuts[1:] + [len(steps)])]


def _caption(st: TraceStep) -> str:
    return "measure {} = {}".format(*st.values)


def _build_panel(steps: list[TraceStep]) -> _Scene:
    # a step's values are read by their place in STEP_KINDS[kind]
    scene = _Scene()
    i = 0
    trials = []                   # (cosine, step)
    while i < len(steps) and steps[i].kind == "rotate-hypotenuse":
        trials.append((_num(steps[i], 1), steps[i]))
        i += 1
    if i == len(steps) or steps[i].kind != "construct-angle-from-cosine":
        # a pure rotation fan is legal: trials plus measured lengths
        if trials:
            _render_fan(scene, trials)
            for st in steps[i:]:
                if st.kind != "measure-length":
                    raise _refusal(st, "construction must open with its "
                                       "angle")
                scene.captions.append(_caption(st))
            return scene
        raise _refusal(steps[i], "construction must open with its angle")
    cos_step, cos_work = steps[i], _num(steps[i], 1)
    i += 1
    bisected_from = None
    if i < len(steps) and steps[i].kind == "bisect-angle":
        cos_step = steps[i]
        bisected_from, cos_work = _num(cos_step, 1), _num(cos_step, 2)
        i += 1
    drops = []
    for st in steps[i:]:
        if st.kind == "drop-perpendicular":
            drops.append((*st.values[:3], _num(st, 3), st))
        elif st.kind == "measure-length":
            scene.captions.append(_caption(st))
        else:
            raise _refusal(st, f"unexpected step {st.kind!r} mid-trace")
    c, s = _cos_sin(cos_work, cos_step)
    # infer AB from the first drop: every drop shrinks by cos C; at
    # cos C = 0 the first drop breaks the chain below
    ab = drops[0][3] / c if drops and c else 1.0
    bx = ab * c / s
    hyp_len = ab / s
    # vertices 0, 1, 2 are C, B, A
    vertex = scene.vertex
    scene.points += [("C", vertex(0.0, 0.0)), ("B", vertex(bx, 0.0)),
                     ("A", vertex(bx, ab))]
    scene.segments += [(0, 1, "main"), (1, 2, "main"), (0, 2, "main")]
    scene.marks.append((1, -1.0, 0.0, 0.0, 1.0, "B", "CX", "BA"))
    for tc, st in trials:
        tcc, tcs = _cos_sin(tc, st)
        scene.segments.append((0, vertex(hyp_len * tcc, hyp_len * tcs),
                               "trial"))
    if bisected_from is not None:
        fc, fs = _cos_sin(bisected_from, cos_step)
        scene.segments.append((0, vertex(hyp_len * fc, hyp_len * fs), "aux"))
    px, py, kp = bx, 0.0, 1
    prev_label = "B"
    prev_len = ab
    t_max, f_max = hyp_len * (1.0 + 1e-9), bx * (1.0 + 1e-9)
    for frm, onto, foot, length, st in drops:
        if frm != prev_label:
            raise _refusal(st, f"drop starts at {frm!r}, cascade is at "
                               f"{prev_label!r}")
        expected = prev_len * c
        if expected <= 0 or abs(length - expected) > _REL_TOL * expected:
            raise _refusal(st, f"drop {frm}->{foot} length {length} breaks "
                               "the cosine chain")
        if onto in ("CA", "CY"):
            t = px * c + py * s
            if not -1e-9 <= t <= t_max:
                raise _refusal(st, f"foot {foot} lands off the segment")
            fx, fy = t * c, t * s
            ux, uy = c, s
        else:
            fx, fy = px, 0.0
            if not -1e-9 <= fx <= f_max:
                raise _refusal(st, f"foot {foot} lands off the segment")
            ux, uy = 1.0, 0.0
        k = vertex(fx, fy)
        scene.segments.append((kp, k, "perp"))
        dx, dy = px - fx, py - fy
        norm = math.sqrt(dx * dx + dy * dy)
        if norm > 0:
            scene.marks.append((k, ux, uy, dx / norm, dy / norm,
                                foot, onto, f"{foot}{frm}"))
        scene.points.append((foot, k))
        px, py, kp = fx, fy, k
        prev_label, prev_len = foot, length
    return scene


def _render_fan(scene: _Scene, trials: list):
    vertex = scene.vertex
    scene.points.append(("C", vertex(0.0, 0.0)))
    scene.segments.append((0, vertex(1.0, 0.0), "main"))
    for k, (tc, st) in enumerate(trials):
        c, s = _cos_sin(tc, st)
        cls = "main" if k == len(trials) - 1 else "trial"
        scene.segments.append((0, vertex(c, s), cls))


def _combine(panels: list[_Scene]) -> _Scene:
    if len(panels) == 1:
        return panels[0]
    out = _Scene()
    offset = 0.0
    for idx, sc in enumerate(panels):
        x0, y0, x1, y1 = sc.bounds()
        f = 1.0 / max(y1 - y0, 1e-9)
        suffix = "" if idx == 0 else str(idx + 1)
        n = len(out.xs)
        out.xs += [(x - x0) * f + offset for x in sc.xs]
        out.ys += [(y - y0) * f for y in sc.ys]
        out.segments += [(i + n, j + n, cls) for i, j, cls in sc.segments]
        out.marks += [(k + n, ax, ay, bx, by, foot + suffix, na, nb)
                      for k, ax, ay, bx, by, foot, na, nb in sc.marks]
        out.points += [(label + suffix, k + n) for label, k in sc.points]
        out.captions += sc.captions
        offset = (x1 - x0) * f + offset + _PANEL_GAP
    return out


def render_svg(trace, title: str | None = None) -> str:
    """Render a trace (text or parsed steps) to a standalone SVG string.
    A refusal of one step of a trace text names the step's line."""
    steps = parse_trace(trace) if isinstance(trace, str) else list(trace)
    if not steps:
        raise InconsistentTrace("empty trace")
    try:
        scene = _combine([_build_panel(g) for g in _split_groups(steps)])
    except InconsistentTrace as e:
        step = getattr(e, "step", None)
        if step is None or not isinstance(trace, str):
            raise
        k = next(k for k, st in enumerate(steps) if st is step)
        raise InconsistentTrace(f"line {step_line(trace, k)}: {e}") from e
    x0, y0, x1, y1 = scene.bounds()
    span_x = max(x1 - x0, 1e-12)
    span_y = max(y1 - y0, 1e-12)
    caption_h = 18.0 * len(scene.captions) + (10.0 if scene.captions else 0.0)
    scale = min((_W - 2 * _MARGIN) / span_x,
                (_H - 2 * _MARGIN - caption_h) / span_y)
    top = _H - _MARGIN - caption_h
    # each vertex's screen position, printed once.  A sum or difference
    # is -0.0 only if its first term is, and every printed number is one
    # led by _MARGIN, top or a screen position: no "-0.000000000" appears
    X = [_MARGIN + (x - x0) * scale for x in scene.xs]
    Y = [top - (y - y0) * scale for y in scene.ys]
    sx = [f"{v:.9f}" for v in X]
    sy = [f"{v:.9f}" for v in Y]
    out = [_HEAD]
    if title:
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{_MARGIN:.9f}" y="24">{text}</text>')
    out.append('<g id="segments">')
    out += [f'<line class="{cls}" x1="{sx[i]}" y1="{sy[i]}" x2="{sx[j]}" '
            f'y2="{sy[j]}"/>' for i, j, cls in scene.segments]
    out.append('</g>\n<g id="marks">')
    side = 9.0
    for k, ax, ay, bx, by, foot, na, nb in scene.marks:
        # small square set into the right angle at the foot; the y axis
        # flips on screen, so world directions negate their y parts
        cx, cy = X[k], Y[k]
        p1x, p1y = cx + ax * side, cy - ay * side
        out.append(f'<polyline class="mark" data-foot="{foot}" '
                   f'data-a="{na}" data-b="{nb}" points="'
                   f'{p1x:.9f},{p1y:.9f} '
                   f'{p1x + bx * side:.9f},{p1y - by * side:.9f} '
                   f'{cx + bx * side:.9f},{cy - by * side:.9f}"/>')
    out.append('</g>\n<g id="points">')
    out += [f'<circle class="pt" data-label="{label}" cx="{sx[k]}" '
            f'cy="{sy[k]}" r="2.5"/>' for label, k in scene.points]
    out.append('</g>\n<g id="labels">')
    out += [f'<text x="{X[k] + 6.0:.9f}" y="{Y[k] - 6.0:.9f}">{label}</text>'
            for label, k in scene.points]
    out.append('</g>\n<g id="caption">')
    cy0 = top + 24.0
    out += [f'<text x="{_MARGIN:.9f}" y="{cy0 + 18.0 * k:.9f}">{line}</text>'
            for k, line in enumerate(scene.captions)]
    out.append("</g>\n</svg>\n")
    return "\n".join(out)


def write_svg(trace, path: str, title: str | None = None):
    svg = render_svg(trace, title=title)   # a bad trace leaves no file
    with open(path, "w", encoding="ascii") as fh:
        fh.write(svg)
