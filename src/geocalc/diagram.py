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
from dataclasses import dataclass

from .errors import InconsistentTrace
from .trace import TraceStep, parse_trace

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


def _fmt(x: float) -> str:
    v = 0.0 if x == 0.0 else x   # normalize -0.0
    return f"{v:.9f}"


@dataclass
class _Seg:
    x1: float
    y1: float
    x2: float
    y2: float
    cls: str


@dataclass
class _Scene:
    segments: list
    marks: list          # ((fx, fy), (ax, ay), (bx, by), foot, onto, back)
    points: list         # (label, x, y)
    captions: list

    def bounds(self):
        xs, ys = [], []
        for s in self.segments:
            xs += [s.x1, s.x2]
            ys += [s.y1, s.y2]
        for _, x, y in self.points:
            xs.append(x)
            ys.append(y)
        if not xs:
            raise InconsistentTrace("nothing to draw")
        return min(xs), min(ys), max(xs), max(ys)


def _num(step: TraceStep, key: str) -> float:
    """A numeric attribute of step: finite, or the trace is inconsistent."""
    try:
        v = float(step.get(key))
    except (TypeError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        raise InconsistentTrace(
            f"{step.kind} needs a finite {key}=, got {step.get(key)!r}")
    return v


def _cos_sin(cos_v: float):
    if not -1.0 < cos_v < 1.0:
        raise InconsistentTrace(f"cosine {cos_v} out of range")
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


def _build_panel(steps: list[TraceStep]) -> _Scene:
    scene = _Scene(segments=[], marks=[], points=[], captions=[])
    i = 0
    trial_cosines = []
    while i < len(steps) and steps[i].kind == "rotate-hypotenuse":
        trial_cosines.append(_num(steps[i], "cos"))
        i += 1
    if i == len(steps) or steps[i].kind != "construct-angle-from-cosine":
        # a pure rotation fan is legal: trials plus measured lengths
        if trial_cosines:
            _render_fan(scene, trial_cosines)
            for st in steps[i:]:
                if st.kind != "measure-length":
                    raise InconsistentTrace(
                        "construction must open with its angle")
                scene.captions.append(
                    f"measure {st.get('segment')} = {st.get('value')}")
            return scene
        raise InconsistentTrace("construction must open with its angle")
    cos_work = _num(steps[i], "cos")
    i += 1
    bisected_from = None
    if i < len(steps) and steps[i].kind == "bisect-angle":
        bisected_from = _num(steps[i], "cos-full")
        cos_work = _num(steps[i], "cos-half")
        i += 1
    drops = []
    while i < len(steps):
        st = steps[i]
        if st.kind == "drop-perpendicular":
            drops.append((st.get("from"), st.get("onto"), st.get("foot"),
                          _num(st, "length")))
        elif st.kind == "measure-length":
            scene.captions.append(
                f"measure {st.get('segment')} = {st.get('value')}")
        else:
            raise InconsistentTrace(f"unexpected step {st.kind!r} mid-trace")
        i += 1
    c, s = _cos_sin(cos_work)
    # infer AB from the first drop: every drop shrinks by cos C
    ab = drops[0][3] / c if drops else 1.0
    bx = ab * c / s
    hyp_len = ab / s
    scene.points += [("C", 0.0, 0.0), ("B", bx, 0.0), ("A", bx, ab)]
    scene.segments.append(_Seg(0.0, 0.0, bx, 0.0, "main"))
    scene.segments.append(_Seg(bx, 0.0, bx, ab, "main"))
    scene.segments.append(_Seg(0.0, 0.0, bx, ab, "main"))
    scene.marks.append(((bx, 0.0), (-1.0, 0.0), (0.0, 1.0), "B", "CX", "BA"))
    for tc in trial_cosines:
        tcc, tcs = _cos_sin(tc)
        scene.segments.append(
            _Seg(0.0, 0.0, hyp_len * tcc, hyp_len * tcs, "trial"))
    if bisected_from is not None:
        fc, fs = _cos_sin(bisected_from)
        scene.segments.append(
            _Seg(0.0, 0.0, hyp_len * fc, hyp_len * fs, "aux"))
    px, py = bx, 0.0
    prev_label = "B"
    prev_len = ab
    for frm, onto, foot, length in drops:
        if frm != prev_label:
            raise InconsistentTrace(
                f"drop starts at {frm!r}, cascade is at {prev_label!r}")
        expected = prev_len * c
        if expected <= 0 or abs(length - expected) > _REL_TOL * expected:
            raise InconsistentTrace(
                f"drop {frm}->{foot} length {length} breaks the cosine chain")
        if onto in ("CA", "CY"):
            t = px * c + py * s
            if not -1e-9 <= t <= hyp_len * (1.0 + 1e-9):
                raise InconsistentTrace(f"foot {foot} lands off the segment")
            fx, fy = t * c, t * s
            ux, uy = c, s
        else:
            fx, fy = px, 0.0
            if not -1e-9 <= fx <= bx * (1.0 + 1e-9):
                raise InconsistentTrace(f"foot {foot} lands off the segment")
            ux, uy = 1.0, 0.0
        scene.segments.append(_Seg(px, py, fx, fy, "perp"))
        dx, dy = px - fx, py - fy
        norm = math.sqrt(dx * dx + dy * dy)
        if norm > 0:
            scene.marks.append(((fx, fy), (ux, uy), (dx / norm, dy / norm),
                                foot, onto, f"{foot}{frm}"))
        scene.points.append((foot, fx, fy))
        px, py = fx, fy
        prev_label, prev_len = foot, length
    return scene


def _render_fan(scene: _Scene, cosines: list):
    scene.points.append(("C", 0.0, 0.0))
    scene.segments.append(_Seg(0.0, 0.0, 1.0, 0.0, "main"))
    for k, tc in enumerate(cosines):
        c, s = _cos_sin(tc)
        cls = "main" if k == len(cosines) - 1 else "trial"
        scene.segments.append(_Seg(0.0, 0.0, c, s, cls))


def _combine(panels: list[_Scene]) -> _Scene:
    if len(panels) == 1:
        return panels[0]
    out = _Scene(segments=[], marks=[], points=[], captions=[])
    offset = 0.0
    for idx, sc in enumerate(panels):
        x0, y0, x1, y1 = sc.bounds()
        f = 1.0 / max(y1 - y0, 1e-9)
        suffix = "" if idx == 0 else str(idx + 1)

        def mx(x):
            return (x - x0) * f + offset

        def my(y):
            return (y - y0) * f

        for sg in sc.segments:
            out.segments.append(
                _Seg(mx(sg.x1), my(sg.y1), mx(sg.x2), my(sg.y2), sg.cls))
        for (fx, fy), a, b, foot, na, nb in sc.marks:
            out.marks.append(((mx(fx), my(fy)), a, b,
                              foot + suffix, na, nb))
        for label, x, y in sc.points:
            out.points.append((label + suffix, mx(x), my(y)))
        out.captions.extend(sc.captions)
        offset = mx(x1) + _PANEL_GAP
    return out


def render_svg(trace, title: str | None = None) -> str:
    """Render a trace (text or parsed steps) to a standalone SVG string."""
    steps = parse_trace(trace) if isinstance(trace, str) else list(trace)
    if not steps:
        raise InconsistentTrace("empty trace")
    scene = _combine([_build_panel(g) for g in _split_groups(steps)])
    x0, y0, x1, y1 = scene.bounds()
    span_x = max(x1 - x0, 1e-12)
    span_y = max(y1 - y0, 1e-12)
    caption_h = 18.0 * len(scene.captions) + (10.0 if scene.captions else 0.0)
    scale = min((_W - 2 * _MARGIN) / span_x,
                (_H - 2 * _MARGIN - caption_h) / span_y)

    def tx(x: float) -> float:
        return _MARGIN + (x - x0) * scale

    def ty(y: float) -> float:
        return _H - _MARGIN - caption_h - (y - y0) * scale

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{int(_W)}" height="{int(_H)}" '
               f'viewBox="0 0 {int(_W)} {int(_H)}">')
    out.append(f"<style>{_STYLE}</style>")
    out.append('<rect width="100%" height="100%" fill="#fdfdfd"/>')
    if title:
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{_fmt(_MARGIN)}" y="24">{text}</text>')
    out.append('<g id="segments">')
    for seg in scene.segments:
        out.append(f'<line class="{seg.cls}" x1="{_fmt(tx(seg.x1))}" '
                   f'y1="{_fmt(ty(seg.y1))}" x2="{_fmt(tx(seg.x2))}" '
                   f'y2="{_fmt(ty(seg.y2))}"/>')
    out.append("</g>")
    out.append('<g id="marks">')
    side = 9.0
    for (fx, fy), (ax, ay), (bx, by), foot, na, nb in scene.marks:
        # small square set into the right angle at the foot; the y axis
        # flips on screen, so world directions negate their y parts
        cx, cy = tx(fx), ty(fy)
        p1 = (cx + ax * side, cy - ay * side)
        p2 = (p1[0] + bx * side, p1[1] - by * side)
        p3 = (cx + bx * side, cy - by * side)
        out.append(f'<polyline class="mark" data-foot="{foot}" '
                   f'data-a="{na}" data-b="{nb}" points="'
                   f'{_fmt(p1[0])},{_fmt(p1[1])} '
                   f'{_fmt(p2[0])},{_fmt(p2[1])} '
                   f'{_fmt(p3[0])},{_fmt(p3[1])}"/>')
    out.append("</g>")
    out.append('<g id="points">')
    for label, x, y in scene.points:
        out.append(f'<circle class="pt" data-label="{label}" '
                   f'cx="{_fmt(tx(x))}" cy="{_fmt(ty(y))}" r="2.5"/>')
    out.append("</g>")
    out.append('<g id="labels">')
    for label, x, y in scene.points:
        out.append(f'<text x="{_fmt(tx(x) + 6.0)}" '
                   f'y="{_fmt(ty(y) - 6.0)}">{label}</text>')
    out.append("</g>")
    out.append('<g id="caption">')
    cy0 = _H - _MARGIN - caption_h + 24.0
    for k, line in enumerate(scene.captions):
        out.append(f'<text x="{_fmt(_MARGIN)}" '
                   f'y="{_fmt(cy0 + 18.0 * k)}">{line}</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(trace, path: str, title: str | None = None):
    svg = render_svg(trace, title=title)   # a bad trace leaves no file
    with open(path, "w", encoding="ascii") as fh:
        fh.write(svg)
