"""Trace format round trips and the deterministic SVG renderer."""

import dataclasses
from decimal import Decimal

import pytest

from geocalc import (DEFAULT_POLICY, InconsistentTrace, RootQuery,
                     STEP_KINDS, TraceRecorder, TraceStep, divide, foot_label,
                     geometric_mean, multiply, normalize, nth_root,
                     parse_trace, power, reciprocal, render_svg)

POL = DEFAULT_POLICY


def power_trace(text="0.6", n=4):
    rec = TraceRecorder()
    power(normalize(text), n, POL, recorder=rec)
    return rec


def test_step_kind_catalog():
    # the whole format: each kind's attribute names, in written order
    assert list(STEP_KINDS.items()) == [
        ("construct-angle-from-cosine", ("vertex", "cos")),
        ("drop-perpendicular", ("from", "onto", "foot", "length")),
        ("bisect-angle", ("vertex", "cos-full", "cos-half")),
        ("rotate-hypotenuse", ("pivot", "cos", "iteration")),
        ("measure-length", ("segment", "value")),
    ]


def test_foot_labels():
    assert [foot_label(i) for i in (1, 2, 3, 10)] == ["D", "E", "F", "M"]
    # labels past the letter pool stay unique
    assert foot_label(11) == "T11"


def test_trace_round_trip():
    traces = [power_trace()]
    for method in ("bisect", "rotate"):
        rec = TraceRecorder()
        geometric_mean(normalize("2"), normalize("18"), POL, method=method,
                       recorder=rec)
        traces.append(rec)
    rec = TraceRecorder()
    nth_root(RootQuery(normalize("0.5972e25"), 6), POL, recorder=rec)
    traces.append(rec)
    for rec in traces:
        text = rec.dumps()
        steps = parse_trace(text)
        assert steps == list(rec.steps)
        assert all(isinstance(s, TraceStep) for s in steps)
        assert [s.to_line() for s in steps] == text.splitlines()
    # every kind's format and pattern is exercised
    assert {s.kind for rec in traces for s in rec.steps} == set(STEP_KINDS)


@pytest.mark.parametrize("values", [("B", "CA", "0.36"),
                                    ("B", "CA", "D", "0.36", "red")])
def test_step_refuses_the_wrong_number_of_values(values):
    with pytest.raises(InconsistentTrace, match="drop-perpendicular takes "
                       "from= onto= foot= length=$"):
        TraceStep("drop-perpendicular", values)


def test_trace_write_and_reload(tmp_path):
    rec = power_trace()
    p = tmp_path / "cascade.trace"
    rec.write(str(p))
    assert parse_trace(p.read_text()) == list(rec.steps)


def test_trace_steps_are_immutable_hashable_values():
    rec = power_trace()
    step = rec.steps[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.kind = "measure-length"
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.values = ()
    parsed = parse_trace(rec.dumps())
    # equality and hashing ignore the line a parsed step carries
    assert [s.line for s in parsed] == list(range(1, len(parsed) + 1))
    assert {s.line for s in rec.steps} == {0}
    assert parsed == rec.steps
    assert [hash(s) for s in parsed] == [hash(s) for s in rec.steps]
    assert set(parsed) == set(rec.steps)


def test_parse_rejects_malformed_lines():
    with pytest.raises(InconsistentTrace):
        parse_trace("no-such-kind a=1\n")
    with pytest.raises(InconsistentTrace):
        parse_trace("measure-length novalue\n")


def test_parse_errors_name_their_line():
    # blank and comment lines count, as in device scripts
    head = "# power\n\nconstruct-angle-from-cosine vertex=C cos=0.6\n"
    with pytest.raises(InconsistentTrace, match="^line 4: drop-perpendicular "
                       "takes from= onto= foot= length=$"):
        parse_trace(head + "drop-perpendicular from=B onto=CA length=0.36\n")
    with pytest.raises(InconsistentTrace,
                       match="^line 4: unknown step kind: 'drop'$"):
        parse_trace(head + "drop from=B\n")


def test_render_errors_name_their_line():
    with pytest.raises(InconsistentTrace, match="^line 1: construct-angle-"
                       "from-cosine needs a finite cos=, got 'abc'$"):
        render_svg("construct-angle-from-cosine vertex=C cos=abc\n")
    # the comment and the blank line count
    text = ("# power\nconstruct-angle-from-cosine vertex=C cos=0.6\n"
            "drop-perpendicular from=B onto=CA foot=D length=0.36\n\n"
            "drop-perpendicular from=D onto=CB foot=E length=0.5\n")
    with pytest.raises(InconsistentTrace, match="^line 5: drop D->E length "
                       "0.5 breaks the cosine chain$"):
        render_svg(text)
    # parsed steps carry their lines; recorded steps have none
    with pytest.raises(InconsistentTrace, match="^line 5: drop D->E length "
                       "0.5 breaks the cosine chain$"):
        render_svg(parse_trace(text))
    with pytest.raises(InconsistentTrace, match="^drop D->E"):
        render_svg([TraceStep(s.kind, s.values) for s in parse_trace(text)])


def test_render_is_deterministic():
    rec = power_trace()
    assert render_svg(rec.steps) == render_svg(rec.steps)


def test_render_accepts_serialized_trace():
    rec = power_trace()
    assert render_svg(rec.dumps()) == render_svg(rec.steps)


def test_render_rejects_empty_and_headless_traces():
    with pytest.raises(InconsistentTrace):
        render_svg([])
    # a drop with no preceding angle has no geometry to draw
    with pytest.raises(InconsistentTrace):
        render_svg("drop-perpendicular from=B onto=CA foot=D length=0.5\n")


def test_render_flags_inconsistent_cascade_length():
    rec = power_trace()
    lines = rec.dumps().splitlines()
    bad = lines[2].replace("length=0.36", "length=0.35")
    with pytest.raises(InconsistentTrace):
        render_svg("\n".join(lines[:2] + [bad] + lines[3:]) + "\n")


def test_render_refuses_a_zero_cosine_with_drops():
    # the side AB is the first drop over cos C: no triangle at cos C = 0
    with pytest.raises(InconsistentTrace, match="cosine chain"):
        render_svg("construct-angle-from-cosine vertex=C cos=0\n"
                   "drop-perpendicular from=B onto=CA foot=D length=0.5\n")


@pytest.mark.parametrize("trace", [
    # AB = 1e300 / 1e-300 overflows
    "construct-angle-from-cosine vertex=C cos=1e-300\n"
    "drop-perpendicular from=B onto=CA foot=D length=1e300\n",
    # the second panel's AB = 0.5 / 1e-320 overflows
    "construct-angle-from-cosine vertex=C cos=0.6\n"
    "drop-perpendicular from=B onto=CA foot=D length=0.36\n"
    "construct-angle-from-cosine vertex=C cos=1e-320\n"
    "drop-perpendicular from=B onto=CA foot=D length=0.5\n",
], ids=["one-panel", "second-panel"])
def test_render_refuses_coordinates_that_overflow(trace):
    with pytest.raises(InconsistentTrace, match="overflows"):
        render_svg(trace)


def test_render_basic_structure():
    svg = render_svg(power_trace().steps)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert 'class="main"' in svg
    assert 'class="perp"' in svg
    assert svg.count('<polyline class="mark"') == 5
    assert "-0.0" not in svg


def test_right_angle_marks_reparse(right_angle_checker):
    svg = render_svg(power_trace("0.8123", 6).steps)
    assert right_angle_checker(svg) <= 1e-6


def test_multiply_trace_renders_two_panels():
    rec = TraceRecorder()
    multiply(normalize("0.5972"), normalize("0.7348"), POL, recorder=rec)
    kinds = [s.kind for s in rec.steps]
    assert kinds.count("construct-angle-from-cosine") == 2
    svg = render_svg(rec.steps)
    # second panel's points carry a suffix to stay distinct
    assert ">C2</text>" in svg


def test_bisect_trace_draws_full_angle_as_aux():
    rec = TraceRecorder()
    geometric_mean(normalize("2"), normalize("18"), POL, method="bisect",
                   recorder=rec)
    svg = render_svg(rec.steps)
    assert 'class="aux"' in svg


def test_rotate_fan_before_root_cascade(right_angle_checker):
    rec = TraceRecorder()
    nth_root(RootQuery(normalize("0.5972e25"), 6), POL, recorder=rec)
    svg = render_svg(rec.steps)
    assert 'class="trial"' in svg
    assert right_angle_checker(svg) <= 1e-6


def test_title_is_escaped_and_optional():
    rec = power_trace()
    svg = render_svg(rec.steps, title="cascade <demo> & co")
    assert "cascade &lt;demo&gt; &amp; co" in svg
    assert "<demo>" not in svg


def traced(build):
    """Record `build`, check the trace round-trips and renders the same
    twice; return the recorder and the SVG."""
    rec = TraceRecorder()
    build(rec)
    assert parse_trace(rec.dumps()) == rec.steps
    svg = render_svg(rec.steps)
    assert render_svg(rec.steps) == svg
    return rec, svg


def test_rotating_mean_renders_a_pure_fan():
    rec, svg = traced(lambda r: geometric_mean(
        normalize("2"), normalize("18.5"), POL, recorder=r, method="rotate"))
    assert [s.kind for s in rec.steps] == (["rotate-hypotenuse"] * 4
                                           + ["measure-length"])
    # the last drawn rotation is the main ray; a fan has no right angle
    assert svg.count('class="trial"') == 3
    assert '<polyline class="mark"' not in svg


@pytest.mark.parametrize("build", [
    lambda r: reciprocal(normalize("3.7"), POL, recorder=r,
                         method="unit-perpendicular"),
    lambda r: divide(normalize("5.972e24"), normalize("7.348e22"), POL,
                     recorder=r, method="similar-triangles"),
], ids=["recip-unit-perpendicular", "div-similar-triangles"])
def test_alternative_methods_draw_their_triangles(right_angle_checker, build):
    rec, svg = traced(build)
    drops = sum(s.kind == "drop-perpendicular" for s in rec.steps)
    assert svg.count('<polyline class="mark"') == drops + 1
    assert right_angle_checker(svg) <= 1e-6
