"""End-to-end checks of the command line interface.

Each test drives cli.main(argv) in process and inspects stdout,
stderr, and the exit code.  Expected result strings were frozen
from the high-precision oracle.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import time
from decimal import Context, Decimal

import jsonschema
import pytest

import geocalc
from geocalc import (MeasurementModel, RESOLUTION_LADDER, SignedScaled,
                     approximate_e, cli, mechsim, run_op, shift10, to_text)
from geocalc.mechsim import _LEVEL_STEP_CAP, N_ARMS, SCRIPTS
from geocalc.numcore import OPS

A_2_1971_181 = "1896.99842083110790327024929966961121487868624225173871384836"


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == ""
    payloads = [json.loads(line) for line in out.splitlines()]
    for p in payloads:
        jsonschema.validate(p, cli.RESULT_SCHEMA)
    return payloads


def test_pow_worked_example(capsys):
    code, out, err = run(capsys, "pow", "32357", "10", "--digits", "12")
    assert (code, out, err) == (0, "1.25800535315e45\n", "")


def test_pow_negative_exponent(capsys):
    code, out, _ = run(capsys, "pow", "32357", "-10", "--digits", "12")
    assert (code, out) == (0, "7.94909177049e-46\n")


def test_div_worked_example(capsys):
    code, out, _ = run(capsys, "div", "5.972e24", "7.348e22")
    assert (code, out) == (0, "8.1274e1\n")


def test_recip_negative_positional_after_dashes(capsys):
    code, out, _ = run(capsys, "recip", "--digits", "8", "--",
                       "-1.602176634e-19")
    assert (code, out) == (0, "-6.2415091e18\n")


# (argv with a negative literal as is, the same argv with its operands
# after "--" or joined to their option by "=")
NEGATIVE_LITERALS = [
    (["recip", "-1.6e-19"], ["recip", "--", "-1.6e-19"]),
    (["mul", "-2e3", "3"], ["mul", "--", "-2e3", "3"]),
    (["solve-n", "--x", "-2e0", "--a", "-8e0"],
     ["solve-n", "--x=-2e0", "--a=-8e0"]),
    (["antilog", "-2.5e-3"], ["antilog", "--", "-2.5e-3"]),
    (["recip", "-.5E+1", "--digits", "3"],
     ["recip", "--digits", "3", "--", "-.5E+1"]),
]


@pytest.mark.parametrize("argv,dashed", NEGATIVE_LITERALS,
                         ids=[" ".join(a) for a, _ in NEGATIVE_LITERALS])
def test_negative_literals_need_no_dashes(capsys, argv, dashed):
    want = run(capsys, *dashed)
    assert want[0] == 0 and want[2] == ""
    assert run(capsys, *argv) == want


def test_gmean_worked_example(capsys):
    code, out, _ = run(capsys, "gmean", "5.972e24", "7.348e22")
    assert (code, out) == (0, "6.6244e23\n")


def test_root_and_powfrac(capsys):
    code, out, _ = run(capsys, "root", "0.5972e25", "6", "--digits", "6")
    assert (code, out) == (0, "1.34696e4\n")
    code, out, _ = run(capsys, "powfrac", "0.5972e25", "19", "7",
                       "--digits", "10")
    assert (code, out) == (0, "1.776102502e67\n")


def test_ln_unit_prints_zero(capsys):
    code, out, _ = run(capsys, "ln", "1")
    assert (code, out) == (0, "0\n")


def test_ln_and_antilog(capsys):
    code, out, _ = run(capsys, "ln", "151", "--digits", "8")
    assert (code, out) == (0, "5.0172799e0\n")
    code, out, _ = run(capsys, "antilog", "2.5", "--digits", "8")
    assert (code, out) == (0, "1.2182494e1\n")


@pytest.mark.parametrize("k", range(13, 18))
@pytest.mark.parametrize("side", ["1+", "1-"])
def test_ln_near_one(capsys, k, side):
    # the term after the walk's leading 0 is about 10**k, under ln's cap
    a = Decimal(1) + (1 if side == "1+" else -1) * Decimal(1).scaleb(-k)
    want = Context(prec=40).ln(a)
    code, out, err = run(capsys, "ln", str(a), "--digits", "8")
    assert (code, err) == (0, "")
    assert out == to_text(SignedScaled.from_decimal(want), 8) + "\n"


def test_euler_reports_bound(capsys):
    code, out, _ = run(capsys, "euler", "1000000", "--digits", "8")
    assert (code, out) == (0, "2.7182805e0 (error < 1.36e-6)\n")


def test_euler_beyond_the_working_digits(capsys):
    code, out, err = run(capsys, "euler", "100000000000000000000000000",
                         "--digits", "20")
    assert (code, out, err) == (0, "2.7182818284590452354e0 "
                                   "(error < 1.36e-26)\n", "")


def test_solve_n(capsys):
    code, out, _ = run(capsys, "solve-n", "--x", "1.1", "--a",
                       "2.5937424601")
    assert (code, out) == (0, "10\n")


def test_solve_mn(capsys):
    code, out, _ = run(capsys, "solve-mn", "--x", "2", "--a", A_2_1971_181)
    assert (code, out) == (0, "[10; 1, 8, 20] = 1971/181\n")


def test_json_payloads_match_schema(capsys):
    (p,) = run_json(capsys, "pow", "32357", "10", "--digits", "12")
    assert p == {"inputs": ["32357", "10"], "op": "pow",
                 "result": "1.25800535315e45"}
    (p,) = run_json(capsys, "solve-mn", "--x", "2", "--a", A_2_1971_181)
    assert p["cf"] == "[10; 1, 8, 20]"
    assert p["result"] == "1971/181"


def test_device_mode_reports_half_width(capsys):
    code, out, _ = run(capsys, "pow", "0.87", "6", "--resolution", "1e-5")
    assert (code, out) == (0, "4.3363e-1 +/- 2.38e-5\n")
    (p,) = run_json(capsys, "pow", "0.87", "6", "--resolution", "1e-5")
    assert p["error_bound"] == "2.38e-5"
    assert p["result"] == "4.3363e-1"
    # a mul band adds no half step for its reading
    code, out, _ = run(capsys, "mul", "0.3", "0.7", "--resolution", "1e-5")
    assert (code, out) == (0, "2.1000e-1 +/- 5.01e-6\n")


def test_device_json_names_the_subcommand(capsys):
    # solve-mn runs the device's cf script, and reports as solve-mn
    (p,) = run_json(capsys, "solve-mn", "--x", "2", "--a", "8",
                    "--resolution", "1e-5")
    assert p == {"error_bound": "4.33e-5", "inputs": ["2", "8"],
                 "op": "solve-mn", "result": "3.0000e0"}


def test_oracle_backend_agrees(capsys):
    _, direct, _ = run(capsys, "root", "5.972e24", "4", "--digits", "6")
    _, oracle, _ = run(capsys, "root", "5.972e24", "4", "--digits", "6",
                       "--backend", "oracle")
    assert direct == oracle == "1.56326e6\n"


def test_oracle_rounds_an_exact_root_tie_to_even(capsys):
    # 421.875**(1/3) is exactly 7.5; raised to the 60-digit 1/3 it fell
    # just short of 7.5 and printed 7e0
    for backend in ("construction", "oracle"):
        code, out, err = run(capsys, "root", "421.875", "3", "--digits", "1",
                             "--backend", backend)
        assert (code, out, err) == (0, "8e0\n", ""), backend


def test_output_is_deterministic(capsys):
    one = run(capsys, "gmean", "5.972e24", "7.348e22", "--json")
    two = run(capsys, "gmean", "5.972e24", "7.348e22", "--json")
    assert one == two


def test_usage_errors_exit_one(capsys):
    for argv in (["nosuch"],
                 ["pow", "2", "bad"],
                 ["pow", "2", "4", "--backend", "oracle",
                  "--emit-trace", "t.trace"],
                 ["pow", "2", "4", "--backend", "oracle",
                  "--resolution", "1e-5"],
                 ["pow", "2", "3", "--resolution", "1e-5",
                  "--diagram", "out.svg"],
                 ["pow", "2", "3", "--resolution", "1e-5",
                  "--emit-trace", "t.trace"],
                 # ln takes neither walk flag, nor does the device's walk
                 ["ln", "151", "--cf-tol", "0.5"],
                 ["ln", "151", "--cf-depth", "3"],
                 ["solve-mn", "--x", "2", "--a", "11.3137084989847603904",
                  "--resolution", "1e-5", "--cf-depth", "1"],
                 ["solve-mn", "--x", "2", "--a", "11.3137084989847603904",
                  "--resolution", "1e-5", "--cf-tol", "1e-3"],
                 # a dash not followed by a decimal literal is a flag
                 ["recip", "-e5"],
                 ["recip", "-Infinity"],
                 ["pow", "2", "3", "--foo"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:")


def test_domain_errors_exit_two(capsys):
    code, _, err = run(capsys, "recip", "0")
    assert code == 2 and "ZeroNotRepresentable" in err
    code, _, err = run(capsys, "root", "--digits", "6", "--", "-16", "4")
    assert code == 2 and "EvenRootOfNegative" in err


@pytest.mark.parametrize("argv, want", [
    ("root 2 2 --digits 0", "digits must be at least 1"),
    ("euler 0", "n_steps must be at least 1"),
    ("solve-n --x 2 --a 8 --max-n 0", "max_n must be at least 1"),
    ("solve-n --x 1 --a 2", "base magnitude 1 cannot reach a target"),
    ("solve-mn --x 2 --a 8 --cf-depth 0", "max_depth must be at least 1"),
    # a tolerance below 0 closes no walk, one of 1 closes every walk
    ("solve-mn --x 2 --a 8 --cf-tol -1", "cf_tol must be in [0, 1)"),
    ("solve-mn --x 2 --a 8 --cf-tol 1", "cf_tol must be in [0, 1)"),
    # t is about 6.9e8: the walk's first term passes MAX_TERM
    ("solve-mn --x 1.000001 --a 1e300",
     "exponent's leading term above cap 1000000"),
    # t < 1, and the walk stops before the term after its leading 0:
    # t is about 1.44e-7, so that term passes MAX_TERM; or depth 1
    ("solve-mn --x 2 --a 1.0000001",
     "exponent's term after the leading 0 above cap 1000000"),
    ("solve-mn --x 2 --a 1.5 --cf-depth 1",
     "depth 1 ends at the exponent's leading 0"),
    # ln(1 + 1e-18) is about 1e-18: the term after ln's 0 passes its cap
    ("ln 1.000000000000000001",
     "exponent's term after the leading 0 above cap 100000000000000000"),
    ("pow 2 3 --resolution 0",
     "need 0 < resolution < 0.01, the shortest arm"),
    ("pow 2 3 --resolution 0.5",
     "need 0 < resolution < 0.01, the shortest arm"),
    # past the floor a rotation's window can lie above the bracket top
    ("gmean 0.5 0.50000000000000000001 --resolution 1e-20",
     "need resolution >= 4e-15, the finest the rotation bracket supports"),
    # an exact decade needs no triangle: its reciprocal has no band
    ("recip 1000 --resolution 1e-5", None),
])
def test_typed_refusals(capsys, argv, want):
    got = run(capsys, *argv.split())
    if want is None:
        assert got == (0, "1.0000e-3 +/- 0\n", "")
    else:
        assert got == (2, "", f"error: DomainError: {want}\n")


@pytest.mark.parametrize("argv", [
    ["root", "0.5", str(10 ** 400)],
    ["root", "5e7", str(10 ** 400), "--digits", "20"],
    ["root", "0.5", str(2 * 10 ** 308)],
    ["powfrac", "2", "3", str(10 ** 400)],
], ids=["root 10^400", "root 10^400 digits 20", "root 2e308",
        "powfrac 10^400"])
def test_root_index_past_the_float_range(capsys, argv):
    # Newton's float seed cannot hold the index: the search runs without
    # its window and prints the oracle's digits
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv, "--backend", "oracle")[1]


@pytest.mark.parametrize("n", [10 ** 6 + 1, 10 ** 17, 10 ** 50],
                         ids=["10^6+1", "10^17", "10^50"])
def test_device_root_index_above_the_cap(capsys, n):
    # each side call walks n arms: refused before any arm is set
    start = time.monotonic()
    got = run(capsys, "root", "0.5", str(n), "--resolution", "1e-5")
    assert time.monotonic() - start < 1
    assert got == (2, "", "error: DomainError: root index above cap "
                          "1000000\n")


@pytest.mark.parametrize("argv, whose", [
    (("pow", "1e1000000000", "1"), "operand"),
    (("ln", "1e1000000000"), "operand"),
    (("mul", "1e900000000", "1e900000000"), "result"),
])
def test_exponent_overflow_names_operand_or_result(capsys, argv, whose):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: ExponentOverflow: {whose} exponent out of range\n"


def test_missing_script_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", str(tmp_path / "absent.txt"))
    assert code == 2 and "absent.txt" in err


def test_simulate_script(capsys, tmp_path):
    script = tmp_path / "ops.txt"
    script.write_text("# demo script\n"
                      "pow 0.87 6\n"
                      "recip 8 resolution=1e-10\n"
                      "\n"
                      "div 5.972e24 7.348e22\n")
    code, out, _ = run(capsys, "simulate", str(script))
    assert code == 0
    assert out.splitlines() == ["4.3363e-1 +/- 2.38e-5",
                                "1.2500e-1 +/- 5.08e-11",
                                "8.1270e1 +/- 9.56e-3"]
    payloads = run_json(capsys, "simulate", str(script))
    assert [p["result"] for p in payloads] == ["4.3363e-1", "1.2500e-1",
                                               "8.1270e1"]
    assert all(p["op"] == "simulate" for p in payloads)


def test_simulate_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("pow 0.87 6\n"))
    code, out, _ = run(capsys, "simulate", "-")
    assert (code, out) == (0, "4.3363e-1 +/- 2.38e-5\n")


MALFORMED_TRACES = {
    "bad cos": "construct-angle-from-cosine vertex=C cos=abc\n",
    "no cos": "construct-angle-from-cosine vertex=C\n",
    "bad length": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                   "drop-perpendicular from=B onto=CA foot=D length=x\n"),
    "nan length": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                   "drop-perpendicular from=B onto=CA foot=D length=nan\n"),
    "markup segment": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                       "measure-length segment=a<b&c value=1\n"),
    "quote in foot": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                      'drop-perpendicular from=B onto=CA foot=D"x '
                      "length=0.36\n"),
    "zero cos": ("construct-angle-from-cosine vertex=C cos=0\n"
                 "drop-perpendicular from=B onto=CA foot=D length=0.5\n"),
    "overflowing side": ("construct-angle-from-cosine vertex=C cos=1e-300\n"
                         "drop-perpendicular from=B onto=CA foot=D "
                         "length=1e300\n"),
    "overflowing panel": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                          "drop-perpendicular from=B onto=CA foot=D "
                          "length=0.36\n"
                          "construct-angle-from-cosine vertex=C cos=1e-320\n"
                          "drop-perpendicular from=B onto=CA foot=D "
                          "length=0.5\n"),
    "no foot": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                "drop-perpendicular from=B onto=CA length=0.36\n"),
    "no foot twice": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                      "drop-perpendicular from=B onto=CA length=0.36\n") * 2,
    "no segment": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                   "measure-length value=1\n"),
    "repeated cos": "construct-angle-from-cosine vertex=C cos=0.6 cos=0.7\n",
    "unknown attribute": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                          "drop-perpendicular from=B onto=CA foot=D "
                          "length=0.36 color=red\n"),
    "reordered": "construct-angle-from-cosine cos=0.6 vertex=C\n",
    "cos above one": "construct-angle-from-cosine vertex=C cos=1.5\n",
    "drop off the cascade": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                             "drop-perpendicular from=X onto=CA foot=D "
                             "length=0.36\n"),
    "bisect after a drop": ("construct-angle-from-cosine vertex=C cos=0.6\n"
                            "drop-perpendicular from=B onto=CA foot=D "
                            "length=0.36\n"
                            "bisect-angle vertex=C cos-full=0.6 "
                            "cos-half=0.89\n"),
    "rotation first": ("rotate-hypotenuse pivot=A cos=0.6 iteration=1\n"
                       "drop-perpendicular from=B onto=CA foot=D "
                       "length=0.36\n"),
}
# the refusal of a malformed cascade, and the line it names
CASCADE_REFUSALS = {
    "cos above one": "line 1: cosine 1.5 out of range",
    "drop off the cascade": "line 2: drop starts at 'X', cascade is at 'B'",
    "bisect after a drop": "line 3: unexpected step 'bisect-angle' mid-trace",
    "rotation first": "line 2: construction must open with its angle",
}


@pytest.mark.parametrize("case", [*MALFORMED_TRACES, "non-ascii trace",
                                  "non-ascii script"])
def test_malformed_files_exit_two(capsys, tmp_path, case):
    path, out_svg = tmp_path / "in.txt", tmp_path / "out.svg"
    if case == "non-ascii script":
        path.write_text("pow 0.87 6 # \u00e9\n", encoding="utf-8")
        argv = ["simulate", str(path)]
    else:
        path.write_text(MALFORMED_TRACES.get(
            case, "measure-length segment=\u00e9 value=1\n"), encoding="utf-8")
        argv = ["diagram", str(path), str(out_svg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "Traceback" not in err
    assert case.startswith("non-ascii") or "InconsistentTrace" in err
    if case in CASCADE_REFUSALS:
        assert err == f"error: InconsistentTrace: {CASCADE_REFUSALS[case]}\n"
    assert not out_svg.exists()


def test_diagram_refusal_names_the_trace_line(capsys, tmp_path):
    path = tmp_path / "in.trace"
    path.write_text(MALFORMED_TRACES["bad cos"], encoding="ascii")
    code, out, err = run(capsys, "diagram", str(path),
                         str(tmp_path / "out.svg"))
    assert (code, out, err) == (2, "", "error: InconsistentTrace: line 1: "
                                "construct-angle-from-cosine needs a finite "
                                "cos=, got 'abc'\n")


def test_simulate_non_integer_operand_exits_two(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("pow 2 x\n"))
    code, out, err = run(capsys, "simulate", "-")
    assert (code, out) == (2, "")
    assert "ParseError" in err and "Traceback" not in err


@pytest.mark.parametrize("bad, want", [
    ("root 8 x", "error: ParseError: line 4: not an integer: 'x'"),
    ("root -8 2", "error: EvenRootOfNegative: line 4: "),
], ids=["parse", "operand"])
def test_script_errors_name_their_line(capsys, monkeypatch, bad, want):
    script = f"pow 0.87 6\n\n# comment\n{bad}\nrecip 8\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code, out, err = run(capsys, "simulate", "-")
    assert (code, out) == (2, "") and err.startswith(want)


def test_trace_emission_and_diagram_subcommand(capsys, tmp_path):
    trace = tmp_path / "pow.trace"
    svg_a = tmp_path / "a.svg"
    code, _, _ = run(capsys, "pow", "0.6", "4", "--emit-trace", str(trace),
                     "--diagram", str(svg_a))
    assert code == 0
    assert trace.read_text().splitlines()[0].startswith(
        "construct-angle-from-cosine")
    svg_b = tmp_path / "b.svg"
    code, _, _ = run(capsys, "diagram", str(trace), str(svg_b))
    assert code == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    (p,) = run_json(capsys, "pow", "0.6", "4", "--emit-trace", str(trace))
    assert p["trace_path"] == str(trace)


@pytest.mark.parametrize("n, want", [
    ("50000", "error: DomainError: the band +/- 8.55e15051 is wider than "
              "the value 2.4860e15051\n"),
    ("-20000", "error: DomainError: the band +/- 1.21e-6020 is wider than "
               "the value 2.7624e-6021\n"),
    ("20000", None),
], ids=["50000", "-20000", "20000"])
def test_device_refuses_a_band_wider_than_its_value(capsys, n, want):
    code, out, err = run(capsys, "pow", "2", n, "--resolution", "1e-5")
    if want is None:   # a band of 0.81 times the value still prints
        assert (code, out, err) == (0, "3.6200e6020 +/- 2.95e6020\n", "")
    else:
        assert (code, out, err) == (2, "", want)


@pytest.mark.parametrize("argv, want", [
    # a power that reads a decade sets no triangle: its reciprocal is
    # banded by 1 over the power's interval
    (["10", "-3"], (0, "1.0000e-3 +/- 7.01e-7\n", "")),
    (["0.1", "-2"], (0, "1.0000e2 +/- 6.01e-2\n", "")),
    # x**23270 prints 8.3120e7004 +/- 8.32e7004: it may lie anywhere in
    # (0, 2 * value], so its reciprocal has no upper bound
    (["2.000000003970949296556378073", "-23270"],
     (2, "", "error: DomainError: a divisor whose band reaches 0 leaves "
             "the quotient unbounded\n")),
], ids=["10^-3", "0.1^-2", "band reaches 0"])
def test_device_negative_power_is_the_reciprocal_of_the_power(capsys, argv,
                                                               want):
    assert run(capsys, "pow", *argv, "--resolution", "1e-5") == want


def test_device_cf_solver(capsys):
    code, out, _ = run(capsys, "solve-mn", "--x", "2", "--a", A_2_1971_181,
                       "--resolution", "1e-10")
    assert (code, out) == (0, "1.0890e1 +/- 1.58e-9\n")


def test_device_cf_level_step_cap(capsys):
    # a = 1.0001**12000: the first level walks _LEVEL_STEP_CAP arms
    # without crossing and is banded by corner exponents
    code, out, err = run(capsys, "solve-mn", "--x", "1.0001", "--a",
                         "3.31991773497594925289013636177e+0",
                         "--resolution", "1e-10")
    assert (code, out, err) == (0, "1.2000e4 +/- 6.01e-3\n", "")
    value, band = (Decimal(t) for t in out.split(" +/- "))
    assert value - band <= 12000 <= value + band
    # one re-anchor reading per full stage before the cap, none at it
    res = run_op("cf", ["1.0001", "3.31991773497594925289013636177e+0"],
                 MeasurementModel(resolution=Decimal("1e-10")))
    assert len(res.readings) == _LEVEL_STEP_CAP // N_ARMS - 1


def test_device_cf_solver_below_a_tenth(capsys):
    # cos C = 1/20: the crossing at two arms lies past a reading below 0.1,
    # so the level is banded by corner exponents instead of an arm count
    code, out, err = run(capsys, "solve-mn", "--x", "20", "--a",
                         "8.94427190999915878563669467493e+1",
                         "--resolution", "1e-5")
    assert (code, out, err) == (0, "1.5000e0 +/- 5.01e-5\n", "")


def test_tolerance_is_not_an_option(capsys):
    # every search runs to one unit of the working digits
    code, out, err = run(capsys, "root", "2", "2", "--tol", "1e-5")
    assert (code, out) == (1, "")
    assert err == "usage error: unrecognized arguments: --tol 1e-5\n"


def test_searches_run_past_two_hundred_halvings(capsys):
    # 70 and 65 working digits need more halvings than the old cap of 200
    code, out, err = run(capsys, "root", "2", "2", "--digits", "60")
    assert (code, err) == (0, "")
    assert out == ("1.41421356237309504880168872420969807856967187537694807"
                   "317668e0\n")
    code, out, err = run(capsys, "powfrac", "2", "1", "3", "--digits", "55")
    assert (code, err) == (0, "")
    assert out == ("1.2599210498948731647672106072782283505702514647015079"
                   "80e0\n")


def test_digits_past_the_default_decimal_context(capsys):
    code, out, err = run(capsys, "pow", "0.5", "3", "--digits", "29")
    assert (code, out, err) == (0, "1.2500000000000000000000000000e-1\n", "")


@pytest.mark.parametrize("device", [[], ["--resolution", "1e-5"]],
                         ids=["engine", "device"])
def test_digits_past_the_int_string_limit(capsys, device):
    # 4301 digits is one past what int() -> str() converts
    code, out, err = run(capsys, "pow", "2", "3", "--digits", "4301", *device)
    assert (code, err) == (0, "")
    assert out.startswith("8." + "0" * 4300 + "e0")


def test_solve_mn_prints_a_fraction_past_the_int_string_limit(
        capsys, monkeypatch):
    # 400 terms of 10**11 give a numerator and denominator of about 4 400
    # digits each: a deep walk at high --digits reaches such a convergent
    cf = geocalc.ContinuedFraction((1,) + (10 ** 11,) * 400, False)
    monkeypatch.setattr(cli, "recover_rational_exponent", lambda *a: cf)
    code, out, err = run(capsys, "solve-mn", "--x", "2", "--a", "3")
    assert (code, err) == (0, "")
    num, den = out.split(" = ")[1].split("/")
    frac = geocalc.evaluate_cf(cf)
    assert Decimal(num) == frac.numerator > 10 ** 4300
    assert Decimal(den) == frac.denominator


# x, a that solve-mn refuses in exponents.first_level on both backends
CF_REFUSALS = {("-2", "8"): "exponent recovery needs positive values",
               ("1", "8"): "exponent recovery is degenerate at 1",
               ("2", "0.5"): "base and target must sit on the same side of 1"}


@pytest.mark.parametrize("op, operands", [
    ("pow", ["2", "0"]), ("pow", ["2", "1000001"]),
    ("pow", ["1e-999999999", "2"]), ("root", ["-16", "4"]),
    ("root", ["2", "0"]), ("powfrac", ["-8", "1", "2"]),
    ("powfrac", ["2", "1", "0"]), ("gmean", ["-2", "3"]),
    ("pow", ["1e900000", "2000"]), ("pow", ["2", "2000000"]),
    ("powfrac", ["2", "2000000", "3"]), ("powfrac", ["1e900000", "2000", "3"]),
    ("mul", ["1e900000000", "1e900000000"]),
    ("div", ["1e900000000", "1e-900000000"]),
    ("recip", ["1e-1000000000"]),
    *(("solve-mn", ["--x", x, "--a", a]) for x, a in CF_REFUSALS)])
def test_backends_reject_the_same_operands(capsys, op, operands):
    if op == "solve-mn":        # the engine's walk, and the device's cf
        modes = [[], ["--resolution", "1e-5"]]
    else:
        modes = [["--backend", "construction"], ["--backend", "oracle"]]
        if op in SCRIPTS:
            modes.append(["--resolution", "1e-5"])
        operands = ["--", *operands]
    first, *others = (run(capsys, op, *mode, *operands) for mode in modes)
    assert all(other == first for other in others)
    code, out, err = first
    assert (code, out) == (2, "") and err.startswith("error: ")
    if op == "solve-mn":
        want = CF_REFUSALS[operands[1], operands[3]]
        assert err == f"error: DomainError: {want}\n"


def test_one_table_of_operations():
    assert set(cli._ENGINE) | set(SCRIPTS) == set(OPS)
    assert all(OPS[op][2] is not None for op in cli._ENGINE)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for op in cli._ENGINE:
        positionals = sub.choices[op]._get_positional_actions()
        assert "".join(a.dest for a in positionals) == OPS[op][0], op


# the last two are 1e-5 with an Arabic-Indic and a full-width digit one
BAD_LITERALS = ["nan", "inf", "-Infinity", "1_0e-6", "x", "\u0661e-5",
                "\uff11e-5"]


@pytest.mark.parametrize("literal", BAD_LITERALS)
@pytest.mark.parametrize("where", ["--tol", "--cf-tol", "--resolution",
                                   "antilog", "resolution="])
def test_one_literal_grammar(capsys, monkeypatch, where, literal):
    # --tol is no longer an option: it stays a usage error, whatever the
    # literal, like a bad literal for an option that exists
    if where == "antilog":
        argv, want = ["antilog", "--", literal], (2, "ParseError")
    elif where == "resolution=":
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(f"pow 0.87 6 resolution={literal}\n"))
        argv, want = ["simulate", "-"], (2, "ParseError")
    else:
        op = (["solve-mn", "--x", "2", "--a", "8"] if where == "--cf-tol"
              else ["pow", "2", "3"])
        argv, want = op + [f"{where}={literal}"], (1, "usage error:")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (want[0], "")
    assert want[1] in err and "Traceback" not in err


# Arabic-Indic two, a digit separator, full-width two: int() takes all
# three; and an integer past int()'s digit limit
BAD_INTEGERS = ["\u0662", "1_0", "\uff12",
                pytest.param("9" * 5000, id="5000-digits")]
INTEGER_FIELDS = {
    "pow n": ["pow", "3", "{}"], "root n": ["root", "4", "{}"],
    "powfrac m": ["powfrac", "2", "{}", "3"],
    "powfrac n": ["powfrac", "2", "3", "{}"],
    "--digits": ["pow", "3", "2", "--digits", "{}"],
    "--max-n": ["solve-n", "--x", "2", "--a", "8", "--max-n", "{}"],
    "--cf-depth": ["solve-mn", "--x", "2", "--a", "8", "--cf-depth", "{}"],
    "euler n": ["euler", "{}"],
    "device pow n": ["pow", "3", "{}", "--resolution", "1e-5"],
}


@pytest.mark.parametrize("literal", BAD_INTEGERS)
@pytest.mark.parametrize("where", list(INTEGER_FIELDS) + ["script"])
def test_one_integer_grammar(capsys, monkeypatch, where, literal):
    if where == "script":
        monkeypatch.setattr("sys.stdin", io.StringIO(f"pow 3 {literal}\n"))
        argv, want = ["simulate", "-"], (2, "ParseError: line 1: not an "
                                         "integer")
    else:
        argv = [a.format(literal) for a in INTEGER_FIELDS[where]]
        want = (1, "usage error:")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (want[0], "")
    assert want[1] in err and "Traceback" not in err


DEVICE_CASES = [("pow", ["0.87", "6"]), ("mul", ["0.3", "0.7"]),
                ("div", ["5.972e24", "7.348e22"]), ("gmean", ["2", "3"]),
                ("recip", ["8"]), ("root", ["95.51", "4"])]


def test_printed_bounds_are_never_below_the_raw_bound(capsys, monkeypatch):
    for n in (7, 1000000, 1357123):
        _, out, _ = run(capsys, "euler", str(n))
        printed = Decimal(out.split("(error < ")[1].rstrip(")\n"))
        assert printed >= approximate_e(n).error_bound, n
    for res in RESOLUTION_LADDER:
        model = MeasurementModel(resolution=res)
        for op, args in DEVICE_CASES:
            _, out, _ = run(capsys, op, *args, "--resolution", str(res))
            printed = Decimal(out.split(" +/- ")[1])
            assert printed >= run_op(op, args, model).half_width, (op, res)
    # a refused band: the raw band is read where the device packages it
    raw, package = [], mechsim._Run.package

    def spy(run_, sign, mantissa, exponent, iv):
        raw.append(shift10(iv.half_width_about(mantissa), exponent))
        return package(run_, sign, mantissa, exponent, iv)
    monkeypatch.setattr(mechsim._Run, "package", spy)
    for n in ("50000", "-20000"):
        code, _, err = run(capsys, "pow", "2", n, "--resolution", "1e-5")
        assert code == 2 and "is wider than the value" in err
        printed = Decimal(err.split(" +/- ")[1].split()[0])
        assert printed >= raw[-1], n


def test_cli_import_leaves_out_the_network_stack():
    probe = ("import sys, geocalc.cli; print(sorted(m for m in ("
             "'urllib.request', 'http', 'email', 'xml.sax') "
             "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(geocalc.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
