"""Command-line front end.

One subcommand per operation; numbers use the same decimal-literal
grammar as the library.  `--resolution` switches a supporting
subcommand into device mode: the value is measured on the simulated
instrument and reported with its worst-case half width.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, ROUND_CEILING

from .cascade import divide, geometric_mean, multiply, power, reciprocal
from .diagram import write_svg
from .errors import GeocalcError
from .euler import antilog, approximate_e, natural_log
from .exponents import (DEFAULT_CF_TOL, DEFAULT_MAX_DEPTH, evaluate_cf,
                        recover_rational_exponent, solve_integer_exponent)
from .mechsim import (DEFAULT_RESOLUTION, SCRIPTS, MeasurementModel,
                      run_op as device_op, run_script)
from .numcore import (DEFAULT_POLICY, OPS, PrecisionPolicy, SignedScaled,
                      normalize, oracle_eval, parse_decimal, parse_integer,
                      renormalized, to_text)
from .roots import RootQuery, nth_root, rational_power
from .trace import TraceRecorder

RESULT_SCHEMA = {
    "type": "object",
    "required": ["op", "inputs", "result"],
    "properties": {
        "op": {"type": "string"},
        "inputs": {"type": "array", "items": {"type": "string"}},
        "result": {"type": "string"},
        "error_bound": {"type": "string"},
        "cf": {"type": "string"},
        "trace_path": {"type": "string"},
    },
    "additionalProperties": False,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _literal(parse):
    """An argparse type: a literal that `parse` refuses is a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except GeocalcError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


_decimal, _integer = _literal(parse_decimal), _literal(parse_integer)


def _policy(args) -> PrecisionPolicy:
    return PrecisionPolicy(
        working_digits=max(DEFAULT_POLICY.working_digits, args.digits + 10),
        rel_tol=args.tol)


def _fmt_decimal(d: Decimal, digits: int) -> str:
    return "0" if d == 0 else to_text(SignedScaled.from_decimal(d), digits)


def _fmt_bound(d: Decimal) -> str:
    """A nonnegative bound to 3 digits, rounded up so it stays a bound."""
    if d == 0:
        return "0"
    v = SignedScaled.from_decimal(d)
    up = v.mantissa.quantize(Decimal("0.001"), rounding=ROUND_CEILING)
    return to_text(renormalized(1, up, v.exponent), 3)


def _emit(args, op: str, inputs: list[str], result: str,
          plain: str | None = None, **extra) -> str:
    """The --json payload (less extras that are None), else plain or result."""
    if args.json:
        payload = {"op": op, "inputs": inputs, "result": result}
        payload.update((k, v) for k, v in extra.items() if v is not None)
        return json.dumps(payload, sort_keys=True)
    return result if plain is None else plain


def _emit_measured(args, op: str, inputs: list[str], res) -> str:
    """A device measurement as `value +/- bound`."""
    value, bound = to_text(res.value, args.digits), _fmt_bound(res.half_width)
    return _emit(args, op, inputs, value, f"{value} +/- {bound}",
                 error_bound=bound)


def _recorder_for(args) -> TraceRecorder | None:
    if not (args.emit_trace or args.diagram):
        return None
    if (args.backend != "construction"
            or getattr(args, "resolution", None) is not None):
        raise _UsageError("traces exist only on the construction backend")
    return TraceRecorder()


def _device_result(args, op: str, inputs: list[str]) -> str:
    if getattr(args, "backend", "construction") == "oracle":
        raise _UsageError("device mode implies the construction backend")
    model = MeasurementModel(resolution=args.resolution)
    return _emit_measured(args, op, inputs,
                          device_op(op, inputs, model, _policy(args)))


# --- handlers -----------------------------------------------------------

# op: (library function, help text); its operands are its row of OPS.
# Functions are looked up by name when called, so that a wrapper bound
# over the module global, such as a profiler's, sees every call.
_ENGINE = {
    "pow": ("power", "integer power x**n"),
    "root": ("nth_root", "principal n-th root"),
    "powfrac": ("rational_power", "rational power x**(m/n)"),
    "recip": ("reciprocal", "reciprocal 1/x"),
    "mul": ("multiply", "product a*b"),
    "div": ("divide", "quotient a/b"),
    "gmean": ("geometric_mean", "geometric mean of a and b"),
}


def _h_engine(args):
    op = args.command
    func, names = _ENGINE[op][0], OPS[op][0]
    inputs = [str(getattr(args, name)) for name in names]
    rec = _recorder_for(args)
    if getattr(args, "resolution", None) is not None:
        return _device_result(args, op, inputs)
    operands = [getattr(args, name) if name in "mn"
                else normalize(getattr(args, name)) for name in names]
    policy = _policy(args)
    if args.backend == "oracle":
        value = oracle_eval(op, tuple(operands), policy)
    else:
        call = [RootQuery(*operands)] if op == "root" else operands
        value = globals()[func](*call, policy=policy, recorder=rec)
    if args.emit_trace:
        rec.write(args.emit_trace)
    if args.diagram:
        write_svg(rec.steps, args.diagram)
    return _emit(args, op, inputs, to_text(value, args.digits),
                 trace_path=args.emit_trace)


def _h_ln(args):
    d = natural_log(normalize(args.a), depth=args.cf_depth,
                    policy=_policy(args))
    return _emit(args, "ln", [args.a], _fmt_decimal(d, args.digits))


def _h_antilog(args):
    v = antilog(parse_decimal(args.t), policy=_policy(args))
    return _emit(args, "antilog", [args.t], to_text(v, args.digits))


def _h_euler(args):
    approx = approximate_e(args.n, policy=_policy(args))
    text = _fmt_decimal(approx.value, args.digits)
    bound = _fmt_bound(approx.error_bound)
    return _emit(args, "euler", [str(args.n)], text,
                 f"{text} (error < {bound})", error_bound=bound)


def _h_solve_n(args):
    n = solve_integer_exponent(normalize(args.x), normalize(args.a),
                               args.max_n, policy=_policy(args))
    return _emit(args, "solve-n", [args.x, args.a], str(n))


def _h_solve_mn(args):
    if args.resolution is not None:
        if args.cf_depth is not None or args.cf_tol is not None:
            raise _UsageError("--cf-depth and --cf-tol tune the engine's "
                              "walk, not the device's")
        return _device_result(args, "cf", [args.x, args.a])
    cf = recover_rational_exponent(
        normalize(args.x), normalize(args.a),
        DEFAULT_MAX_DEPTH if args.cf_depth is None else args.cf_depth,
        DEFAULT_CF_TOL if args.cf_tol is None else args.cf_tol, _policy(args))
    frac = evaluate_cf(cf)
    result = f"{frac.numerator}/{frac.denominator}"
    return _emit(args, "solve-mn", [args.x, args.a], result,
                 f"{cf.to_text()} = {result}", cf=cf.to_text())


def _h_simulate(args):
    if args.script == "-":
        text = sys.stdin.read()
    else:
        with open(args.script, "r", encoding="ascii") as fh:
            text = fh.read()
    model = MeasurementModel(resolution=args.resolution)
    return "\n".join(_emit_measured(args, "simulate", [args.script], res)
                     for res in run_script(text, model=model,
                                           policy=_policy(args)))


def _h_diagram(args):
    with open(args.trace, "r", encoding="ascii") as fh:
        text = fh.read()
    write_svg(text, args.out, title=args.title)
    return _emit(args, "diagram", [args.trace], args.out,
                 trace_path=args.trace)


# --- parser -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--digits", type=_integer, default=5,
                        help="significant digits to display (default 5)")
    common.add_argument("--tol", type=_decimal, default=None,
                        help="relative tolerance for searches")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON object instead of plain text")

    backend = _Parser(add_help=False)
    backend.add_argument("--backend", choices=("construction", "oracle"),
                         default="construction")

    trace = _Parser(add_help=False)
    trace.add_argument("--emit-trace", metavar="PATH", default=None,
                       help="write the construction trace to PATH")
    trace.add_argument("--diagram", metavar="PATH", default=None,
                       help="render the construction to an SVG at PATH")

    res = _Parser(add_help=False)
    res.add_argument("--resolution", type=_decimal, default=None,
                     help="graduation size in metres; enables device mode")

    parser = _Parser(prog="geocalc",
                     description="scaled-decimal geometric calculator")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    for op, (_func, text) in _ENGINE.items():
        p = sub.add_parser(op, help=text, parents=[common, backend, trace]
                           + ([res] if op in SCRIPTS else []))
        for name in OPS[op][0]:
            p.add_argument(name, type=_integer if name in "mn" else None)
        p.set_defaults(func=_h_engine)

    p = sub.add_parser("ln", parents=[common],
                       help="natural logarithm")
    p.add_argument("a")
    p.add_argument("--cf-depth", type=_integer, default=DEFAULT_MAX_DEPTH)
    p.set_defaults(func=_h_ln)

    p = sub.add_parser("antilog", parents=[common],
                       help="exp(t) from a logarithm t")
    p.add_argument("t")
    p.set_defaults(func=_h_antilog)

    p = sub.add_parser("euler", parents=[common],
                       help="(1 + 1/n)**n with its error bound")
    p.add_argument("n", type=_integer)
    p.set_defaults(func=_h_euler)

    p = sub.add_parser("solve-n", parents=[common],
                       help="integer exponent with x**n == a")
    p.add_argument("--x", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--max-n", type=_integer, default=1000)
    p.set_defaults(func=_h_solve_n)

    p = sub.add_parser("solve-mn", parents=[common, res],
                       help="rational exponent m/n with x**(m/n) == a")
    p.add_argument("--x", required=True)
    p.add_argument("--a", required=True)
    # None when not given: device mode refuses both
    p.add_argument("--cf-depth", type=_integer, default=None)
    p.add_argument("--cf-tol", type=_decimal, default=None)
    p.set_defaults(func=_h_solve_mn)

    p = sub.add_parser("simulate", parents=[common],
                       help="run a device measurement script")
    p.add_argument("script", help="script path, or - for stdin")
    p.add_argument("--resolution", type=_decimal, default=DEFAULT_RESOLUTION)
    p.set_defaults(func=_h_simulate)

    p = sub.add_parser("diagram", parents=[common],
                       help="render a saved trace to SVG")
    p.add_argument("trace")
    p.add_argument("out")
    p.add_argument("--title", default=None)
    p.set_defaults(func=_h_diagram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except GeocalcError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if out:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
