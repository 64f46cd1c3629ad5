"""cli-oneshot: a fresh `python -m geocalc.cli` process per command, run
from the source tree, one child at a time.

Interpreter start, package import and argparse dominate; this is the only
workload that measures them.  The command list is fixed in order (the
`diagram` commands read traces written by earlier ones); the seed picks
the operands.
"""

from __future__ import annotations

import json
import os
import random
from decimal import Decimal

import device
import refs
from draw import drawing_problems
from refs import D, REF

OUT = os.path.join("perfbench", "out", "cli")
SCRIPT_LINES = 100


def _path(name: str) -> str:
    return os.path.join(OUT, name)


def _m(rng: random.Random) -> str:
    return "0." + str(rng.randrange(10 ** 11, 10 ** 12))


def _num(rng: random.Random, lo: int = -9, hi: int = 9) -> str:
    return f"{_m(rng)}e{rng.randint(lo, hi)}"


def script_lines(rng: random.Random) -> list[tuple]:
    """(resolution or None, op, args...) lines of the simulate script."""
    lines = []
    for i in range(SCRIPT_LINES):
        op = ("pow", "mul", "div", "gmean", "recip", "cf")[i % 6]
        res = rng.choice((None, None, "5e-7", "1e-10"))
        if op == "pow":
            args = (_num(rng, -3, 3), rng.randint(2, 12))
        elif op == "recip":
            args = (_num(rng),)
        elif op == "cf":
            x = D("1." + str(rng.randrange(10 ** 5, 10 ** 6)))
            p, q = rng.choice(device.CF_EXPONENTS)
            args = (str(x), format(refs.pow_frac(x, p, q), ".29e"))
        else:
            args = (_num(rng), _num(rng))
        lines.append((res, op) + args)
    return lines


def script_text(lines: list[tuple]) -> str:
    out = []
    for res, op, *args in lines:
        tail = f" resolution={res}" if res else ""
        out.append(" ".join([op] + [str(a) for a in args]) + tail)
    return "# device script\n" + "\n".join(out) + "\n"


def specs(seed: int) -> list[tuple]:
    """(argv after the program, check kind, detail) per command."""
    rng = random.Random(f"cli-oneshot:{seed}")

    def int5():
        return str(rng.randrange(10000, 100000))

    n1, n2 = rng.randint(5, 12), rng.randint(5, 12)
    x1, x2 = int5(), int5()
    a, b = _num(rng), _num(rng)
    r1, r2, r3 = (_num(rng, lo, hi).lstrip("-")
                  for lo, hi in ((-20, 20), (-20, 20), (-9, 9)))
    t = str(Decimal(rng.randrange(-3 * 10 ** 6, 3 * 10 ** 6)).scaleb(-6))
    euler_n = rng.randrange(10 ** 3, 10 ** 7)
    sx = D("1." + str(rng.randrange(10 ** 4, 10 ** 5)))
    sn = rng.randint(2, 400)
    mx = D("1." + str(rng.randrange(10 ** 4, 10 ** 5)))
    mp, mq = rng.choice(((1971, 181), (22, 7), (355, 113), (17, 5), (3, 2)))
    dev = [_num(rng, -3, 3).lstrip("-") for _ in range(8)]
    cfx = D("1." + str(rng.randrange(10 ** 5, 10 ** 6)))
    cp, cq = rng.choice(device.CF_EXPONENTS)
    tp = "0." + str(rng.randrange(5 * 10 ** 11, 10 ** 12))
    tn = rng.randint(4, 30)
    rn = rng.randint(2, 12)
    lines = script_lines(rng)
    p = _path
    cmds = [
        (["pow", x1, str(n1), "--digits", "12"], "value", ("pow", x1, n1)),
        (["pow", x2, f"-{n2}", "--digits", "12"], "value", ("pow", x2, -n2)),
        (["div", a, b], "value", ("div", a, b)),
        (["div", b, a, "--json", "--digits", "9"], "json", ("div", b, a)),
        (["gmean", r3, a.lstrip("-"), "--json"], "json",
         ("gmean", r3, a.lstrip("-"))),
        (["mul", a, b, "--digits", "15"], "value", ("mul", a, b)),
        (["recip", "--digits", "8", "--", "-" + r1], "value",
         ("recip", "-" + r1)),
        (["root", r2, "6", "--digits", "6"], "value", ("root", r2, 6)),
        (["root", r1, "3", "--digits", "20", "--json"], "json",
         ("root", r1, 3)),
        (["powfrac", r3, "19", "7", "--digits", "10"], "value",
         ("powfrac", r3, 19, 7)),
        # ln and antilog are good to about 2e-8: print 7 digits
        (["ln", r3, "--digits", "7"], "value", ("ln", r3)),
        (["antilog", t, "--digits", "7"], "value", ("exp", t)),
        (["euler", str(euler_n), "--digits", "8"], "euler", euler_n),
        (["solve-n", "--x", str(sx), "--a",
          format(refs.pow_int(sx, sn), ".39e")], "exact", str(sn)),
        (["solve-mn", "--x", str(mx), "--a",
          format(refs.pow_frac(mx, mp, mq), ".39e"), "--json"], "json-exact",
         f"{mp}/{mq}"),
        (["pow", dev[0], str(rn), "--resolution", "1e-5"], "device",
         ("pow", dev[0], rn)),
        (["mul", dev[1], dev[2], "--resolution", "5e-7"], "device",
         ("mul", dev[1], dev[2])),
        (["div", dev[3], dev[4], "--resolution", "2e-7", "--json"],
         "json-device", ("div", dev[3], dev[4])),
        (["gmean", dev[5], dev[6], "--resolution",
          "1e-10"], "device",
         ("gmean", dev[5], dev[6])),
        (["recip", dev[7], "--resolution", "1e-5"], "device",
         ("recip", dev[7])),
        # a fixed root that the device gets right: most others hit the
        # sign error that device-ladder counts
        (["root", "0.6180339887", "2", "--resolution", "5e-7"], "device",
         ("root", "0.6180339887", 2)),
        (["solve-mn", "--x", str(cfx), "--a",
          format(refs.pow_frac(cfx, cp, cq), ".29e"), "--resolution",
          "1e-5"], "device", ("cf", str(cfx),
                              format(refs.pow_frac(cfx, cp, cq), ".29e"))),
        (["pow", r2, str(n1), "--backend", "oracle", "--digits", "20"],
         "value", ("pow", r2, n1)),
        (["root", r3, str(rn), "--backend", "oracle", "--json"], "json",
         ("root", r3, rn)),
        (["powfrac", r2, "5", "3", "--backend", "oracle"], "value",
         ("powfrac", r2, 5, 3)),
        (["div", a, b, "--backend", "oracle", "--digits", "25"], "value",
         ("div", a, b)),
        (["mul", a, b, "--backend", "oracle", "--json"], "json",
         ("mul", a, b)),
        (["pow", tp, str(tn), "--emit-trace", p("pow.trace"), "--diagram",
          p("pow.svg")], "drawn", (("pow", tp, tn), "pow", tn)),
        (["gmean", r3, a.lstrip("-"), "--emit-trace", p("gmean.trace"),
          "--json"], "json", ("gmean", r3, a.lstrip("-"))),
        (["root", r1, str(rn), "--emit-trace", p("root.trace"), "--diagram",
          p("root.svg")], "drawn", (("root", r1, rn), "root", rn)),
        (["recip", r2, "--emit-trace", p("recip.trace")], "drawn",
         (("recip", r2), "recip", None)),
        (["diagram", p("gmean.trace"), p("gmean.svg"), "--title",
          "geometric-mean"], "diagram", ("gmean", "geometric-mean")),
        (["diagram", p("pow.trace"), p("pow-again.svg"), "--json"],
         "diagram", ("pow", None)),
        (["simulate", p("script.txt")], "simulate", lines),
        (["simulate", "-", "--json", "--resolution", "2e-7"],
         "simulate-json", lines),
    ]
    return cmds


def prepare(seed: int) -> tuple[list[tuple], dict]:
    """Build the command list and write the simulate script; returns the
    commands and the stdin bytes per command index."""
    cmds = specs(seed)
    os.makedirs(OUT, exist_ok=True)
    stdins = {}
    for i, (argv, kind, detail) in enumerate(cmds):
        if kind == "simulate":
            with open(_path("script.txt"), "w", encoding="ascii") as fh:
                fh.write(script_text(detail))
        if kind == "simulate-json":
            stdins[i] = script_text(detail).encode("ascii")
    return cmds, stdins


# --- checks --------------------------------------------------------------

def truth(desc: tuple) -> Decimal:
    op, *args = desc
    if op == "powfrac":
        return refs.pow_frac(args[0], args[1], args[2])
    if op == "ln":
        return refs.ln(args[0])
    if op == "exp":
        return refs.exp(args[0])
    return device.truth(op, list(args))


def value_problem(text: str, want: Decimal) -> str | None:
    """Within one unit of the last printed digit."""
    try:
        got = Decimal(text)
    except ArithmeticError:
        return f"not a number: {text!r}"
    if REF.subtract(got, want).copy_abs() > refs.last_unit(text):
        return f"printed {text}, reference {want}"
    return None


def device_problem(value: str, bound: str, want: Decimal) -> str | None:
    slack = REF.divide(REF.add(refs.last_unit(value), refs.last_unit(bound)),
                       2)
    return device.band_problem(Decimal(value), Decimal(bound), want, slack)


def _device_line(line: str, want: Decimal) -> str | None:
    value, sep, bound = line.partition(" +/- ")
    if not sep:
        return f"not a device result: {line!r}"
    return device_problem(value, bound, want)


def _json(line: str, schema: dict):
    try:
        obj = json.loads(line)
    except ValueError:
        return None, f"not JSON: {line!r}"
    extra = set(obj) - set(schema["properties"])
    missing = set(schema["required"]) - set(obj)
    if extra or missing:
        return None, f"JSON keys: extra {sorted(extra)}, missing {sorted(missing)}"
    return obj, None


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def check(g, schema: dict, cmd: tuple, status: int, stdout: str) -> str | None:
    argv, kind, detail = cmd
    if status != 0:
        return f"exit status {status}"
    out = stdout.strip()
    if kind == "value":
        return value_problem(out, truth(detail))
    if kind == "json":
        obj, bad = _json(out, schema)
        return bad or value_problem(obj["result"], truth(detail))
    if kind == "euler":
        text, _, rest = out.partition(" (error < ")
        n = D(detail)
        exact = REF.power(REF.divide(REF.add(n, 1), n), detail)
        bad = value_problem(text, exact)
        if bad:
            return bad
        # the bound is printed to 3 digits, rounded to nearest: allow
        # half a unit of its last digit, as for device bands
        bound = rest.rstrip(")")
        limit = REF.add(Decimal(bound), REF.divide(refs.last_unit(bound), 2))
        if REF.subtract(refs.E, exact) > limit:
            return f"error bound {bound} below e - (1+1/n)^n"
        return None
    if kind == "exact":
        return None if out == detail else f"printed {out}, want {detail}"
    if kind == "json-exact":
        obj, bad = _json(out, schema)
        return bad or (None if obj["result"] == detail
                       else f"result {obj['result']}, want {detail}")
    if kind == "device":
        return _device_line(out, truth(detail))
    if kind == "json-device":
        obj, bad = _json(out, schema)
        return bad or device_problem(obj["result"], obj["error_bound"],
                                     truth(detail))
    if kind == "drawn":
        desc, name, perps = detail
        bad = value_problem(out, truth(desc))
        if bad:
            return bad
        trace = _read(_path(f"{name}.trace"))
        svg = _read(_path(f"{name}.svg")) if "--diagram" in argv else None
        return "; ".join(drawing_problems(g, trace, svg, perps)) or None
    if kind == "diagram":
        name, title = detail
        trace = _read(_path(f"{name}.trace"))
        svg = _read(argv[2])
        bad = drawing_problems(g, trace, svg, None, title=title)
        if title is None and svg != _read(_path(f"{name}.svg")):
            bad.append("diagram subcommand and --diagram differ")
        return "; ".join(bad) or None
    if kind in ("simulate", "simulate-json"):
        rows = out.splitlines()
        if len(rows) != len(detail):
            return f"{len(rows)} results for {len(detail)} script lines"
        for row, (_res, op, *args) in zip(rows, detail):
            want = device.truth(op, list(args))
            if kind == "simulate":
                bad = _device_line(row, want)
            else:
                obj, bad = _json(row, schema)
                bad = bad or device_problem(obj["result"],
                                            obj["error_bound"], want)
            if bad:
                return f"{op} {' '.join(map(str, args))}: {bad}"
        return None
    raise ValueError(f"unknown command kind {kind!r}")
