"""No result depends on the caller's decimal context.

Every operation rounds under a context of its own (the policy's, the
oracle's, or the device's outward-rounding ends), so a caller who runs
geocalc under a short, truncating or trapping thread context gets the
same digits as under the default one.
"""

from decimal import (Context, Decimal, Inexact, ROUND_DOWN, Rounded,
                     localcontext)

import pytest

from geocalc import (DEFAULT_POLICY, Construction, GeocalcError,
                     MeasurementModel, PrecisionPolicy, RootQuery, antilog,
                     approximate_e, build_cascade, divide, geometric_mean,
                     multiply, natural_log, normalize, nth_root, power,
                     rational_power, reciprocal, recover_exponent_via_logs,
                     recover_rational_exponent, run_op,
                     solve_integer_exponent)

N = normalize
A_2_1971_181 = "1896.99842083110790327"


def _cascade():
    c = build_cascade(Construction(Decimal("0.917"), Decimal("0.6"), 12))
    return c, c.validate()


def _device(op, args, res):
    return lambda: run_op(op, args, MeasurementModel(resolution=Decimal(res)))


def _refusal(op, args):
    """The text of the device's refusal of `op args` at the default
    graduation."""
    def run():
        try:
            run_op(op, args, MeasurementModel())
        except GeocalcError as exc:
            return f"{type(exc).__name__}: {exc}"
        raise AssertionError(f"{op} {args} was not refused")
    return run


OPS = {
    "pow": lambda: power(N("0.87"), 6),
    "pow virtual": lambda: power(N("0.3"), 12000),
    "pow negative": lambda: power(N("2.5"), -3),
    "recip angle": lambda: reciprocal(N("7.3")),
    "recip unit": lambda: reciprocal(N("7.3"), method="unit-perpendicular"),
    "mul": lambda: multiply(N("5.972e24"), N("7.348e22")),
    "div hypotenuse": lambda: divide(N("3.1"), N("7.7")),
    "div similar": lambda: divide(N("3.1"), N("7.7"),
                                  method="similar-triangles"),
    "gmean bisect": lambda: geometric_mean(N("2"), N("18.5")),
    "gmean rotate": lambda: geometric_mean(N("2"), N("18.5"),
                                           method="rotate"),
    "gmean rotate 62 digits": lambda: geometric_mean(
        N("2"), N("18.5"), PrecisionPolicy(62), method="rotate"),
    # the mean cosine lies above 1 - 1e-15
    "gmean rotate near one": lambda: geometric_mean(
        N("2"), N("2.00000000000000000001"), method="rotate"),
    "root": lambda: nth_root(RootQuery(N("0.5972e25"), 6)),
    "root residue": lambda: nth_root(RootQuery(N("3.1e-8"), 4)),
    "root negative": lambda: nth_root(RootQuery(N("-8"), 3)),
    "root index 999999937": lambda: nth_root(RootQuery(N("0.5972e25"),
                                                       999999937)),
    "root 62 digits": lambda: nth_root(RootQuery(N("0.5972e25"), 7),
                                       PrecisionPolicy(62)),
    "powfrac compose": lambda: rational_power(N("2"), 7, 5),
    "powfrac split": lambda: rational_power(N("2"), 7, 5, strategy="split"),
    "euler": lambda: approximate_e(10 ** 6),
    "ln": lambda: natural_log(N("151")),
    "antilog": lambda: antilog(Decimal("2.5")),
    # the convergent of .123456789 has denominator 10**9: a root of
    # that index
    "antilog 9-digit fraction": lambda: antilog(Decimal("2.123456789")),
    "solve-n": lambda: solve_integer_exponent(N("1.1"), N("2.5937424601"),
                                              20),
    "solve-mn": lambda: recover_rational_exponent(N("2"), N(A_2_1971_181)),
    "via logs": lambda: recover_exponent_via_logs(N("2"), N(A_2_1971_181)),
    "cascade": _cascade,
    "device pow": _device("pow", ["0.87", "6"], "1e-5"),
    "device root 1e-5": _device("root", ["95.51", "4"], "1e-5"),
    "device root 1e-10": _device("root", ["95.51", "4"], "1e-10"),
    "device mul": _device("mul", ["0.3", "0.7"], "5e-7"),
    "device div": _device("div", ["3.1", "7.7"], "2e-7"),
    "device div lifted": _device("div", ["0.011", "0.987654321"], "2e-7"),
    "device gmean": _device("gmean", ["2", "18.5"], "1e-5"),
    "device recip": _device("recip", ["7.3"], "1e-10"),
    "device cf": _device("cf", ["2", A_2_1971_181], "1e-5"),
    # the band's width is formatted into the refusal
    "device pow refusal": _refusal("pow", ["2", "50000"]),
}

CONTEXTS = {
    "prec 5": Context(prec=5),
    "prec 12, round down": Context(prec=12, rounding=ROUND_DOWN),
    "traps": Context(traps=[Inexact, Rounded]),
    "prec 5, short exponents": Context(prec=5, Emin=-10, Emax=10),
    # InvalidOperation untrapped: a fuzz formed in this context is 0
    "short exponents, traps": Context(prec=5, Emin=-10, Emax=10,
                                      traps=[Inexact, Rounded]),
}


@pytest.fixture(scope="module")
def default_results():
    assert DEFAULT_POLICY.working_digits == 30
    return {name: repr(op()) for name, op in OPS.items()}


@pytest.mark.parametrize("context", CONTEXTS, ids=list(CONTEXTS))
def test_results_ignore_the_callers_context(context, default_results):
    got = {}
    with localcontext(CONTEXTS[context]):
        for name, op in OPS.items():
            try:
                got[name] = repr(op())
            except ArithmeticError as exc:
                got[name] = f"raised {type(exc).__name__}"
    assert got == default_results
