"""The windowed fast path of numcore.bisect against the plain step loop.

`_step_bisect` is `numcore.bisect` as it was before the fast path: one
collapse check, window test and possible side call per halving.  The
sweeps below run the root search and the rotating geometric mean on
both and require the same result or exception type, and the same
side(c, i) calls in the same order.  The seed is fixed.
"""

import random
from decimal import Context, Decimal
from itertools import count

from geocalc import (GeocalcError, NoConvergence, PrecisionPolicy,
                     geometric_mean, normalize, solve_cos_power)
from geocalc import cascade, roots
from geocalc.numcore import _ONE, _TWO, bisect, shift10

_NEG_INF, _POS_INF = Decimal("-Infinity"), Decimal("Infinity")


def _step_bisect(side, lo: Decimal, hi: Decimal, ctx: Context, what: str,
                 collapsed=None,
                 window: tuple[Decimal, Decimal] | None = None
                 ) -> tuple[Decimal, Decimal, Decimal, bool]:
    """Halve [lo, hi] under ctx; return (c, lo, hi, accepted).

    Each step takes the midpoint c, stops if collapsed(lo, hi), then asks
    side(c, i), i = 0, 1, ...: 0 accepts c, > 0 sets hi = c, < 0 lo = c.
    A known-side window (below, above) answers for side: c < below is
    < 0 and c > above is > 0, so side is called only inside the window.
    No step cap: a midpoint that rounds onto an end raises NoConvergence.
    """
    add, divide = ctx.add, ctx.divide
    below, above = window or (_NEG_INF, _POS_INF)
    for i in count():
        c = divide(add(lo, hi), _TWO)
        if collapsed is not None and collapsed(lo, hi):
            return c, lo, hi, False
        s = -1 if c < below else 1 if c > above else side(c, i)
        if not s:
            return c, lo, hi, True
        if c == lo or c == hi:
            raise NoConvergence(f"{what} search: {ctx.prec} digits cannot "
                                f"split [{lo}, {hi}]")
        lo, hi = (lo, c) if s > 0 else (c, hi)


def _recording(impl, calls, keep_window=True):
    """impl with every side(c, i) call appended to calls."""
    def run(side, lo, hi, ctx, what, collapsed=None, window=None):
        def logged(c, i):
            calls.append((str(c), i))
            return side(c, i)
        return impl(logged, lo, hi, ctx, what, collapsed,
                    window if keep_window else None)
    return run


def _outcome(search):
    try:
        return repr(search())
    except GeocalcError as exc:
        return type(exc).__name__


def _run(monkeypatch, module, impl, search, keep_window=True):
    calls = []
    monkeypatch.setattr(module, "bisect", _recording(impl, calls, keep_window))
    return _outcome(search), calls


def _is_subsequence(short, long):
    it = iter(long)
    return all(x in it for x in short)


def _tolerances(digits):
    return [Decimal(1).scaleb(1 - digits), Decimal("1e-5"), Decimal("1e-12"),
            Decimal("0.3"), Decimal("0.9"), Decimal(3).scaleb(-digits),
            Decimal(1).scaleb(-digits - 3)]


DIGITS = (30, 50, 62)
INDICES = (1, 2, 3, 5, 7, 9, 11, 12, 40, 300, 12345, 99991, 999999937)


def test_root_searches_match_the_step_loop(monkeypatch):
    rng = random.Random(1414)
    cases = 0
    for digits in DIGITS:
        ctx = PrecisionPolicy(digits, 2 * digits).ctx()
        for rel_tol in _tolerances(digits):
            for n in INDICES:
                targets = [Decimal(f"0.{rng.randrange(10 ** 11, 10 ** 12)}")
                           for _ in range(2)]
                targets += [Decimal("0." + "9" * rng.randint(1, digits + 2))
                            for _ in range(2)]
                if n > 1:
                    targets.append(shift10(_ONE, -rng.randint(1, n - 1)))
                for target in targets:
                    def search():
                        return solve_cos_power(n, target, ctx, rel_tol)
                    want = _run(monkeypatch, roots, _step_bisect, search)
                    got = _run(monkeypatch, roots, bisect, search)
                    assert got == want, (digits, n, str(rel_tol), target)
                    cases += 1
    assert cases == len(DIGITS) * 7 * (len(INDICES) * 5 - 1)


def _operand_pairs(rng, digits):
    """Operand pairs for the rotating mean: random, long and near-equal."""
    def mantissa(k):
        return f"0.{rng.randrange(10 ** (k - 1), 10 ** k)}"

    pairs = []
    for _ in range(4):
        pairs.append((f"{mantissa(12)}e{rng.randint(-3, 3)}",
                      f"{mantissa(12)}e{rng.randint(-3, 3)}"))
    pairs.append((f"{mantissa(digits)}e1", f"{mantissa(digits)}e2"))
    # the mean cosine lies above 1 - 1e-15
    a = mantissa(digits)
    b = a[:-1] + str((int(a[-1]) + 1 + rng.randrange(8)) % 10)
    pairs.append((a, b))
    pairs.append(("2", "2." + "0" * rng.randint(16, digits - 2) + "1"))
    return pairs


def test_rotate_means_match_the_step_loop(monkeypatch):
    """The window and the fast path keep every rotating mean.

    Against the step loop without a window (every midpoint asks side),
    the result is the same and the windowed side calls are a subsequence
    of its calls; against the step loop with the window, the calls are
    the same.
    """
    rng = random.Random(1415)
    cases = 0
    for digits in DIGITS:
        for rel_tol in _tolerances(digits):
            policy = PrecisionPolicy(digits, 2 * digits, rel_tol)
            for a, b in _operand_pairs(rng, digits):
                def search():
                    return geometric_mean(normalize(a), normalize(b), policy,
                                          method="rotate")
                plain = _run(monkeypatch, cascade, _step_bisect, search,
                             keep_window=False)
                stepped = _run(monkeypatch, cascade, _step_bisect, search)
                got = _run(monkeypatch, cascade, bisect, search)
                assert got == stepped, (digits, str(rel_tol), a, b)
                assert got[0] == plain[0], (digits, str(rel_tol), a, b)
                assert _is_subsequence(got[1], plain[1])
                cases += 1
    assert cases == len(DIGITS) * 7 * 7


def test_collapse_mid_chunk_on_a_boundary_and_at_a_side_call():
    """Collapse at every step index, with and without an earlier side call.

    With the window above the bracket every midpoint sets lo, so the
    bracket [1 - 2**-i, 1] collapses first at step k: on a chunk
    boundary for k = 16 and 32, mid-chunk otherwise.  With a window
    around 0.75 the second midpoint asks side, which moves the saved
    state off the chunk grid.
    """
    ctx = Context(prec=60)
    windows = {"above": (Decimal(2), Decimal(3)),
               "around 0.75": (Decimal("0.74"), Decimal("0.76"))}
    x = Decimal("0.755")
    for name, window in windows.items():
        for k in range(1, 48):
            width = ctx.power(_TWO, -k)  # exact at 60 digits

            def collapsed(lo, hi):
                return ctx.subtract(hi, lo) <= width

            def search(impl, calls):
                def side(c, i):
                    calls.append((c, i))
                    return ctx.compare(c, x)
                return impl(side, Decimal(0), _ONE, ctx, "test", collapsed,
                            window)

            old_calls, new_calls = [], []
            want = search(_step_bisect, old_calls)
            assert search(bisect, new_calls) == want, (name, k)
            assert new_calls == old_calls, (name, k)
            if name == "above":
                assert want[1] == ctx.subtract(_ONE, width) and not want[3]
                assert not new_calls
            else:
                assert (Decimal("0.75"), 1) in new_calls or k < 2

