"""numcore.bisect against a plain step loop.

`_step_bisect` is the step loop `numcore.bisect` runs, written out on its
own: one collapse check, window test and possible side call per halving,
after Newton's point is tried first and, where the search would take its
first undrawn midpoint, the bracket is cut to the window.  The sweeps
below run the root search, the rotating geometric mean and the device's
two rotation searches on both and require the same result or exception
type, and the same side(c, i) calls in the same order.  `_edgeless` is
the same loop with the window's edges deciding no midpoint: every
midpoint asks side.  The traced sweep holds a traced search to the one a
traced search ran before bisect drew: no window edges, every midpoint
asks side, and the first four draw a rotation; Newton's point is tried
first and the bracket cut there too.  The seeds are fixed.
"""

import math
import random
from decimal import Context, Decimal
from functools import partial
from itertools import count

from geocalc import (RESOLUTION_LADDER, GeocalcError, MeasurementModel,
                     NoConvergence, PrecisionPolicy, TraceRecorder,
                     geometric_mean, normalize, solve_cos_power)
from geocalc import mechsim, numcore, roots
from geocalc.numcore import _ONE, _TWO, bisect, shift10

_NEG_INF, _POS_INF = Decimal("-Infinity"), Decimal("Infinity")


def _step_bisect(side, lo: Decimal, hi: Decimal, ctx: Context, what: str,
                 collapsed=None, window: tuple | None = None, draw=None,
                 edges=True) -> tuple[Decimal, Decimal, Decimal, bool]:
    """Halve [lo, hi] under ctx; return (c, lo, hi, accepted).

    Each step takes the midpoint c, stops if collapsed(lo, hi), then asks
    side(c, i), i = 0, 1, ...: 0 accepts c, > 0 sets hi = c, < 0 lo = c.
    A window (below, above, point) answers for side, if edges: c <
    below is < 0 and c > above is > 0.  No step cap: a midpoint that
    rounds onto an end raises NoConvergence; a collapsed search returns
    its midpoint clamped to [lo, hi].  draw(c, i), if given, sees the
    midpoints i < 4 before they are decided.  Without a window that is
    what a traced side did before bisect drew: it drew its first four
    calls.

    The window's point is asked first, once, if it is not None and lies
    inside (lo, hi).  At step 0 untraced, step 4 traced, or the first
    collapsed step before that, the search returns the point if side
    accepted it, and otherwise cuts [lo, hi] to the window's edges; a
    point accepted earlier replaces the midpoint a drawn step ends on.
    """
    add, divide = ctx.add, ctx.divide
    below, above, point = window or (_NEG_INF, _POS_INF, None)
    accepted = None
    if point is not None and lo < point < hi and not side(point, 0):
        accepted = point
    cut = window is not None
    for i in count():
        done = collapsed is not None and collapsed(lo, hi)
        if cut and (done or i == (0 if draw is None else 4)):
            if accepted is not None:
                return accepted, lo, hi, True
            lo, hi, cut = max(lo, below), min(hi, above), False
            done = collapsed is not None and collapsed(lo, hi)
        c = divide(add(lo, hi), _TWO)
        if done:
            return min(max(c, lo), hi), lo, hi, False
        if draw is not None and i < 4:
            draw(c, i)
        if edges and c < below:
            s = -1
        elif edges and c > above:
            s = 1
        else:
            s = side(c, i)
        if not s:
            return c if accepted is None else accepted, lo, hi, True
        if c == lo or c == hi:
            raise NoConvergence(f"{what} search: {ctx.prec} digits cannot "
                                f"split [{lo}, {hi}]")
        lo, hi = (lo, c) if s > 0 else (c, hi)


_edgeless = partial(_step_bisect, edges=False)


def _recording(impl, calls):
    """impl with every side(c, i) call appended to calls."""
    def run(side, lo, hi, ctx, what, collapsed=None, window=None,
            draw=None):
        def logged(c, i):
            calls.append((str(c), i))
            return side(c, i)
        return impl(logged, lo, hi, ctx, what, collapsed, window, draw)
    return run


def _outcome(search):
    try:
        return repr(search())
    except GeocalcError as exc:
        return type(exc).__name__


def _run(monkeypatch, impl, search):
    roots._residue_cosine.cache_clear()  # no search hides in the cache
    calls = []
    monkeypatch.setattr(numcore, "bisect", _recording(impl, calls))
    return _outcome(search), calls


def _is_subsequence(short, long):
    it = iter(long)
    return all(x in it for x in short)


DIGITS = (30, 50, 62)
ROUNDS = 7   # rounds of operand draws per digits, from one seeded rng
INDICES = (1, 2, 3, 5, 7, 9, 11, 12, 40, 300, 12345, 99991, 999999937)


def _root_cases(rng):
    """(digits, n, target) over DIGITS x ROUNDS x INDICES: random,
    long-9s and power-of-ten targets."""
    for digits in DIGITS:
        for _ in range(ROUNDS):
            for n in INDICES:
                targets = [Decimal(f"0.{rng.randrange(10 ** 11, 10 ** 12)}")
                           for _ in range(2)]
                targets += [Decimal("0." + "9" * rng.randint(1, digits + 2))
                            for _ in range(2)]
                if n > 1:
                    targets.append(shift10(_ONE, -rng.randint(1, n - 1)))
                for target in targets:
                    yield digits, n, target


ROOT_CASES = len(DIGITS) * ROUNDS * (len(INDICES) * 5 - 1)


def test_root_searches_match_the_step_loop(monkeypatch):
    cases = 0
    for digits, n, target in _root_cases(random.Random(1414)):
        ctx = PrecisionPolicy(digits).ctx()

        def search():
            return solve_cos_power(n, target, ctx)
        want = _run(monkeypatch, _step_bisect, search)
        got = _run(monkeypatch, bisect, search)
        assert got == want, (digits, n, target)
        cases += 1
    assert cases == ROOT_CASES


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
    """The window and the cut keep every rotating mean.

    Against the step loop without the window's edges (Newton's point,
    the cut, then every midpoint asks side), the result is the same and
    the windowed side calls are a subsequence of its calls; against the
    step loop with the window, the calls are the same.
    """
    rng = random.Random(1415)
    cases = 0
    for digits in DIGITS:
        policy = PrecisionPolicy(digits)
        for _ in range(ROUNDS):
            for a, b in _operand_pairs(rng, digits):
                def search():
                    return geometric_mean(normalize(a), normalize(b), policy,
                                          method="rotate")
                plain = _run(monkeypatch, _edgeless, search)
                stepped = _run(monkeypatch, _step_bisect, search)
                got = _run(monkeypatch, bisect, search)
                assert got == stepped, (digits, a, b)
                assert got[0] == plain[0], (digits, a, b)
                assert _is_subsequence(got[1], plain[1])
                cases += 1
    assert cases == len(DIGITS) * ROUNDS * 7


def _rotating_mean(a, b, policy, recorder=None):
    return geometric_mean(normalize(a), normalize(b), policy,
                          recorder=recorder, method="rotate")


def _traced(monkeypatch, impl, search):
    """_run on search(recorder), plus the trace the recorder holds."""
    recorder = TraceRecorder()
    outcome, calls = _run(monkeypatch, impl, lambda: search(recorder))
    return outcome, calls, recorder.dumps()


def test_traced_searches_match_the_old_traced_path(monkeypatch):
    """A traced search keeps the window and still draws as before.

    Against the step loop without the window's edges that draws i < 4,
    the result and the trace are the same.  Against the same search
    untraced, the result is the same, and so are the cosines side is
    asked at, except that a search ending on Newton's point untraced
    asks side only there, while the traced one may also ask at its drawn
    midpoints.  The step numbers i differ: the traced search takes its
    four drawn steps before it cuts the bracket, the untraced one none.
    """
    searches = []
    for digits, n, target in _root_cases(random.Random(1414)):
        ctx = PrecisionPolicy(digits).ctx()
        searches.append(partial(solve_cos_power, n, target, ctx))
    rng = random.Random(1415)
    for digits in DIGITS:
        policy = PrecisionPolicy(digits)
        for _ in range(ROUNDS):
            searches += [partial(_rotating_mean, a, b, policy)
                         for a, b in _operand_pairs(rng, digits)]
    assert len(searches) == ROOT_CASES + len(DIGITS) * ROUNDS * 7
    for search in searches:
        want = _traced(monkeypatch, _edgeless, search)
        got = _traced(monkeypatch, bisect, search)
        untraced = _run(monkeypatch, bisect, search)
        assert (got[0], got[2]) == (want[0], want[2]), search
        assert got[0] == untraced[0], search
        asked, asked_untraced = ([c for c, _ in calls]
                                 for calls in (got[1], untraced[1]))
        assert (asked == asked_untraced or len(asked_untraced) == 1
                and asked[0] == asked_untraced[0]), search


def test_collapse_at_every_step_after_window_and_side_decisions():
    """Collapse at every step index, with and without an earlier side call.

    Both windows lie inside the bracket [0, 1], and each search, traced
    or not, makes the step loop's side calls and draws.  With the window
    [0.75, 1] and a side that always sets lo, the search ends on
    [1 - 2**-max(k, 2), 1] either way: untraced from the cut, traced
    after its first midpoint 0.5, which the window decides.  With the
    window [0.74, 0.76] around x = 0.755, the midpoint 0.75 asks side at
    step 0 untraced, once the cut bracket is wider than 2**-k, and at
    step 1 traced.  A traced search draws its first min(4, k) midpoints
    and asks side at every cosine the untraced one asks at.
    """
    ctx = Context(prec=60)
    windows = {"top quarter": (Decimal("0.75"), _ONE, None, _TWO),
               "around 0.755": (Decimal("0.74"), Decimal("0.76"), None,
                                Decimal("0.755"))}
    for name, (*window, x) in windows.items():
        for k in range(1, 48):
            width = ctx.power(_TWO, -k)  # exact at 60 digits

            def collapsed(lo, hi):
                return ctx.subtract(hi, lo) <= width

            def search(impl, calls, draws=None):
                def side(c, i):
                    calls.append((c, i))
                    return ctx.compare(c, x)
                draw = None if draws is None else (
                    lambda c, i: draws.append((c, i)))
                return impl(side, Decimal(0), _ONE, ctx, "test", collapsed,
                            tuple(window), draw)

            old_calls, new_calls, old_traced, traced = [], [], [], []
            old_draws, draws = [], []
            want = search(_step_bisect, old_calls)
            assert search(bisect, new_calls) == want, (name, k)
            want_traced = search(_step_bisect, old_traced, old_draws)
            assert search(bisect, traced, draws) == want_traced, (name, k)
            assert new_calls == old_calls and traced == old_traced, (name, k)
            assert draws == old_draws and len(draws) == min(4, k), (name, k)
            asked = [c for c, _ in traced]
            assert _is_subsequence([c for c, _ in new_calls], asked)
            if name == "top quarter":
                top = (ctx.subtract(_ONE, ctx.power(_TWO, -max(k, 2))), _ONE,
                       False)
                assert want[1:] == want_traced[1:] == top, k
                assert Decimal("0.5") not in asked
                assert draws == [(ctx.subtract(_ONE, ctx.power(_TWO, -1 - i)),
                                  i) for i in range(min(4, k))]
            else:
                assert (Decimal("0.75"), 0) in new_calls or k < 6
                assert (Decimal("0.75"), 1) in traced or k < 2


def _device_searches(monkeypatch, impl, op, args, resolution):
    """run_op on the device with impl as its bisect: the outcome, and
    every rotation search's (result or exception type, side calls, side,
    window) in the order they ran."""
    searches = []

    def run(side, lo, hi, ctx, what, collapsed, window):
        calls = []

        def logged(c, i):
            calls.append((str(c), i))
            return side(c, i)
        try:
            got = impl(logged, lo, hi, ctx, what, collapsed, window)
        except GeocalcError as exc:
            searches.append((type(exc).__name__, calls, side, window))
            raise
        searches.append((got, calls, side, window))
        return got
    monkeypatch.setattr(mechsim, "bisect", run)
    model = MeasurementModel(resolution=resolution)
    return _outcome(lambda: mechsim.run_op(op, args, model)), searches


def _device_cases(rng):
    """(op, args, rungs) for the device's two searches: gmean and root
    over radicand decades -300..300 and root index log-uniform up to
    499 at every rung, one root index in 500..4 999 and the fixed cases.
    The two deep roots run at the coarsest rung only, where h/ARM_MIN
    times the index is largest, since each plain side call walks every
    arm."""
    def number(sign=""):
        return (f"{sign}0.{rng.randrange(10 ** 11, 10 ** 12)}"
                f"e{rng.randint(-300, 300)}")
    every, coarsest = RESOLUTION_LADDER, RESOLUTION_LADDER[:1]
    # solution cosines above 0.999999, a root of exactly 0.1, and a
    # deep root
    cases = [("gmean", ["0.5", "0.5000001"], every),
             ("root", ["0.99999999", "3"], every),
             ("root", ["0.1e-29", "30"], every),
             ("root", ["2", "10000"], coarsest),
             ("root", [number(), str(rng.randint(500, 4999))], coarsest)]
    for _ in range(12):
        sign = rng.choice(("", "-"))
        cases.append(("gmean", [number(sign), number(sign)], every))
        n = int(10 ** rng.uniform(math.log10(2), math.log10(500)))
        sign = rng.choice(("", "-")) if n % 2 else ""
        cases.append(("root", [number(sign), str(n)], every))
    return cases


def test_device_searches_match_the_step_loop(monkeypatch):
    """The device's gmean and root searches, cut to their windows.

    Against the step loop, the outcome, each search's result or
    exception type and its side calls are the same; against the step
    loop without the window's edges, the results are the same and the
    side calls a subsequence.  Just outside each finite edge, by one unit
    of the search context, side gives the window's sign, so the cut
    keeps every cosine side accepts.  Root 0.1e-29 30 has the root 0.1
    exactly, so its lower edge is dropped.
    """
    ctx = PrecisionPolicy().oracle_ctx()
    for op, args, rungs in _device_cases(random.Random(2525)):
        for resolution in rungs:
            plain, stepped, got = (
                _device_searches(monkeypatch, impl, op, args, resolution)
                for impl in (_edgeless, _step_bisect, bisect))
            where = (op, args, str(resolution))
            assert got[0] == stepped[0] == plain[0], where
            assert len(got[1]) == len(stepped[1]) == len(plain[1]) == 1, where
            (result, calls, side, window), want, edgeless = (
                got[1][0], stepped[1][0], plain[1][0])
            assert (result, calls) == want[:2], where
            assert result == edgeless[0], where
            assert _is_subsequence(calls, edgeless[1]), where
            below, above, point = window
            assert point is None, where
            if below.is_finite():
                assert side(ctx.next_minus(below), 0) < 0, where
            if above.is_finite():
                assert side(ctx.next_plus(above), 0) > 0, where
            if args == ["0.1e-29", "30"]:
                assert not below.is_finite(), where
