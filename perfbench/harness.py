"""Timing core shared by the workloads: reference blocks, normalisation,
closed-loop passes and child processes.

The host this benchmark was built on is a shared 2-core machine whose
speed drifts by up to 2x between runs.  Every timing is therefore
bracketed by a fixed reference block that never touches geocalc, and is
reported as ``raw * NOMINAL / mean(neighbouring references)``: the time
the work would take on a host where the reference takes its nominal
time.
"""

from __future__ import annotations

import gc
import os
import selectors
import subprocess
import sys
import time
from array import array
from decimal import Context, Decimal, ROUND_HALF_EVEN

# Reference-block and bare-start times at reference speed.  They were
# calibrated on the machine the README names; any fixed value works,
# because only ratios between commits matter.
NOMINAL_REF_S = 0.0155
NOMINAL_START_S = 0.050

_REF_LOOPS = 7000
_REF_CTX = Context(prec=30, rounding=ROUND_HALF_EVEN)
_REF_X = Decimal("0.7316461379416387223590818512")
_REF_Y = Decimal("1.0000371294183740011935")


def ref_block() -> float:
    """Seconds for one reference block: decimal arithmetic plus
    interpreter work, with the collector paused so the program's heap
    cannot slow it."""
    ctx = _REF_CTX
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        a, b = _REF_X, _REF_Y
        keep: list = []
        table: dict = {}
        for i in range(_REF_LOOPS):
            a = ctx.multiply(a, _REF_X)
            if a < _REF_Y - 1:
                a = ctx.add(a, b)
            b = ctx.divide(b, _REF_Y)
            item = (a.adjusted(), i & 31, str(i))
            keep.append(item)
            table[item[1]] = table.get(item[1], 0) + 1
            if len(keep) > 64:
                keep.clear()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence, q in (0, 100)."""
    n = len(sorted_values)
    rank = max(1, -(-q * n // 100))
    return sorted_values[int(rank) - 1]


class Outcome:
    """Per-run bookkeeping for whole rounds of one operation list."""

    def __init__(self, n_ops: int):
        self.n_ops = n_ops
        self.rounds = 0
        self.latencies_ms = array("d")   # normalised, all rounds
        self.ops_per_s: list[float] = []     # normalised, per round
        self.raw_ops_per_s: list[float] = []
        self.factors: list[float] = []       # NOMINAL / measured, per round
        self.first: list | None = None   # outputs of the first timed round
        self.mismatches = [0] * n_ops    # later rounds differing from the first

    def absorb(self, latencies_ms, round_s: float, raw_round_s: float,
               factor: float, outputs: list):
        self.rounds += 1
        self.latencies_ms.extend(latencies_ms)
        self.ops_per_s.append(self.n_ops / round_s)
        self.raw_ops_per_s.append(self.n_ops / raw_round_s)
        self.factors.append(factor)
        if self.first is None:
            self.first = outputs
        else:
            for i, (a, b) in enumerate(zip(self.first, outputs)):
                if a != b:
                    self.mismatches[i] += 1


def _call(op):
    try:
        return op()
    except Exception as exc:  # a raising operation is a failed one
        return ("raised", type(exc).__name__, str(exc))


def run_rounds(ops: list, seconds: float, after_warmup=None) -> Outcome:
    """Closed loop, one caller: warm up with one round, then run whole
    rounds until `seconds` have passed.  Each round is bracketed by
    reference blocks; outputs are compared with the first round after
    the round's closing reference, outside the timed region."""
    for op in ops:
        _call(op)
    if after_warmup is not None:
        after_warmup()
    out = Outcome(len(ops))
    clock = time.perf_counter_ns
    t_end = time.perf_counter() + seconds
    ref_prev = ref_block()
    while True:
        raw = array("q", bytes(8 * len(ops)))
        outputs = [None] * len(ops)
        t_round = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            outputs[i] = _call(op)
            raw[i] = clock() - t0
        wall = (clock() - t_round) * 1e-9
        ref_next = ref_block()
        factor = NOMINAL_REF_S / ((ref_prev + ref_next) / 2)
        out.absorb([t * 1e-6 * factor for t in raw], wall * factor, wall,
                   factor, outputs)
        ref_prev = ref_next
        if time.perf_counter() >= t_end:
            return out


# --- child processes -----------------------------------------------------

def child_env(root: str) -> dict:
    """The benchmark's environment with the checkout's sources first.

    Children may write and reuse cached bytecode, as an installed package
    does, whatever the caller's PYTHONDONTWRITEBYTECODE says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


class ChildResult:
    __slots__ = ("pid", "status", "stdout", "stderr", "seconds", "maxrss_kb")

    def __init__(self, pid, status, stdout, stderr, seconds, maxrss_kb):
        self.pid = pid
        self.status = status
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds
        self.maxrss_kb = maxrss_kb


def run_child(argv: list[str], env: dict, cwd: str,
              stdin_bytes: bytes | None = None,
              timeout: float = 60.0) -> ChildResult:
    """Run one child to completion and reap it with wait4, so its own
    peak RSS is known.  The wall time runs from spawn to reap; the child
    finds its spawn time in PERFBENCH_SPAWN_NS."""
    t0 = time.perf_counter()
    env = dict(env, PERFBENCH_SPAWN_NS=str(time.perf_counter_ns()))
    proc = subprocess.Popen(argv, env=env, cwd=cwd,
                            stdin=subprocess.PIPE if stdin_bytes is not None
                            else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        if stdin_bytes is not None:
            proc.stdin.write(stdin_bytes)
            proc.stdin.close()
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            deadline = t0 + timeout
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise subprocess.TimeoutExpired(argv, timeout)
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.pid, proc.returncode, b"".join(chunks[proc.stdout]),
                       b"".join(chunks[proc.stderr]), seconds,
                       usage.ru_maxrss)


def bare_start(env: dict, cwd: str) -> float:
    """Seconds for a bare interpreter start with the same environment."""
    res = run_child([sys.executable, "-c", "pass"], env, cwd)
    if res.status != 0:
        raise RuntimeError("bare interpreter start failed")
    return res.seconds


def normalised_children(argvs: list[list[str]], env: dict, cwd: str,
                        stdins: dict | None = None):
    """Run children one at a time, each between two bare starts.

    Returns (results, normalised seconds per child, factors)."""
    results, norm, factors = [], [], []
    ref_prev = bare_start(env, cwd)
    for i, argv in enumerate(argvs):
        res = run_child(argv, env, cwd, (stdins or {}).get(i))
        ref_next = bare_start(env, cwd)
        factor = NOMINAL_START_S / ((ref_prev + ref_next) / 2)
        results.append(res)
        norm.append(res.seconds * factor)
        factors.append(factor)
        ref_prev = ref_next
    return results, norm, factors
