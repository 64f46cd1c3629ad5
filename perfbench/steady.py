"""Steadiness check: run one workload in two sets of N runs, each run
with its own seed, and compare the sets against BENCHMARK.json's bounds.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seconds S]

For every end-to-end metric it prints each set's median and quartiles,
the quartile spread as a share of the median, and whether the second
set's median is within the metric's bound of the first.  Also prints the
failed share of each set, which must be identical.  Run from the root of
the checkout; each run is a separate `run.py` process, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    sets = []
    seed = args.first_seed
    for s in range(2):
        runs = []
        for _ in range(args.runs):
            res = one_run(args.workload, seed, seconds)
            seed += 1
            runs.append(res)
            print(f"set {s + 1} seed {seed - 1}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in res["metrics"].items()), flush=True)
        sets.append(runs)
    ok = True
    print(f"\n{args.workload}: two sets of {args.runs} runs, "
          f"{seconds} s each")
    print(f"{'metric':<17}{'bound':>6}  {'set':>3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for i, runs in enumerate(sets):
            q1, q2, q3 = summary([r["metrics"][name]["value"] for r in runs])
            spread = (q3 - q1) / q2
            medians.append(q2)
            flag = "" if name == "setup_s" or spread <= bound / 3 else \
                " above bound/3"
            if name != "setup_s" and spread > bound:
                flag, ok = " ABOVE BOUND", False
            print(f"{name:<17}{bound:>6}  {i + 1:>3} {q1:>11.5g} {q2:>11.5g} "
                  f"{q3:>11.5g} {spread:>7.2%}{flag}")
        worse = (medians[1] - medians[0]) / medians[0]
        if metric["better"] == "higher":
            worse = -worse
        agree = worse <= bound
        ok = ok and agree
        print(f"{'':<17}{'':>6}  second median {'agrees' if agree else 'DISAGREES'}"
              f" ({worse:+.2%} worse)")
    shares = [{Fraction(r["failed"], r["attempted"]) for r in runs}
              for runs in sets]
    same = len(shares[0] | shares[1]) == 1
    ok = ok and same and all(r["correct"] for runs in sets for r in runs)
    print(f"failed share: {sorted(map(str, shares[0] | shares[1]))} "
          f"({'identical' if same else 'DIFFERS'})")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
