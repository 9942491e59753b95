"""Set-up time of two checkouts, side by side.

    python scripts/setup_ab.py PARENT CHANGE [--runs N]

Runs `perfbench/run.py --setup-probe --workload W` in fresh interpreters
from each checkout, in pairs that alternate which side goes first, `--runs`
pairs for each of the benchmark's workloads.  A probe imports the CLI and
sends the workload's warm-up requests, as each of the benchmark's `setup_s`
probes does.

Python compiles a module whose cached bytecode is missing or stale, and with
PYTHONDONTWRITEBYTECODE=1 it writes none, so every probe pays that again.
The pairs therefore run in two bytecode states: first with each side's
`src/` compiled (compileall), then with the `__pycache__` directories under
each side's `src/` removed.  Nothing outside the two `src/` trees is
written.  For each workload and state the script prints each side's median
and quartiles of wall time, and the pairs the second side won; the last
line holds every timing as JSON.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("grid_checks", "quadrature", "trajectories", "cauchy_fan")


def probe(root: str, workload: str) -> float:
    """Wall seconds of one set-up probe in a fresh interpreter.  No timeout:
    waiting with one polls the child every 50 ms at most, so the time read
    would be rounded up to that grid."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--setup-probe",
                    "--workload", workload], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def compile_src(root: str) -> None:
    if not compileall.compile_dir(os.path.join(root, "src"), quiet=1):
        raise SystemExit(f"compileall failed under {root}/src")


def clear_src(root: str) -> None:
    for dirpath, dirnames, _ in os.walk(os.path.join(root, "src")):
        if "__pycache__" in dirnames:
            shutil.rmtree(os.path.join(dirpath, "__pycache__"))
            dirnames.remove("__pycache__")


def summary(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout measured first in even pairs")
    ap.add_argument("change", help="checkout measured first in odd pairs")
    ap.add_argument("--runs", type=int, default=9, help="pairs per workload and state")
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for root in sides.values():
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            raise SystemExit(f"{root} has no perfbench/run.py")
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    results = []
    for state, prepare in (("compiled", compile_src), ("no_bytecode", clear_src)):
        for root in sides.values():
            prepare(root)
        for workload in WORKLOADS:
            times = {"parent": [], "change": []}
            for k in range(args.runs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    times[side].append(probe(sides[side], workload))
            won = sum(c < p for p, c in zip(times["parent"], times["change"]))
            row = {"state": state, "workload": workload, "pairs": args.runs,
                   "change_won": won, "times": times,
                   **{side: summary(t) for side, t in times.items()}}
            results.append(row)
            p, c = row["parent"], row["change"]
            print(f"{state:12s} {workload:13s} parent {p['median']:.4f} s "
                  f"[{p['q1']:.4f}, {p['q3']:.4f}]  change {c['median']:.4f} s "
                  f"[{c['q1']:.4f}, {c['q3']:.4f}]  {c['median'] / p['median'] - 1:+.1%}  "
                  f"change won {won}/{args.runs}", flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
