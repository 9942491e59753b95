"""Per-request-kind wall time of two checkouts.

    python scripts/kind_ab.py PARENT CHANGE WORKLOAD [--requests N]

Runs the first N requests (default 300) of one benchmark workload at seeds
7 and 11 through `integrikit.cli.main`, in fresh interpreters that
alternate between the checkouts: ten rounds per seed, each round one run
of each side, PARENT first in even rounds.  Each run is the child of
`report_ab.py`: it imports the program from its own checkout's `src/` and
the requests from PARENT's `perfbench/workloads.py`, without writing
bytecode, runs the workload's warm-up requests untimed and then times
each request with `time.perf_counter`.

For each seed and request kind the script prints the request count, the
median over runs of each side's mean ms per request, their ratio (change
over parent) and the parent's quartiles over runs, so that a move inside
the parent's own spread shows as such.  The last line holds each run's
per-kind seconds and request counts as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import report_ab

ROUNDS = 10


def per_kind(rows: list) -> dict:
    """``{kind: [seconds, requests]}`` of one run's report rows."""
    kinds = {}
    for *_, kind, seconds in rows:
        total, n = kinds.get(kind, (0.0, 0))
        kinds[kind] = (total + seconds, n + 1)
    return kinds


def report(workload: str, seed: int, runs: dict) -> None:
    """One line per request kind: medians of the per-run mean ms."""
    print(f"{workload} seed {seed}: {'kind':18s} {'n':>4s} {'parent ms':>10s} "
          f"{'[q1, q3]':>19s} {'change ms':>10s} {'ratio':>6s}", flush=True)
    for kind in sorted(runs["parent"][0]):
        n = runs["parent"][0][kind][1]
        ms = {side: [1e3 * r[kind][0] / r[kind][1] for r in rs] for side, rs in runs.items()}
        pm, cm = statistics.median(ms["parent"]), statistics.median(ms["change"])
        q1, _, q3 = statistics.quantiles(ms["parent"], n=4, method="inclusive")
        print(f"{workload} seed {seed}: {kind:18s} {n:4d} {pm:10.3f} "
              f"[{q1:8.3f}, {q3:8.3f}] {cm:10.3f} {cm / pm:6.3f}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout whose perfbench/workloads.py gives the requests")
    ap.add_argument("change", help="checkout compared with it")
    ap.add_argument("workload", help="benchmark workload, e.g. quadrature")
    ap.add_argument("--requests", type=int, default=300, help="requests per run (default 300)")
    args = ap.parse_args(argv)
    if args.requests < 1:
        raise SystemExit("need at least 1 request")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads_dir = os.path.join(sides["parent"], "perfbench")
    for root in sides.values():
        if not os.path.isfile(os.path.join(root, "src", "integrikit", "cli.py")):
            raise SystemExit(f"{root} has no src/integrikit/cli.py")

    results = []
    for seed in report_ab.SEEDS:
        runs = {"parent": [], "change": []}
        for k in range(ROUNDS):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                rows = report_ab.reports(sides[side], workloads_dir, args.workload, seed,
                                         args.requests, warm=True)
                runs[side].append(per_kind(rows))
        report(args.workload, seed, runs)
        results.append({"workload": args.workload, "seed": seed, "runs": runs})
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
