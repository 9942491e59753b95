"""Reports of two checkouts, request by request.

    python scripts/report_ab.py PARENT CHANGE [--requests N]

For each benchmark workload and seed, runs the workload's traced request
list (its first `trace_requests` requests, or the first N) through
`integrikit.cli.main` in one fresh interpreter per checkout, each
importing the program from its own `src/`.  Both sides take their
requests from PARENT's `perfbench/workloads.py`, imported without writing
bytecode, so nothing is written in either checkout.

Prints, per workload and seed, the digest of each side's reports (what
`perfbench/run.py --trace 1` reports as `report_sha256` for the traced
list), how many reports differ, and the largest relative difference
|a - b| / max(|a|, |b|) of any number in them, with its request and field.
A report whose exit status, error or text differs other than in a number
differs by inf.  The last line holds every differing report as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("grid_checks", "quadrature", "trajectories", "cauchy_fan")
SEEDS = (7, 11)


def child(root: str, workloads_dir: str, workload: str, seed: int, count: int) -> None:
    """Print ``[exit code, stdout, error]`` of each request as one JSON list."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), workloads_dir]
    import workloads
    from integrikit import cli

    wl = workloads.WORKLOADS[workload]
    out = []
    for k in range(count or wl.trace_requests):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(wl.request(seed, k).argv)
            error = ""
        except Exception as ex:   # a raising request is a result to compare
            code, error = None, f"raised {type(ex).__name__}: {ex}"
        out.append([code, buf.getvalue(), error])
    json.dump(out, sys.stdout)


def reports(root: str, workloads_dir: str, workload: str, seed: int, count: int) -> list:
    proc = subprocess.run(
        [sys.executable, "-B", os.path.abspath(__file__), "--child", root, workloads_dir,
         workload, str(seed), str(count)],
        cwd=root, check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(proc.stdout)


def largest_difference(a, b, path: str = ""):
    """(largest relative difference of the numbers of two JSON values, its
    path); inf where they differ other than in a number."""
    numbers = (int, float)
    if (isinstance(a, numbers) and isinstance(b, numbers)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, path
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf, path
        return abs(a - b) / max(abs(a), abs(b)), path
    if type(a) is not type(b):
        return math.inf, path
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return math.inf, path
        pairs = [(a[k], b[k], f"{path}/{k}") for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return math.inf, path
        pairs = [(x, y, f"{path}/{i}") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return (0.0 if a == b else math.inf), path
    return max((largest_difference(*p) for p in pairs), default=(0.0, path),
               key=lambda r: r[0])


def compare(parent: list, change: list) -> list:
    """One entry per request whose report differs: (index, difference, path)."""
    moved = []
    for k, ((pc, po, pe), (cc, co, ce)) in enumerate(zip(parent, change)):
        if (pc, po, pe) == (cc, co, ce):
            continue
        if (pc, pe) != (cc, ce):
            moved.append((k, math.inf, "exit status or error"))
            continue
        try:
            diff, path = largest_difference(json.loads(po), json.loads(co))
        except ValueError:
            diff, path = math.inf, "text"
        moved.append((k, diff, path or "/"))
    return moved


def digest(results: list) -> str:
    h = hashlib.sha256()
    for _, out, _ in results:
        h.update(out.encode())
    return h.hexdigest()


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        root, workloads_dir, workload, seed, count = sys.argv[2:7]
        child(root, workloads_dir, workload, int(seed), int(count))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout whose perfbench/workloads.py gives the requests")
    ap.add_argument("change", help="checkout compared with it")
    ap.add_argument("--requests", type=int, default=0,
                    help="requests per workload and seed (default: the traced list)")
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads_dir = os.path.join(sides["parent"], "perfbench")
    for root in sides.values():
        if not os.path.isfile(os.path.join(root, "src", "integrikit", "cli.py")):
            raise SystemExit(f"{root} has no src/integrikit/cli.py")

    every = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            got = {side: reports(root, workloads_dir, workload, seed, args.requests)
                   for side, root in sides.items()}
            moved = compare(got["parent"], got["change"])
            worst = max(moved, key=lambda m: m[1], default=None)
            line = (f"{workload:13s} seed {seed:3d}  {len(moved)} of {len(got['parent'])} "
                    f"reports differ")
            if worst is not None:
                line += f", largest relative difference {worst[1]:.3g} (request {worst[0]}, {worst[2]})"
            digests = {side: digest(r) for side, r in got.items()}
            line += f"  sha256 parent {digests['parent'][:12]} change {digests['change'][:12]}"
            print(line, flush=True)
            every += [{"workload": workload, "seed": seed, "request": k,
                       "difference": d if math.isfinite(d) else "inf", "where": w}
                      for k, d, w in moved]
    print(json.dumps(every))
    return 0


if __name__ == "__main__":
    sys.exit(main())
