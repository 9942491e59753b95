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
Below that line, one line per command and JSON path that moved: how many
reports moved there and their largest relative difference, so a field
that stayed the same shows by its absence.  A report whose exit status,
error or text differs other than in a number differs by inf.  The last
line holds every differing report as JSON.
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
    """Print ``[command, exit code, stdout, error]`` of each request as one
    JSON list."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), workloads_dir]
    import workloads
    from integrikit import cli

    wl = workloads.WORKLOADS[workload]
    out = []
    for k in range(count or wl.trace_requests):
        argv = wl.request(seed, k).argv
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            error = ""
        except Exception as ex:   # a raising request is a result to compare
            code, error = None, f"raised {type(ex).__name__}: {ex}"
        out.append([argv[0], code, buf.getvalue(), error])
    json.dump(out, sys.stdout)


def reports(root: str, workloads_dir: str, workload: str, seed: int, count: int) -> list:
    proc = subprocess.run(
        [sys.executable, "-B", os.path.abspath(__file__), "--child", root, workloads_dir,
         workload, str(seed), str(count)],
        cwd=root, check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(proc.stdout)


def differences(a, b, path: str = ""):
    """(relative difference, path) of each number in which two JSON values
    differ; inf where they differ other than in a number."""
    numbers = (int, float)
    if (isinstance(a, numbers) and isinstance(b, numbers)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        if not (math.isfinite(a) and math.isfinite(b)):
            yield math.inf, path
        else:
            yield abs(a - b) / max(abs(a), abs(b)), path
        return
    if type(a) is not type(b):
        yield math.inf, path
        return
    if isinstance(a, dict):
        if a.keys() != b.keys():
            yield math.inf, path
            return
        pairs = [(a[k], b[k], f"{path}/{k}") for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            yield math.inf, path
            return
        pairs = [(x, y, f"{path}/{i}") for i, (x, y) in enumerate(zip(a, b))]
    else:
        if a != b:
            yield math.inf, path
        return
    for pair in pairs:
        yield from differences(*pair)


def compare(parent: list, change: list) -> list:
    """One entry per request whose report differs: (index, command, the
    (difference, path) of each place it differs)."""
    moved = []
    for k, ((cmd, pc, po, pe), (_, cc, co, ce)) in enumerate(zip(parent, change)):
        if (pc, po, pe) == (cc, co, ce):
            continue
        if (pc, pe) != (cc, ce):
            found = [(math.inf, "exit status or error")]
        else:
            try:
                found = list(differences(json.loads(po), json.loads(co)))
            except ValueError:
                found = [(math.inf, "text")]
        moved.append((k, cmd, found or [(0.0, "/")]))
    return moved


def by_path(moved: list) -> dict:
    """{(command, path): (reports moved there, their largest relative
    difference)}, sorted; a path occurs at most once per report."""
    paths = {}
    for _, cmd, found in moved:
        for d, path in found:
            count, top = paths.get((cmd, path), (0, 0.0))
            paths[cmd, path] = (count + 1, max(top, d))
    return dict(sorted(paths.items()))


def digest(results: list) -> str:
    h = hashlib.sha256()
    for _, _, out, _ in results:
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
            diffs = compare(got["parent"], got["change"])
            moved = [(k, cmd, *max(found, key=lambda f: f[0])) for k, cmd, found in diffs]
            worst = max(moved, key=lambda m: m[2], default=None)
            line = (f"{workload:13s} seed {seed:3d}  {len(moved)} of {len(got['parent'])} "
                    f"reports differ")
            if worst is not None:
                line += (f", largest relative difference {worst[2]:.3g} "
                         f"(request {worst[0]}, {worst[1]} {worst[3]})")
            digests = {side: digest(r) for side, r in got.items()}
            line += f"  sha256 parent {digests['parent'][:12]} change {digests['change'][:12]}"
            print(line, flush=True)
            for (cmd, path), (count, d) in by_path(diffs).items():
                print(f"    {cmd} {path}: {count} reports, largest relative difference {d:.3g}",
                      flush=True)
            every += [{"workload": workload, "seed": seed, "request": k, "command": cmd,
                       "difference": d if math.isfinite(d) else "inf", "where": w}
                      for k, cmd, d, w in moved]
    print(json.dumps(every))
    return 0


if __name__ == "__main__":
    sys.exit(main())
