"""End-to-end benchmark metrics of two checkouts, side by side.

    python scripts/timed_ab.py PARENT CHANGE [WORKLOAD ...]

Runs `perfbench/run.py --trace 0` from each checkout for the benchmark's
run length (`run_seconds` in PARENT's BENCHMARK.json), in ten pairs per
workload and seed, at seeds 7 and 11, alternating which side runs first.
The workloads are the ones named, or all of the benchmark's.

For each workload, seed and end-to-end metric the script prints both
medians, the parent's quartiles, the pairs the change won (ties count for
neither) and whether the change's median lies inside the metric's bound
in BENCHMARK.json, which the script only reads.  The last line holds
every run as JSON: its metrics, its failed and attempted requests, and
its unscaled times.

Python writes its bytecode under a temporary PYTHONPYCACHEPREFIX, so
nothing is written in either checkout and both keep compiled modules
between runs, as a checkout that has run once does.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
SEEDS = (7, 11)


def run(root: str, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One closed-loop run: the result line's metrics and counts, and the
    unscaled times from the line before it."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, env=env, check=True, capture_output=True, text=True)
    *_, info, result = proc.stdout.splitlines()
    info, result = json.loads(info), json.loads(result)
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"],
            "unscaled": info.get("unscaled", {})}


def report(workload: str, seed: int, runs: dict, metrics: list) -> None:
    """One line per end-to-end metric of one workload and seed, and one for
    the failed requests."""
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        p = [r["metrics"][name] for r in runs["parent"]]
        c = [r["metrics"][name] for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
        won = sum(b > a if higher else b < a for a, b in zip(p, c))
        limit = pm * (1 - metric["bound"] if higher else 1 + metric["bound"])
        inside = cm >= limit if higher else cm <= limit
        print(f"{workload:13s} seed {seed:3d} {name:16s} parent {pm:10.4g} "
              f"[{q1:.4g}, {q3:.4g}]  change {cm:10.4g}  {cm / pm - 1:+7.1%}  "
              f"change won {won}/{len(p)}  {'inside' if inside else 'OUTSIDE'} "
              f"bound {metric['bound']:.0%}", flush=True)
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"{workload:13s} seed {seed:3d} failed requests: parent {failed['parent']}, "
          f"change {failed['change']}", flush=True)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) < 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change = (os.path.abspath(a) for a in args[:2])
    for root in (parent, change):
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            raise SystemExit(f"{root} has no perfbench/run.py")
    with open(os.path.join(parent, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    known = [w["name"] for w in bench["workloads"]]
    workloads = args[2:] or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; the benchmark has {known}")
    sides = {"parent": parent, "change": change}

    results = []
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for workload in workloads:
            for seed in SEEDS:
                runs = {"parent": [], "change": []}
                for k in range(PAIRS):
                    for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                        runs[side].append(run(sides[side], workload, seed,
                                              bench["run_seconds"], env))
                results.append({"workload": workload, "seed": seed, "runs": runs})
                report(workload, seed, runs, bench["end_to_end"])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
