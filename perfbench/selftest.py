"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, for every workload:
  1. two traced runs with the same seed, in fresh processes, give
     identical per-layer counts and identical report digests;
  2. no request fails its known answer (failed_ratio is 0), both in a
     short timed run and over a sweep of requests from several seeds;
  3. a deliberately wrong expected answer is counted as a failure;
and that the benchmark exits nonzero, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

# per-layer metrics that are counts of work, not times
COUNTS = [name for name, unit in run.tracer.METRICS if unit in ("count", "bytes")] + [
    "expr.compile.hit_ratio", "expr.eval_many.dag_ratio"]
SWEEP_SEEDS = (11, 12, 13)


def bench(args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"benchmark exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_repeatable_counts(wl, problems):
    runs = [result(bench(["--workload", wl.name, "--seed", "7", "--seconds", "1",
                          "--trace", "1"])) for _ in range(2)]
    (info_a, res_a), (info_b, res_b) = runs
    for name in COUNTS:
        a, b = res_a["metrics"][name]["value"], res_b["metrics"][name]["value"]
        if a != b:
            problems.append(f"{wl.name}: {name} differs between traced runs ({a} vs {b})")
    if info_a["report_sha256"] != info_b["report_sha256"]:
        problems.append(f"{wl.name}: report digests differ between traced runs")
    for res in (res_a, res_b):
        if res["failed"] or not res["correct"]:
            problems.append(f"{wl.name}: traced run failed {res['failed']} requests")


def check_no_failures(wl, cli, problems):
    info, res = result(bench(["--workload", wl.name, "--seed", "3", "--seconds", "3"]))
    if res["failed"] or not res["correct"] or info["failed_ratio"] != 0:
        problems.append(f"{wl.name}: timed run failed: {info['failures'][:3]}")
    count = 2 * len(wl.templates)
    for seed in SWEEP_SEEDS:
        tally = run.Tally()
        for k in range(count):
            req = wl.request(seed, k)
            tally.record(k, req, *run.send(cli, req.argv))
        if tally.failures:
            problems.append(f"{wl.name} seed {seed}: {tally.failures[:3]}")


def _wrong(check):
    op, path, want, tol = check
    if op == "eq":
        return op, path, "fail" if want == "pass" else "pass", tol
    if op == "close":
        def shift(w):
            return [shift(x) for x in w] if isinstance(w, (list, tuple)) else w + 1.0
        return op, path, shift(want), tol
    return op, path, -1.0 if op == "le" else float("inf"), tol


def check_wrong_answer_fails(wl, cli, problems):
    for k in range(len(wl.templates)):
        req = wl.request(1, k)
        for i in range(len(req.checks)):
            bad = workloads.Request(req.kind, req.argv, req.code, list(req.checks))
            bad.checks[i] = _wrong(req.checks[i])
            tally = run.Tally()
            tally.record(0, bad, *run.send(cli, bad.argv))
            if len(tally.failures) != 1:
                problems.append(f"{wl.name}: a wrong expected {bad.checks[i][1]} of "
                                f"{req.kind} was not counted as a failure")
        bad = workloads.Request(req.kind, req.argv, 1 - min(req.code, 1), req.checks)
        tally = run.Tally()
        tally.record(0, bad, *run.send(cli, bad.argv))
        if len(tally.failures) != 1:
            problems.append(f"{wl.name}: a wrong exit code of {req.kind} was not a failure")


def check_bare_directory(problems):
    bare = os.path.join(run.TRACE_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = bench(["--workload", "grid_checks", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("benchmark printed a result without the program present")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    cli = run.load_cli()
    problems = []
    for wl in workloads.WORKLOADS.values():
        check_repeatable_counts(wl, problems)
        check_no_failures(wl, cli, problems)
        check_wrong_answer_fails(wl, cli, problems)
        print(f"{wl.name}: checked", flush=True)
    check_bare_directory(problems)
    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
