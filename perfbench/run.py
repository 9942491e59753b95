"""integrikit benchmark: known-answer CLI requests in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
One client sends one request at a time to `integrikit.cli.main(argv)` in
this process.  A request is timed from argv to the captured JSON report;
generating it and checking the report against its known answer happen
outside that interval.  Times are scaled to a reference host speed (see
HostSpeed).

--trace 0 runs the closed loop for --seconds and reports the end-to-end
metrics.  --trace 1 runs a fixed request list twice, untraced and then
traced, so its per-layer counts repeat exactly for a seed; it reports
the per-layer metrics and writes the spans under .perfbench/.

The last stdout line is the result object; the line before it holds the
environment, the report digest and any failures.  Exit status is 0 when
the run completed (even with failed requests) and nonzero, without a
result line, when the program cannot be loaded.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so one request uses one core.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402  (BLAS threads must be pinned first)

import tracer       # noqa: E402
import workloads    # noqa: E402

SETUP_PROBES = 5
TRACE_DIR = os.path.join(ROOT, ".perfbench")
# Calibration time on a quiet host of the kind the benchmark was defined
# on (Xeon, 2 vCPU); times are reported at that host speed, see HostSpeed.
REF_SECONDS = 0.45e-3

END_TO_END = [("throughput_rps", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def load_cli():
    from integrikit import cli
    return cli


class HostSpeed:
    """Scales times to a reference host speed.

    Hosts shared with other tenants drift: on the 2-vCPU Xeon the
    benchmark was defined on, identical work ran 25-60% slower in some
    minutes than in others, and every kind of work slowed together.  A
    fixed calibration task that never touches integrikit (a bytecode loop
    and a vectorized numpy expression) is timed before requests, at most
    every 20 ms; each request's time is multiplied by REF_SECONDS over the
    median of the 9 calibration timings centred on it.  A change to the
    program moves the requests and not the calibration, so it shows in
    full.
    """

    def __init__(self):
        self._x = np.linspace(0.0, 1.0, 20000)
        self.samples = []
        self._last = -math.inf

    def _work(self):
        s = 0
        for i in range(3000):
            s += (i * 7) % 13
        np.sin(self._x) * np.exp(-self._x)
        return s

    def sample(self):
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - start)
        self.samples.append(best)
        self._last = time.perf_counter()

    def refresh(self):
        """Sample again if 20 ms passed since the last sample."""
        if time.perf_counter() - self._last >= 0.02:
            self.sample()

    def factor(self, index: int) -> float:
        """Scale for work done just after sample `index`: the 9 samples around it."""
        lo = max(0, min(index - 4, len(self.samples) - 9))
        return REF_SECONDS / statistics.median(self.samples[lo:lo + 9])


def send(cli, argv):
    """One request: (seconds, exit code, stdout, exception text)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        error = ""
    except Exception as ex:   # a raising request is a failed request, not a crash
        code, error = None, f"raised {type(ex).__name__}: {ex}"
    elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue(), error


def verdict(req, code, out, error) -> str:
    if error:
        return error
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not one JSON report"
    return workloads.check(req, code, report)


class Tally:
    """Latencies, failures and the digest of every report of one pass."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.digest = hashlib.sha256()
        self.report_bytes = 0
        self.newton_iters = 0

    def record(self, k, req, elapsed, code, out, error):
        self.latencies.append(elapsed)
        self.digest.update(out.encode())
        self.report_bytes += len(out.encode())
        why = verdict(req, code, out, error)
        if why:
            self.failures.append({"request": k, "kind": req.kind, "why": why[:300]})
        elif req.argv[0] == "pde-solve":
            self.newton_iters += sum(json.loads(out)["diagnostics"]["iterations"])


def warm_up(cli, wl) -> list:
    failures = []
    for req in wl.warmup():
        why = verdict(req, *send(cli, req.argv)[1:])
        if why:
            failures.append({"request": "warmup", "kind": req.kind, "why": why[:300]})
    return failures


def setup_seconds(wl, speed):
    """Median wall time, raw and at reference speed, of fresh interpreters
    that import the CLI and run the warm-up pass."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                        "--workload", wl.name],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        raw.append(time.perf_counter() - start)
        speed.sample()
        scaled.append(raw[-1] * REF_SECONDS / statistics.median(speed.samples[-2:]))
    return statistics.median(raw), statistics.median(scaled)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(latencies, wanted: float):
    """The workload's tail percentile, lowered when fewer than 10 samples lie above it."""
    n = len(latencies)
    p = wanted
    while p > 50.0 and n - math.ceil(p / 100.0 * n) < 10:
        p -= 5.0
    return p, percentile(sorted(latencies), p)


def closed_loop(cli, wl, seed, seconds, speed):
    """Requests until `seconds` of wall time passed: (tally, scaled latencies)."""
    tally, marks = Tally(), []
    for _ in range(5):
        speed.sample()
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        req = wl.request(seed, k)
        speed.refresh()
        marks.append(len(speed.samples) - 1)
        tally.record(k, req, *send(cli, req.argv))
        k += 1
    for _ in range(4):
        speed.sample()
    return tally, [t * speed.factor(m) for t, m in zip(tally.latencies, marks)]


def clear_compile_caches():
    """Both passes of a traced run start from empty compile caches."""
    expr = sys.modules.get("integrikit.expr")
    for name in ("compile_expr", "compile_system"):
        fn = getattr(expr, name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def traced_run(cli, wl, seed):
    requests = [wl.request(seed, k) for k in range(wl.trace_requests)]
    clear_compile_caches()
    plain = Tally()
    for k, req in enumerate(requests):
        plain.record(k, req, *send(cli, req.argv))
    clear_compile_caches()
    spans = tracer.Tracer()
    traced = Tally()
    spans.install()
    try:
        for k, req in enumerate(requests):
            spans.request = k
            traced.record(k, req, *send(cli, req.argv))
    finally:
        spans.uninstall()
    overhead = sum(traced.latencies) / sum(plain.latencies)
    metrics = spans.metrics(traced.report_bytes, traced.newton_iters, overhead)
    os.makedirs(TRACE_DIR, exist_ok=True)
    span_file = os.path.join(TRACE_DIR, f"spans-{wl.name}-{seed}.jsonl")
    spans.dump(span_file)
    return plain, traced, metrics, {"spans": len(spans.spans), "span_file": span_file}


def environment(seed) -> dict:
    import integrikit
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    backend = getattr(integrikit, "backend_name", lambda: "n/a")()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numba_importable": has_numba, "backend": backend,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREADS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    try:
        cli = load_cli()
    except ImportError as ex:
        print(f"cannot import integrikit from {ROOT}/src: {ex}", file=sys.stderr)
        return 2
    if args.setup_probe:
        with contextlib.redirect_stdout(io.StringIO()):
            warm_up(cli, wl)
        return 0

    info = {"workload": wl.name, "why": wl.why, "varies": wl.varies,
            "environment": environment(args.seed)}
    if args.trace:
        warm_failures = warm_up(cli, wl)
        plain, traced, layer, extra = traced_run(cli, wl, args.seed)
        passes = (plain, traced)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracer.METRICS}
        info.update(extra)
        info["identical_reports"] = plain.digest.hexdigest() == traced.digest.hexdigest()
    else:
        speed = HostSpeed()
        setup_raw, setup_s = setup_seconds(wl, speed)
        warm_failures = warm_up(cli, wl)
        loop, lat = closed_loop(cli, wl, args.seed, args.seconds, speed)
        passes = (loop,)
        p_tail, v_tail = tail(lat, wl.tail_percentile)
        values = {"throughput_rps": len(lat) / sum(lat),
                  "latency_p50_ms": 1e3 * statistics.median(lat),
                  "latency_tail_ms": 1e3 * v_tail,
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        raw = loop.latencies
        info.update({"samples": len(lat), "tail_percentile": p_tail,
                     "unscaled": {"throughput_rps": len(raw) / sum(raw),
                                  "latency_p50_ms": 1e3 * statistics.median(raw),
                                  "latency_tail_ms": 1e3 * tail(raw, wl.tail_percentile)[1],
                                  "setup_s": setup_raw},
                     "speed_factor_median": statistics.median(
                         s / r for s, r in zip(lat, raw))})
    attempted = sum(len(p.latencies) for p in passes)
    failures = warm_failures + [f for p in passes for f in p.failures]
    failed = sum(len(p.failures) for p in passes)
    info.update({"report_sha256": passes[-1].digest.hexdigest(),
                 "failed_ratio": failed / attempted, "failures": failures[:20]})
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
