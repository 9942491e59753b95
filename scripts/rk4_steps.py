"""Per-step and build cost of the generated RK4 routine in two checkouts,
side by side.

    python scripts/rk4_steps.py PARENT CHANGE

Times one 20,000-step float trace of each of four systems (oscillator,
pendulum, Lotka-Volterra, rigid body) from each checkout's `src`, as a
full trace (`RK4Traces.__call__`, every state stored) and as an endpoint
trace (`RK4Traces.endpoint`, the last state alone).  A checkout without
`RK4Traces.endpoint` runs the full trace for both: there, a caller that
read only the endpoint paid for every state.  Each side runs in a fresh
process per round, seven rounds alternating which side runs first; a
round times each trace five times and keeps the fastest.  The script
prints the best of the seven rounds in microseconds per step, and the
last line holds every round as JSON.

Each round also times routine builds: the first `_backend.rk4` call (a
zero-step float trace) of each of 40 systems of distinct shapes, all of
the rigid body's size, and then of 40 new systems that each share the
shape of one of them and differ in a constant.  The script prints the
best of the seven rounds in milliseconds per build.

Python writes its bytecode under a temporary PYTHONPYCACHEPREFIX, so
nothing is written in either checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROUNDS = 7
REPEATS = 5
STEPS = 20_000
H = 1e-3

#: Systems per kind of build, and the functions whose choice gives each its shape.
BUILDS = 40
FUNCTIONS = ("sin", "cos", "tanh", "atan", "sinh", "cosh")

#: name -> (variables, components, start)
SYSTEMS = {
    "oscillator": (("x", "y"), ("y", "-x"), (1.0, 0.0)),
    "pendulum": (("x", "y"), ("y", "-sin(x)"), (1.0, 0.2)),
    "lotka_volterra": (("x", "y"), ("1.5*x - x*y", "x*y - 3*y"), (1.0, 1.0)),
    "rigid_body": (("x", "y", "z"), ("y*z", "-x*z", "-0.51*x*y"), (0.0, 1.0, 1.0)),
}

# Run in the measured checkout: prints {system: {mode: seconds}} and
# {"build_ms": {kind: milliseconds}} as JSON.
_PROBE = r"""
import json, sys, time
from integrikit.expr import parse
from integrikit.odesys import AutonomousSystem, RK4Traces

systems, steps, h, repeats = json.loads(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
out = {}
for name, (names, comps, x0) in systems.items():
    traces = RK4Traces(AutonomousSystem(tuple(names), tuple(parse(c) for c in comps)))
    modes = {"full": traces, "endpoint": getattr(traces, "endpoint", traces)}
    out[name] = {}
    for mode, trace in modes.items():
        trace(x0, 0.0, 10 * h, h)            # builds the routine
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            trace(x0, 0.0, steps * h, h)
            best = min(best, time.perf_counter() - start)
        out[name][mode] = best

from integrikit import _backend
from integrikit.expr import compile_system


def build_ms(tapes):
    # milliseconds per first call of the tapes' routines, mean over the list
    start = time.perf_counter()
    for tape in tapes:
        _backend.rk4(tape.ops, tape.consts, tape.outs, [[0.1, 0.2, 0.3]], 1e12,
                     [(0.0, h, h, 0)], 0, [].append, True)
    return 1e3 * (time.perf_counter() - start) / len(tapes)


def rigid(fs, c):
    comps = (f"y*z + {c}*{fs[0]}(x)", f"-x*z + {c}*{fs[1]}(y)", f"-0.51*x*y + {c}*{fs[2]}(z)")
    return compile_system(tuple(parse(e) for e in comps), ("x", "y", "z"), None)


builds, functions = int(sys.argv[5]), sys.argv[6].split(",")
shapes = [(f, g, k) for f in functions for g in functions for k in functions][:builds]
out["build_ms"] = {"unseen_shape": build_ms([rigid(fs, 0.25) for fs in shapes]),
                   "built_shape": build_ms([rigid(fs, 0.375) for fs in shapes])}
print(json.dumps(out))
"""


def probe(root: str, env: dict) -> dict:
    """One round in the checkout at `root`: seconds per trace, by system and
    mode, and milliseconds per routine build, by kind."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(SYSTEMS), str(STEPS),
                           repr(H), str(REPEATS), str(BUILDS), ",".join(FUNCTIONS)],
                          cwd=root, env=dict(env, PYTHONPATH=os.path.join(root, "src")),
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    sides = {"parent": os.path.abspath(args[0]), "change": os.path.abspath(args[1])}
    for root in sides.values():
        if not os.path.isfile(os.path.join(root, "src", "integrikit", "odesys.py")):
            raise SystemExit(f"{root} has no src/integrikit/odesys.py")
    rounds = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for k in range(ROUNDS):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                rounds[side].append(probe(sides[side], env))
    best = {side: {name: {mode: 1e6 * min(r[name][mode] for r in rs) / STEPS
                          for mode in ("full", "endpoint")}
                   for name in SYSTEMS}
            for side, rs in rounds.items()}
    print(f"us per step, best of {ROUNDS} rounds of {REPEATS}, {STEPS} steps")
    for name in SYSTEMS:
        for mode in ("full", "endpoint"):
            p, c = best["parent"][name][mode], best["change"][name][mode]
            print(f"{name:15s} {mode:9s} parent {p:6.3f}  change {c:6.3f}  {c / p - 1:+7.1%}")
    builds = {side: {kind: min(r["build_ms"][kind] for r in rs)
                     for kind in ("unseen_shape", "built_shape")}
              for side, rs in rounds.items()}
    print(f"ms per routine build, best of {ROUNDS} rounds, mean of {BUILDS} systems")
    for kind in ("unseen_shape", "built_shape"):
        p, c = builds["parent"][kind], builds["change"][kind]
        print(f"build {kind:19s} parent {p:6.3f}  change {c:6.3f}  {c / p - 1:+7.1%}")
    print(json.dumps({"best_us_per_step": best, "best_build_ms": builds, "rounds_s": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
