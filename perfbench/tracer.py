"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces module-level bindings of integrikit's layer
functions (and three `Expr` methods) with wrappers that record a span
per call: request id, layer name, parent span, start and end.  Nothing
inside the package is edited; `uninstall` puts every binding back.

Recursive functions (`diff`, `evaluate`, `substitute`) are wrapped only
where another module imported them, and a per-layer depth guard makes
only the outermost call of a layer a span.  Spans stay in memory until
`metrics` aggregates them and `dump` writes them out.  Counts that need
work (tree sizes, distinct subtrees) are taken from references kept in
the span and computed after the run, outside every timed interval.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict

# span name -> (home module, attribute, wrap the home binding too?, payload)
# payload(args, result) is stored with the span and reduced in `metrics`.
_FUNCTIONS = [
    ("cli.main", "cli", "main", True, None),
    ("expr.parse", "expr", "parse", True, None),
    ("expr.diff", "expr", "diff", False, lambda a, r: r),
    ("expr.evaluate", "expr", "evaluate", False, None),
    ("expr.substitute", "expr", "substitute", False, None),
    ("expr.compile", "expr", "compile_expr", True, None),
    ("expr.compile", "expr", "compile_system", True, None),
    ("expr.eval_many", "expr", "eval_many", True, lambda a, r: (a[0], len(a[2]))),
    ("backend.eval_points", "_backend", "eval_points", True,
     lambda a, r: a[2].shape[0] * len(a[0])),
    ("backend.rk4", "_backend", "rk4", True, lambda a, r: a[9]),
    ("realfield.residual_sweep", "realfield", "residual_sweep", True, None),
    ("realfield.line_integral", "realfield", "line_integral", True, None),
    ("realfield.gauss_nodes", "realfield", "gauss_nodes", True, None),
    ("cplx.contour_integral", "cplx", "contour_integral", True, None),
    ("cplx.harmonic_conjugate", "cplx", "harmonic_conjugate", True, None),
    ("cplx.laurent_coeffs", "cplx", "laurent_coeffs", True, None),
    ("odekit.energy_solve", "odekit", "energy_solve", True, None),
    ("odekit.exact_solve", "odekit", "exact_solve", True, None),
    ("odesys.integrate_rk4", "odesys", "integrate_rk4", True, None),
    ("odesys.first_integral_drift", "odesys", "first_integral_drift", True, None),
    ("odesys.linear_solve", "odesys", "linear_solve", True, None),
    ("flow.lie_series_flow", "flow", "lie_series_flow", True, None),
    ("flow.equilibrium_find", "flow", "equilibrium_find", True, None),
    ("btlax.lax_commuting_flow", "btlax", "lax_commuting_flow", True, None),
    ("btlax.bt_residual", "btlax", "bt_residual", True, None),
    ("btlax.maxwell_residual", "btlax", "maxwell_residual", True, None),
    ("charpde.solve_cauchy", "charpde", "solve_cauchy", True, lambda a, r: len(a[2])),
]

_METHODS = [
    ("expr.diff", "diff", lambda a, r: r),
    ("expr.evaluate", "eval", None),
    ("expr.substitute", "subs", None),
]

SELF_TIMED = [
    "cli.main", "expr.parse", "expr.diff", "expr.compile", "expr.eval_many",
    "expr.evaluate", "expr.substitute", "backend.eval_points", "backend.rk4",
    "realfield.residual_sweep", "realfield.line_integral", "realfield.gauss_nodes",
    "cplx.contour_integral", "cplx.harmonic_conjugate", "cplx.laurent_coeffs",
    "odekit.energy_solve", "odekit.exact_solve", "odesys.integrate_rk4",
    "odesys.first_integral_drift", "odesys.linear_solve", "flow.lie_series_flow",
    "flow.equilibrium_find", "btlax.lax_commuting_flow", "btlax.bt_residual",
    "btlax.maxwell_residual", "charpde.solve_cauchy",
]
COUNTED = [
    "expr.parse", "expr.diff", "expr.eval_many", "expr.evaluate", "expr.substitute",
    "backend.eval_points", "backend.rk4", "realfield.residual_sweep",
    "realfield.line_integral", "realfield.gauss_nodes", "odesys.integrate_rk4",
    "charpde.solve_cauchy",
]

#: (name, unit) of every per-layer metric, in report order.
METRICS = (
    [(f"{n}.self_s", "s") for n in SELF_TIMED]
    + [(f"{n}.calls", "count") for n in COUNTED]
    + [("cli.report_bytes", "bytes"), ("expr.diff.out_nodes", "count"),
       ("expr.compile.misses", "count"), ("expr.compile.hit_ratio", "ratio"),
       ("expr.eval_many.points", "count"), ("expr.eval_many.dag_ratio", "ratio"),
       ("backend.eval_points.point_ops", "count"),
       ("backend.eval_points.ns_per_point_op", "ns"),
       ("backend.rk4.steps", "count"), ("backend.rk4.us_per_step", "us"),
       ("charpde.traces_per_query", "count"), ("charpde.newton_iters", "count"),
       ("trace.overhead_ratio", "ratio")]
)


def _modules():
    return {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
            if name.startswith("integrikit.") and mod is not None}


class Tracer:
    def __init__(self):
        self.spans = []        # [request, name, parent, start, end, payload]
        self.request = -1
        self._stack = []
        self._depth = defaultdict(int)
        self._undo = []
        self._caches = []

    # -- installation -------------------------------------------------------
    def _wrap(self, name, fn, payload):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            span = [self.request, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                depth[name] -= 1
            if payload is not None:
                try:
                    span[5] = payload(args, result)
                except (IndexError, AttributeError, TypeError):
                    pass    # a changed signature loses the count, not the run
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = _modules()
        for name, home, attr, wrap_home, payload in _FUNCTIONS:
            target = getattr(modules.get(home), attr, None)
            if target is None:
                continue
            if hasattr(target, "cache_info"):
                self._caches.append(target)
            wrapper = self._wrap(name, target, payload)
            for mod_name, mod in modules.items():
                if mod_name == home and not wrap_home:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, target))
        expr = modules.get("expr")
        for name, attr, payload in _METHODS:
            method = getattr(getattr(expr, "Expr", None), attr, None)
            if method is not None:
                setattr(expr.Expr, attr, self._wrap(name, method, payload))
                self._undo.append((expr.Expr, attr, method))
        self._cache_start = self._cache_counts()

    def uninstall(self):
        self._cache_end = self._cache_counts()
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _cache_counts(self):
        hits = misses = 0
        for fn in self._caches:
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        return hits, misses

    # -- aggregation --------------------------------------------------------
    def metrics(self, report_bytes: int, newton_iters: int, overhead_ratio: float) -> dict:
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls, total = defaultdict(float), defaultdict(int), defaultdict(float)
        for i, (_, name, _, start, end, payload) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {f"{n}.self_s": self_s[n] for n in SELF_TIMED}
        out.update({f"{n}.calls": calls[n] for n in COUNTED})

        trees = _TreeStats()
        points = nodes = distinct = out_nodes = 0
        traces_in_solve = 0
        for _, name, parent, _, _, payload in self.spans:
            if payload is None:
                continue
            if name == "expr.diff":
                out_nodes += trees.stats(payload)[0]
            elif name == "expr.eval_many":
                n, d = trees.stats(payload[0])
                nodes, distinct, points = nodes + n, distinct + d, points + payload[1]
            else:
                total[name] += payload
        for _, name, parent, _, _, _ in self.spans:
            if name == "odesys.integrate_rk4" and self._under(parent, "charpde.solve_cauchy"):
                traces_in_solve += 1
        queries = total["charpde.solve_cauchy"]
        hits = self._cache_end[0] - self._cache_start[0]
        misses = self._cache_end[1] - self._cache_start[1]
        point_ops, steps = total["backend.eval_points"], total["backend.rk4"]
        out.update({
            "cli.report_bytes": report_bytes,
            "expr.diff.out_nodes": out_nodes,
            "expr.compile.misses": misses,
            "expr.compile.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "expr.eval_many.points": points,
            "expr.eval_many.dag_ratio": distinct / nodes if nodes else 0.0,
            "backend.eval_points.point_ops": point_ops,
            "backend.eval_points.ns_per_point_op":
                1e9 * self_s["backend.eval_points"] / point_ops if point_ops else 0.0,
            "backend.rk4.steps": steps,
            "backend.rk4.us_per_step": 1e6 * self_s["backend.rk4"] / steps if steps else 0.0,
            "charpde.traces_per_query": traces_in_solve / queries if queries else 0.0,
            "charpde.newton_iters": newton_iters,
            "trace.overhead_ratio": overhead_ratio,
        })
        return out

    def _under(self, index: int, name: str) -> bool:
        while index >= 0:
            span = self.spans[index]
            if span[1] == name:
                return True
            index = span[2]
        return False

    def dump(self, path: str):
        with open(path, "w") as fh:
            for request, name, parent, start, end, _ in self.spans:
                fh.write(json.dumps([request, name, parent, start, end]) + "\n")


class _TreeStats:
    """Tree node count and distinct-subtree count of expressions, memoised."""

    def __init__(self):
        self._memo = {}        # id -> (expr, nodes, distinct)

    def stats(self, e):
        hit = self._memo.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1], hit[2]
        sizes, keys, table = {}, {}, {}
        todo = [(e, False)]
        while todo:
            node, expanded = todo.pop()
            if id(node) in sizes:
                continue
            kids = _children(node)
            if not expanded and kids:
                todo.append((node, True))
                todo.extend((k, False) for k in kids if id(k) not in sizes)
                continue
            sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
            key = (type(node).__name__, _label(node), tuple(keys[id(k)] for k in kids))
            keys[id(node)] = table.setdefault(key, len(table))
        result = (sizes[id(e)], len(table))
        self._memo[id(e)] = (e, *result)
        return result


def _children(node):
    return [getattr(node, f.name) for f in dataclasses.fields(node)
            if dataclasses.is_dataclass(getattr(node, f.name))]


def _label(node):
    return tuple(getattr(node, f.name) for f in dataclasses.fields(node)
                 if not dataclasses.is_dataclass(getattr(node, f.name)))
