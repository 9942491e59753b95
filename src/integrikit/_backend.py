"""One evaluator for compiled expression tapes.

A tape (:class:`integrikit.expr.Tape`) is plain data.  Registers start
as the variables followed by the constants; each op appends one result
and then drops the slots no later op reads.  :func:`_run` runs a tape
on complex scalars with :data:`SCALAR_OPS` and on complex128 arrays with
:data:`ARRAY_OPS`; :func:`eval_points` runs it on :data:`BLOCK` points at
a time, so that live temporaries stay small.  :func:`rk4` is the only
RK4 loop: it steps one state on complex scalars with a straight-line step
generated from the tape (:func:`_step_fn`) that also applies the guard.

Domain failures never raise: division by 0, ln 0 and 0 raised to a
negative or complex power give NaN, as do cmath overflow and domain
errors in :func:`_run`.  Callers turn NaN into precise errors; :func:`rk4`
fails a step that raises like one that leaves the domain or the guard.
"""

from __future__ import annotations

import cmath
import operator
from functools import lru_cache

import numpy as np

#: Points per array pass of :func:`eval_points`.
BLOCK = 8192

_NAN = complex(float("nan"), float("nan"))


def _div(a, b):
    return _NAN if b == 0 else a / b


def _pow(a, b):
    if a == 0 and (b.real < 0 or b.imag != 0):
        return _NAN
    return a ** b


def _ln(z):
    return _NAN if z == 0 else cmath.log(z)


SCALAR_OPS = {
    "neg": operator.neg, "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": _div, "^": _pow,
    "sin": cmath.sin, "cos": cmath.cos, "tan": cmath.tan, "atan": cmath.atan,
    "exp": cmath.exp, "ln": _ln, "sqrt": cmath.sqrt,
    "sinh": cmath.sinh, "cosh": cmath.cosh, "tanh": cmath.tanh,
    "abs": lambda z: complex(abs(z)),
    "re": lambda z: complex(z.real),
    "im": lambda z: complex(z.imag),
    "conj": lambda z: z.conjugate(),
}


def _nan_where(out, bad):
    return np.where(bad, _NAN, out) if np.any(bad) else out


ARRAY_OPS = {
    "neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": lambda a, b: _nan_where(np.divide(a, b), b == 0),
    # np.power, not `**`: ndarray.__pow__ takes fast paths for some exponents
    "^": lambda a, b: _nan_where(np.power(a, b),
                                 (a == 0) & ((b.real < 0) | (b.imag != 0))),
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "atan": np.arctan,
    "exp": np.exp, "ln": lambda z: _nan_where(np.log(z), z == 0), "sqrt": np.sqrt,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "abs": lambda z: np.abs(z).astype(np.complex128),
    "re": lambda z: z.real.astype(np.complex128),
    "im": lambda z: z.imag.astype(np.complex128),
    "conj": np.conj,
}


def _run(ops, table, regs: list) -> list:
    """Execute a tape over `regs` (variables, then constants) in place."""
    for op, a, b, dead in ops:
        f = table[op]
        try:
            regs.append(f(regs[a]) if b < 0 else f(regs[a], regs[b]))
        except (OverflowError, ValueError, ZeroDivisionError):
            regs.append(_NAN)
        for d in dead:
            regs[d] = None
    return regs


def eval_points(ops, consts, pts, out) -> np.ndarray:
    """Slot `out` of the tape at every row of `pts`, as a new array."""
    npts, nvars = pts.shape
    result = np.empty(npts, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for lo in range(0, npts, BLOCK):
            block = pts[lo:lo + BLOCK]
            regs = _run(ops, ARRAY_OPS, [block[:, j] for j in range(nvars)] + list(consts))
            result[lo:lo + BLOCK] = regs[out]
    return result


def rk4(ops, consts, outs, x0, guard, t0, h, hlast, t_end, nsteps):
    """Classical RK4 of the system whose derivatives are the tape slots
    `outs`, over variables (state..., time).  Takes `nsteps` steps of `h`
    from `t0`, the last of length `hlast` ending at `t_end`.

    `x0` is one state (n,); h < 0 steps backward.  Returns ``(ts, ys,
    status, reached)``: status 1 means step `reached` + 1 raised or left
    `guard` (see :func:`_step_fn`).
    """
    ts = np.empty(nsteps + 1, dtype=np.float64)
    ys = np.empty((nsteps + 1, len(x0)), dtype=np.complex128)
    ts[0] = t0
    ys[0] = x0
    step = _step_fn(ops, consts, outs, len(x0), guard)
    y = tuple(complex(v) for v in x0)
    for s in range(nsteps):
        hs = h if s < nsteps - 1 else hlast
        t = t0 + s * h
        try:
            y = step(*y, complex(t), complex(t + 0.5 * hs), complex(t + hs), hs)
        except (OverflowError, ValueError, ZeroDivisionError):
            y = None
        if y is None:
            return ts, ys, 1, s
        ts[s + 1] = t_end if s == nsteps - 1 else t0 + (s + 1) * h
        ys[s + 1] = y
    return ts, ys, 0, nsteps


def _tuple(items) -> str:
    """Source of a tuple, or a parameter list, of `items`."""
    items = list(items)
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


@lru_cache(maxsize=32)
def _step_fn(ops, consts, outs, n, guard):
    """One RK4 step ``step(y0, ..., t, t_half, t_end, hs)`` of the system
    tape as straight-line source on complex scalars: slot j is ``v<j>``, one
    assignment per op.  It returns the new state, or None unless every
    component has ``abs(re) + abs(im) <= guard``, which with a finite guard
    also rejects NaN and infinities.  A factory binds the table functions,
    the constants (as Python complex) and `guard` as values, so no user text
    reaches the source and no cycle forms.
    """
    nvars = n + 1
    fns = sorted({op for op, _, _, _ in ops} - {"neg", "+", "-", "*"})
    funcs = [SCALAR_OPS[op] for op in fns]   # catalog ops only
    fname = {op: "f_" + {"/": "div", "^": "pow"}.get(op, op) for op in fns}
    const_names = [f"v{nvars + k}" for k in range(len(consts))]
    lines = [f"def _factory{_tuple([fname[op] for op in fns] + const_names + ['guard'])}:",
             f"    def rhs{_tuple(f'v{j}' for j in range(nvars))}:"]
    for i, (op, a, b, _) in enumerate(ops):
        if op == "neg":
            value = f"-v{a}"
        elif op in ("+", "-", "*"):
            value = f"v{a} {op} v{b}"
        else:
            value = f"{fname[op]}(v{a})" if b < 0 else f"{fname[op]}(v{a}, v{b})"
        lines.append(f"        v{nvars + len(consts) + i} = {value}")
    lines.append(f"        return {_tuple(f'v{o}' for o in outs)}")

    ys = [f"y{j}" for j in range(n)]
    lines.append(f"    def step{_tuple(ys + ['t', 't_half', 't_end', 'hs'])}:")
    stages = (("k1", "{y}", "t"), ("k2", "{y} + 0.5 * hs * k1_{j}", "t_half"),
              ("k3", "{y} + 0.5 * hs * k2_{j}", "t_half"),
              ("k4", "{y} + hs * k3_{j}", "t_end"))
    for k, arg, t in stages:
        args = [arg.format(y=y, j=j) for j, y in enumerate(ys)] + [t]
        lines.append(f"        {_tuple(f'{k}_{j}' for j in range(n))} = rhs{_tuple(args)}")
    lines += [f"        n{j} = {y} + (hs / 6.0) * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})"
              for j, y in enumerate(ys)]
    bounded = " and ".join(f"abs(n{j}.real) + abs(n{j}.imag) <= guard" for j in range(n))
    lines += [f"        return {_tuple(f'n{j}' for j in range(n))} if {bounded} else None",
              "    return step"]
    scope: dict = {}
    exec(compile("\n".join(lines), "<rk4 step>", "exec"), scope)
    factory = scope.pop("_factory")
    return factory(*funcs, *(complex(c) for c in consts), float(guard))
