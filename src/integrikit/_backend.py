"""One evaluator for compiled expression tapes.

A tape (:class:`integrikit.expr.Tape`) is plain data.  Registers start
as the variables followed by the constants; each op appends one result
and then drops the slots no later op reads.  :func:`_run` is the only
interpreter: it runs a tape on complex scalars with :data:`SCALAR_OPS`
and on complex128 arrays with :data:`ARRAY_OPS`.  :func:`eval_points`
runs it on :data:`BLOCK` points at a time, so that live temporaries
stay small.  :func:`rk4` is the only RK4 loop: one state steps on
scalars, a batch of states steps on arrays of its columns.

Domain failures never raise: division by 0, ln 0 and 0 raised to a
negative or complex power give NaN, as do cmath overflow and domain
errors.  Callers turn NaN into precise errors.
"""

from __future__ import annotations

import cmath
import math
import operator

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

    `x0` is one state (n,) or a batch of states (batch, n); ``ys[k]``
    has its shape.  Returns ``(ts, ys, status, reached)``: status 1 means
    some row at step `reached` + 1 was non-finite or exceeded `guard`.
    """
    x0 = np.asarray(x0, dtype=np.complex128)
    ts = np.empty(nsteps + 1, dtype=np.float64)
    ys = np.empty((nsteps + 1,) + x0.T.shape, dtype=np.complex128)
    ts[0] = t0
    ys[0] = x0.T
    consts = list(consts)
    if x0.ndim == 1:
        table, scalar, within = SCALAR_OPS, complex, _within_scalar
        y = [complex(v) for v in x0]
    else:
        table, scalar, within = ARRAY_OPS, np.complex128, _within_rows
        y = list(ys[0])
    n = len(y)

    def rhs(state, t):
        regs = _run(ops, table, [*state, scalar(t), *consts])
        return [regs[o] for o in outs]

    with np.errstate(all="ignore"):
        for s in range(nsteps):
            hs = h if s < nsteps - 1 else hlast
            t = t0 + s * h
            k1 = rhs(y, t)
            k2 = rhs([y[j] + 0.5 * hs * k1[j] for j in range(n)], t + 0.5 * hs)
            k3 = rhs([y[j] + 0.5 * hs * k2[j] for j in range(n)], t + 0.5 * hs)
            k4 = rhs([y[j] + hs * k3[j] for j in range(n)], t + hs)
            y = [y[j] + (hs / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                 for j in range(n)]
            if not within(y, guard):
                return ts, np.moveaxis(ys, 1, -1), 1, s
            ts[s + 1] = t_end if s == nsteps - 1 else t0 + (s + 1) * h
            ys[s + 1] = y
    return ts, np.moveaxis(ys, 1, -1), 0, nsteps


def _within_scalar(y, guard) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag)
               and abs(v.real) + abs(v.imag) <= guard for v in y)


def _within_rows(y, guard) -> bool:
    return all(np.all(np.isfinite(v) & (np.abs(v.real) + np.abs(v.imag) <= guard))
               for v in y)
