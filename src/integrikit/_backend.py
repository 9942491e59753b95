"""One evaluator for compiled expression tapes.

A tape (:class:`integrikit.expr.Tape`) is plain data.  Registers start as the
variables followed by the constants; each op appends one result and then drops
the slots no later op reads.  :func:`_run` runs a tape with one op table: on
complex scalars with :data:`SCALAR_OPS`, on complex128 arrays with
:data:`ARRAY_OPS`, on float64 arrays with :data:`REAL_ARRAY_OPS` and on
truncated Taylor series with :data:`SERIES_OPS` (:func:`taylor`, the Lie
series).  :func:`eval_grid` is the one array loop: it runs a tape on variable
columns that broadcast to one shape (rows of points, the axes of a grid,
quadrature nodes beside per-interval values), about :data:`BLOCK` points at a
time, so that live temporaries stay small.  A block of float64 columns runs on
float64, and the outputs whose float ops refuse (:class:`_LeavesReals`) or
read a non-real constant rerun on complex128, bit for bit as a complex block
would give them.  RK4 has one routine per system (:func:`_trace_fn`), with the
stages inlined and the guard applied.  Its straight-line source is generated
and compiled once per shape of the system tape (:func:`_build`), and each
system binds its constants and guard to that code.  :func:`rk4` is its one
entry: it runs a list of traces, on Python floats with :data:`FLOAT_OPS` or on
complex scalars with :data:`SCALAR_OPS`, and stops at the first that fails.
Each trace stores every state, or only its endpoint, which is all that most
callers read; the two are separate routines, so an endpoint trace pays nothing
per step for storing.  A float trace that succeeds is the real part of the
complex one bit for bit, so the caller runs floats first and reruns a trace
that fails there on complex.

Domain failures never raise from the complex tables: division by 0, ln 0
and 0 raised to a negative or complex power give NaN, as do cmath
overflow and domain errors in :func:`_run`, and the array ops that could
map a non-finite argument to a finite value give NaN there instead.
Callers turn NaN into precise errors; :func:`rk4` fails a step that
raises like one that leaves the domain or the guard.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache, reduce

import numpy as np

#: Points per block of :func:`eval_grid`: whole rows along the first axis,
#: at least one, that hold about this many points.
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


def _nan_unless_finite(fn):
    """`fn`, NaN wherever its argument is not finite."""
    return lambda z: _nan_where(fn(z), ~np.isfinite(z))


# An overflow must reach the output as a non-finite value, as it stops the
# tree walk: so every op that could map a non-finite argument to a finite
# value (1/inf, inf^0, atan, tanh, exp(-inf), im, and re and tan of an
# infinite imaginary part) gives NaN there.
ARRAY_OPS = {
    "neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": lambda a, b: _nan_where(np.divide(a, b), (b == 0) | ~np.isfinite(b)),
    # np.power, not `**`: ndarray.__pow__ takes fast paths for some exponents
    "^": lambda a, b: _nan_where(np.power(a, b),
                                 (a == 0) & ((b.real < 0) | (b.imag != 0))
                                 | ~np.isfinite(a) | ~np.isfinite(b)),
    "sin": np.sin, "cos": np.cos, "tan": _nan_unless_finite(np.tan),
    "atan": _nan_unless_finite(np.arctan),
    "exp": _nan_unless_finite(np.exp), "ln": lambda z: _nan_where(np.log(z), z == 0),
    "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh, "tanh": _nan_unless_finite(np.tanh),
    "abs": lambda z: np.abs(z).astype(np.complex128),
    "re": _nan_unless_finite(lambda z: z.real.astype(np.complex128)),
    "im": _nan_unless_finite(lambda z: z.imag.astype(np.complex128)),
    "conj": np.conj,
}


class _LeavesReals(Exception):
    """A :data:`REAL_ARRAY_OPS` op met an argument on which its float
    result could differ from the real part of :data:`ARRAY_OPS`'s.
    :func:`_run` leaves None for it, and the outputs that read it rerun
    on complex."""


def _finite_only(fn):
    def f(x):
        if not np.isfinite(x).all():
            raise _LeavesReals
        return fn(x)
    return f


# The refusal checks take one mask and one reduction per op where they
# can, by ndarray methods: on point sets of a few dozen, as a
# characteristic solve evaluates, each numpy call costs more in fixed
# overhead than in arithmetic.

def _r_div(a, b):
    if not (np.isfinite(b) & (b != 0.0)).all():
        raise _LeavesReals
    return np.divide(a, b)


def _powi(p, m: int):
    """p to the whole power m >= 1 by binary powering: the products, in
    order, of CPython's complex `**` and numpy's complex power."""
    r = None
    while True:
        if m & 1:
            r = p if r is None else r * p
        m >>= 1
        if not m:
            return r
        p = p * p


def _r_pow(a, b):
    if np.ndim(b) == 0 and math.isfinite(b) and b == math.floor(b) and abs(b) < 100:
        # a constant whole exponent below 100: numpy's complex power
        # multiplies, by binary powering, and so does this
        if not np.isfinite(a).all():
            raise _LeavesReals
        if b == 0:
            return np.ones_like(a)
        if b > 0:
            return _powi(a, int(b))
        if (a == 0.0).any():
            raise _LeavesReals
        r = _powi(a, int(-b))
        if not np.isfinite(r).all():   # 1/inf would hide the overflow
            raise _LeavesReals
        return np.divide(1.0, r)
    # exp(b ln a) on complex: real for a positive base, or a whole exponent
    # below 100 (where numpy multiplies) on a negative one
    whole = (b == np.floor(b)) & (np.abs(b) < 100)
    if not (np.isfinite(a) & np.isfinite(b)
            & ((a > 0.0) | (a < 0.0) & whole | (a == 0.0) & (b >= 0.0))).all():
        raise _LeavesReals
    return np.power(a, b)


def _r_ln(x):
    if (x <= 0.0).any():
        raise _LeavesReals
    return np.log(x)


def _r_sqrt(x):
    if (x < 0.0).any():
        raise _LeavesReals
    return np.sqrt(x)


#: ARRAY_OPS for real operands on float64: each result is the real part of
#: the complex op's to rounding, and non-finite exactly where that one is.
#: An op whose result would leave the reals or be NaN there instead (a
#: domain failure, or a non-finite argument to an op that could absorb it)
#: raises :class:`_LeavesReals`.
REAL_ARRAY_OPS = {
    "neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": _r_div, "^": _r_pow,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "atan": _finite_only(np.arctan),
    "exp": _finite_only(np.exp), "ln": _r_ln, "sqrt": _r_sqrt,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": _finite_only(np.tanh),
    "abs": np.abs, "re": lambda x: x, "im": _finite_only(np.zeros_like),
    "conj": lambda x: x,
}


def _run(ops, table, regs: list) -> list:
    """Execute a tape over `regs` (variables, then constants) in place.
    An op that refuses (:class:`_LeavesReals`), or that reads the result
    of one that did, leaves None in its slot; the others run on."""
    for op, a, b, dead in ops:
        x = regs[a]
        y = regs[b] if b >= 0 else x
        if x is None or y is None:
            regs.append(None)
        else:
            f = table[op]
            try:
                regs.append(f(x) if b < 0 else f(x, y))
            except (OverflowError, ValueError, ZeroDivisionError):
                regs.append(_NAN)
            except _LeavesReals:
                regs.append(None)
        for d in dead:
            regs[d] = None
    return regs


def _outputs(ops, consts, cols, outs, real) -> list:
    """Slots `outs` of the tape on one block of variable columns.  With
    `real` (float64 columns) the block runs on :data:`REAL_ARRAY_OPS`
    first, a non-real constant refusing like an op, and only the outputs
    whose float ops refused rerun on :data:`ARRAY_OPS`, bit for bit as a
    complex block would give them."""
    with np.errstate(all="ignore"):
        values = [None] * len(outs)
        if real:
            regs = _run(ops, REAL_ARRAY_OPS,
                        list(cols) + [None if c.imag else c.real for c in consts])
            values = [regs[o] for o in outs]
        if any(v is None for v in values):
            regs = _run(ops, ARRAY_OPS, [c.astype(np.complex128, copy=False) for c in cols]
                        + list(consts))
            values = [regs[o] if v is None else v for v, o in zip(values, outs)]
    return values


def eval_grid(ops, consts, cols, shape, outs, skip=None):
    """Slots `outs` of the tape at every point of `shape`, variable j taking
    the column ``cols[j]``: arrays of ``len(shape)`` dimensions that
    broadcast to `shape`, so an op on columns that are constant along some
    axes runs on the points of the others only.  Runs in blocks of whole
    rows along the first axis that hold about :data:`BLOCK` points, and
    yields ``(lo, hi, values)`` for rows lo..hi, each value shaped to
    broadcast to the block (a scalar for a constant).  Float64 columns run
    on float64 first (see :func:`_outputs`); any complex column makes every
    block complex.

    A block that holds some of the points where the optional boolean array
    `skip` (of `shape`) is set runs on its other points instead, so that a
    skipped point takes no part in the choice between float64 and
    complex128; its values are NaN at the skipped points."""
    step = max(1, BLOCK // math.prod(shape[1:]))
    real = all(c.dtype == np.float64 for c in cols)
    for lo in range(0, shape[0], step):
        hi = min(lo + step, shape[0])
        block = [c[lo:hi] if len(c) > 1 else c for c in cols]
        gone = None if skip is None else skip[lo:hi]
        if gone is None or not gone.any():
            yield lo, hi, _outputs(ops, consts, block, outs, real)
            continue
        kept = ~gone
        values = []
        for v in _outputs(ops, consts, [np.broadcast_to(c, gone.shape)[kept] for c in block],
                          outs, real):
            full = np.full(gone.shape, np.nan, dtype=np.asarray(v).dtype)
            full[kept] = v
            values.append(full)
        yield lo, hi, values


def _mul(u, w):
    return np.convolve(u, w)[:len(u)]


def _quot(u, w):
    q = np.empty_like(u)
    for k in range(len(u)):
        q[k] = (u[k] - np.dot(q[:k], w[k:0:-1])) / w[0]
    return q


def _int_quot(u, d, c0):
    """c0 plus the integral of u'/d: ln u for d = u, atan u for d = 1 + u^2."""
    q = _quot(u[1:] * np.arange(1, len(u)), d[:-1])
    return np.concatenate(([c0], q / np.arange(1, len(u))))


def _linear(u, y0, A=((1,),)):
    """Rows y with y_0 = y0 and y' = A y u' (Jorba and Zou 2005): exp, the trig pairs."""
    y, du = np.zeros((len(y0), len(u)), u.dtype), u[1:] * np.arange(1, len(u))
    y[:, 0] = y0
    for k in range(1, len(u)):
        y[:, k] = np.dot(A, y[:, k - 1::-1] @ du[:k]) / k
    return y


def _pair(f, g, h, sign):
    """The ops f, g and h = f/g of the pair f' = g u', g' = sign f u'."""
    y = lambda u: _linear(u, [SCALAR_OPS[f](u[0]), SCALAR_OPS[g](u[0])], [[0, 1], [sign, 0]])
    return {f: lambda u: y(u)[0], g: lambda u: y(u)[1], h: lambda u: _quot(*y(u))}


def _s_pow(u, w):
    """u^w: repeated products for a constant whole w in 0..99, else exp(w ln u)."""
    if w[1:].any() or w[0] not in range(100):
        e0 = _pow(complex(u[0]), complex(w[0]))
        return _linear(_mul(w, _int_quot(u, u, _ln(u[0]))), [e0])[0]
    return reduce(_mul, [u] * int(w[0].real), np.eye(1, len(u), dtype=u.dtype)[0])


def _series(op, fn):
    """`fn` on series; on constant series (no coefficient above 0), SCALAR_OPS[op]
    of their values as a constant series; NaN where either fails."""
    def f(*args):
        try:
            if not any(a[1:].any() for a in args):
                value = SCALAR_OPS[op](*(complex(a[0]) for a in args))
                return np.pad([value], (0, len(args[0]) - 1))
            if fn:
                return fn(*args)
        except (OverflowError, ValueError, ZeroDivisionError):
            return np.full_like(args[0], _NAN)
        from .expr import NonDifferentiableError   # expr imports this module
        raise NonDifferentiableError(f"'{op}' has no derivative rule")
    return f


#: SCALAR_OPS on truncated Taylor series, complex arrays of the coefficients u_0..u_{m-1}
#: (Griewank and Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13).
SERIES_OPS = {op: _series(op, fn) for op, fn in {
    "neg": np.negative, "+": np.add, "-": np.subtract, "*": _mul, "/": _quot, "^": _s_pow,
    "exp": lambda u: _linear(u, [cmath.exp(u[0])])[0],
    "ln": lambda u: _int_quot(u, u, _ln(u[0])),
    "atan": lambda u: _int_quot(u, _mul(u, u) + (np.arange(len(u)) == 0), cmath.atan(u[0])),
    "sqrt": lambda u: _linear(0.5 * _int_quot(u, u, 0), [cmath.sqrt(u[0])])[0],
    **_pair("sin", "cos", "tan", -1), **_pair("sinh", "cosh", "tanh", 1),
    "abs": None, "re": None, "im": None, "conj": None}.items()}


def taylor(ops, consts, outs, x0, order):
    """Rows x_0..x_order of the Taylor coefficients of x' = f(x), x(0) = x0, f the tape slots
    `outs` over (state..., time): pass l sets x_{l+1} = f_l / (l + 1) from series cut at l."""
    xs = np.zeros((len(x0) + 1 + len(consts), order + 1), dtype=np.complex128)
    xs[:, 0] = [*x0, 0, *consts]                 # the time slot is never read
    with np.errstate(all="ignore"):
        for m in range(1, order + 1):
            regs = _run(ops, SERIES_OPS, list(xs[:, :m]))
            xs[:len(outs), m] = [regs[o][m - 1] / m for o in outs]
    return xs[:len(outs)]


# The float table.  An overflow inside a step gives an infinity on floats
# but may give NaN on complex, where inf * (x + 0j) has a NaN imaginary
# part that later products carry into the real one.  NaN and infinities on
# floats reach the state, and the guard, except through an op that maps
# them to a finite value: division into them, tanh, atan, exp of -inf, im
# and powers.  Those refuse a non-finite argument (`x - x` is NaN, and
# true, exactly then), so a float trace never succeeds where the complex
# trace fails.

#: Above this argument cmath's exp, sinh and cosh switch to a scaled
#: formula (its CM_LOG_LARGE_DOUBLE is 708.39...) that rounds differently
#: from math's, so the float table leaves such arguments to the complex trace.
_EXP_SAFE = 708.0


def _f_div(a, b):
    if b - b:
        raise OverflowError
    return a / b                  # b == 0 raises ZeroDivisionError


def _f_pow(a, b):
    if a - a or b - b:
        raise OverflowError
    if -100.0 <= b <= 100.0 and b == math.floor(b):
        # binary powering, then 1/r for b < 0: CPython's complex `**` (c_powi)
        r = _powi(a, int(abs(b))) if b else 1.0
        if r - r:                 # complex `**` raises on an infinite result
            raise OverflowError
        return 1.0 / r if b < 0 else r
    if a > 0.0:
        return math.pow(a, b)     # cmath's |a|^b cos(0) for a > 0
    raise ValueError("left to the complex trace")


def _f_exp(x):
    if not -math.inf < x <= _EXP_SAFE:
        raise OverflowError
    return math.exp(x)


def _f_large(fn):
    def f(x):
        if not -_EXP_SAFE <= x <= _EXP_SAFE:
            raise OverflowError
        return fn(x)
    return f


def _f_finite(fn):
    def f(x):
        if x - x:
            raise OverflowError
        return fn(x)
    return f


def _f_ln(x):
    if x > 0.0:
        return cmath.log(x).real
    raise ValueError("left to the complex trace")


#: SCALAR_OPS for real operands on Python floats, with the same bits as the
#: real part of SCALAR_OPS on complex operands of zero imaginary part.  A
#: result that would not be real or might differ raises instead, and the
#: caller reruns on complex.
FLOAT_OPS = {
    "neg": operator.neg, "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": _f_div, "^": _f_pow,
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "atan": _f_finite(lambda x: cmath.atan(x).real),
    "exp": _f_exp, "ln": _f_ln, "sqrt": math.sqrt,
    "sinh": _f_large(math.sinh), "cosh": _f_large(math.cosh),
    "tanh": _f_finite(math.tanh),
    "abs": abs, "re": float, "im": _f_finite(lambda x: 0.0), "conj": float,
}


def rk4(ops, consts, outs, starts, guard, legs, first, store, real, every=True):
    """Classical RK4 traces of the system whose derivatives are the tape
    slots `outs`, over variables (state..., time), in its cached generated
    routine (:func:`_trace_fn`): on Python floats when `real`, which takes
    the constants' real parts, and on complex otherwise.  Trace k runs from
    ``starts[k // len(legs)]`` over leg ``legs[k % len(legs)]`` = (t0, h,
    hlast, nsteps): `nsteps` steps of h from t0, the last of length hlast
    (h < 0 steps backward).  Runs traces `first`, `first` + 1, ..., handing
    `store` each start and each state reached, or with `every` false only
    the last state of each trace that succeeds, and returns ``(-1, 0)``, or
    ``(k, reached)`` for the first trace k whose step `reached` + 1 fails.
    """
    return _trace_fn(ops, consts, outs, len(starts[0]), guard, real, every)(
        starts, legs, first, store)


def _tuple(items) -> str:
    """Source of a tuple, or a parameter list, of `items`."""
    items = list(items)
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _powers(dst: str, x: str, m: int) -> list:
    """Lines that set `dst` to `x` to the power m >= 1 by binary powering:
    the products, in order, of :func:`_f_pow` and of CPython's complex `**`."""
    lines, r, p, k = [], None, x, 0
    while True:
        if m & 1:
            if r is None:
                r = p
            else:
                lines.append(f"{dst} = {r} * {p}")
                r = dst
        m >>= 1
        if not m:
            break
        k += 1
        lines.append(f"{dst}_{k} = {p} * {p}")
        p = f"{dst}_{k}"
    return lines if r == dst else lines + [f"{dst} = {r}"]


# Two caches.  `_trace_fn` keeps the routine of each system, as Newton's
# traces and Burgers' `pde-solve` (it traces (z, 1, 0) every time) ask for
# one again; a miss only binds the system to the code of its shape.
# `_build` keeps that code, which many systems share: the benchmark's first
# 300 `cauchy_fan` requests at seed 7 asked for 450 routines of 8 shapes.
@lru_cache(maxsize=32)
def _trace_fn(ops, consts, outs, n, guard, real, every):
    """The routine :func:`rk4` runs, ``trace(starts, legs, first, store)``:
    the code of the system's shape (:func:`_build`) bound to the table
    functions, the constants and `guard` of this system."""
    # float `^` by a constant whole exponent in 1..100 inlines f_pow's
    # products: a call per stage made x^2 systems slower than on complex
    whole = {n + 1 + k: int(c.real) for k, c in enumerate(consts)
             if real and c.real == math.floor(c.real) and 1 <= c.real <= 100}
    power = tuple(sorted({(b, whole[b]) for op, _, b, _ in ops if op == "^" and b in whole}))
    fns, factory = _build(tuple(op[:3] for op in ops), outs, n, len(consts), real, every,
                          power)
    table = FLOAT_OPS if real else SCALAR_OPS
    convert = (lambda c: float(c.real)) if real else complex
    return factory(*(table[op] for op in fns), *(convert(c) for c in consts), float(guard),
                   (OverflowError, ValueError, ZeroDivisionError))


@lru_cache(maxsize=64)
def _build(rows, outs, n, nconsts, real, every, power):
    """The names of the table functions a routine of this shape calls, and
    the factory that makes the routine from them, the constants, `guard`
    and the exceptions that fail a step.  The shape is everything the
    source reads: the tape's ``(op, a, b)`` rows, `outs`, n state
    variables, `nconsts` constants, `real`, `every`, and `power`, the pairs
    (slot, m) of the constant whole exponents a float routine inlines.

    The routine is generated as straight-line source: the step loop has
    the four stages inlined, one local assignment per op.  A step fails
    when it raises, or unless every component has ``abs(re) + abs(im) <=
    guard``, which with a finite guard also rejects NaN and infinities.
    The loop body is written once: an outer loop runs it over the full
    steps and then over the shortened last one, so no step tests whether it
    is the last.

    With `real`, the same source runs on Python floats with
    :data:`FLOAT_OPS` and stores each state as n floats; otherwise on
    complex with :data:`SCALAR_OPS`, time passed as ``complex(t)``, and
    each state stored as n (re, im) pairs.  With `every`, a trace stores its
    start and then each state it reaches; without, it stores its last state
    once, after its last step, and a trace that fails stores nothing.  The
    factory binds the table functions, the constants and `guard` as values,
    so no user text or constant reaches the source and no cycle forms.
    """
    fns = sorted({op for op, _, _ in rows} - {"neg", "+", "-", "*"})
    fname = {op: "f_" + {"/": "div", "^": "pow"}.get(op, op) for op in fns}
    cname = [f"c{k}" for k in range(nconsts)]
    read = set(outs) | {a for _, a, _ in rows} | {b for _, _, b in rows}
    ys = [f"y{j}" for j in range(n)]
    as_time = (lambda e: e) if real else (lambda e: f"complex({e})")
    power = dict(power)

    body = []
    if n in read:
        body += ["t = t0 + s * h", f"ta = {as_time('t')}", f"tb = {as_time('t + hh')}",
                 f"tc = {as_time('t + hs')}"]
    stages = (("k1", None, None, "ta"), ("k2", "hh", "k1", "tb"),
              ("k3", "hh", "k2", "tb"), ("k4", "hs", "k3", "tc"))
    for k, step, prev, time in stages:
        state = ys if prev is None else [f"z{j}" for j in range(n)]
        if prev is not None:
            body += [f"z{j} = y{j} + {step} * {prev}_{j}" for j in range(n) if j in read]
        slot = state + [time] + cname + [f"v{n + 1 + nconsts + i}" for i in range(len(rows))]
        for i, (op, a, b) in enumerate(rows):
            if op == "neg":
                value = f"-{slot[a]}"
            elif op in ("+", "-", "*"):
                value = f"{slot[a]} {op} {slot[b]}"
            elif op == "^" and real and b in power:
                body += _powers(slot[n + 1 + nconsts + i], slot[a], power[b])
                continue
            else:
                args = slot[a] if b < 0 else f"{slot[a]}, {slot[b]}"
                value = f"{fname[op]}({args})"
            body.append(f"{slot[n + 1 + nconsts + i]} = {value}")
        body += [f"{k}_{j} = {slot[o]}" for j, o in enumerate(outs)]
    body += [f"y{j} = y{j} + h6 * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})"
             for j in range(n)]
    if real:
        bounded = " and ".join(f"-guard <= y{j} <= guard" for j in range(n))
        stored = _tuple(ys)
    else:
        bounded = " and ".join(f"abs(y{j}.real) + abs(y{j}.imag) <= guard" for j in range(n))
        stored = _tuple(f"y{j}.{part}" for j in range(n) for part in ("real", "imag"))
    body += [f"if not ({bounded}):", "    return k, s"]
    if every:
        body.append(f"store({stored})")

    # the step ranges (lo, hi, step length): nsteps - 1 full steps, then the
    # last; max() keeps a zero-step leg from running a step at s = -1
    lines = [f"def _factory{_tuple([fname[op] for op in fns] + cname + ['guard', 'errors'])}:",
             "    def trace(starts, legs, first, store):",
             "        nlegs = len(legs)",
             "        for k in range(first, len(starts) * nlegs):",
             f"            {', '.join(ys)}, = starts[k // nlegs]",
             "            t0, h, hlast, nsteps = legs[k % nlegs]",
             *([f"            store({stored})"] if every else []),
             "            full = max(nsteps - 1, 0)",
             "            s = 0",
             "            try:",
             "                for lo, hi, hs in ((0, full, h), (full, nsteps, hlast)):",
             "                    hh, h6 = 0.5 * hs, hs / 6.0",
             "                    for s in range(lo, hi):"]
    lines += ["                        " + line for line in body]
    lines += ["            except errors:",
              "                return k, s",
              *([] if every else [f"            store({stored})"]),
              "        return -1, 0",
              "    return trace"]
    scope: dict = {}
    exec(compile("\n".join(lines), "<rk4 trace>", "exec"), scope)
    return fns, scope.pop("_factory")
