"""ODE systems: fixed-step RK4 integration, first-integral verification,
constant-coefficient linear systems through eigenstructure and matrix
exponentials, and matrix-calculus identity checks.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _backend
from .expr import (EvalError, Expr, NumericError, as_expr, compile_system, diff,
                   eval_columns, eval_many)
from .realfield import CheckReport, Region, _grid_rows

__all__ = [
    "AutonomousSystem", "Trajectory", "IntegrationError", "EigenPair",
    "DependenceReport", "LinearSolveResult", "ModeFit", "RK4Traces",
    "integrate_rk4", "first_integral_drift", "dependent_integral_check",
    "char_poly", "eigen_solve", "matrix_exp", "linear_solve",
    "commutator_flow", "matrix_identity_check",
]


class IntegrationError(RuntimeError, NumericError):
    def __init__(self, message: str, t_last: float):
        super().__init__(f"{message} (last good t = {t_last!r})")
        self.t_last = t_last


class DegenerateSamplesError(ValueError):
    pass


def _check_increasing(ts):
    if len(ts) > 1 and not np.all(np.diff(ts) > 0):
        raise ValueError("time stamps must be strictly increasing")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states, (len(ts), n), from RK4."""
    ts: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or len(ts) != len(states):
            raise ValueError("states must be (len(ts), n)")
        _check_increasing(ts)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "states", states)

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]

    @property
    def n(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class AutonomousSystem:
    """dx_i/dt = f_i(x_1..x_n[, t]); time_var marks non-autonomous forms."""
    names: tuple
    components: tuple
    time_var: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "components", tuple(as_expr(c) for c in self.components))
        if len(self.names) != len(self.components):
            raise ValueError("component/variable counts must match")
        if self.time_var in self.names:
            raise ValueError("time variable clashes with a state variable")
        allowed = set(self.names) | ({self.time_var} if self.time_var else set())
        for c in self.components:
            extra = c.variables() - allowed
            if extra:
                raise ValueError(f"component '{c}' references undeclared {sorted(extra)}")

    @property
    def n(self) -> int:
        return len(self.names)


#: Bound on |re| + |im| of every RK4 state component: a step past it blows up.
GUARD = 1e12
#: Most steps one RK4 trace may take; the traces store their states in a growing buffer.
MAX_STEPS = 10 ** 6


def _forward(t_span, h, empty):
    """(t0, t1) of t_span, which must increase, or not decrease when
    `empty`, for a positive step h."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (t1 >= t0 if empty else t1 > t0):
        raise ValueError("t_span must be nondegenerate and increasing")
    if h <= 0:
        raise ValueError("step must be positive")
    return t0, t1


def _leg(t0, t1, h):
    """The leg ``(t0, h, hlast, nsteps)`` of an RK4 trace from t0 to t1 by
    steps of h, the last one shortened to land on t1 (no step when t0 ==
    t1), and the times of its states."""
    for name, v in (("start time", t0), ("end time", t1), ("step", h)):
        if not math.isfinite(v):
            raise ValueError(f"RK4 {name} must be finite, got {v!r}")
    t0, t1, h = float(t0), float(t1), float(h)
    span = t1 - t0
    steps = span / h - 1e-9 if span else 0.0
    if steps > MAX_STEPS:
        raise ValueError(f"RK4 would take {steps:.6g} steps, more than MAX_STEPS = {MAX_STEPS}")
    nsteps = max(1, math.ceil(steps)) if span else 0
    ts = t0 + np.arange(nsteps + 1) * h
    ts[0], ts[-1] = t0, t1
    return (t0, h, span - (nsteps - 1) * h, nsteps), ts


class RK4Traces:
    """RK4 traces of one system.  Its tape is compiled once, when this is
    built, and `_backend` caches the routines generated from it; each trace
    then passes only its start and its span.  A call (one trace),
    :meth:`endpoint` (its last state alone) and :meth:`fan` (many) are the
    checked entries to :func:`_backend.rk4`, and all run one loop: every
    trace it can on floats, in one routine call, and a trace that fails
    there or starts off the reals once on complex."""

    def __init__(self, sys: AutonomousSystem):
        tape = compile_system(sys.components, sys.names, sys.time_var)
        self.n = sys.n
        self._tape = (tape.ops, tape.consts, tape.outs)

    def __call__(self, x0, t0: float, t1: float, h: float):
        """RK4 of one state x0 (n,) from t0 to t1 in steps of h (h < 0 runs
        backward; t0 == t1 takes no step); returns ts and the real
        (len(ts), n) states.  Raises ValueError when that takes more than
        MAX_STEPS steps, and IntegrationError on a blow-up past GUARD, a
        domain failure or a non-negligible imaginary part."""
        return self._traces([self._start(x0)], ((t0, t1, h),))

    def endpoint(self, x0, t0: float, t1: float, h: float):
        """The call's ts and its last state (n,), bit for bit, with the same
        checks and errors; a trace that runs on floats stores no other state."""
        ts, states = self._traces([self._start(x0)], ((t0, t1, h),), every=False)
        return ts, states[0]

    def _start(self, x0) -> list:
        """x0 as n finite Python complex numbers."""
        x0c = np.asarray(x0, dtype=np.complex128)
        if x0c.shape != (self.n,):
            raise ValueError(f"x0 must have {self.n} components")
        y = x0c.tolist()
        if not all(map(cmath.isfinite, y)):
            raise ValueError(f"x0 must be finite, got {[v.real for v in y]}")
        return y

    def trajectory(self, x0, t_span, h: float, empty: bool = False) -> Trajectory:
        """The trace from x0 over t_span = (t0, t1), t1 > t0, or t1 >= t0
        when `empty`, by a positive step h.  Time stamps that do not
        strictly increase (h below the spacing of floats near t0) raise
        ValueError before any step runs."""
        span = (*_forward(t_span, h, empty), h)
        return Trajectory(*self._traces([self._start(x0)], (span,), increasing=True))

    def trajectory_end(self, x0, t_span, h: float, empty: bool = False):
        """The time stamps and the endpoint of :meth:`trajectory`, checked
        alike, as :meth:`endpoint` gives them."""
        span = (*_forward(t_span, h, empty), h)
        ts, states = self._traces([self._start(x0)], (span,), every=False, increasing=True)
        return ts, states[0]

    def fan(self, starts, t_end: float, h: float):
        """Each row of `starts` (real, (m, n)) traced from time 0 to t_end
        by steps of h and from 0 to -t_end by steps of -h, row by row:
        returns ts, the times of one row's states (forward, then backward),
        and the (m * len(ts), n) states.  A failing trace raises as it
        would for that start alone."""
        starts = np.asarray(starts, dtype=np.float64)
        if starts.ndim != 2 or starts.shape[1] != self.n:
            raise ValueError(f"x0 must have {self.n} components")
        finite = np.isfinite(starts).all(axis=1)
        if not finite.all():
            raise ValueError(f"x0 must be finite, got {starts[np.argmin(finite)].tolist()}")
        t_end, h = float(t_end), float(h)
        return self._traces(starts.tolist(), ((0.0, t_end, h), (0.0, -t_end, -h)))

    def _traces(self, starts, spans, every=True, increasing=False):
        """The trace of each of `starts` (rows of n finite Python numbers)
        over each of `spans`, (t0, t1, h) as a call takes them, row by row:
        returns the times of one row's traces, span after span, and the real
        (len(starts) * len(ts), n) states, or without `every` the last state
        of each trace, (len(starts) * len(spans), n).  With `increasing`,
        times of a span that do not strictly increase raise ValueError
        before any trace runs.  Runs the traces on floats in one routine
        call when the system and the starts are real, resuming after each
        one that fails there; that trace, or every trace of non-real starts,
        runs once on complex, which stores every state for the test of their
        imaginary parts and raises IntegrationError for it."""
        legs, times = zip(*(_leg(t0, t1, h) for t0, t1, h in spans))
        if increasing:
            for ts in times:
                _check_increasing(ts)
        ops, consts, outs = self._tape
        real = not any(c.imag for c in consts) and not any(v.imag for y in starts for v in y)
        rows = [[v.real for v in y] for y in starts]
        buf, k = array("d"), 0
        while k < len(starts) * len(legs):
            if real:
                k, reached = _backend.rk4(ops, consts, outs, rows, GUARD, legs, k,
                                          buf.extend, True, every=every)
                if k < 0:
                    break
                if every:
                    del buf[len(buf) - (reached + 1) * self.n:]
            row, leg = divmod(k, len(legs))
            start, pairs = [complex(v) for v in starts[row]], array("d")
            failed, reached = _backend.rk4(ops, consts, outs, [start], GUARD, [legs[leg]], 0,
                                           pairs.extend, False)
            if failed >= 0:
                raise IntegrationError("state blew up or left the evaluation domain",
                                       float(times[leg][reached]))
            ys = np.frombuffer(pairs, dtype=np.complex128)
            if np.max(np.abs(ys.imag)) > 1e-9 * (np.max(np.abs(ys.real)) + 1.0):
                raise IntegrationError("trajectory acquired a non-negligible imaginary part",
                                       float(times[leg][-1]))
            buf.frombytes((ys if every else ys[-self.n:]).real.tobytes())
            k += 1
        return np.concatenate(times), np.frombuffer(buf).reshape(-1, self.n)


def integrate_rk4(sys: AutonomousSystem, x0, t_span, h: float) -> Trajectory:
    """Classical fixed-step RK4; the final step is shortened to land on t_end."""
    return RK4Traces(sys).trajectory(x0, t_span, h)


def drift_along(phi: Expr, sys: AutonomousSystem, traj: Trajectory):
    """Max |phi(x(t), t) - phi(x(0), t0)| along a trajectory."""
    phi = as_expr(phi)
    names = sys.names + (sys.time_var or "t",)
    pts = np.column_stack([traj.states, traj.ts])
    vals = eval_many(phi, names, pts)
    ref = vals[0]
    dev = np.abs(vals - ref)
    k = int(np.argmax(dev))
    worst = tuple(float(v) for v in pts[k].real)
    return float(dev[k]), worst, complex(ref)


def first_integral_drift(phi, sys: AutonomousSystem, x0, T: float, h: float,
                         tol: Optional[float] = None) -> CheckReport:
    """Drift of a candidate first integral along an RK4 trajectory.

    Default tolerance is 10*h^4*(1 + |phi(x0)|), the RK4 accumulation scale.
    """
    traj = integrate_rk4(sys, x0, (0.0, T), h)
    drift, worst, ref = drift_along(as_expr(phi), sys, traj)
    if tol is None:
        tol = 10.0 * h ** 4 * (1.0 + abs(ref))
    return CheckReport.from_residual(drift, tol, worst, len(traj.ts))


@dataclass(frozen=True)
class DependenceReport:
    detected: Optional[str]            # "product" | "ratio" | "linear" | None
    pair: tuple = ()
    coefficients: tuple = ()
    residual: float = float("inf")

    @property
    def is_product_or_functional(self) -> bool:
        return self.detected is not None


def dependent_integral_check(phis: Sequence, candidate, points: int = 40,
                             box=(0.6, 1.7), seed: int = 0,
                             fit_tol: float = 1e-8) -> DependenceReport:
    """Least-squares test of candidate = g(phi_1, ...) for template g in
    {product, ratio, linear combination}."""
    phis = [as_expr(p) for p in phis]
    if len(phis) < 2:
        raise ValueError("need at least two reference integrals")
    candidate = as_expr(candidate)
    if points < 30:
        raise ValueError("need at least 30 sample points")
    names = sorted(set().union(*[p.variables() for p in phis]) | candidate.variables())
    rng = np.random.default_rng(seed)
    pts = rng.uniform(box[0], box[1], size=(points, len(names)))
    *vals, cand = eval_columns((*phis, candidate), names, pts.T, (points,))
    cnorm = float(np.linalg.norm(cand))
    for k, v in enumerate(vals):
        if float(np.std(np.abs(v))) < 1e-12 * (1.0 + float(np.mean(np.abs(v)))):
            raise DegenerateSamplesError(f"integral {k} is constant on the samples")

    def fit(columns):
        A = np.column_stack(columns)
        coef, *_ = np.linalg.lstsq(A, cand, rcond=None)
        res = float(np.linalg.norm(A @ coef - cand)) / max(cnorm, 1e-30)
        return coef, res

    best = DependenceReport(None)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            coef, res = fit([vals[i] * vals[j]])
            if res <= fit_tol:
                return DependenceReport("product", (i, j), (complex(coef[0]),), res)
    for i in range(len(vals)):
        for j in range(len(vals)):
            if i == j or np.min(np.abs(vals[j])) < 1e-12:
                continue
            coef, res = fit([vals[i] / vals[j]])
            if res <= fit_tol:
                return DependenceReport("ratio", (i, j), (complex(coef[0]),), res)
    coef, res = fit(list(vals) + [np.ones(points, dtype=np.complex128)])
    if res <= fit_tol:
        return DependenceReport("linear", tuple(range(len(vals))),
                                tuple(complex(c) for c in coef), res)
    return best


# --------------------------------------------------------------------------
# Linear systems: characteristic polynomial, eigenstructure, exponentials
# --------------------------------------------------------------------------

def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return A


def char_poly(A) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns [1, c1, ..., cn] with det(k*I - A) = k^n + c1 k^{n-1} + ... + cn.
    """
    A_in = _as_matrix(A)
    real_input = not np.iscomplexobj(A_in)
    A = A_in.astype(np.complex128)
    n = A.shape[0]
    coeffs = np.empty(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    if real_input:
        return coeffs.real.copy()
    return coeffs


def _poly_eval(coeffs: np.ndarray, z: complex) -> complex:
    acc = 0j
    for c in coeffs:
        acc = acc * z + complex(c)
    return acc


def _poly_deriv(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs) - 1
    if n == 0:
        return np.zeros(1, dtype=np.complex128)
    return np.array([coeffs[k] * (n - k) for k in range(n)], dtype=np.complex128)


def _poly_error_bound(coeffs: np.ndarray, z: complex) -> float:
    n = len(coeffs) - 1
    powers = np.abs(z) ** np.arange(n, -1, -1)
    return 4.0 * (n + 1) * np.finfo(float).eps * float(np.sum(np.abs(coeffs) * powers))


def durand_kerner(coeffs, max_sweeps: int = 500, tol: float = 1e-14) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous (Weierstrass) iteration."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = len(coeffs) - 1
    if n == 0:
        return np.empty(0, dtype=np.complex128)
    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    seed = 0.4 + 0.9j
    roots = radius * seed ** np.arange(1, n + 1)
    scale = 1.0 + float(np.max(np.abs(roots)))
    for _ in range(max_sweeps):
        moved = 0.0
        for i in range(n):
            zi = roots[i]
            denom = 1.0 + 0j
            for j in range(n):
                if j != i:
                    denom *= zi - roots[j]
            if denom == 0:
                roots[i] = zi + 1e-8 * (1 + abs(zi))
                moved = np.inf
                continue
            delta = _poly_eval(coeffs, zi) / denom
            roots[i] = zi - delta
            moved = max(moved, abs(delta))
        scale = 1.0 + float(np.max(np.abs(roots)))
        if moved <= tol * scale:
            break
    residual = max(abs(_poly_eval(coeffs, z)) for z in roots)
    bound = max(_poly_error_bound(coeffs, z) for z in roots)
    if residual > max(1e-10 * scale ** n, 1e3 * bound):
        raise RuntimeError(f"root iteration did not converge (residual {residual:.3e})")
    return roots


def _resolvable_radius(coeffs: np.ndarray, z: complex, m: int) -> float:
    """Smallest root separation the polynomial can numerically resolve
    around z for a multiplicity-m cluster."""
    dk = np.asarray(coeffs, dtype=np.complex128)
    for _ in range(m):
        dk = _poly_deriv(dk)
    lead = abs(_poly_eval(dk, z)) / math.factorial(m)
    if lead == 0:
        return float("inf")
    return (_poly_error_bound(coeffs, z) / lead) ** (1.0 / m)


def _polish_root(coeffs: np.ndarray, z: complex, multiplicity: int) -> complex:
    """Newton refinement of a multiplicity-m root on p^(m-1), where it is simple."""
    q = np.asarray(coeffs, dtype=np.complex128)
    for _ in range(multiplicity - 1):
        q = _poly_deriv(q)
    dq = _poly_deriv(q)
    for _ in range(20):
        denom = _poly_eval(dq, z)
        if abs(denom) < 1e-300:
            break
        step = _poly_eval(q, z) / denom
        z = z - step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def _is_fused_root(coeffs: np.ndarray, z: complex, m: int) -> bool:
    """Whether m roots centred at z are numerically one m-fold root: the
    root of p^(m-1) that Newton reaches from z is a root of p up to the
    rounding bound of evaluating p there."""
    w = _polish_root(coeffs, z, m)
    return abs(_poly_eval(coeffs, w)) <= _poly_error_bound(coeffs, w)


def cluster_roots(roots: np.ndarray, coeffs: np.ndarray,
                  tol: float = 1e-8) -> list:
    """Group near-identical roots into (value, multiplicity) clusters.

    The merge radius mixes the absolute+relative tolerance with the
    noise-limited resolvable radius of the polynomial, so numerically
    fused multiple roots cluster even when rounding keeps them apart.
    The resolvable radius blows up wherever p^(m) happens to vanish (the
    middle of three equally spaced roots), so a merge beyond the plain
    tolerance must also pass `_is_fused_root`.  Cluster centers are
    polished by Newton on the derivative in which the root is simple.
    """
    order = np.lexsort((roots.imag, roots.real))
    clusters: list = []  # [sum, count]
    for idx in order:
        z = roots[idx]
        placed = None
        best_d = None
        for c in clusters:
            mean = c[0] / c[1]
            near = tol * (1.0 + abs(mean))
            d = abs(z - mean)
            if best_d is not None and d >= best_d:
                continue
            if d <= near or (d <= _resolvable_radius(coeffs, mean, c[1] + 1)
                             and _is_fused_root(coeffs, (c[0] + z) / (c[1] + 1), c[1] + 1)):
                placed, best_d = c, d
        if placed is None:
            clusters.append([z, 1])
        else:
            placed[0] += z
            placed[1] += 1
    return [(_polish_root(coeffs, c[0] / c[1], c[1]), c[1]) for c in clusters]


def _null_space(B: np.ndarray, rank_tol: float) -> list:
    """Null-space basis by column-pivoted Gaussian elimination."""
    B = B.astype(np.complex128).copy()
    n = B.shape[1]
    pivots = []
    row = 0
    col_order = []
    cols = list(range(n))
    for _ in range(n):
        if row >= B.shape[0] or not cols:
            break
        sub = np.abs(B[row:, cols])
        r_off, c_off = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[r_off, c_off] <= rank_tol:
            break
        col = cols[c_off]
        B[[row, row + r_off]] = B[[row + r_off, row]]
        piv = B[row, col]
        B[row] /= piv
        for r in range(B.shape[0]):
            if r != row and B[r, col] != 0:
                B[r] -= B[r, col] * B[row]
        pivots.append((row, col))
        cols.remove(col)
        col_order.append(col)
        row += 1
    free_cols = [c for c in range(n) if c not in col_order]
    basis = []
    for fc in free_cols:
        v = np.zeros(n, dtype=np.complex128)
        v[fc] = 1.0
        for r, c in pivots:
            v[c] = -B[r, fc]
        k = int(np.argmax(np.abs(v)))
        v = v / v[k]
        basis.append(v)
    return basis


@dataclass(frozen=True)
class EigenPair:
    value: complex
    multiplicity: int
    vectors: tuple          # null-space basis of (A - value*I)
    chain_depth: int        # smallest j with dim null (A - value*I)^j == multiplicity

    @property
    def eigenspace_dim(self) -> int:
        return len(self.vectors)


def eigen_solve(A, cluster_tol: float = 1e-8) -> list:
    """Eigenvalues (with multiplicities) by Durand-Kerner on the
    characteristic polynomial, plus eigenvector bases by elimination."""
    A = _as_matrix(A).astype(np.complex128)
    n = A.shape[0]
    if n > 8:
        raise ValueError("eigen_solve is desk scale: n <= 8")
    coeffs = char_poly(A).astype(np.complex128)
    roots = durand_kerner(coeffs)
    clusters = cluster_roots(roots, coeffs, cluster_tol)
    real_input = bool(np.max(np.abs(A.imag)) == 0)
    norm = float(np.max(np.abs(A))) + 1.0
    out = []
    for value, mult in clusters:
        if real_input and abs(value.imag) <= 1e-10 * (1 + abs(value)):
            value = complex(value.real, 0.0)
        B = A - value * np.eye(n)
        vectors = _null_space(B, 1e-8 * norm)
        depth = mult
        P = np.eye(n, dtype=np.complex128)
        for j in range(1, mult + 1):
            P = P @ B
            sv = np.linalg.svd(P, compute_uv=False)
            rank = int(np.sum(sv > 1e-8 * max(float(sv[0]), 1.0)))
            if n - rank >= mult:
                depth = j
                break
        out.append(EigenPair(value, mult, tuple(vectors), depth))
    out.sort(key=lambda p: (-p.value.real, -p.value.imag))
    return out


def matrix_exp(A, t: float = 1.0) -> np.ndarray:
    """exp(t*A) by scaling-and-squaring with an order-16 Taylor core."""
    A = _as_matrix(A)
    real_input = not np.iscomplexobj(A)
    B = (A.astype(np.complex128) if not real_input else A.astype(np.float64)) * t
    n = B.shape[0]
    norm1 = float(np.max(np.abs(B).sum(axis=0))) if n else 0.0
    s = 0
    if norm1 > 1.0:
        s = max(0, int(math.ceil(math.log2(norm1))))
    M = B / (2.0 ** s)
    eye = np.eye(n, dtype=M.dtype)
    E = eye.copy()
    for k in range(16, 0, -1):
        E = eye + (M @ E) / k
    for _ in range(s):
        E = E @ E
    return E


@dataclass(frozen=True)
class ModeFit:
    eigenvalue: complex
    multiplicity: int
    coefficients: tuple     # one n-vector per power of t (0 .. multiplicity-1)


@dataclass(frozen=True)
class LinearSolveResult:
    trajectory: Trajectory
    modes: tuple
    fit_residual: float


def linear_solve(A, x0, t_eval) -> LinearSolveResult:
    """x(t) = exp(t*A) x0 on the sample times, with a fitted modal report.

    The structure report expresses the trajectory in the per-eigenvalue
    basis t^p exp(k t) (p below the multiplicity) via least squares; no
    Jordan chains are computed.
    """
    A = _as_matrix(A)
    if np.iscomplexobj(A) or np.iscomplexobj(np.asarray(x0)):
        raise TypeError("linear_solve takes real systems; e^{tA} x0 is then real")
    x0 = np.asarray(x0, dtype=float).ravel()
    t_eval = np.asarray(t_eval, dtype=float)
    if len(t_eval) < 2 or not np.all(np.diff(t_eval) > 0):
        raise ValueError("t_eval must be increasing with at least two samples")
    X = np.stack([matrix_exp(A, float(t)) @ x0 for t in t_eval])
    pairs = eigen_solve(A)
    columns = []
    labels = []
    for p in pairs:
        for power in range(p.multiplicity):
            columns.append((t_eval ** power) * np.exp(p.value * t_eval))
            labels.append((p, power))
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, X, rcond=None)
    fit_residual = float(np.max(np.abs(design @ coef - X)))
    modes = []
    k = 0
    for p in pairs:
        vecs = tuple(coef[k + power] for power in range(p.multiplicity))
        modes.append(ModeFit(p.value, p.multiplicity, vecs))
        k += p.multiplicity
    traj = Trajectory(t_eval, X)
    return LinearSolveResult(traj, tuple(modes), fit_residual)


def commutator_flow(A, u0, t: float) -> np.ndarray:
    """exp(-t*A) u0 exp(t*A); solves du/dt = [u, A] with u(0) = u0."""
    A = _as_matrix(A)
    u0 = _as_matrix(u0)
    if A.shape != u0.shape:
        raise ValueError("A and u0 must have the same shape")
    return matrix_exp(A, -t) @ u0 @ matrix_exp(A, t)


# --------------------------------------------------------------------------
# Matrix-calculus identities for expression-valued matrices
# --------------------------------------------------------------------------

class SingularMatrixSampleError(RuntimeError, NumericError):
    pass


def _shown_point(p) -> tuple:
    """A sample point for a message: real parts rounded to 6 places, as
    plain floats."""
    return tuple(float(v) for v in np.round(np.real(p), 6))


def _eval_matrices(mats, names, pts, what: Optional[str] = None) -> list:
    """Each square matrix of expressions in `mats` at the rows of `pts`, as
    an (npts, n, n) complex array, by one `eval_columns` call.  With
    `what`, a SingularMatrixSampleError names the first point where the
    first matrix has condition number 1e8 or more, before a later matrix's
    domain error."""
    n = len(mats[0])
    flat = [e for m in mats for row in m for e in row]
    try:
        vals = eval_columns(flat, names, pts.T, (len(pts),))
    except EvalError:
        if what is not None and len(mats) > 1:
            _eval_matrices(mats[:1], names, pts, what)
        raise
    out = [np.stack(vals[k:k + n * n], axis=1).reshape(-1, n, n)
           for k in range(0, len(vals), n * n)]
    if what is not None:
        conds = np.linalg.cond(out[0])
        if np.max(conds) >= 1e8:
            raise SingularMatrixSampleError(
                f"{what} is near-singular at {_shown_point(pts[int(np.argmax(conds))])}")
    return out


def matrix_identity_check(entries, region: Region, tol: float = 1e-8,
                          grid=21, fd_step: float = 1e-5,
                          curve_samples: int = 33) -> CheckReport:
    """Numeric check of the flat-connection identity

        d/dx (A^-1 A_y) - d/dy (A^-1 A_x) + [A^-1 A_x, A^-1 A_y] = 0,

    of the conjugation identity A (A^-1 A_x)_y A^-1 = (A_y A^-1)_x, and of
    d/dt A^-1 = -A^-1 (dA/dt) A^-1 along a sampled ellipse in the region.
    Entrywise derivatives are symbolic; matrix products are numeric.
    """
    entries = [[as_expr(e) for e in row] for row in entries]
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError("matrix of expressions must be square")
    names = tuple(region.names)
    if len(names) != 2:
        raise ValueError("identity check is over two variables")
    x, y = names
    dx = [[diff(e, x) for e in row] for row in entries]
    dy = [[diff(e, y) for e in row] for row in entries]
    dxy = [[diff(e, y) for e in row] for row in dx]
    dyx = [[diff(e, x) for e in row] for row in dy]

    pts = _grid_rows(region, grid)
    Av, Ax, Ay, Axy, Ayx = _eval_matrices((entries, dx, dy, dxy, dyx), names, pts, "matrix")
    Ai = np.linalg.inv(Av)

    AiAx = Ai @ Ax
    AiAy = Ai @ Ay
    ddx_AiAy = -AiAx @ AiAy + Ai @ Ayx
    ddy_AiAx = -AiAy @ AiAx + Ai @ Axy
    flat = ddx_AiAy - ddy_AiAx + (AiAx @ AiAy - AiAy @ AiAx)
    res_flat = np.linalg.norm(flat, axis=(1, 2))

    lhs = Av @ ddy_AiAx @ Ai
    rhs = Ayx @ Ai - Ay @ Ai @ Ax @ Ai
    res_conj = np.linalg.norm(lhs - rhs, axis=(1, 2))

    # inverse-derivative rule along an ellipse, by central differences
    (xl, xh), (yl, yh) = region.bounds
    cx, cy = 0.5 * (xl + xh), 0.5 * (yl + yh)
    rx, ry = 0.35 * (xh - xl), 0.35 * (yh - yl)
    thetas = np.linspace(0.0, 2 * math.pi, curve_samples)
    ring = np.array([(cx + rx * math.cos(th + d), cy + ry * math.sin(th + d))
                     for th in thetas for d in (0.0, fd_step, -fd_step)])
    A, = _eval_matrices((entries,), names, ring)
    A0, Ap, Am = A[0::3], A[1::3], A[2::3]
    Ad_x, Ad_y = _eval_matrices((dx, dy), names, ring[0::3])
    Ai0 = np.linalg.inv(A0)
    fd = (np.linalg.inv(Ap) - np.linalg.inv(Am)) / (2 * fd_step)
    xdot = np.array([-rx * math.sin(th) for th in thetas])[:, None, None]
    ydot = np.array([ry * math.cos(th) for th in thetas])[:, None, None]
    Adot = Ad_x * xdot + Ad_y * ydot
    norms = np.linalg.norm(fd + Ai0 @ Adot @ Ai0, axis=(1, 2))
    res_curve = float(np.fmax.reduce(norms, initial=0.0))  # NaN samples are skipped

    details = {
        "flat_connection": float(res_flat.max()),
        "conjugation": float(res_conj.max()),
        "inverse_derivative": res_curve,
    }
    grid_worst = int(np.argmax(np.maximum(res_flat, res_conj)))
    max_res = max(details.values())
    return CheckReport.from_residual(max_res, tol,
                                     tuple(float(v) for v in pts[grid_worst].real),
                                     len(pts), details)
