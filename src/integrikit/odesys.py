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
    "NonFiniteExponentialError",
    "DependenceReport", "LinearSolveResult", "ModeFit", "RK4Traces",
    "integrate_rk4", "first_integral_drift", "dependent_integral_check",
    "eigen_solve", "matrix_exp", "matrix_exps", "linear_solve",
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
# Linear systems: eigenstructure, exponentials
# --------------------------------------------------------------------------

def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return A


@dataclass(frozen=True)
class EigenPair:
    value: complex
    multiplicity: int
    vectors: tuple          # basis of null (A - value*I), largest-modulus entry 1
    chain_depth: int        # smallest j with dim null (A - value*I)^j >= multiplicity

    @property
    def eigenspace_dim(self) -> int:
        return len(self.vectors)


#: Rank threshold of `eigen_solve`, in units of n * eps * ||A||_2: a singular
#: value at or below it counts as zero.  A smaller one misses more defective
#: eigenvalues under ill-conditioned similarities, a larger one merges more
#: distinct eigenvalues under them.
RANK_C = 256


def _linkage(lam: np.ndarray) -> np.ndarray:
    """Single-linkage distances of the values `lam`: the least, over paths
    between two values, of the longest step.  They form an ultrametric, so
    the values within less than d of each other are the clusters of the
    single-linkage tree below height d."""
    U = np.abs(lam[:, None] - lam[None, :])
    for k in range(len(lam)):
        U = np.minimum(U, np.maximum(U[:, k, None], U[None, k, :]))
    return U


def _subclusters(U: np.ndarray, group) -> list:
    """The clusters one level below `group` in the single-linkage tree of
    distances U: its parts once every longest link in it is cut."""
    top = U[np.ix_(group, group)].max()
    return sorted({tuple(j for j in group if U[i, j] < top) for i in group})


def _staircase(B: np.ndarray, m: int, tau: float, stands: bool):
    """Golub-Wilkinson staircase of B = A - mu*I for m eigenvalues at mu:
    W_1 = null(B), W_j = null((I - W_{j-1} W_{j-1}^H) B), each by SVD at
    threshold tau, so that W_j spans null(B^j).  Returns the basis W_1,
    cut to its m smallest singular directions, and the first j <= m with
    nullity m or more; None when B is nonsingular or no j reaches m.  A
    cluster that `stands` (its values are equal) is one eigenvalue
    whatever the ranks: W_1 keeps at least the smallest singular direction
    of B, and the depth is m when no step reaches nullity m."""
    n = len(B)
    W = B[:, :0]
    for depth in range(1, m + 1):
        _, s, vh = np.linalg.svd(B - W @ (W.conj().T @ B))
        rank = np.count_nonzero(s > tau)
        if stands:
            rank = min(rank, n - 1)
        if depth == 1:
            first = vh[max(rank, n - m):].conj().T
        if n - rank >= m:
            return first, depth
        if rank == n:
            return None
        W = vh[rank:].conj().T
    return (first, m) if stands else None


def eigen_solve(A) -> list:
    """Eigenvalues with multiplicities, eigenvector bases and Jordan chain
    depths of a square A, n <= 8.

    The eigenvalues LAPACK computes for A (`np.linalg.eigvals`; for a real
    A the real routine, whose complex values come in exact conjugate
    pairs) are grouped by one rank rule over their single-linkage tree,
    walked from the top: a cluster of m values becomes one eigenvalue,
    their mean mu, when the staircase of A - mu*I reaches nullity m within
    m steps at threshold RANK_C * n * eps * ||A||_2, and splits into its
    subclusters otherwise (Golub and Wilkinson 1976, SIAM Review
    18(4):578-619; Kagstrom and Ruhe 1980, ACM TOMS 6(3):398-419); a
    cluster of equal values, a single one too, always stands.  For a real
    A the tree is symmetric under conjugation and a cluster closed under
    it has a real mean, so the values come in conjugate pairs bit for
    bit."""
    A = _as_matrix(A)
    n = A.shape[0]
    if n > 8:
        raise ValueError("eigen_solve is desk scale: n <= 8")
    real = not np.iscomplexobj(A)
    lam = np.linalg.eigvals(A).astype(np.complex128)
    U = _linkage(lam)
    tau = RANK_C * n * np.finfo(float).eps * np.linalg.norm(A, 2)

    def resolve(group) -> list:
        vals = lam[list(group)]
        stands = bool(np.all(vals == vals[0]))
        closed = real and np.array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))
        mu = complex(vals[0] if stands else vals.real.mean() if closed else vals.mean())
        found = _staircase(A - mu * np.eye(n), len(group), tau, stands)
        if found is None:
            return [p for part in _subclusters(U, group) for p in resolve(part)]
        W, depth = found
        W = (W / W[np.argmax(np.abs(W), axis=0), range(W.shape[1])]).astype(np.complex128)
        return [EigenPair(mu, len(group), tuple(W.T), depth)]

    out = resolve(list(range(n))) if n else []
    out.sort(key=lambda p: (-p.value.real, -p.value.imag))
    return out


class NonFiniteExponentialError(RuntimeError, NumericError):
    pass


def matrix_exps(A, ts) -> np.ndarray:
    """exp(t*A) for every t in `ts`, as an (len(ts), n, n) stack, by
    scaling-and-squaring with an order-16 Taylor core.

    Each slice keeps its own 1-norm and squaring count s; the Taylor core
    runs once on the whole stack and squaring j squares the slices with
    s > j, so every slice is what the one-t computation gives.  A
    NonFiniteExponentialError names the first t whose t*A has no finite
    1-norm or whose exponential is not finite.
    """
    A = _as_matrix(A)
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be a sequence of times")
    n = A.shape[0]
    dtype = np.complex128 if np.iscomplexobj(A) else np.float64
    with np.errstate(all="ignore"):
        B = A.astype(dtype) * ts[:, None, None]
        norm1 = np.max(np.abs(B).sum(axis=1), axis=1, initial=0.0)
        bad_norm = ~np.isfinite(norm1)
        B[bad_norm] = norm1[bad_norm] = 0.0
        # math.log2 per slice, not np.log2: s must round as in a one-t run
        s = np.array([math.ceil(math.log2(v)) if v > 1.0 else 0
                      for v in norm1.tolist()], dtype=int)
        M = B * np.ldexp(1.0, -s)[:, None, None]
        eye = np.eye(n, dtype=M.dtype)
        E = np.broadcast_to(eye, M.shape).copy()
        for k in range(16, 0, -1):
            E = eye + (M @ E) / k
        for j in range(int(s.max(initial=0))):
            sq = s > j
            E[sq] = E[sq] @ E[sq]
        bad = bad_norm | ~np.isfinite(E).all(axis=(1, 2))
    if bad.any():
        i = int(np.argmax(bad))
        what = "t*A has no finite 1-norm" if bad_norm[i] else "exp(t*A) is not finite"
        raise NonFiniteExponentialError(f"{what} at t = {float(ts[i])!r}")
    return E


def matrix_exp(A, t: float = 1.0) -> np.ndarray:
    """exp(t*A); the one-slice case of `matrix_exps`."""
    return matrix_exps(A, [t])[0]


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
    n = A.shape[0]
    if len(x0) != n:
        raise ValueError(f"x0 has {len(x0)} component{'s' * (len(x0) != 1)} "
                         f"but A is {n}x{n}")
    with np.errstate(all="ignore"):
        X = matrix_exps(A, t_eval) @ x0
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise NonFiniteExponentialError(
            f"exp(t*A) x0 is not finite at t = {float(t_eval[np.argmax(bad)])!r}")
    pairs = eigen_solve(A)
    labels = [(p, power) for p in pairs for power in range(p.multiplicity)]
    with np.errstate(all="ignore"):
        design = np.column_stack([(t_eval ** power) * np.exp(p.value * t_eval)
                                  for p, power in labels])
    bad = ~np.isfinite(design)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        p, power = labels[k]
        raise NonFiniteExponentialError(f"modal column t^{power} exp({p.value!r} t) "
                                        f"is not finite at t = {float(t_eval[i])!r}")
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
    E_back, E_fwd = matrix_exps(A, [-t, t])
    return E_back @ u0 @ E_fwd


# --------------------------------------------------------------------------
# Matrix-calculus identities for expression-valued matrices
# --------------------------------------------------------------------------

class SingularMatrixSampleError(RuntimeError, NumericError):
    pass


def _shown_point(p) -> tuple:
    """A sample point for a message: real parts rounded to 6 places, as
    plain floats."""
    return tuple(float(v) for v in np.round(np.real(p), 6))


def _eval_matrices(mats, names, pts, what: str) -> list:
    """Each square matrix of expressions in `mats` at the rows of `pts`, as
    an (npts, n, n) complex array, by one `eval_columns` call.  A
    SingularMatrixSampleError names `what` and the first point where the
    first matrix has condition number 1e8 or more, before a later matrix's
    domain error."""
    n = len(mats[0])
    flat = [e for m in mats for row in m for e in row]
    try:
        vals = eval_columns(flat, names, pts.T, (len(pts),))
    except EvalError:
        if len(mats) > 1:
            _eval_matrices(mats[:1], names, pts, what)
        raise
    out = [np.stack(vals[k:k + n * n], axis=1).reshape(-1, n, n)
           for k in range(0, len(vals), n * n)]
    conds = np.linalg.cond(out[0])
    if np.max(conds) >= 1e8:
        raise SingularMatrixSampleError(
            f"{what} is near-singular at {_shown_point(pts[int(np.argmax(conds))])}")
    return out


def matrix_identity_check(entries, region: Region, tol: float = 1e-8,
                          grid=21) -> CheckReport:
    """Numeric check of the flat-connection identity

        d/dx (A^-1 A_y) - d/dy (A^-1 A_x) + [A^-1 A_x, A^-1 A_y] = 0

    and of the conjugation identity A (A^-1 A_x)_y A^-1 = (A_y A^-1)_x over
    the region's grid.  `max_residual` is the larger of the two largest
    residuals and `worst_point` the grid point where it occurs.  Entrywise
    derivatives are symbolic; matrix products are numeric.
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

    details = {
        "flat_connection": float(res_flat.max()),
        "conjugation": float(res_conj.max()),
    }
    worst = int(np.argmax(np.maximum(res_flat, res_conj)))
    return CheckReport.from_residual(max(details.values()), tol,
                                     tuple(float(v) for v in pts[worst].real),
                                     len(pts), details)
