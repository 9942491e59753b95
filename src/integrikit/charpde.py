"""Quasilinear first-order PDEs in two independent variables by the
method of characteristics, plus residual verification and the
normal-surface (potential) check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Expr, Var, as_expr, as_real, diff, eval_many, evaluate
from .odesys import AutonomousSystem, Trajectory, _run_rk4
from .realfield import CheckReport, Region, VectorField, exactness_check, residual_sweep

__all__ = [
    "QuasilinearPDE", "InitialCurve", "CauchySolution", "TransversalityError",
    "NotPotentialError", "characteristic_trace", "solve_cauchy",
    "pde_residual", "homogeneous_solution_check", "normal_surface_check",
]


class TransversalityError(ValueError):
    pass


class CharacteristicFanError(RuntimeError):
    pass


class NotPotentialError(RuntimeError):
    def __init__(self, report: CheckReport):
        super().__init__(f"field is not potential: curl residual {report.max_residual:.3e} "
                         f"> tol {report.tolerance:.3e}")
        self.report = report


@dataclass(frozen=True)
class QuasilinearPDE:
    """P(x,y,z) z_x + Q(x,y,z) z_y = R(x,y,z)."""
    P: Expr
    Q: Expr
    R: Expr

    def __post_init__(self):
        for attr in ("P", "Q", "R"):
            object.__setattr__(self, attr, as_expr(getattr(self, attr)))
            extra = getattr(self, attr).variables() - {"x", "y", "z"}
            if extra:
                raise ValueError(f"{attr} references {sorted(extra)}; only x, y, z allowed")

    @property
    def homogeneous_linear(self) -> bool:
        """True iff R is identically zero and P, Q are free of z."""
        from .expr import Const
        r_zero = self.R == Const(0.0)
        return r_zero and "z" not in self.P.variables() and "z" not in self.Q.variables()

    @property
    def characteristic_system(self) -> AutonomousSystem:
        return AutonomousSystem(("x", "y", "z"), (self.P, self.Q, self.R))


@dataclass(frozen=True)
class InitialCurve:
    """Cauchy data (x0(s), y0(s), z0(s)) on s in [s_start, s_end]."""
    param: str
    x0: Expr
    y0: Expr
    z0: Expr
    s_start: float
    s_end: float

    def __post_init__(self):
        for attr in ("x0", "y0", "z0"):
            object.__setattr__(self, attr, as_expr(getattr(self, attr)))
            extra = getattr(self, attr).variables() - {self.param}
            if extra:
                raise ValueError(f"{attr} references {sorted(extra)}")
        for name in ("s_start", "s_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.s_start < self.s_end:
            raise ValueError("s interval is empty")

    def points(self, s_values) -> np.ndarray:
        """The curve points (x0, y0, z0) at each s, as rows."""
        return np.column_stack([_real_values(c, (self.param,), s_values, "initial curve")
                                for c in (self.x0, self.y0, self.z0)])


def _real_values(e: Expr, names, pts, context: str) -> np.ndarray:
    """`e` at the rows of `pts` by one eval_many; each value must be real."""
    return np.array([as_real(complex(v), 1e-12, context) for v in eval_many(e, names, pts)])


def characteristic_trace(pde: QuasilinearPDE, start, t_span, h: float) -> Trajectory:
    """RK4 trace of dx/dt = P, dy/dt = Q, dz/dt = R from a start point.

    Raises IntegrationError with the last good t if the state blows up.
    A zero-length span takes no step but checks start, span and step alike.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 >= t0:
        raise ValueError("t_span must be nondegenerate and increasing")
    if h <= 0:
        raise ValueError("step must be positive")
    return Trajectory(*_run_rk4(pde.characteristic_system, start, t0, t1, h))


def _trace(system: AutonomousSystem, start, t: float, h: float):
    """``(ts, states)`` of the characteristic of `system` from `start` at
    time 0 to time t, by steps of h, or of -h when t < 0."""
    return _run_rk4(system, start, 0.0, t, h if t >= 0 else -h)


def _query(q) -> np.ndarray:
    """A query point as a float array; it must be two finite numbers."""
    q = np.asarray(q, dtype=float)
    if q.shape != (2,) or not np.all(np.isfinite(q)):
        raise ValueError(f"query must be two finite numbers (x, y), got {q.tolist()}")
    return q


@dataclass(frozen=True)
class CauchySolution:
    z_values: tuple
    params: tuple          # fitted (s, t) per query
    iterations: tuple
    residuals: tuple


def _transversality_check(pde: QuasilinearPDE, ic: InitialCurve,
                          samples: int = 33, threshold: float = 1e-8):
    ss = np.linspace(ic.s_start, ic.s_end, samples)
    pts = ic.points(ss)
    pv = _real_values(pde.P, ("x", "y", "z"), pts, "P")
    qv = _real_values(pde.Q, ("x", "y", "z"), pts, "Q")
    cross = pv * _real_values(diff(ic.y0, ic.param), (ic.param,), ss, "y0'") \
        - qv * _real_values(diff(ic.x0, ic.param), (ic.param,), ss, "x0'")
    low = np.abs(cross) < threshold
    if low.any():
        raise TransversalityError(
            f"initial curve is characteristic at s={float(ss[np.argmax(low)])!r} "
            f"(|P y0' - Q x0'| < {threshold})")


def solve_cauchy(pde: QuasilinearPDE, ic: InitialCurve, queries: Sequence,
                 h: float = 0.01, newton_tol: float = 1e-10, t_max: float = 5.0,
                 fan_rows: int = 21, max_iter: int = 30) -> CauchySolution:
    """Solve z at query points by inverting the characteristic map.

    For each query (x*, y*), two finite numbers, a Newton iteration finds
    (s, t) with x(s, t) = x*, y(s, t) = y*.  Each iteration makes one
    trace of the variational system: X = (x, y, z) and dX/ds, with
    d(dX/ds)/dt = DF(X) dX/ds for F = (P, Q, R) and DF from `diff`,
    started at the curve point and its s-derivative.  The Jacobian is
    (dx/ds, dy/ds) at the endpoint next to the flow velocity (P, Q) there.
    The initial guess is the nearest point of a coarse fan: the
    characteristics of the 3-state system from `fan_rows` curve points,
    each traced once forward to t_max and once backward to -t_max, with
    every RK4 state (s, t) a fan point.  Both systems are built once.
    """
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if not h > 0:
        raise ValueError("step must be positive")
    queries = [_query(q) for q in queries]
    _transversality_check(pde, ic)
    system = pde.characteristic_system
    variational = AutonomousSystem(system.names + ("dx", "dy", "dz"), system.components + tuple(
        sum(diff(f, v) * Var("d" + v) for v in system.names) for f in system.components))
    curve = (ic.x0, ic.y0, ic.z0)
    curve += tuple(diff(c, ic.param) for c in curve)
    s_fan = np.linspace(ic.s_start, ic.s_end, fan_rows)
    fan_st, fan_xy = [], []
    for s, start in zip(s_fan, ic.points(s_fan)):
        for t_end in (t_max, -t_max):
            ts, states = _trace(system, start, t_end, h)
            fan_st += [(s, t) for t in ts]
            fan_xy.append(states[:, :2])
    fan_st, fan_xy = np.array(fan_st), np.concatenate(fan_xy)
    span = ic.s_end - ic.s_start
    s_lo, s_hi = ic.s_start - 0.5 * span, ic.s_end + 0.5 * span

    zs, params, iters, residuals = [], [], [], []
    for q in queries:
        shown = tuple(q.tolist())
        s, t = (float(v) for v in fan_st[np.argmin(np.linalg.norm(fan_xy - q, axis=1))])
        res = float("inf")
        for used in range(1, max_iter + 1):
            start = [as_real(evaluate(c, {ic.param: s}), 1e-12, "initial curve") for c in curve]
            endpoint = _trace(variational, start, t, h)[1][-1]
            g = endpoint[:2] - q
            res = float(np.max(np.abs(g)))
            if res <= newton_tol * (1 + np.max(np.abs(q))):
                break
            b = {"x": endpoint[0], "y": endpoint[1], "z": endpoint[2]}
            dxy_dt = np.array([as_real(evaluate(pde.P, b), 1e-12, "P"),
                               as_real(evaluate(pde.Q, b), 1e-12, "Q")])
            J = np.column_stack([endpoint[3:5], dxy_dt])
            try:
                step = np.linalg.solve(J, -g)
            except np.linalg.LinAlgError:
                raise CharacteristicFanError(
                    f"singular characteristic Jacobian at query {shown}") from None
            s += float(step[0])
            t += float(step[1])
            if not (s_lo <= s <= s_hi) or abs(t) > 1.5 * t_max:
                raise CharacteristicFanError(
                    f"query {shown} left the characteristic fan "
                    f"(wandered to s={s!r}, t={t!r})")
        else:
            raise CharacteristicFanError(
                f"Newton did not converge for query {shown} "
                f"(residual {res:.3e}); point may be outside the fan")
        zs.append(float(endpoint[2]))
        params.append((s, t))
        iters.append(used)
        residuals.append(res)
    return CauchySolution(tuple(zs), tuple(params), tuple(iters), tuple(residuals))


def pde_residual(pde: QuasilinearPDE, z, region: Region, tol: float = 1e-9,
                 grid=41) -> CheckReport:
    """Max |P z_x + Q z_y - R| over the (x, y) grid for a candidate z(x, y)."""
    z = as_expr(z)
    extra = z.variables() - {"x", "y"}
    if extra:
        raise ValueError(f"candidate surface references {sorted(extra)}")
    if tuple(region.names) != ("x", "y"):
        raise ValueError("region must be over (x, y)")
    sub = {"z": z}
    residual = (pde.P.subs(sub) * diff(z, "x")
                + pde.Q.subs(sub) * diff(z, "y")
                - pde.R.subs(sub))
    pts = region.grid_points(grid)
    max_res, worst, _ = residual_sweep([residual], ("x", "y"), pts)
    return CheckReport.from_residual(max_res, tol, worst, len(pts))


def homogeneous_solution_check(pde: QuasilinearPDE, psi, G, region: Region,
                               tol: float = 1e-9, grid=41) -> CheckReport:
    """Residual of z = G(psi(x, y)) for a homogeneous-linear PDE."""
    if not pde.homogeneous_linear:
        raise ValueError("PDE is not homogeneous linear (needs R = 0, P/Q free of z)")
    psi = as_expr(psi)
    G = as_expr(G)
    g_vars = sorted(G.variables())
    if len(g_vars) > 1:
        raise ValueError(f"composer must have one free variable, found {g_vars}")
    z = G.subs({g_vars[0]: psi}) if g_vars else G
    return pde_residual(pde, z, region, tol, grid)


def normal_surface_check(V: VectorField, U, region: Region, tol: float = 1e-9,
                         grid=21) -> CheckReport:
    """Whether grad U matches the 3-D field V (V must pass the curl check)."""
    if V.n != 3:
        raise ValueError("normal-surface check needs a 3-D field")
    U = as_expr(U)
    curl_report = exactness_check(V, region, grid, tol)
    if not curl_report.passed:
        raise NotPotentialError(curl_report)
    residuals = [diff(U, name) - comp for name, comp in zip(V.names, V.components)]
    pts = region.grid_points(grid)
    max_res, worst, per = residual_sweep(residuals, V.names, pts)
    details = {f"dU/d{name}": val for name, val in zip(V.names, per)}
    return CheckReport.from_residual(max_res, tol, worst, len(pts), details)
