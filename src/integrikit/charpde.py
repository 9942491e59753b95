"""Quasilinear first-order PDEs in two independent variables by the
method of characteristics, plus residual verification and the
normal-surface (potential) check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Expr, as_expr, as_real, diff, evaluate
from .odesys import AutonomousSystem, Trajectory, integrate_rk4
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
        if not self.s_start < self.s_end:
            raise ValueError("s interval is empty")

    def point(self, s: float) -> np.ndarray:
        b = {self.param: s}
        return np.array([as_real(evaluate(c, b), 1e-12, "initial curve")
                         for c in (self.x0, self.y0, self.z0)])


def characteristic_trace(pde: QuasilinearPDE, start, t_span, h: float,
                         guard: float = 1e12) -> Trajectory:
    """RK4 trace of dx/dt = P, dy/dt = Q, dz/dt = R from a start point.

    Aborts with the last good t if the state norm exceeds the blow-up guard.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        return Trajectory(np.array([t0]), np.asarray([start], dtype=float),
                          method="rk4", step=h)
    return integrate_rk4(pde.characteristic_system, start, (t0, t1), h, guard)


def _endpoint(pde: QuasilinearPDE, starts: np.ndarray, t: float,
              h: float) -> np.ndarray:
    """Endpoints at time t of the characteristics from the rows of starts."""
    if t == 0.0:
        return starts
    sys = pde.characteristic_system if t > 0 else AutonomousSystem(
        ("x", "y", "z"), tuple(-c for c in (pde.P, pde.Q, pde.R)))
    return integrate_rk4(sys, starts, (0.0, abs(t)), h).endpoint


@dataclass(frozen=True)
class CauchySolution:
    z_values: tuple
    params: tuple          # fitted (s, t) per query
    iterations: tuple
    residuals: tuple


def _transversality_check(pde: QuasilinearPDE, ic: InitialCurve,
                          samples: int = 33, threshold: float = 1e-8):
    dx0 = diff(ic.x0, ic.param)
    dy0 = diff(ic.y0, ic.param)
    for s in np.linspace(ic.s_start, ic.s_end, samples):
        p = ic.point(s)
        b = {"x": p[0], "y": p[1], "z": p[2]}
        pv = as_real(evaluate(pde.P, b), 1e-12, "P")
        qv = as_real(evaluate(pde.Q, b), 1e-12, "Q")
        sb = {ic.param: s}
        cross = pv * as_real(evaluate(dy0, sb), 1e-12, "y0'") \
            - qv * as_real(evaluate(dx0, sb), 1e-12, "x0'")
        if abs(cross) < threshold:
            raise TransversalityError(
                f"initial curve is characteristic at s={s!r} (|P y0' - Q x0'| < {threshold})")


def solve_cauchy(pde: QuasilinearPDE, ic: InitialCurve, queries: Sequence,
                 h: float = 0.01, newton_tol: float = 1e-10, t_max: float = 5.0,
                 fan_shape=(21, 41), max_iter: int = 30) -> CauchySolution:
    """Solve z at query points by inverting the characteristic map.

    For each query (x*, y*) a Newton iteration finds (s, t) with
    x(s, t) = x*, y(s, t) = y*.  Each iteration traces s and s +- ds as one
    batch; the Jacobian combines that central difference in s with the
    exact flow velocity in t.  Initial guesses come from a coarse fan over
    (s, t), traced as one batch of all s per t column.
    """
    _transversality_check(pde, ic)
    n_s, n_t = fan_shape
    s_vals = np.linspace(ic.s_start, ic.s_end, n_s)
    t_vals = np.linspace(-t_max, t_max, n_t)
    starts = np.array([ic.point(float(s)) for s in s_vals])
    fan_xy = np.empty((n_s, n_t, 2))
    for j, t in enumerate(t_vals):
        fan_xy[:, j] = _endpoint(pde, starts, float(t), h)[:, :2]
    span = ic.s_end - ic.s_start
    s_lo, s_hi = ic.s_start - 0.5 * span, ic.s_end + 0.5 * span

    zs, params, iters, residuals = [], [], [], []
    for q in queries:
        q = np.asarray(q, dtype=float)
        dist = np.linalg.norm(fan_xy - q, axis=2)
        i0, j0 = np.unravel_index(int(np.argmin(dist)), dist.shape)
        s, t = float(s_vals[i0]), float(t_vals[j0])
        res = float("inf")
        for used in range(1, max_iter + 1):
            ds = 1e-6 * (1 + abs(s))
            endpoint, plus, minus = _endpoint(
                pde, np.array([ic.point(v) for v in (s, s + ds, s - ds)]), t, h)
            g = endpoint[:2] - q
            res = float(np.max(np.abs(g)))
            if res <= newton_tol * (1 + np.max(np.abs(q))):
                break
            b = {"x": endpoint[0], "y": endpoint[1], "z": endpoint[2]}
            dxy_dt = np.array([as_real(evaluate(pde.P, b), 1e-12, "P"),
                               as_real(evaluate(pde.Q, b), 1e-12, "Q")])
            dxy_ds = (plus[:2] - minus[:2]) / (2 * ds)
            J = np.column_stack([dxy_ds, dxy_dt])
            try:
                step = np.linalg.solve(J, -g)
            except np.linalg.LinAlgError:
                raise CharacteristicFanError(
                    f"singular characteristic Jacobian at query {tuple(q)}") from None
            s += float(step[0])
            t += float(step[1])
            if not (s_lo <= s <= s_hi) or abs(t) > 1.5 * t_max:
                raise CharacteristicFanError(
                    f"query {tuple(q)} left the characteristic fan "
                    f"(wandered to s={s!r}, t={t!r})")
        else:
            raise CharacteristicFanError(
                f"Newton did not converge for query {tuple(q)} "
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
