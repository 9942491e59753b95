"""Exact first-order ODEs, integrating factors, order-reduction residuals,
and one-dimensional energy-method trajectories.
"""

from __future__ import annotations

import cmath
import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import EvalError, Expr, as_expr, as_real, diff, eval_many, evaluate
from .odesys import Trajectory, _shown_point
from .realfield import (CheckReport, Region, VectorField, gauss_nodes, potential_reconstruct,
                        residual_sweep, running_integrals)

__all__ = [
    "ExactODE", "ExactSolution", "EnergyProblem", "EnergySolution",
    "NonExactError", "TurningPointError", "exact_check", "exact_solve",
    "integrating_factor_apply", "reduction_residual", "energy_solve",
]


class NonExactError(RuntimeError):
    def __init__(self, report: CheckReport):
        super().__init__(f"ODE is not exact: max residual {report.max_residual:.3e} "
                         f"> tol {report.tolerance:.3e}")
        self.report = report


class TurningPointError(RuntimeError):
    def __init__(self, x_turn: float):
        super().__init__(f"turning point near x = {x_turn!r}: E - U(x) vanishes; "
                         "integrate each monotone part separately")
        self.x_turn = x_turn


@dataclass(frozen=True)
class ExactODE:
    """M(x, y) dx + N(x, y) dy = 0."""
    M: Expr
    N: Expr

    def __post_init__(self):
        object.__setattr__(self, "M", as_expr(self.M))
        object.__setattr__(self, "N", as_expr(self.N))
        for part in (self.M, self.N):
            extra = part.variables() - {"x", "y"}
            if extra:
                raise ValueError(f"'{part}' references {sorted(extra)}; only x, y allowed")

    @property
    def field(self) -> VectorField:
        return VectorField(("x", "y"), (self.M, self.N))


def _default_region(points, pad: float = 2.0) -> Region:
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0) - pad
    hi = pts.max(axis=0) + pad
    return Region(("x", "y"), tuple(zip(lo, hi)))


def exact_check(ode: ExactODE, region: Region, tol: float = 1e-9, grid=41) -> CheckReport:
    """Exactness condition dM/dy = dN/dx on the region grid."""
    from .realfield import exactness_check
    return exactness_check(ode.field, region, grid, tol)


@dataclass(frozen=True)
class ExactSolution:
    """Implicit first integral u(x, y) = C0 through (x0, y0)."""
    ode: ExactODE
    C0: float
    base: tuple
    start: tuple
    region: Region
    panels: int = 64

    def u_eval(self, point) -> float:
        return potential_reconstruct(self.ode.field, self.base, tuple(point),
                                     self.panels, self.region)

    def y_of_x(self, x_target: float, newton_tol: float = 1e-10) -> float:
        """Trace y(x) on the branch through (x0, y0) by continuation + Newton."""
        x0, y0 = self.start
        nsteps = max(1, int(math.ceil(abs(x_target - x0) / 0.05)))
        xs = np.linspace(x0, x_target, nsteps + 1)
        y = y0
        res_tol = newton_tol * (1 + abs(self.C0))
        for xk in xs[1:]:
            xk = float(xk)
            r = self.u_eval((xk, y)) - self.C0
            for _ in range(60):
                if abs(r) <= res_tol:
                    break
                slope = as_real(evaluate(self.ode.N, {"x": xk, "y": y}), 1e-12, "N")
                if slope == 0:
                    raise ZeroDivisionError(f"dU/dy vanishes at x={xk!r}, y={y!r}")
                # damped step keeps the branch through (x0, y0) near folds
                scale = 1.0
                while scale > 1e-6:
                    trial = y - scale * r / slope
                    r_trial = self.u_eval((xk, trial)) - self.C0
                    if abs(r_trial) < abs(r):
                        y, r = trial, r_trial
                        break
                    scale *= 0.5
                else:
                    raise RuntimeError(
                        f"Newton tracer stalled at x={xk!r} (level curve may fold)")
            else:
                raise RuntimeError(
                    f"Newton tracer stalled at x={xk!r} (level curve may fold)")
        return y


def exact_solve(ode: ExactODE, x0: float, y0: float, region: Optional[Region] = None,
                base=None, tol: float = 1e-9, grid=41, panels: int = 64) -> ExactSolution:
    """Solve an exact ODE as u(x, y) = C0 with u anchored at `base` (origin
    when inside the region, else the region center)."""
    if region is None:
        region = _default_region([(x0, y0), (0.0, 0.0)])
    report = exact_check(ode, region, tol, grid)
    if not report.passed:
        raise NonExactError(report)
    if base is None:
        inside = all(lo <= 0.0 <= hi for lo, hi in region.bounds)
        base = (0.0, 0.0) if inside else tuple(0.5 * (lo + hi) for lo, hi in region.bounds)
    sol = ExactSolution(ode=ode, C0=0.0, base=tuple(base), start=(float(x0), float(y0)),
                        region=region, panels=panels)
    c0 = sol.u_eval((x0, y0))
    object.__setattr__(sol, "C0", c0)
    return sol


def integrating_factor_apply(ode: ExactODE, mu, region: Region, tol: float = 1e-9,
                             grid=41):
    """Exactness check of (mu*M, mu*N); returns (report, transformed ODE)."""
    mu = as_expr(mu)
    pts = region.grid_points(grid)
    vals = np.abs(eval_many(mu, ("x", "y"), pts))
    scale = float(vals.max()) if len(vals) else 0.0
    if scale < 1e-12:
        raise ValueError("integrating factor is identically ~0 on the grid")
    near_zero = pts[vals < 1e-8 * (1 + scale)]
    if len(near_zero):
        shown = ", ".join(str(_shown_point(p)) for p in near_zero[:5])
        warnings.warn(f"integrating factor nearly vanishes at {len(near_zero)} "
                      f"grid points (e.g. {shown})", stacklevel=2)
    transformed = ExactODE(mu * ode.M, mu * ode.N)
    report = exact_check(transformed, region, tol, grid)
    return report, transformed


_DERIV_NAME = re.compile(r"^y(\d+)$")


def reduction_residual(phi, candidate, x_interval, tol: float = 1e-9,
                       samples: int = 201) -> CheckReport:
    """Residual |d/dx Phi(x, y, y', ...)| for a candidate solution y(x).

    Phi names derivatives y, y1, y2, ...; the candidate is substituted
    symbolically before the total derivative is taken.
    """
    phi = as_expr(phi)
    candidate = as_expr(candidate)
    extra = candidate.variables() - {"x"}
    if extra:
        raise ValueError(f"candidate references {sorted(extra)}; only x allowed")
    sub = {}
    for name in phi.variables():
        if name == "x":
            continue
        if name == "y":
            sub[name] = candidate
            continue
        m = _DERIV_NAME.match(name)
        if not m:
            raise ValueError(f"Phi references unknown symbol '{name}' "
                             "(expected x, y, y1, y2, ...)")
        order = int(m.group(1))
        d = candidate
        for _ in range(order):
            d = diff(d, "x")
        sub[name] = d
    g = phi.subs(sub)
    dg = diff(g, "x")
    a, b = float(x_interval[0]), float(x_interval[1])
    xs = np.linspace(a, b, samples).reshape(-1, 1)
    max_res, worst, _ = residual_sweep([dg], ("x",), xs)
    return CheckReport.from_residual(max_res, tol, worst, samples)


# --------------------------------------------------------------------------
# Energy method (Newton's second law in one dimension)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyProblem:
    """m x'' = F(x) with initial position/velocity and U(x_ref) = 0."""
    F: Expr
    m: float
    x0: float
    v0: float
    t0: float = 0.0
    x_ref: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "F", as_expr(self.F))
        for name in ("m", "x0", "v0", "t0", "x_ref"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        extra = self.F.variables() - {"x"}
        if extra:
            raise ValueError(f"force references {sorted(extra)}; only x allowed")


@dataclass(frozen=True)
class EnergySolution:
    problem: EnergyProblem
    trajectory: Trajectory
    E: float
    U: Callable[[float], float]
    x_end: float
    t_end: float
    _tau: Callable[[float], float]
    _v: Callable[[np.ndarray], np.ndarray]

    def position_at(self, t: float) -> float:
        """Invert t(x) on the monotone branch."""
        p = self.problem
        dt = t - p.t0
        if dt < -1e-12 or dt > (self.t_end - p.t0) * (1 + 1e-9) + 1e-12:
            raise ValueError("time outside the computed trajectory")
        return _invert_tau(self._tau, self._v, p.x0, 1.0 if p.v0 > 0 else -1.0,
                           dt, abs(self.x_end - p.x0))


def _invert_tau(tau, v_of_x, x0: float, s: float, dt: float, xi_hi: float) -> float:
    """The x with tau(x) = dt, for dt between 0 and tau(x0 + s*xi_hi).

    Newton in the offset xi = s*(x - x0), where tau increases with the
    exact slope 1/|v(x)|; a step that leaves the bracket [xi_lo, xi_hi]
    bisects it instead.  Stops when |tau - dt| <= 1e-13 (1 + |dt|) or
    when xi no longer moves.
    """
    xi_lo = xi = 0.0
    for _ in range(200):
        x = x0 + s * xi
        r = tau(x) - dt
        if abs(r) <= 1e-13 * (1 + abs(dt)):
            break
        if r > 0:
            xi_hi = xi
        else:
            xi_lo = xi
        step = xi - r * float(v_of_x(np.array([x]))[0])
        if not xi_lo < step < xi_hi:
            step = 0.5 * (xi_lo + xi_hi)
        if step == xi:
            break
        xi = step
    return x


def energy_solve(problem: EnergyProblem, x_target: Optional[float] = None,
                 t_target: Optional[float] = None, samples: int = 50,
                 quad_tol: float = 1e-12) -> EnergySolution:
    """Trajectory of m x'' = F(x) by quadrature of the energy integral.

    Valid on one monotone branch only: v0 must be nonzero and E - U(x)
    must stay positive over the swept interval (a turning point is an
    error naming the abscissa).  The target must be finite, and the
    trajectory has `samples` >= 2 points from x0 to x_end, and F must be
    finite at x_ref, where U is anchored.

    U(x) = -(integral of F from x_ref to x), for every force and all
    abscissas of a call at once, by `realfield.running_integrals`: one
    Gauss-Legendre panel on each gap between the sorted abscissas, x_ref
    and 65 even edges over their span, summed outward from x_ref.  The elapsed
    time at the samples is one composite rule of 1/|v| over the gaps
    between them, panels doubled from 8 until every running value meets
    `quad_tol`.  A t_target is found by Newton on t(x) with the exact
    slope 1/|v|, inside a bisection bracket.
    """
    if (x_target is None) == (t_target is None):
        raise ValueError("give exactly one of x_target, t_target")
    for name, target in (("x_target", x_target), ("t_target", t_target)):
        if target is not None and not math.isfinite(target):
            raise ValueError(f"{name} must be finite, got {target!r}")
    if problem.v0 == 0:
        raise ValueError("v0 must be nonzero (monotone branch required)")
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples!r}")
    m, x0, v0, t0, x_ref = problem.m, problem.x0, problem.v0, problem.t0, problem.x_ref
    s = 1.0 if v0 > 0 else -1.0
    # a pole at x_ref leaves U(x_ref) = 0 meaningless: one GL5 panel from
    # x_ref gives the same finite integral of 1/x for every width
    try:
        finite_at_ref = cmath.isfinite(evaluate(problem.F, {"x": x_ref}))
    except EvalError:
        finite_at_ref = False
    if not finite_at_ref:
        raise ValueError(f"force is not finite at x_ref = {x_ref!r}, where U = 0; "
                         "choose another x_ref")

    def U_vec(xs: np.ndarray) -> np.ndarray:
        return -running_integrals(problem.F, "x", x_ref, xs)[0]

    def U(x: float) -> float:
        return float(U_vec(np.array([x]))[0])

    E = 0.5 * m * v0 * v0 + U(x0)
    eps_turn = 1e-9 * (1 + abs(E))

    def v_of_x(xs: np.ndarray) -> np.ndarray:
        gap = E - U_vec(xs)
        if np.any(gap <= eps_turn):
            k = int(np.argmax(gap <= eps_turn))
            raise TurningPointError(float(np.asarray(xs).ravel()[k]))
        return np.sqrt((2.0 / m) * gap)

    def elapsed(xs: np.ndarray) -> np.ndarray:
        """t - t0 at the abscissas xs, which run from x0 in the direction
        of motion."""
        panels, prev = 8, None
        while True:
            nodes, weights = gauss_nodes(xs[:-1], xs[1:], panels)
            legs = s * np.sum(weights / v_of_x(nodes.ravel()).reshape(nodes.shape), axis=1)
            cum = np.concatenate([[0.0], np.cumsum(legs)])
            if panels >= 2 ** 13 or (prev is not None and np.all(
                    np.abs(cum - prev) <= quad_tol * (1 + np.abs(cum)))):
                return cum
            panels, prev = 2 * panels, cum

    def tau(x: float) -> float:
        """Elapsed time from x0 to x along the branch (x in branch direction)."""
        return float(elapsed(np.array([x0, x]))[-1])

    if x_target is not None:
        x_end = float(x_target)
        if s * (x_end - x0) < 0:
            raise ValueError("x_target is behind the motion on this branch")
        v_of_x(np.linspace(x0, x_end, 257))  # turning-point scan
    else:
        dt_goal = float(t_target) - t0
        if dt_goal < 0:
            raise ValueError("t_target before t0")
        if dt_goal == 0:
            x_end = x0
        else:
            # bracket in the signed offset xi = s*(x - x0), where tau increases
            xi_hi = max(0.1, abs(v0) * dt_goal)
            for _ in range(60):
                x_probe = x0 + s * xi_hi
                v_of_x(np.linspace(x0, x_probe, 129))  # turning-point scan
                if tau(x_probe) >= dt_goal:
                    break
                xi_hi *= 2.0
            else:
                raise RuntimeError("could not bracket t_target")
            x_end = _invert_tau(tau, v_of_x, x0, s, dt_goal, xi_hi)

    if x_end == x0:
        traj = Trajectory(np.array([t0]), np.array([[x0]]))
    else:
        xs = np.linspace(x0, x_end, samples)
        traj = Trajectory(t0 + elapsed(xs), xs.reshape(-1, 1))
    t_end = float(traj.ts[-1]) if t_target is None else t0 + dt_goal
    return EnergySolution(problem=problem, trajectory=traj, E=E, U=U,
                          x_end=x_end, t_end=t_end, _tau=tau, _v=v_of_x)
