"""Exact first-order ODEs, integrating factors, order-reduction residuals,
and one-dimensional energy-method trajectories.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import (Binary, Const, Expr, NonDifferentiableError, Unary, Var, as_expr,
                   as_real, diff, eval_many, evaluate)
from .odesys import Trajectory, _shown_point
from .realfield import (CheckReport, Region, VectorField, integrate_rows,
                        potential_reconstruct, residual_sweep)

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
        if self.m <= 0:
            raise ValueError("mass must be positive")
        extra = self.F.variables() - {"x"}
        if extra:
            raise ValueError(f"force references {sorted(extra)}; only x allowed")


def _is_polynomial(F: Expr) -> bool:
    """Whether the tree of F is a polynomial in x: built from x-free
    subtrees and x by negation, + - *, division by an x-free subtree and
    powers with a non-negative integer real constant exponent."""
    if "x" not in F.variables() or isinstance(F, Var):
        return True
    if isinstance(F, Unary):
        return _is_polynomial(F.child)
    if not isinstance(F, Binary):
        return False
    if F.op in ("+", "-", "*"):
        return _is_polynomial(F.left) and _is_polynomial(F.right)
    if F.op == "/":
        return "x" not in F.right.variables() and _is_polynomial(F.left)
    k = F.right.value if isinstance(F.right, Const) else None
    return (k is not None and k.imag == 0 and k.real >= 0 and k.real.is_integer()
            and _is_polynomial(F.left))


def _polynomial_antiderivative(F: Expr, max_degree: int = 40) -> Optional[Expr]:
    """-integral of F dx when F is a polynomial in x of degree at most
    `max_degree`, from its Taylor coefficients at 0, else None.  A
    polynomial whose x-free subtrees have no derivative rule (``abs(2)*x``)
    also gives None, so it takes the quadrature path."""
    if not _is_polynomial(F):
        return None
    derivs = [F]
    try:
        for _ in range(max_degree + 1):
            if derivs[-1] == Const(0.0):
                break
            derivs.append(diff(derivs[-1], "x"))
        else:
            return None
    except NonDifferentiableError:
        return None
    degree = len(derivs) - 2  # last entry is the zero constant
    x = as_expr("x")
    total = Const(0.0)
    for k in range(degree + 1):
        ck = evaluate(derivs[k], {"x": 0.0}) / math.factorial(k)
        total = total + Const(-ck / (k + 1)) * x ** Const(float(k + 1))
    return total


def _adaptive_quad(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   tol: float) -> float:
    """Composite GL5 with panel doubling on a vectorized callable."""
    from .realfield import gauss_nodes
    if a == b:
        return 0.0
    prev = None
    panels = 8
    while panels <= 2 ** 13:
        nodes, weights = gauss_nodes(a, b, panels)
        val = float(np.sum(weights * fn(nodes)))
        if prev is not None and abs(val - prev) <= tol * (1 + abs(val)):
            return val
        prev = val
        panels *= 2
    return prev


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
        dt = t - self.problem.t0
        if dt < -1e-12 or dt > (self.t_end - self.problem.t0) * (1 + 1e-9) + 1e-12:
            raise ValueError("time outside the computed trajectory")
        lo, hi = sorted((self.problem.x0, self.x_end))
        s = 1.0 if self.problem.v0 > 0 else -1.0
        x = self.problem.x0
        for _ in range(80):
            r = self._tau(x) - dt
            if abs(r) <= 1e-12 * (1 + abs(dt)):
                break
            v = float(self._v(np.array([x]))[0])
            x = min(max(x - r * v * s, lo), hi)
        return x


def energy_solve(problem: EnergyProblem, x_target: Optional[float] = None,
                 t_target: Optional[float] = None, samples: int = 50,
                 quad_tol: float = 1e-12) -> EnergySolution:
    """Trajectory of m x'' = F(x) by quadrature of the energy integral.

    Valid on one monotone branch only: v0 must be nonzero and E - U(x)
    must stay positive over the swept interval (a turning point is an
    error naming the abscissa).  The target must be finite.

    U(x) = -(integral of F from x_ref to x).  A polynomial F gets an exact
    antiderivative; any other F is integrated by 64-panel Gauss-Legendre
    quadrature for all abscissas of a call at once, each value required
    to be real.
    """
    if (x_target is None) == (t_target is None):
        raise ValueError("give exactly one of x_target, t_target")
    for name, target in (("x_target", x_target), ("t_target", t_target)):
        if target is not None and not math.isfinite(target):
            raise ValueError(f"{name} must be finite, got {target!r}")
    if problem.v0 == 0:
        raise ValueError("v0 must be nonzero (monotone branch required)")
    m, x0, v0, t0 = problem.m, problem.x0, problem.v0, problem.t0
    s = 1.0 if v0 > 0 else -1.0

    poly_u = _polynomial_antiderivative(problem.F)
    if poly_u is not None:
        shift = evaluate(poly_u, {"x": problem.x_ref}).real

        def U_vec(xs: np.ndarray) -> np.ndarray:
            return eval_many(poly_u, ("x",), np.asarray(xs, dtype=float).reshape(-1, 1)).real - shift
    else:
        f_expr = problem.F

        def U_vec(xs: np.ndarray) -> np.ndarray:
            xs = np.asarray(xs, dtype=float)
            up = xs >= problem.x_ref
            vals = integrate_rows(f_expr, "x", np.where(up, problem.x_ref, xs),
                                  np.where(up, xs, problem.x_ref), 64)
            return np.where(up, -1.0, 1.0) * np.array(
                [as_real(complex(v), 1e-12, "potential quadrature") for v in vals])

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

    def tau(x: float) -> float:
        """Elapsed time from x0 to x along the branch (x in branch direction)."""
        if x == x0:
            return 0.0
        return s * _adaptive_quad(lambda xs: 1.0 / v_of_x(xs), x0, x, quad_tol)

    if x_target is not None:
        x_end = float(x_target)
        if s * (x_end - x0) < 0:
            raise ValueError("x_target is behind the motion on this branch")
        v_of_x(np.linspace(x0, x_end, 257))  # turning-point scan
        t_end = t0 + tau(x_end)
    else:
        dt_goal = float(t_target) - t0
        if dt_goal < 0:
            raise ValueError("t_target before t0")
        if dt_goal == 0:
            x_end, t_end = x0, t0
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
            xi_lo = 0.0
            for _ in range(200):
                xi = 0.5 * (xi_lo + xi_hi)
                r = tau(x0 + s * xi) - dt_goal
                if abs(r) <= 1e-13 * (1 + dt_goal):
                    break
                if r > 0:
                    xi_hi = xi
                else:
                    xi_lo = xi
            x_end = x0 + s * xi
            t_end = t0 + dt_goal

    if x_end == x0:
        traj = Trajectory(np.array([t0]), np.array([[x0]]))
    else:
        xs = np.linspace(x0, x_end, samples)
        ts = np.empty(samples)
        ts[0] = t0
        for k in range(1, samples):
            seg = s * _adaptive_quad(lambda q: 1.0 / v_of_x(q), xs[k - 1], xs[k], quad_tol)
            ts[k] = ts[k - 1] + seg
        traj = Trajectory(ts, xs.reshape(-1, 1))
    return EnergySolution(problem=problem, trajectory=traj, E=E, U=U,
                          x_end=x_end, t_end=t_end, _tau=tau, _v=v_of_x)
