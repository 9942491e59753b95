"""Vector fields as differential operators: Lie derivatives, exponential
(Lie-series) flow maps, generator transforms, equilibria, level surfaces.
"""

from __future__ import annotations

import math

import numpy as np

from . import _backend
from .expr import (EvalError, NumericError, as_expr, as_real, compile_system, diff,
                   evaluate, fail_at, real_parts)
from .odesys import AutonomousSystem, drift_along, integrate_rk4
from .realfield import CheckReport, VectorField

__all__ = [
    "OperatorField", "EquilibriumError", "lie_derivative", "lie_series_flow",
    "infinitesimal_transform", "transform_function", "equilibrium_find",
    "level_surface_membership",
]

#: A vector field acting as the differential operator V^i d/dx^i.
OperatorField = VectorField


class EquilibriumError(RuntimeError, NumericError):
    pass


def _bindings(V: OperatorField, point) -> dict:
    """The coordinates of `point` by variable name, one per variable of V."""
    point = tuple(point)
    if len(point) != V.n:
        raise ValueError(f"point needs {V.n} coordinates ({', '.join(V.names)}), "
                         f"got {len(point)}")
    return dict(zip(V.names, point))


def lie_derivative(V: OperatorField, f, point) -> float:
    """Directional derivative sum_i V^i(p) * df/dx^i(p)."""
    f = V.declared(as_expr(f), "function")
    bindings = _bindings(V, point)
    total = 0j
    for name, comp in zip(V.names, V.components):
        total += evaluate(comp, bindings) * evaluate(diff(f, name), bindings)
    return as_real(total, 1e-12, "Lie derivative")


def lie_series_flow(V: OperatorField, x0, t: float, order: int = 10) -> np.ndarray:
    """Flow map by the Lie series sum_l t^l x_l, x_l = D_V^l x / l! (`_backend.taylor`)."""
    if not 1 <= order <= 12:
        raise ValueError("truncation order must be in 1..12")
    if not math.isfinite(t):
        raise ValueError(f"flow time t must be finite, got {t!r}")
    bindings = _bindings(V, x0)
    tape = compile_system(V.components, V.names)
    coeffs = _backend.taylor(tape.ops, tape.consts, tape.outs, tuple(bindings.values()), order)
    with np.errstate(all="ignore"):   # the partial sums of t^l x_l, in order
        sums = np.cumsum(coeffs * np.cumprod([1.0] + [t] * order), axis=1)
    for l, i in np.argwhere(~np.isfinite(sums.T))[:1]:
        if l < 2 and not np.isfinite(coeffs[i, l]):   # x0 or V(x0): the tree walk's error
            fail_at(V.components[i] if l else as_expr(V.names[i]), bindings)
        raise EvalError(f"Lie series of {V.names[i]} is not finite from its order-{l} term")
    return real_parts(sums[:, -1], 1e-12, "Lie series value")


def infinitesimal_transform(V: OperatorField, x0, t: float) -> np.ndarray:
    """First-order generator step x0 + t*V(x0): the Lie series of order 1."""
    return lie_series_flow(V, x0, t, order=1)


def transform_function(V: OperatorField, F, x0, t: float, order: int = 10) -> float:
    """F evaluated at the flowed point (the transformed function F_t)."""
    F = V.declared(as_expr(F), "function")
    moved = lie_series_flow(V, x0, t, order)
    return as_real(evaluate(F, dict(zip(V.names, moved))), 1e-12, "transformed value")


def equilibrium_find(V: OperatorField, seed, tol: float = 1e-12,
                     max_iter: int = 50) -> np.ndarray:
    """Newton iteration on V(x) = 0 with a symbolic Jacobian and step damping."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    jac = [[diff(c, name) for name in V.names] for c in V.components]
    x = np.asarray(seed, dtype=float).copy()

    def field_at(p):
        b = _bindings(V, p)
        return np.array([as_real(evaluate(c, b), 1e-12, "field value")
                         for c in V.components])

    fx = field_at(x)
    for _ in range(max_iter):
        if np.max(np.abs(fx)) <= tol:
            return x
        b = _bindings(V, x)
        J = np.array([[as_real(evaluate(e, b), 1e-12, "Jacobian entry")
                       for e in row] for row in jac])
        try:
            cond = np.linalg.cond(J)
        except np.linalg.LinAlgError:
            cond = np.inf
        if not np.isfinite(cond) or cond > 1e12:
            raise EquilibriumError(
                f"singular Jacobian at {tuple(round(float(v), 9) for v in x)}")
        step = np.linalg.solve(J, -fx)
        scale = 1.0
        for _ in range(30):
            trial = x + scale * step
            f_trial = field_at(trial)
            if np.max(np.abs(f_trial)) <= np.max(np.abs(fx)) or scale < 1e-8:
                x, fx = trial, f_trial
                break
            scale *= 0.5
    if np.max(np.abs(fx)) <= tol:
        return x
    raise EquilibriumError(f"no convergence in {max_iter} iterations "
                           f"(residual {np.max(np.abs(fx)):.3e})")


def level_surface_membership(phi, sys: AutonomousSystem, x0, T: float, h: float,
                             tol: float = 1e-7) -> CheckReport:
    """Whether the trajectory from x0 stays on the level set phi = phi(x0)."""
    phi = as_expr(phi)
    extra = phi.variables() - set(sys.names)
    if extra:
        raise ValueError(f"surface function references {sorted(extra)}")
    traj = integrate_rk4(sys, x0, (0.0, T), h)
    drift, worst, _ = drift_along(phi, sys, traj)
    return CheckReport.from_residual(drift, tol, worst, len(traj.ts))
