"""Vector fields as differential operators: Lie derivatives, exponential
(Lie-series) flow maps, generator transforms, equilibria, level surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import Expr, NumericError, as_expr, as_real, diff, evaluate
from .odesys import AutonomousSystem, drift_along, integrate_rk4
from .realfield import CheckReport, VectorField

__all__ = [
    "OperatorField", "LieSeriesConfig", "LieSeriesOverflowError",
    "EquilibriumError", "lie_derivative", "lie_series_flow",
    "infinitesimal_transform", "transform_function", "equilibrium_find",
    "level_surface_membership",
]

#: A vector field acting as the differential operator V^i d/dx^i.
OperatorField = VectorField


class LieSeriesOverflowError(RuntimeError, NumericError):
    def __init__(self, order: int, size: int, cap: int):
        super().__init__(
            f"Lie-series term of order {order} grew to {size} nodes (cap {cap}); "
            "use the RK4 integrator instead")


class EquilibriumError(RuntimeError, NumericError):
    pass


@dataclass(frozen=True)
class LieSeriesConfig:
    order: int = 10
    node_cap: int = 50_000

    def __post_init__(self):
        if not 1 <= self.order <= 12:
            raise ValueError("truncation order must be in 1..12")


def _bindings(V: OperatorField, point) -> dict:
    """The coordinates of `point` by variable name, one per variable of V."""
    point = tuple(point)
    if len(point) != V.n:
        raise ValueError(f"point needs {V.n} coordinates ({', '.join(V.names)}), "
                         f"got {len(point)}")
    return dict(zip(V.names, point))


def lie_derivative(V: OperatorField, f, point) -> float:
    """Directional derivative sum_i V^i(p) * df/dx^i(p)."""
    f = as_expr(f)
    bindings = _bindings(V, point)
    total = 0j
    for name, comp in zip(V.names, V.components):
        total += evaluate(comp, bindings) * evaluate(diff(f, name), bindings)
    return as_real(total, 1e-12, "Lie derivative")


def _apply_operator(V: OperatorField, f: Expr) -> Expr:
    out = None
    for name, comp in zip(V.names, V.components):
        term = comp * diff(f, name)
        out = term if out is None else out + term
    return out


def _series_terms(V: OperatorField, cfg: LieSeriesConfig) -> list:
    """Per-component lists of D_V^l x^i, l = 0..order (operation-local cache)."""
    terms = []
    for name in V.names:
        seq = [as_expr(name)]
        for order in range(1, cfg.order + 1):
            nxt = _apply_operator(V, seq[-1])
            if nxt.size() > cfg.node_cap:
                raise LieSeriesOverflowError(order, nxt.size(), cfg.node_cap)
            seq.append(nxt)
        terms.append(seq)
    return terms


def lie_series_flow(V: OperatorField, x0, t: float,
                    cfg: Optional[LieSeriesConfig] = None) -> np.ndarray:
    """Flow map by the truncated exponential series sum t^l/l! D_V^l x^i."""
    cfg = cfg or LieSeriesConfig()
    bindings = _bindings(V, x0)
    out = np.empty(V.n)
    for i, seq in enumerate(_series_terms(V, cfg)):
        acc = 0j
        coeff = 1.0
        for order, term in enumerate(seq):
            if order > 0:
                coeff *= t / order
            acc += coeff * evaluate(term, bindings)
        out[i] = as_real(acc, 1e-12, "Lie series value")
    return out


def infinitesimal_transform(V: OperatorField, x0, t: float) -> np.ndarray:
    """First-order generator step x0 + t*V(x0)."""
    bindings = _bindings(V, x0)
    vals = np.array([as_real(evaluate(c, bindings), 1e-12, "field value")
                     for c in V.components])
    return np.asarray(x0, dtype=float) + t * vals


def transform_function(V: OperatorField, F, x0, t: float,
                       cfg: Optional[LieSeriesConfig] = None) -> float:
    """F evaluated at the flowed point (the transformed function F_t)."""
    F = as_expr(F)
    moved = lie_series_flow(V, x0, t, cfg)
    return as_real(evaluate(F, dict(zip(V.names, moved))), 1e-12, "transformed value")


def equilibrium_find(V: OperatorField, seed, tol: float = 1e-12,
                     max_iter: int = 50) -> np.ndarray:
    """Newton iteration on V(x) = 0 with a symbolic Jacobian and step damping."""
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
