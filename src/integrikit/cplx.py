"""Complex-plane integrability: Cauchy-Riemann residuals, contour
integrals, Cauchy's formula, Laurent coefficients, antiderivatives.

Circles use the N-node trapezoidal rule (spectrally accurate for
periodic integrands); general contours use composite Gauss-Legendre
panels on the parameter interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import Const, Expr, NumericError, as_expr, diff, eval_columns, eval_many
from .realfield import (CheckReport, ParametricCurve, Region, gauss_nodes,
                        residual_sweep)

__all__ = [
    "ComplexFunction", "Contour", "HarmonicConjugate", "NotHarmonicError",
    "WindingError", "cr_residual", "harmonic_conjugate", "contour_integral",
    "cauchy_value", "laurent_coeffs", "antiderivative_eval",
]


class NotHarmonicError(RuntimeError, NumericError):
    def __init__(self, max_residual: float, tolerance: float):
        super().__init__(f"Laplacian residual {max_residual:.3e} exceeds {tolerance:.3e}; "
                         "the given part is not harmonic on the grid")
        self.max_residual = max_residual
        self.tolerance = tolerance


class WindingError(ValueError, NumericError):
    pass


@dataclass(frozen=True)
class ComplexFunction:
    """Either a single expression in z, or a pair (u, v) over (x, y)."""
    z_expr: Optional[Expr] = None
    u_expr: Optional[Expr] = None
    v_expr: Optional[Expr] = None

    def __post_init__(self):
        has_z = self.z_expr is not None
        has_uv = self.u_expr is not None and self.v_expr is not None
        if has_z == has_uv:
            raise ValueError("provide exactly one representation: z-form or (u, v)-form")

    @classmethod
    def from_z(cls, e) -> "ComplexFunction":
        return cls(z_expr=as_expr(e))

    @classmethod
    def from_uv(cls, u, v) -> "ComplexFunction":
        return cls(u_expr=as_expr(u), v_expr=as_expr(v))

    @property
    def is_z_form(self) -> bool:
        return self.z_expr is not None

    def sample(self, z_values: np.ndarray) -> np.ndarray:
        """Values f(z) at complex points."""
        z_values = np.asarray(z_values, dtype=np.complex128).ravel()
        if self.is_z_form:
            return eval_many(self.z_expr, ("z",), z_values)
        u, v = eval_columns((self.u_expr, self.v_expr), ("x", "y"),
                            (z_values.real, z_values.imag), z_values.shape)
        return u + 1j * v


@dataclass(frozen=True)
class Contour:
    """Oriented curve in the complex plane, z(t) = x(t) + i y(t).

    `kind` is "circle" (center/radius/orientation known, trapezoid rule
    applies) or "general".
    """
    curve: ParametricCurve
    kind: str = "general"
    center: complex = 0j
    radius: float = 0.0
    orientation: int = 1  # +1 counterclockwise, -1 clockwise

    def __post_init__(self):
        if self.curve.n != 2:
            raise ValueError("contour needs two real components x(t), y(t)")
        if self.kind not in ("circle", "general"):
            raise ValueError("kind must be 'circle' or 'general'")
        if self.kind == "circle":
            ts = np.linspace(self.curve.t_start, self.curve.t_end, 17)
            for t in ts:
                x, y = self.curve.point(t)
                if abs(abs(complex(x, y) - self.center) - self.radius) > 1e-12 * (1 + self.radius):
                    raise ValueError("circle-kind contour does not lie on the circle")

    @classmethod
    def circle(cls, center, radius: float, orientation: str = "ccw",
               param: str = "t") -> "Contour":
        if orientation not in ("ccw", "cw"):
            raise ValueError("orientation must be 'ccw' or 'cw'")
        center = complex(center)
        sign = 1 if orientation == "ccw" else -1
        from .expr import call
        angle = Const(float(sign)) * as_expr(param)
        x = Const(center.real) + Const(float(radius)) * call("cos", angle)
        y = Const(center.imag) + Const(float(radius)) * call("sin", angle)
        curve = ParametricCurve(param, (x, y), 0.0, 2 * math.pi, closed=True)
        return cls(curve, "circle", center, float(radius), sign)

    @classmethod
    def segment(cls, z0, z1, param: str = "t") -> "Contour":
        z0, z1 = complex(z0), complex(z1)
        curve = ParametricCurve.segment((z0.real, z0.imag), (z1.real, z1.imag), param)
        return cls(curve, "general")

    @classmethod
    def parametric(cls, x, y, t0: float, t1: float, param: str = "t",
                   closed: bool = False) -> "Contour":
        curve = ParametricCurve(param, (as_expr(x), as_expr(y)), t0, t1, closed=closed)
        return cls(curve, "general")

    def points(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float).ravel()
        xs, ys = eval_columns(self.curve.components, (self.curve.param,), (ts,), ts.shape)
        return xs.real + 1j * ys.real


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def cr_residual(f: ComplexFunction, region: Region, tol: float, grid=41) -> CheckReport:
    """Max over the grid of max(|u_x - v_y|, |u_y + v_x|)."""
    if f.is_z_form:
        raise ValueError("cr_residual needs the (u, v) representation")
    if tuple(region.names) != ("x", "y"):
        raise ValueError("region must be over (x, y)")
    u, v = f.u_expr, f.v_expr
    residuals = [diff(u, "x") - diff(v, "y"), diff(u, "y") + diff(v, "x")]
    max_res, worst, per, samples = residual_sweep(residuals, region, grid)
    return CheckReport.from_residual(max_res, tol, worst, samples,
                                     {"ux-vy": per[0], "uy+vx": per[1]})


@dataclass(frozen=True)
class HarmonicConjugate:
    x_axis: np.ndarray
    y_axis: np.ndarray
    u_grid: np.ndarray
    laplacian_report: CheckReport
    cr_report: CheckReport


def harmonic_conjugate(v, base, region: Region, grid: int = 41,
                       laplace_tol: float = 1e-8, cr_tol: float = 1e-7) -> HarmonicConjugate:
    """Reconstruct u with u_x = v_y, u_y = -v_x and u(base) = 0.

    Refuses a non-harmonic v.  The u grid is `potential_grid` of
    (v_y, -v_x): one running integral along x at the base ordinate and one
    along y per abscissa (`running_integrals`).  The returned CR report
    compares central differences of the u grid against the symbolic
    partials of v, so its residual carries an O(h^2) finite-difference floor.
    """
    from .realfield import VectorField, gradient_check, potential_grid

    v = as_expr(v)
    lap = diff(diff(v, "x"), "x") + diff(diff(v, "y"), "y")
    max_res, worst, _, samples = residual_sweep([lap], region, grid)
    lap_report = CheckReport.from_residual(max_res, laplace_tol, worst, samples)
    if not lap_report.passed:
        raise NotHarmonicError(max_res, laplace_tol)

    grad_field = VectorField(("x", "y"), (diff(v, "y"), -diff(v, "x")))
    x_axis, y_axis = region.axes(grid)
    u_grid = potential_grid(grad_field, (x_axis, y_axis), base)
    cr_report = gradient_check(grad_field, (x_axis, y_axis), u_grid, cr_tol)
    return HarmonicConjugate(x_axis, y_axis, u_grid, lap_report, cr_report)


def _trapezoid_circle(f: ComplexFunction, contour: Contour, nodes: int) -> complex:
    sign = contour.orientation
    ts = 2 * math.pi * np.arange(nodes) / nodes
    zs = contour.center + contour.radius * np.exp(1j * sign * ts)
    vals = f.sample(zs)
    dz = 1j * sign * contour.radius * np.exp(1j * sign * ts)
    return complex(np.sum(vals * dz) * (2 * math.pi / nodes))


def _panel_contour(f: ComplexFunction, contour: Contour, nodes: int) -> complex:
    curve = contour.curve
    panels = max(1, nodes // 5)
    ts, weights = gauss_nodes(curve.t_start, curve.t_end, panels)
    zs = contour.points(ts)
    vals = f.sample(zs)
    dx, dy = eval_columns(curve.derivative(), (curve.param,), (ts,), ts.shape)
    dzs = dx + 1j * dy
    return complex(np.sum(weights * vals * dzs))


def contour_integral(f, contour: Contour, nodes: int = 256) -> complex:
    """Integral of f(z) dz along the contour, orientation respected."""
    if isinstance(f, Expr) or isinstance(f, str):
        f = ComplexFunction.from_z(f)
    if contour.kind == "circle":
        return _trapezoid_circle(f, contour, nodes)
    return _panel_contour(f, contour, nodes)


def winding_number(contour: Contour, z0: complex, samples: int = 2048) -> int:
    """Winding of the contour about z0 by argument accumulation."""
    ts = np.linspace(contour.curve.t_start, contour.curve.t_end, samples + 1)
    zs = contour.points(ts) - complex(z0)
    radii = np.abs(zs)
    if radii.min() < 1e-9:
        raise WindingError("point lies on the contour")
    args = np.angle(zs)
    jumps = np.diff(args)
    jumps = (jumps + math.pi) % (2 * math.pi) - math.pi
    total = jumps.sum() / (2 * math.pi)
    w = int(round(total))
    if abs(total - w) > 1e-6:
        raise WindingError(f"winding number did not converge ({total!r})")
    return w


def cauchy_value(f, z0: complex, contour: Contour, nodes: int = 256) -> complex:
    """(1/2*pi*i) * closed integral of f/(z - z0); equals f(z0) for analytic f."""
    f = as_expr(f)
    z0 = complex(z0)
    w = winding_number(contour, z0)
    if w != 1:
        raise WindingError(
            f"z0 must lie strictly inside the (positively oriented) contour; winding={w}")
    integrand = ComplexFunction.from_z(f / (as_expr("z") - Const(z0)))
    value = contour_integral(integrand, contour, nodes)
    return value / (2j * math.pi)


def laurent_coeffs(f, z0: complex, rho: float, n_range, nodes: int = 256) -> dict:
    """Coefficients a_n of the Laurent expansion about z0, for n in n_range.

    One shared pass of f samples on the circle |z - z0| = rho serves all
    requested n (the per-n factor is e^{-int}).
    """
    f = ComplexFunction.from_z(as_expr(f)) if not isinstance(f, ComplexFunction) else f
    z0 = complex(z0)
    n_min, n_max = int(n_range[0]), int(n_range[1])
    ts = 2 * math.pi * np.arange(nodes) / nodes
    zs = z0 + rho * np.exp(1j * ts)
    vals = f.sample(zs)
    out = {}
    for n in range(n_min, n_max + 1):
        out[n] = complex(rho ** (-n) * np.mean(vals * np.exp(-1j * n * ts)))
    return out


def antiderivative_eval(f, z0: complex, z1: complex,
                        path: Optional[Contour] = None, nodes: int = 256) -> complex:
    """I(z1) = integral of f along a path from z0 to z1 (default: segment)."""
    f_expr = as_expr(f)
    z0, z1 = complex(z0), complex(z1)
    if path is None:
        if z0 == z1:
            return 0j
        path = Contour.segment(z0, z1)
    start = path.points(np.array([path.curve.t_start]))[0]
    end = path.points(np.array([path.curve.t_end]))[0]
    if abs(start - z0) > 1e-10 or abs(end - z1) > 1e-10:
        raise ValueError("path endpoints do not match z0 -> z1")
    return contour_integral(ComplexFunction.from_z(f_expr), path, nodes)
