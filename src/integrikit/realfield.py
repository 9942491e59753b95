"""Exactness and integrability of differential forms on R2 and R3.

Cross-partial residual checks, line integrals by composite Gauss-Legendre
quadrature, path-independence probes, potential reconstruction along
axis-parallel polylines, and conservative-force energy bookkeeping.
`running_integrals` is the one rule for integrals from a base point to
many abscissas: the `potential_grid` of `cplx.harmonic_conjugate` and U in
`odekit.energy_solve`.

Also home of the shared geometry types: VectorField, ParametricCurve,
Region and CheckReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import _backend
from .expr import Expr, as_expr, as_real, diff, eval_many

__all__ = [
    "CheckReport", "Region", "VectorField", "ParametricCurve",
    "WorkEnergyReport", "EndpointMismatchError", "ExcludedPointError",
    "NonConservativeError", "exactness_check", "line_integral",
    "path_independence_probe", "potential_reconstruct", "potential_grid",
    "gradient_check", "work_energy", "residual_sweep", "gauss_nodes",
    "running_integrals",
]


class EndpointMismatchError(ValueError):
    pass


class ExcludedPointError(ValueError):
    pass


class NonConservativeError(RuntimeError):
    def __init__(self, report: "CheckReport"):
        super().__init__(
            f"field failed the exactness check (max residual {report.max_residual:.3e} "
            f"> tol {report.tolerance:.3e} at {report.worst_point})")
        self.report = report


# --------------------------------------------------------------------------
# Shared verification / geometry types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    """Outcome record shared by all verification operations."""
    status: str                 # "pass" | "fail"
    max_residual: float
    tolerance: float
    worst_point: tuple
    samples_used: int
    details: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @classmethod
    def from_residual(cls, max_residual, tolerance, worst_point, samples_used,
                      details=None) -> "CheckReport":
        status = "pass" if max_residual <= tolerance else "fail"
        return cls(status, float(max_residual), float(tolerance),
                   tuple(float(x) for x in worst_point), int(samples_used),
                   dict(details or {}))


@dataclass(frozen=True)
class Region:
    """Axis-aligned box with optional excluded points."""
    names: tuple
    bounds: tuple               # ((lo, hi), ...) per variable
    excluded: tuple = ()        # points (tuples) inside the box

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds))
        object.__setattr__(self, "excluded", tuple(tuple(float(x) for x in p) for p in self.excluded))
        if len(self.names) != len(self.bounds):
            raise ValueError("one bound pair per variable required")
        for name, (lo, hi) in zip(self.names, self.bounds):
            for side, value in (("lower", lo), ("upper", hi)):
                if not math.isfinite(value):
                    raise ValueError(f"{side} bound of {name} must be finite, got {value!r}")
            if not lo < hi:
                raise ValueError(f"empty box: [{lo}, {hi}]")
        for p in self.excluded:
            if len(p) != len(self.names):
                raise ValueError("excluded point dimension mismatch")
            for x, (lo, hi) in zip(p, self.bounds):
                if not (lo <= x <= hi):
                    raise ValueError(f"excluded point {p} outside the box")

    @property
    def n(self) -> int:
        return len(self.names)

    def axes(self, per_axis) -> list:
        counts = (per_axis,) * self.n if np.isscalar(per_axis) else tuple(per_axis)
        if len(counts) != self.n:
            raise ValueError("per-axis count mismatch")
        if any(c < 2 for c in counts):
            raise ValueError("need at least 2 samples per axis")
        return [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.bounds, counts)]

    def grid_points(self, per_axis) -> np.ndarray:
        """Full grid as (npts, n) rows, excluded points dropped."""
        axes = self.axes(per_axis)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        if self.excluded:
            keep = np.ones(len(pts), dtype=bool)
            for p in self.excluded:
                keep &= np.linalg.norm(pts - np.asarray(p), axis=1) > 1e-9
            pts = pts[keep]
        return pts


@dataclass(frozen=True)
class VectorField:
    """n component expressions over n named variables."""
    names: tuple
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "components", tuple(as_expr(c) for c in self.components))
        if len(self.names) != len(self.components):
            raise ValueError("component count must equal variable count")
        allowed = set(self.names)
        for c in self.components:
            extra = c.variables() - allowed
            if extra:
                raise ValueError(f"component '{c}' references undeclared {sorted(extra)}")

    @property
    def n(self) -> int:
        return len(self.names)

    @classmethod
    def of(cls, names: Sequence[str], *components) -> "VectorField":
        return cls(tuple(names), tuple(components))


@dataclass(frozen=True)
class ParametricCurve:
    """Component expressions of one parameter over [t_start, t_end]."""
    param: str
    components: tuple
    t_start: float
    t_end: float
    closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(as_expr(c) for c in self.components))
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        for name in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.t_start < self.t_end:
            raise ValueError("t_start must be < t_end")
        for c in self.components:
            extra = c.variables() - {self.param}
            if extra:
                raise ValueError(f"curve component '{c}' references {sorted(extra)}")
        if self.closed:
            a, b = self.point(self.t_start), self.point(self.t_end)
            if np.max(np.abs(a - b)) > 1e-10:
                raise ValueError("closed curve endpoints disagree beyond 1e-10")

    @property
    def n(self) -> int:
        return len(self.components)

    def point(self, t: float) -> np.ndarray:
        return np.array([as_real(c.eval({self.param: t}), 1e-12, "curve point")
                         for c in self.components])

    def derivative(self) -> tuple:
        return tuple(diff(c, self.param) for c in self.components)

    def reversed(self) -> "ParametricCurve":
        """Opposite orientation, realized by the parameter swap t -> t0+t1-t."""
        flipped = as_expr(self.t_start + self.t_end) - as_expr(self.param)
        comps = tuple(c.subs({self.param: flipped}) for c in self.components)
        return ParametricCurve(self.param, comps, self.t_start, self.t_end, self.closed)

    @classmethod
    def segment(cls, start, end, param: str = "t") -> "ParametricCurve":
        start = tuple(float(x) for x in start)
        end = tuple(float(x) for x in end)
        t = as_expr(param)
        comps = tuple(as_expr(a) + (b - a) * t for a, b in zip(start, end))
        return cls(param, comps, 0.0, 1.0)


@dataclass(frozen=True)
class WorkEnergyReport:
    work: float
    U_A: float
    U_B: float
    E_total: float


# --------------------------------------------------------------------------
# Quadrature and sweep helpers
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl5():
    return np.polynomial.legendre.leggauss(5)


def gauss_nodes(t0, t1, panels: int):
    """Composite 5-point Gauss-Legendre nodes and weights on [t0, t1].

    Arrays t0, t1 give one row per interval, bit-identical to the scalar
    case: edges are ``arange(panels + 1) * step + t0`` with the last edge
    t1, as np.linspace builds one interval (on arrays it switches every row
    to another formula when any row has zero width).
    """
    if panels < 1:
        raise ValueError(f"panels must be at least 1, got {panels!r}")
    x, w = _gl5()
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    edges = np.arange(panels + 1) * ((t1 - t0)[..., None] / panels) + t0[..., None]
    edges[..., -1] = t1
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    nodes = (mid[..., None] + half[..., None] * x).reshape(*t0.shape, 5 * panels)
    weights = (half[..., None] * w).reshape(*t0.shape, 5 * panels)
    return nodes, weights


def integrate_rows(e: Expr, param: str, t0, t1, panels: int, columns=None) -> np.ndarray:
    """Composite Gauss-Legendre integrals of e(param) over [t0[i], t1[i]].

    `columns` binds each other variable of e to one value per interval.
    One eval_many takes at most ``_backend.BLOCK`` points (at least one
    interval), so memory stays bounded however many intervals there are.
    """
    columns = columns or {}
    names = (param, *columns)
    nodes, weights = gauss_nodes(np.ravel(t0), np.ravel(t1), panels)
    out = np.empty(len(nodes), dtype=complex)
    step = max(1, _backend.BLOCK // nodes.shape[1])
    for lo in range(0, len(nodes), step):
        rows = slice(lo, lo + step)
        pts = np.empty(nodes[rows].shape + (len(names),), dtype=complex)
        pts[..., 0] = nodes[rows]
        for j, col in enumerate(columns.values(), 1):
            pts[..., j] = np.ravel(col)[rows, None]
        vals = eval_many(e, names, pts.reshape(-1, len(names)))
        out[rows] = np.add.reduce(weights[rows] * vals.reshape(nodes[rows].shape), axis=1)
    return out


def running_integrals(e: Expr, param: str, ref: float, ends, columns=None) -> np.ndarray:
    """Real integrals of e(param) from `ref` to each of `ends`, one row per
    value of `columns` (one row without them).

    One Gauss-Legendre panel lies on each gap between the sorted distinct
    points of `ends`, `ref` and 65 even edges over their span; all rows are
    one `integrate_rows` call, each gap's integral must be real, and the
    gaps are summed outward from `ref`, so an end equal to `ref` gives 0.
    """
    ends = np.asarray(ends, dtype=float)
    columns = {k: np.ravel(v) for k, v in (columns or {}).items()}
    rows = len(next(iter(columns.values()))) if columns else 1
    span = np.linspace(min(ends.min(), ref), max(ends.max(), ref), 65)
    edges, where = np.unique(np.concatenate([ends, [ref], span]), return_inverse=True)
    vals = integrate_rows(e, param, np.tile(edges[:-1], rows), np.tile(edges[1:], rows), 1,
                          {k: np.repeat(v, len(edges) - 1) for k, v in columns.items()})
    bad = np.abs(vals.imag) > 1e-12 * (1.0 + np.abs(vals.real))
    if bad.any():  # as_real's test on every gap at once; it names the first failing one
        as_real(complex(vals[np.argmax(bad)]), 1e-12, "potential quadrature")
    legs = vals.real.reshape(rows, -1)
    r = where[len(ends)]
    out = np.zeros((rows, len(edges)))
    out[:, r + 1:] = np.cumsum(legs[:, r:], axis=1)
    out[:, :r] = -np.cumsum(legs[:, :r][:, ::-1], axis=1)[:, ::-1]
    return out[:, where[:len(ends)]]


def residual_sweep(exprs: Sequence[Expr], names, pts: np.ndarray):
    """Max |expr| over rows of pts for several expressions.

    Returns (max_residual, worst_point, per_expr_max).
    """
    best = -1.0
    worst = tuple(np.real(pts[0])) if len(pts) else ()
    per_expr = []
    for e in exprs:
        vals = np.abs(eval_many(e, names, pts))
        per_expr.append(float(vals.max()) if len(vals) else 0.0)
        if len(vals):
            k = int(np.argmax(vals))
            if vals[k] > best:
                best = float(vals[k])
                worst = tuple(float(x) for x in np.real(pts[k]))
    return max(best, 0.0), worst, per_expr


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def _cross_partial_residuals(F: VectorField) -> list:
    names = F.names
    if F.n == 2:
        p, q = F.components
        x, y = names
        return [diff(p, y) - diff(q, x)]
    p, q, r = F.components
    x, y, z = names
    return [diff(p, y) - diff(q, x), diff(p, z) - diff(r, x), diff(q, z) - diff(r, y)]


def exactness_check(F: VectorField, region: Region, grid=41, tol: float = 1e-9) -> CheckReport:
    """Cross-partial integrability residuals on a sample grid.

    n=2: |dP/dy - dQ/dx|; n=3: the three curl components.
    """
    if F.n not in (2, 3):
        raise ValueError("exactness check requires a 2-D or 3-D field")
    if tuple(region.names) != tuple(F.names):
        raise ValueError("region variables must match field variables")
    residuals = _cross_partial_residuals(F)
    pts = region.grid_points(grid)
    max_res, worst, per = residual_sweep(residuals, F.names, pts)
    details = {}
    if F.n == 3:
        details = {"dPdy-dQdx": per[0], "dPdz-dRdx": per[1], "dQdz-dRdy": per[2]}
    return CheckReport.from_residual(max_res, tol, worst, len(pts), details)


def _pullback_integrand(F: VectorField, curve: ParametricCurve) -> Expr:
    if curve.n != F.n:
        raise ValueError("curve dimension must equal field dimension")
    sub = dict(zip(F.names, curve.components))
    derivs = curve.derivative()
    total = None
    for comp, dcomp in zip(F.components, derivs):
        term = comp.subs(sub) * dcomp
        total = term if total is None else total + term
    return total


def line_integral(F: VectorField, curve: ParametricCurve, panels: int = 64,
                  return_error: bool = False):
    """Line integral of F along the curve by composite Gauss-Legendre.

    The returned value comes from 2 * `panels` panels; with `return_error`,
    the error estimate is its change from `panels` panels.
    """
    if panels < 1:
        raise ValueError(f"panels must be at least 1, got {panels!r}")
    quad = (_pullback_integrand(F, curve), curve.param, curve.t_start, curve.t_end)
    coarse = complex(integrate_rows(*quad, panels)[0]) if return_error else None
    fine = complex(integrate_rows(*quad, 2 * panels)[0])
    value = as_real(fine, 1e-12, "line integral")
    if return_error:
        return value, abs(fine - coarse) + 1e-15 * (1.0 + abs(fine))
    return value


def path_independence_probe(F: VectorField, a, b, paths: Sequence[ParametricCurve],
                            tol: float, panels: int = 64) -> CheckReport:
    """Max pairwise difference of line integrals over paths sharing endpoints."""
    if len(paths) < 2:
        raise ValueError("need at least two probe paths")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for k, path in enumerate(paths):
        if (np.max(np.abs(path.point(path.t_start) - a)) > 1e-10
                or np.max(np.abs(path.point(path.t_end) - b)) > 1e-10):
            raise EndpointMismatchError(f"path {k} does not run from A to B")
    integrals = [line_integral(F, p, panels) for p in paths]
    spread = max(abs(u - v) for u in integrals for v in integrals)
    details = {f"I{k}": float(v) for k, v in enumerate(integrals)}
    return CheckReport.from_residual(spread, tol, tuple(b), len(paths), details)


def _polyline_legs(base, target):
    base = tuple(float(x) for x in base)
    target = tuple(float(x) for x in target)
    legs = []
    current = list(base)
    for axis in range(len(base)):
        nxt = list(current)
        nxt[axis] = target[axis]
        if nxt != current:
            legs.append((tuple(current), tuple(nxt)))
        current = nxt
    return legs


def potential_reconstruct(F: VectorField, base, target, panels: int = 64,
                          region: Optional[Region] = None) -> float:
    """Potential difference u(target) - u(base) along the axis-parallel
    polyline (x-leg, then y-leg, then z-leg), with u(base) = 0.

    Assumes the field already passed an exactness check on a region
    containing the polyline.
    """
    if len(base) != F.n or len(target) != F.n:
        raise ValueError("point dimension mismatch")
    total = 0.0
    for start, end in _polyline_legs(base, target):
        if region is not None and region.excluded:
            samples = np.linspace(0.0, 1.0, 129)[:, None]
            pts = np.asarray(start) + samples * (np.asarray(end) - np.asarray(start))
            for p in region.excluded:
                if np.min(np.linalg.norm(pts - np.asarray(p), axis=1)) < 1e-9:
                    raise ExcludedPointError(
                        f"polyline through {p} hits an excluded point; "
                        "choose a different base point")
        total += line_integral(F, ParametricCurve.segment(start, end), panels)
    return total


def potential_grid(F: VectorField, axes, base) -> np.ndarray:
    """Reconstructed potential values u on a 2-D grid, with u(base) = 0.

    u at each node is the axis-parallel polyline reconstruction: the x-leg
    at the base ordinate, then the y-leg at the node abscissa.  The x-legs
    are one running integral of P(x, y_base), and the y-legs of all
    abscissas are one running integral of Q with x bound per row.
    """
    if F.n != 2:
        raise ValueError("potential_grid supports 2-D fields")
    x_axis, y_axis = (np.asarray(a, dtype=float) for a in axes)
    bx, by = (float(base[0]), float(base[1]))
    x, y = F.names
    p_expr, q_expr = F.components
    x_legs = running_integrals(p_expr, x, bx, x_axis, {y: [by]})[0]
    return x_legs[:, None] + running_integrals(q_expr, y, by, y_axis, {x: x_axis})


def gradient_check(F: VectorField, axes, u_grid: np.ndarray, tol: float) -> CheckReport:
    """Central-difference gradient of tabulated u compared to F componentwise."""
    if F.n != 2:
        raise ValueError("gradient_check supports 2-D fields")
    x_axis, y_axis = (np.asarray(a, dtype=float) for a in axes)
    if len(x_axis) < 3 or len(y_axis) < 3:
        raise ValueError("grid too coarse: need at least 3 points per axis")
    for ax in (x_axis, y_axis):
        steps = np.diff(ax)
        if np.max(np.abs(steps - steps[0])) > 1e-12 * (1 + abs(steps[0])):
            raise ValueError("grid spacing must be uniform")
    hx, hy = x_axis[1] - x_axis[0], y_axis[1] - y_axis[0]
    du_dx = (u_grid[2:, 1:-1] - u_grid[:-2, 1:-1]) / (2 * hx)
    du_dy = (u_grid[1:-1, 2:] - u_grid[1:-1, :-2]) / (2 * hy)
    xm, ym = np.meshgrid(x_axis[1:-1], y_axis[1:-1], indexing="ij")
    pts = np.stack([xm.ravel(), ym.ravel()], axis=1)
    p_vals = eval_many(F.components[0], F.names, pts).real.reshape(xm.shape)
    q_vals = eval_many(F.components[1], F.names, pts).real.reshape(xm.shape)
    dev = np.maximum(np.abs(du_dx - p_vals), np.abs(du_dy - q_vals))
    k = int(np.argmax(dev))
    worst = (float(xm.ravel()[k]), float(ym.ravel()[k]))
    return CheckReport.from_residual(float(dev.max()), tol, worst, dev.size)


def work_energy(F: VectorField, curve: ParametricCurve, m: float, v0: float,
                region: Optional[Region] = None, grid=21, tol: float = 1e-8,
                panels: int = 64) -> WorkEnergyReport:
    """Work along the curve plus potential-energy bookkeeping.

    Refuses non-conservative fields: the exactness check must pass on a
    region containing the curve (a padded bounding box by default).
    U is anchored at the curve start (U_A = 0), and U_B is reconstructed
    independently along an axis-parallel polyline.
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    if region is None:
        samples = np.array([curve.point(t) for t in
                            np.linspace(curve.t_start, curve.t_end, 64)])
        lo, hi = samples.min(axis=0), samples.max(axis=0)
        pad = 0.1 * (hi - lo) + 0.1
        region = Region(F.names, tuple(zip(lo - pad, hi + pad)))
    report = exactness_check(F, region, grid, tol)
    if not report.passed:
        raise NonConservativeError(report)
    work = line_integral(F, curve, panels)
    a = curve.point(curve.t_start)
    b = curve.point(curve.t_end)
    u_b = potential_reconstruct(F, a, b, panels, region)
    U_A = 0.0
    U_B = -u_b
    E_total = 0.5 * m * v0 * v0 + U_A
    return WorkEnergyReport(work=work, U_A=U_A, U_B=U_B, E_total=E_total)
