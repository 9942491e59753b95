"""Exactness and integrability of differential forms on R2 and R3.

Cross-partial residual checks, line integrals by composite Gauss-Legendre
quadrature, path-independence probes, potential reconstruction along
axis-parallel polylines, and conservative-force energy bookkeeping.
`curve_nodes` is the one rule along a parametric curve: F at the curve's
Gauss nodes times its exact velocity (line integrals, probes, contours).
A potential has one rule: each axis-parallel leg integrates F's own
component along its axis (`integrate_rows`), with no curve at all.
`running_integrals` is the one rule for integrals from a base point to
many abscissas: both polyline orders of `potential_grid`, which
`cplx.harmonic_conjugate` compares, and U in `odekit.energy_solve`.
`grid_sweep` is the one rule for residuals on a region's sample grid:
every grid check goes through `residual_sweep`.

Also home of the shared geometry types: VectorField, ParametricCurve,
Region and CheckReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from . import _backend
from .expr import (EvalError, Expr, NumericError, as_expr, as_real, compile_exprs, diff,
                   eval_columns, fail_at, real_parts)

__all__ = [
    "CheckReport", "Region", "VectorField", "ParametricCurve",
    "WorkEnergyReport", "EndpointMismatchError", "ExcludedPointError",
    "NonConservativeError", "exactness_check", "line_integral",
    "path_independence_probe", "potential_reconstruct", "potential_grid",
    "work_energy", "residual_sweep", "grid_sweep", "gauss_nodes",
    "running_integrals", "curve_nodes",
]


class EndpointMismatchError(ValueError, NumericError):
    pass


class ExcludedPointError(ValueError, NumericError):
    pass


class NonConservativeError(RuntimeError, NumericError):
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

    def excluded_mask(self, axes) -> np.ndarray:
        """Boolean grid of `axes`, set at the points within 1e-9 of an
        excluded point."""
        near = np.zeros([len(a) for a in axes], dtype=bool)
        for p in self.excluded:
            near |= np.sqrt(sum((c - x) ** 2 for c, x in zip(np.ix_(*axes), p))) <= 1e-9
        return near


def _grid_rows(region: Region, grid) -> np.ndarray:
    """The region's sample grid as (npts, n) rows in grid order, excluded
    points dropped, for the checks that take matrices point by point."""
    axes = region.axes(grid)
    rows = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return rows[~region.excluded_mask(axes).ravel()]


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
        for c in self.components:
            self.declared(c, "component")

    def declared(self, e: Expr, what: str) -> Expr:
        extra = e.variables() - set(self.names)
        if extra:
            raise ValueError(f"{what} '{e}' references undeclared {sorted(extra)}")
        return e

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
    One `eval_columns` call takes the nodes, one row per interval, and each
    column as a single value per row, so the values at all nodes are held
    at once: at most twice the node array of `gauss_nodes` (the largest
    call of the benchmark's `quadrature` workload has 20,600 nodes).
    """
    columns = {k: np.ravel(v)[:, None] for k, v in (columns or {}).items()}
    nodes, weights = gauss_nodes(np.ravel(t0), np.ravel(t1), panels)
    vals, = eval_columns((e,), (param, *columns), (nodes, *columns.values()), nodes.shape)
    vals *= weights
    return np.add.reduce(vals, axis=1)


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
    legs = real_parts(vals, 1e-12, "potential quadrature").reshape(rows, -1)
    r = where[len(ends)]
    out = np.zeros((rows, len(edges)))
    out[:, r + 1:] = np.cumsum(legs[:, r:], axis=1)
    out[:, :r] = -np.cumsum(legs[:, :r][:, ::-1], axis=1)[:, ::-1]
    return out[:, where[:len(ends)]]


def curve_nodes(curves: Sequence[ParametricCurve], panel_counts):
    """Along each curve in turn, the Gauss-Legendre nodes of each of
    `panel_counts`: r(t) and r'(t) there as the rows of one real array (one
    `eval_columns` call per curve), and the weights of each curve and count."""
    rows, weights = [], []
    for c in curves:
        ts, ws = zip(*(gauss_nodes(c.t_start, c.t_end, p) for p in panel_counts))
        ts = np.concatenate(ts)
        vals = eval_columns(c.components + c.derivative(), (c.param,), (ts,), ts.shape)
        rows.append(real_parts(vals, 1e-12, "curve point").reshape(2 * c.n, -1))
        weights += ws
    return np.hstack(rows), weights


def _line_sums(F: VectorField, curves, panels: int, coarse: bool) -> np.ndarray:
    """Weighted sums of F_k(r) * r_k' (k in order) at `curve_nodes` for
    2 * `panels` panels, after those for `panels` if `coarse`: one row per
    curve.  F's own components are evaluated once, at every node of each
    run of curves that move in the same variables, save that F_k is not
    evaluated along a curve whose r_k' is 0 at all of its nodes (an
    axis-parallel segment): the term adds exactly 0 there, so F_k need not
    be defined on that curve."""
    if panels < 1:
        raise ValueError(f"panels must be at least 1, got {panels!r}")
    if any(c.n != F.n for c in curves):
        raise ValueError("curve dimension must equal field dimension")
    nodes, weights = curve_nodes(curves, (panels, 2 * panels) if coarse else (2 * panels,))
    per = nodes.shape[1] // len(curves)
    moves = nodes[F.n:].reshape(F.n, len(curves), per).any(axis=2).T.tolist()
    integrand = np.zeros(nodes.shape[1], dtype=complex)
    end = 0
    for move, run in groupby(moves):
        at = slice(end, end + per * len(list(run)))
        end = at.stop
        ks = [k for k in range(F.n) if move[k]]
        if ks:
            values = eval_columns([F.components[k] for k in ks], F.names, nodes[:F.n, at],
                                  integrand[at].shape)
            with np.errstate(all="ignore"):
                integrand[at] = (np.stack(values) * nodes[F.n:][ks, at]).sum(axis=0)
    with np.errstate(all="ignore"):
        parts = np.split(integrand, np.cumsum([len(w) for w in weights])[:-1])
        sums = np.array([np.add.reduce(v * w) for v, w in zip(parts, weights)])
    if not np.isfinite(sums).all():
        raise EvalError("line integral is not finite")
    return sums.reshape(len(curves), -1)


#: Values within this relative distance of the maximum tie with it.  A
#: report names the first tied point in grid order, so that a change at
#: the level of rounding does not move its `worst_point` across the grid.
TIE = 1e-12


def _first_near_max(values: np.ndarray) -> int:
    """Index of the first of `values` within :data:`TIE` of their maximum,
    NaN left out."""
    top = np.fmax.reduce(values)
    return int(np.argmax(values >= top - TIE * top))


def grid_sweep(exprs: Sequence[Expr], names, axes, excluded: np.ndarray):
    """|e| for each of `exprs` over variables `names` on the grid of `axes`,
    from one tape run block by block by `_backend.eval_grid`, the points
    where the boolean grid `excluded` is set left out.  Returns the max of
    each |e| (0.0 when no point is kept) and, shaped as the grid, the max
    over `exprs` at each point, NaN at excluded points.

    An expression that is not finite at a point kept raises the tree
    walk's error (`fail_at`): the first such expression in order, at its
    first such point in grid order."""
    inner = math.prod(excluded.shape[1:])
    tape = compile_exprs(exprs, names)
    per = [0.0] * len(tape.outs)
    failed = [None] * len(tape.outs)
    pointwise = np.full(excluded.shape, -np.inf)
    for lo, hi, outs in _backend.eval_grid(tape.ops, tape.consts, np.ix_(*axes), excluded.shape,
                                           tape.outs, excluded):
        block = pointwise[lo:hi]
        for k, v in enumerate(outs):
            a = np.empty(block.shape)
            np.abs(v, out=a)
            a[excluded[lo:hi]] = -1.0
            top = float(a.max())
            if not math.isfinite(top) and failed[k] is None:
                failed[k] = lo * inner + int(np.argmax(~np.isfinite(a)))
            per[k] = max(per[k], top)
            np.maximum(block, a, out=block)
    for e, index in zip(exprs, failed):
        if index is not None:
            point = np.unravel_index(index, excluded.shape)
            fail_at(e, {n: a[i] for n, a, i in zip(names, axes, point)})
    pointwise[excluded] = np.nan
    return per, pointwise


def residual_sweep(exprs: Sequence[Expr], region: Region, grid):
    """Max |e| over the region's sample grid (`Region.axes` of `grid`) for
    several expressions, excluded points left out.  The worst point is the
    first in grid order where some |e| lies within :data:`TIE` of the max.

    Returns (max_residual, worst_point, per_expr_max, samples_used).
    """
    axes = region.axes(grid)
    excluded = region.excluded_mask(axes)
    per, pointwise = grid_sweep(exprs, region.names, axes, excluded)
    samples = excluded.size - int(np.count_nonzero(excluded))
    if not samples:
        return 0.0, (), per, 0
    at = np.unravel_index(_first_near_max(pointwise.ravel()), pointwise.shape)
    return max(per), tuple(float(a[i]) for a, i in zip(axes, at)), per, samples


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
    max_res, worst, per, samples = residual_sweep(_cross_partial_residuals(F), region, grid)
    details = {}
    if F.n == 3:
        details = {"dPdy-dQdx": per[0], "dPdz-dRdx": per[1], "dQdz-dRdy": per[2]}
    return CheckReport.from_residual(max_res, tol, worst, samples, details)


def line_integral(F: VectorField, curve: ParametricCurve, panels: int = 64,
                  return_error: bool = False):
    """Line integral of F along the curve by composite Gauss-Legendre.

    The returned value comes from 2 * `panels` panels; with `return_error`,
    the error estimate is its change from `panels` panels.
    """
    sums = _line_sums(F, [curve], panels, return_error)[0]
    fine = complex(sums[-1])
    value = as_real(fine, 1e-12, "line integral")
    if return_error:
        return value, abs(fine - complex(sums[0])) + 1e-15 * (1.0 + abs(fine))
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
    integrals = real_parts(_line_sums(F, paths, panels, False), 1e-12, "line integral")
    spread = max(abs(u - v) for u in integrals for v in integrals)
    details = {f"I{k}": float(v) for k, v in enumerate(integrals)}
    return CheckReport.from_residual(spread, tol, tuple(b), len(paths), details)


def potential_reconstruct(F: VectorField, base, target, panels: int = 64,
                          region: Optional[Region] = None) -> float:
    """Potential difference u(target) - u(base) along the axis-parallel
    polyline (x-leg, then y-leg, then z-leg), with u(base) = 0.

    Leg k integrates F's own component k in variable k from base_k to
    target_k, the other variables bound to the leg's coordinates, on
    2 * `panels` Gauss-Legendre panels as `line_integral` takes.  A leg
    through an excluded point of `region` is refused.  Assumes the field
    already passed an exactness check on a region containing the polyline.
    """
    if len(base) != F.n or len(target) != F.n:
        raise ValueError("point dimension mismatch")
    if panels < 1:
        raise ValueError(f"panels must be at least 1, got {panels!r}")
    point = [float(x) for x in base]
    total = 0.0
    for k, (name, comp) in enumerate(zip(F.names, F.components)):
        lo, hi = sorted((point[k], float(target[k])))
        if lo == hi:
            continue
        for p in (region.excluded if region is not None else ()):
            if lo <= p[k] <= hi and all(abs(a - b) <= 1e-9 for j, (a, b) in
                                        enumerate(zip(p, point)) if j != k):
                raise ExcludedPointError(f"polyline through {p} hits an excluded point; "
                                         "choose a different base point")
        others = {n: [x] for j, (n, x) in enumerate(zip(F.names, point)) if j != k}
        leg = integrate_rows(comp, name, point[k], float(target[k]), 2 * panels, others)[0]
        total += as_real(complex(leg), 1e-12, "line integral")
        point[k] = float(target[k])
    return total


def potential_grid(F: VectorField, axes, base):
    """Reconstructed potentials on a 2-D grid by both axis-parallel
    polylines, with u(base) = 0: (u_xy, u_yx).

    u_xy takes the x-leg at the base ordinate, then the y-leg at the node
    abscissa; u_yx the y-leg at the base abscissa, then the x-leg at the
    node ordinate.  All x-legs are one running integral of P with y bound
    per row (the base ordinate, then each grid ordinate), and all y-legs
    one of Q with x bound per row.  The two agree to rounding at a node
    where F is a gradient on the box spanned by the base and the node.
    """
    if F.n != 2:
        raise ValueError("potential_grid supports 2-D fields")
    x_axis, y_axis = (np.asarray(a, dtype=float) for a in axes)
    bx, by = (float(base[0]), float(base[1]))
    x, y = F.names
    p_expr, q_expr = F.components
    x_legs = running_integrals(p_expr, x, bx, x_axis, {y: np.concatenate([[by], y_axis])})
    y_legs = running_integrals(q_expr, y, by, y_axis, {x: np.concatenate([[bx], x_axis])})
    return x_legs[0][:, None] + y_legs[1:], y_legs[0] + x_legs[1:].T


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
