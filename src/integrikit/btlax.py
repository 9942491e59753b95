"""Bäcklund-transformation residuals, the sine-Gordon kink, Lax-pair
compatibility via commuting rectangle flows (KdV), the chiral-field
residual, and the Maxwell plane-wave constructor/verifier.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (Const, EvalDomainError, EvalError, Expr, Var, as_expr, as_real, call,
                   diff, eval_columns, evaluate)
from .odesys import AutonomousSystem, RK4Traces, _eval_matrices
from .realfield import CheckReport, Region, _grid_rows, residual_sweep

__all__ = [
    "BTSystem", "PlaneWave", "LaxDeviation", "bt_residual",
    "cauchy_riemann_bt", "liouville_bt", "sine_gordon_bt", "sine_gordon_kink",
    "kdv_residual", "lax_commuting_flow", "chiral_residual",
    "maxwell_plane_wave", "maxwell_residual", "wave_equation_residual",
]


# --------------------------------------------------------------------------
# Bäcklund transformations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BTSystem:
    """Coupled residuals B1 = 0, B2 = 0 linking u and v, with the target
    equation residuals Pu (for u) and Qv (for v).

    Derivative symbols use subscript names over the independent variables:
    u, u_x, u_t, u_xt, v, v_x, ... (or _y when the variables are (x, y)).
    """
    B1: Expr
    B2: Expr
    Pu: Expr
    Qv: Expr
    indep: tuple = ("x", "t")

    def __post_init__(self):
        object.__setattr__(self, "indep", tuple(self.indep))
        if len(self.indep) != 2:
            raise ValueError("exactly two independent variables")
        for attr in ("B1", "B2", "Pu", "Qv"):
            object.__setattr__(self, attr, as_expr(getattr(self, attr)))
        for attr in ("B1", "B2", "Pu", "Qv"):
            for name in getattr(self, attr).variables():
                self._parse_symbol(name)  # validates

    def _parse_symbol(self, name: str):
        """Split 'u_xt' into ('u', 'xt'); plain independents pass through."""
        if name in self.indep:
            return None
        parts = name.split("_")
        base = parts[0]
        suffix = parts[1] if len(parts) == 2 else ""
        if base not in ("u", "v") or len(parts) > 2:
            raise ValueError(f"unknown symbol '{name}' in BT system")
        for ch in suffix:
            if ch not in self.indep:
                raise ValueError(f"derivative suffix '{suffix}' of '{name}' "
                                 f"uses letters outside {self.indep}")
        return base, suffix


def _derivative_table(bt: BTSystem, u: Expr, v: Expr) -> dict:
    table = {}
    sources = {"u": u, "v": v}
    for attr in ("B1", "B2", "Pu", "Qv"):
        for name in getattr(bt, attr).variables():
            parsed = bt._parse_symbol(name)
            if parsed is None or name in table:
                continue
            base, suffix = parsed
            e = sources[base]
            for ch in suffix:
                e = diff(e, ch)
            table[name] = e
    return table


def bt_residual(bt: BTSystem, u, v, region: Region, tol: float = 1e-9,
                grid=41) -> CheckReport:
    """Substitute u, v (and their symbolic derivatives) into the BT and the
    target equations; report the four residual maxima."""
    u, v = as_expr(u), as_expr(v)
    for e, label in ((u, "u"), (v, "v")):
        extra = e.variables() - set(bt.indep)
        if extra:
            raise ValueError(f"{label} references {sorted(extra)}")
    if tuple(region.names) != tuple(bt.indep):
        raise ValueError(f"region must be over {bt.indep}")
    table = _derivative_table(bt, u, v)
    residuals = [getattr(bt, attr).subs(table) for attr in ("B1", "B2", "Pu", "Qv")]
    max_res, worst, per, samples = residual_sweep(residuals, region, grid)
    details = dict(zip(("B1", "B2", "Pu", "Qv"), per))
    return CheckReport.from_residual(max_res, tol, worst, samples, details)


def sine_gordon_bt(a: float) -> BTSystem:
    """The parametric auto-BT for u_xt = sin(u), with parameter a != 0."""
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    a_c = Const(float(a))
    u, v = as_expr("u"), as_expr("v")
    ux, vx = as_expr("u_x"), as_expr("v_x")
    ut, vt = as_expr("u_t"), as_expr("v_t")
    half = Const(0.5)
    b1 = half * (ux + vx) - a_c * call("sin", half * (u - v))
    b2 = half * (ut - vt) - (Const(1.0) / a_c) * call("sin", half * (u + v))
    pu = as_expr("u_xt") - call("sin", u)
    qv = as_expr("v_xt") - call("sin", v)
    return BTSystem(b1, b2, pu, qv)


def liouville_bt() -> BTSystem:
    """BT coupling u_xt = exp(u) to the linear wave equation v_xt = 0."""
    u, v = as_expr("u"), as_expr("v")
    root2 = Const(math.sqrt(2.0))
    half = Const(0.5)
    b1 = as_expr("u_x") + as_expr("v_x") - root2 * call("exp", half * (u - v))
    b2 = as_expr("u_t") - as_expr("v_t") - root2 * call("exp", half * (u + v))
    pu = as_expr("u_xt") - call("exp", u)
    qv = as_expr("v_xt")
    return BTSystem(b1, b2, pu, qv)


def cauchy_riemann_bt() -> BTSystem:
    """The Cauchy-Riemann relations as an auto-BT for the Laplace equation."""
    b1 = as_expr("u_x") - as_expr("v_y")
    b2 = as_expr("u_y") + as_expr("v_x")
    pu = as_expr("u_xx") + as_expr("u_yy")
    qv = as_expr("v_xx") + as_expr("v_yy")
    return BTSystem(b1, b2, pu, qv, indep=("x", "y"))


def sine_gordon_kink(a: float, C: float, verify_region: Optional[Region] = None,
                     verify_tol: float = 1e-10) -> Expr:
    """The kink u = 4 atan(C exp(a x + t/a)); verified against u_xt = sin u
    on the region ([-2, 2]^2 by default) before being returned."""
    if a == 0:
        raise ValueError("a must be nonzero")
    if C <= 0:
        raise ValueError("C must be positive")
    x, t = as_expr("x"), as_expr("t")
    u = Const(4.0) * call("atan", Const(float(C)) * call("exp", Const(float(a)) * x + t / Const(float(a))))
    region = verify_region or Region(("x", "t"), ((-2.0, 2.0), (-2.0, 2.0)))
    residual = diff(diff(u, "x"), "t") - call("sin", u)
    max_res = residual_sweep([residual], region, 41)[0]
    if max_res > verify_tol:
        raise RuntimeError(f"kink construction failed self-check: residual {max_res:.3e}")
    return u


# --------------------------------------------------------------------------
# KdV residual and Lax-pair commuting-flow check
# --------------------------------------------------------------------------

def kdv_residual(u, region: Region, tol: float = 1e-9, grid=41) -> CheckReport:
    """Max |u_t - 6 u u_x + u_xxx| on the (x, t) grid."""
    u = as_expr(u)
    if tuple(region.names) != ("x", "t"):
        raise ValueError("region must be over (x, t)")
    ux = diff(u, "x")
    residual = diff(u, "t") - Const(6.0) * u * ux + diff(diff(ux, "x"), "x")
    max_res, worst, _, samples = residual_sweep([residual], region, grid)
    return CheckReport.from_residual(max_res, tol, worst, samples)


@dataclass(frozen=True)
class LaxDeviation:
    deviation: float
    state_x_then_t: tuple
    state_t_then_x: tuple


def _fields_are_real(fields, pts) -> bool:
    """Whether u, u_x and u_xx are finite and real (to 1e-12) at all of
    `pts`, by one `eval_columns` call."""
    try:
        values = eval_columns([e for e, _ in fields], ("x", "t"), pts.T, (len(pts),))
    except EvalDomainError:
        return False
    return all(np.all(np.abs(v.imag) <= 1e-12 * (1.0 + np.abs(v.real))) for v in values)


def _check_leg_field(fields, pts):
    """u, u_x and u_xx must be finite and real (to 1e-12) at the points a leg
    evaluates; on failure the tree walk finds the first bad point and field."""
    if _fields_are_real(fields, pts):
        return
    for xv, tv in pts.real:
        for e, name in fields:
            as_real(evaluate(e, {"x": xv, "t": tv}), 1e-12, name)


def _stage_points(along: str, fixed: float, s0: float, s1: float, steps: int):
    """The (x, t) points at which RK4 evaluates the fields on a leg along
    `along` from s0 to s1 in `steps` steps, the other coordinate `fixed`."""
    h = (s1 - s0) / steps
    ss = s0 + h * np.arange(steps)
    hs = np.append(np.full(steps - 1, h), (s1 - s0) - (steps - 1) * h)
    stages = np.column_stack([ss, ss + 0.5 * hs, ss + hs]).ravel()
    pts = np.column_stack([stages, np.full_like(stages, fixed)])
    return pts if along == "x" else pts[:, ::-1]


def lax_commuting_flow(u, lam: float, psi0: float, x0: float, t0: float,
                       delta=(0.2, 0.2), steps: int = 16,
                       psi_x0: float = 0.0) -> LaxDeviation:
    """Rectangle commutation test of the KdV Lax pair.

    The pair (psi, phi = psi_x) is advanced along x by psi_xx = (u - lam) psi
    and along t by psi_t = 2(u + 2 lam) phi - u_x psi, with psi_xx
    eliminated through the spatial equation.  Each leg is a 3-state system
    that carries the fixed coordinate as a state of derivative 0, so both
    legs along x share one system and its RK4 traces, built once per call,
    and so do both legs along t; a leg takes `steps` steps (backward for a
    negative delta).  The two leg orders around the rectangle (dx, dt) agree exactly
    when u solves KdV; their mismatch is the reported deviation.
    """
    u = as_expr(u)
    extra = u.variables() - {"x", "t"}
    if extra:
        raise ValueError(f"u references {sorted(extra)}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    ux = diff(u, "x")
    uxx = diff(ux, "x")
    fields = ((u, "u"), (ux, "u_x"), (uxx, "u_xx"))
    psi, phi, lam_c, zero = Var("psi"), Var("phi"), Const(float(lam)), Const(0.0)
    a = Const(2.0) * (u + Const(2.0 * lam))
    traces = {
        "x": RK4Traces(AutonomousSystem(("psi", "phi", "t"), (phi, (u - lam_c) * psi, zero),
                                        time_var="x")),
        "t": RK4Traces(AutonomousSystem(("psi", "phi", "x"), (
            a * phi - ux * psi, ux * phi + (a * (u - lam_c) - uxx) * psi, zero),
            time_var="t")),
    }

    dx, dt = float(delta[0]), float(delta[1])
    # (along, fixed coordinate, from, to) of the four legs, in the order they run
    legs = (("x", t0, x0, x0 + dx), ("t", x0 + dx, t0, t0 + dt),
            ("t", x0, t0, t0 + dt), ("x", t0 + dt, x0, x0 + dx))
    pts = [_stage_points(*leg, steps) for leg in legs]
    # one evaluation of the fields for all four legs; only when it fails
    # does each leg check its own points, so that the error, whichever it
    # is, comes from the first leg whose points fail, after the traces of
    # the legs before it
    try:
        checked = _fields_are_real(fields, np.concatenate(pts))
    except EvalError:
        checked = False

    def run(k: int, state):
        along, fixed, s0, s1 = legs[k]
        if not checked:
            _check_leg_field(fields, pts[k])
        _, y = traces[along].endpoint(state + (fixed,), s0, s1, (s1 - s0) / steps)
        return tuple(float(v) for v in y[:2])

    start = (float(psi0), float(psi_x0))
    via_x = run(1, run(0, start))
    via_t = run(3, run(2, start))
    deviation = max(abs(via_x[0] - via_t[0]), abs(via_x[1] - via_t[1]))
    return LaxDeviation(deviation, via_x, via_t)


# --------------------------------------------------------------------------
# Chiral-field residual
# --------------------------------------------------------------------------

def chiral_residual(entries, region: Region, tol: float = 1e-9, grid=21) -> CheckReport:
    """Max Frobenius norm of d/dt(g^-1 g_x) + d/dx(g^-1 g_t) on the grid.

    Entrywise derivatives are symbolic; the inversion is numeric, using
    d/dt(g^-1 g_x) = -g^-1 g_t g^-1 g_x + g^-1 g_xt (and symmetrically).
    """
    entries = [[as_expr(e) for e in row] for row in entries]
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError("g must be square")
    if tuple(region.names) != ("x", "t"):
        raise ValueError("region must be over (x, t)")
    gx = [[diff(e, "x") for e in row] for row in entries]
    gt = [[diff(e, "t") for e in row] for row in entries]
    gxt = [[diff(e, "t") for e in row] for row in gx]
    pts = _grid_rows(region, grid)
    G, Gx, Gt, Gxt = _eval_matrices((entries, gx, gt, gxt), ("x", "t"), pts, "g")
    Gi = np.linalg.inv(G)
    d_t = -Gi @ Gt @ Gi @ Gx + Gi @ Gxt
    d_x = -Gi @ Gx @ Gi @ Gt + Gi @ Gxt
    res = np.linalg.norm(d_t + d_x, axis=(1, 2))
    k = int(np.argmax(res))
    return CheckReport.from_residual(float(res[k]), tol,
                                     tuple(float(v) for v in pts[k].real),
                                     len(pts))


# --------------------------------------------------------------------------
# Maxwell plane wave
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneWave:
    k: np.ndarray           # wave vector
    omega: float
    E0R: np.ndarray         # real electric amplitude
    B0R: np.ndarray         # real magnetic amplitude, (k x E0R)/omega
    alpha: float
    eps0mu0: float

    @property
    def c(self) -> float:
        return 1.0 / math.sqrt(self.eps0mu0)

    def __post_init__(self):
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float))
        object.__setattr__(self, "E0R", np.asarray(self.E0R, dtype=float))
        object.__setattr__(self, "B0R", np.asarray(self.B0R, dtype=float))
        c = self.c
        k_norm = float(np.linalg.norm(self.k))
        e_norm = float(np.linalg.norm(self.E0R))
        if abs(self.omega - c * k_norm) > 1e-12 * (1 + self.omega):
            raise ValueError("dispersion omega = c|k| violated")
        if abs(float(self.k @ self.E0R)) > 1e-12 * (1 + k_norm * e_norm):
            raise ValueError("E amplitude not transverse")
        if np.max(np.abs(np.cross(self.k, self.E0R) / self.omega - self.B0R)) \
                > 1e-12 * (1 + e_norm):
            raise ValueError("B amplitude inconsistent with (k x E)/omega")
        if abs(e_norm - c * float(np.linalg.norm(self.B0R))) > 1e-12 * (1 + e_norm):
            raise ValueError("|E0R| = c |B0R| violated")


def _phase_expr(k: np.ndarray, omega: float, alpha: float) -> Expr:
    x, y, z, t = (as_expr(n) for n in ("x", "y", "z", "t"))
    phase = (Const(float(k[0])) * x + Const(float(k[1])) * y + Const(float(k[2])) * z
             - Const(float(omega)) * t + Const(float(alpha)))
    return call("cos", phase)


def maxwell_plane_wave(k_dir, E0_mag: float, alpha: float = 0.0,
                       omega: Optional[float] = None,
                       wavelength: Optional[float] = None,
                       eps0mu0: float = 1.0, E0_dir=None):
    """Monochromatic plane wave E = E0R cos(k.r - wt + a), B = (k x E0R)/w cos(...).

    Returns (PlaneWave, E component expressions, B component expressions).
    A supplied E0_dir that is not transverse is projected (with a warning);
    a direction parallel to k is an error.
    """
    k_dir = np.asarray(k_dir, dtype=float)
    if abs(np.linalg.norm(k_dir) - 1.0) > 1e-12:
        raise ValueError("k_dir must be a unit vector (|k_dir| = 1 within 1e-12)")
    if E0_mag <= 0:
        raise ValueError("E0_mag must be positive")
    if (omega is None) == (wavelength is None):
        raise ValueError("give exactly one of omega, wavelength")
    c = 1.0 / math.sqrt(eps0mu0)
    if omega is None:
        omega = 2 * math.pi * c / float(wavelength)
    omega = float(omega)
    if omega <= 0:
        raise ValueError("omega must be positive")
    k_vec = (omega / c) * k_dir

    if E0_dir is None:
        trial = np.array([1.0, 0.0, 0.0])
        if abs(abs(float(trial @ k_dir)) - 1.0) < 1e-6:
            trial = np.array([0.0, 1.0, 0.0])
        E0_dir = trial
    E0_dir = np.asarray(E0_dir, dtype=float)
    proj = E0_dir - (E0_dir @ k_dir) * k_dir
    pnorm = float(np.linalg.norm(proj))
    if pnorm < 1e-12:
        raise ValueError("E0 direction is parallel to k: zero transverse projection")
    if abs(float(E0_dir @ k_dir)) > 1e-12 * float(np.linalg.norm(E0_dir)):
        warnings.warn("E0 direction was not transverse; projected onto the "
                      "plane normal to k", stacklevel=2)
    E0R = E0_mag * proj / pnorm
    B0R = np.cross(k_vec, E0R) / omega
    wave = PlaneWave(k_vec, omega, E0R, B0R, float(alpha), float(eps0mu0))
    carrier = _phase_expr(k_vec, omega, alpha)
    E_exprs = tuple(Const(float(a)) * carrier for a in E0R)
    B_exprs = tuple(Const(float(a)) * carrier for a in B0R)
    return wave, E_exprs, B_exprs


_SPACETIME = ("x", "y", "z", "t")


def _check_spacetime_region(region: Region):
    if tuple(region.names) != _SPACETIME:
        raise ValueError("region must be over (x, y, z, t)")


def maxwell_residual(E, B, eps0mu0: float, region: Region, tol: float = 1e-9,
                     grid=5) -> CheckReport:
    """The four source-free Maxwell residual maxima on a spacetime grid:
    |div E|, |div B|, ||curl E + dB/dt||, ||curl B - eps0mu0 dE/dt||."""
    _check_spacetime_region(region)
    E = [as_expr(c) for c in E]
    B = [as_expr(c) for c in B]
    if len(E) != 3 or len(B) != 3:
        raise ValueError("E and B need three components each")
    xyz = ("x", "y", "z")

    def curl(F):
        return [diff(F[2], xyz[1]) - diff(F[1], xyz[2]),
                diff(F[0], xyz[2]) - diff(F[2], xyz[0]),
                diff(F[1], xyz[0]) - diff(F[0], xyz[1])]

    div_e = diff(E[0], "x") + diff(E[1], "y") + diff(E[2], "z")
    div_b = diff(B[0], "x") + diff(B[1], "y") + diff(B[2], "z")
    faraday = [c + diff(b, "t") for c, b in zip(curl(E), B)]
    ampere = [c - Const(float(eps0mu0)) * diff(e, "t") for c, e in zip(curl(B), E)]
    max_res, worst, per, samples = residual_sweep([div_e, div_b, *faraday, *ampere],
                                                  region, grid)
    details = {"div_E": per[0], "div_B": per[1],
               "faraday": max(per[2:5]), "ampere": max(per[5:])}
    return CheckReport.from_residual(max_res, tol, worst, samples, details)


def wave_equation_residual(A, eps0mu0: float, region: Region, tol: float = 1e-9,
                           grid=5) -> CheckReport:
    """Componentwise max |laplacian(A_i) - eps0mu0 d^2 A_i/dt^2| on the grid."""
    _check_spacetime_region(region)
    A = [as_expr(c) for c in A]
    residuals = []
    for comp in A:
        lap = (diff(diff(comp, "x"), "x") + diff(diff(comp, "y"), "y")
               + diff(diff(comp, "z"), "z"))
        residuals.append(lap - Const(float(eps0mu0)) * diff(diff(comp, "t"), "t"))
    max_res, worst, per, samples = residual_sweep(residuals, region, grid)
    details = {f"component_{i}": v for i, v in enumerate(per)}
    return CheckReport.from_residual(max_res, tol, worst, samples, details)
