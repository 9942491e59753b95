"""Batch command-line front end.

Every check and solver is exposed as a subcommand that prints one JSON
report to standard output and exits 0 (pass), 1 (fail), 2 (usage or
parse error) or 3 (numeric error).  Reports are byte-identical for
identical inputs: keys keep a fixed order and numbers are serialized
with 17 significant digits.  ``--pretty`` adds a human summary on
standard error; ``--task FILE`` reads ``key = value`` lines instead of
flags.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .expr import NonDifferentiableError, NumericError, ParseError, parse, render
from .realfield import (CheckReport, ParametricCurve, Region, VectorField, exactness_check,
                        line_integral, path_independence_probe, potential_reconstruct)

USAGE_ERROR, NUMERIC_ERROR = 2, 3


class UsageError(Exception):
    pass


# --------------------------------------------------------------------------
# Deterministic JSON serialization (17 significant digits, fixed key order)
# --------------------------------------------------------------------------

def _fmt_number(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _to_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_number(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        v = complex(value)
        return '{"re": %s, "im": %s}' % (_fmt_number(v.real), _fmt_number(v.imag))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        return "[" + ", ".join(_to_json(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit(report: dict, pretty: bool) -> None:
    sys.stdout.write(_to_json(report) + "\n")
    if pretty:
        status = report["status"]
        line = f"[{report['command']}] {status}"
        if report.get("max_residual") is not None:
            line += (f"  max_residual={report['max_residual']:.3e}"
                     f" tol={report['tolerance']:.3e}")
        err = report.get("diagnostics", {}).get("error")
        if err:
            line += f"  ({err})"
        sys.stderr.write(line + "\n")


def _report(command: str, inputs: dict, status: str, max_residual=None,
            tolerance=None, values=None, diagnostics=None) -> dict:
    return {
        "command": command,
        "inputs": {k: inputs[k] for k in sorted(inputs)},
        "status": status,
        "max_residual": max_residual,
        "tolerance": tolerance,
        "values": values or {},
        "diagnostics": diagnostics or {},
        "version": __version__,
    }


# --------------------------------------------------------------------------
# Flag-value parsers
# --------------------------------------------------------------------------

def _floats(text: str, what: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r} as comma-separated numbers")


def _parse_region(text: str, names=None) -> Region:
    vals = _floats(text, "region")
    if len(vals) % 2 or len(vals) < 4:
        raise UsageError("region needs an even number (>= 4) of bounds")
    n = len(vals) // 2
    if names is None:
        names = ("x", "y", "z", "t")[:n] if n <= 3 else ("x", "y", "z", "t")
    if len(names) != n:
        raise UsageError(f"region has {n} variables, expected {len(names)}")
    bounds = tuple((vals[2 * i], vals[2 * i + 1]) for i in range(n))
    return Region(tuple(names), bounds)


def _parse_excluded(text: Optional[str]):
    if not text:
        return ()
    return tuple(_floats(part, "excluded point") for part in text.split(";"))


def _parse_complex(text: str) -> complex:
    vals = _floats(text, "complex value")
    if len(vals) == 1:
        return complex(vals[0], 0.0)
    if len(vals) == 2:
        return complex(vals[0], vals[1])
    raise UsageError(f"complex value {text!r} must be 're' or 're,im'")


def _parse_matrix(text: str) -> np.ndarray:
    rows = []
    for row in text.split(";"):
        entries = []
        for cell in row.split(","):
            val = parse(cell).eval({})
            entries.append(val)
        rows.append(entries)
    M = np.array(rows, dtype=np.complex128)
    if np.max(np.abs(M.imag)) == 0:
        return M.real.copy()
    return M


def _parse_field(args, names3=False) -> VectorField:
    comps = [parse(args.P), parse(args.Q)]
    names = ["x", "y"]
    if getattr(args, "R", None):
        comps.append(parse(args.R))
        names.append("z")
    elif names3:
        raise UsageError("this command needs --R (3-D field)")
    return VectorField(tuple(names), tuple(comps))


def _parse_curve(text: str, interval: str, closed: bool = False) -> ParametricCurve:
    comps = tuple(parse(p) for p in text.split(";"))
    a, b = _floats(interval, "interval")
    return ParametricCurve("t", comps, a, b, closed=closed)


def _parse_path(text: str) -> ParametricCurve:
    parts = text.split(";")
    if len(parts) < 3:
        raise UsageError("path needs 'x(t);y(t)[;z(t)];t_start;t_end'")
    comps = tuple(parse(p) for p in parts[:-2])
    return ParametricCurve("t", comps, float(parts[-2]), float(parts[-1]))


def _parse_system(args) -> odesys.AutonomousSystem:
    from . import odesys
    names = tuple(args.vars.split(","))
    comps = tuple(parse(p) for p in args.f.split(";"))
    return odesys.AutonomousSystem(names, comps, getattr(args, "time_var", None))


def _dump_csv(path: str, traj) -> None:
    with open(path, "w") as fh:
        cols = ["t"] + [f"x{i + 1}" for i in range(traj.states.shape[1])]
        fh.write(",".join(cols) + "\n")
        for t, row in zip(traj.ts, traj.states):
            fh.write(",".join(format(v, ".17g") for v in [t, *row]) + "\n")


def _from_check(rep: CheckReport):
    values = dict(rep.details)
    diagnostics = {"worst_point": list(rep.worst_point), "samples_used": rep.samples_used}
    return rep.status, rep.max_residual, rep.tolerance, values, diagnostics


# --------------------------------------------------------------------------
# Command handlers: each returns (status, max_residual, tol, values, diagnostics)
# and imports the modules it runs, so that a process imports those alone
# --------------------------------------------------------------------------

def _cmd_exact_check(args):
    F = _parse_field(args)
    region = _parse_region(args.region, F.names)
    region = Region(region.names, region.bounds, _parse_excluded(args.exclude))
    return _from_check(exactness_check(F, region, args.grid, args.tol))


def _cmd_line_integral(args):
    F = _parse_field(args)
    curve = _parse_curve(args.curve, args.interval, args.closed)
    value, err = line_integral(F, curve, args.panels, return_error=True)
    return "pass", None, None, {"integral": value, "error_estimate": err}, {}


def _cmd_potential(args):
    F = _parse_field(args)
    base = _floats(args.base, "base")
    target = _floats(args.target, "target")
    value = potential_reconstruct(F, base, target, args.panels)
    return "pass", None, None, {"potential": value}, {}


def _cmd_path_probe(args):
    F = _parse_field(args)
    paths = [_parse_path(p) for p in args.path]
    rep = path_independence_probe(F, _floats(args.A, "A"), _floats(args.B, "B"),
                                  paths, args.tol, args.panels)
    return _from_check(rep)


def _cmd_cr_check(args):
    from . import cplx
    f = cplx.ComplexFunction.from_uv(parse(args.u), parse(args.v))
    region = _parse_region(args.region, ("x", "y"))
    return _from_check(cplx.cr_residual(f, region, args.tol, args.grid))


def _contour_from_args(args) -> cplx.Contour:
    from . import cplx
    if args.circle:
        cx, cy, r = _floats(args.circle, "circle")
        return cplx.Contour.circle(complex(cx, cy), r, args.orient)
    if args.curve:
        parts = args.curve.split(";")
        if len(parts) != 2:
            raise UsageError("contour curve needs 'x(t);y(t)'")
        a, b = _floats(args.interval, "interval")
        return cplx.Contour.parametric(parts[0], parts[1], a, b, closed=args.closed)
    raise UsageError("give either --circle or --curve/--interval")


def _cmd_contour(args):
    from . import cplx
    contour = _contour_from_args(args)
    value = cplx.contour_integral(parse(args.f), contour, args.nodes)
    return "pass", None, None, {"integral": value}, {}


def _cmd_cauchy(args):
    from . import cplx
    contour = _contour_from_args(args)
    value = cplx.cauchy_value(parse(args.f), _parse_complex(args.z0), contour, args.nodes)
    return "pass", None, None, {"value": value}, {}


def _cmd_laurent(args):
    from . import cplx
    coeffs = cplx.laurent_coeffs(parse(args.f), _parse_complex(args.z0), args.rho,
                                 (args.nmin, args.nmax), args.nodes)
    values = {f"a_{n}": coeffs[n] for n in sorted(coeffs)}
    return "pass", None, None, values, {}


def _cmd_conjugate(args):
    from . import cplx
    region = _parse_region(args.region, ("x", "y"))
    out = cplx.harmonic_conjugate(parse(args.v), _floats(args.base, "base"), region,
                                  grid=args.grid, laplace_tol=args.laplace_tol,
                                  cr_tol=args.cr_tol)
    status, max_res, tol, values, diag = _from_check(out.cr_report)
    values["laplacian_residual"] = out.laplacian_report.max_residual
    values["u_at_upper_corner"] = float(out.u_grid[-1, -1])
    if args.dump_csv:
        with open(args.dump_csv, "w") as fh:
            fh.write("x,y,u\n")
            for i, xv in enumerate(out.x_axis):
                for j, yv in enumerate(out.y_axis):
                    fh.write(",".join(format(v, ".17g")
                                      for v in (xv, yv, out.u_grid[i, j])) + "\n")
    return status, max_res, tol, values, diag


def _cmd_ode_exact(args):
    from . import odekit
    ode = odekit.ExactODE(parse(args.M), parse(args.N))
    region = _parse_region(args.region, ("x", "y")) if args.region else None
    base = _floats(args.base, "base") if args.base else None
    sol = odekit.exact_solve(ode, args.x0, args.y0, region, base=base, tol=args.tol)
    return "pass", None, None, {"C0": sol.C0}, {"base": list(sol.base)}


def _cmd_ode_mu(args):
    from . import odekit
    ode = odekit.ExactODE(parse(args.M), parse(args.N))
    region = _parse_region(args.region, ("x", "y"))
    rep, transformed = odekit.integrating_factor_apply(ode, parse(args.mu), region,
                                                       args.tol, args.grid)
    status, max_res, tol, values, diag = _from_check(rep)
    diag["transformed_M"] = render(transformed.M)
    diag["transformed_N"] = render(transformed.N)
    return status, max_res, tol, values, diag


def _cmd_energy(args):
    from . import odekit
    problem = odekit.EnergyProblem(parse(args.F), args.m, args.x0, args.v0,
                                   t0=args.t0, x_ref=args.x_ref)
    if (args.x_target is None) == (args.t_target is None):
        raise UsageError("give exactly one of --x-target, --t-target")
    sol = odekit.energy_solve(problem, x_target=args.x_target,
                              t_target=args.t_target, samples=args.samples)
    if args.dump_csv:
        _dump_csv(args.dump_csv, sol.trajectory)
    values = {"E": sol.E, "x_end": sol.x_end, "t_end": sol.t_end}
    return "pass", None, None, values, {"samples": len(sol.trajectory.ts)}


def _cmd_rk4(args):
    from . import odesys
    sys_ = _parse_system(args)
    t0, t1 = _floats(args.t_span, "t-span")
    x0 = _floats(args.x0, "x0")
    ts, endpoint = _trace(odesys.RK4Traces(sys_), x0, (t0, t1), args.h, args.dump_csv)
    values = {"endpoint": list(endpoint), "steps": len(ts) - 1}
    return "pass", None, None, values, {}


def _trace(traces, x0, t_span, h, dump_csv, empty=False):
    """Time stamps and endpoint of the trace from x0 over t_span; only with
    `dump_csv`, which then receives every state, is more than the endpoint
    stored."""
    if not dump_csv:
        return traces.trajectory_end(x0, t_span, h, empty)
    traj = traces.trajectory(x0, t_span, h, empty)
    _dump_csv(dump_csv, traj)
    return traj.ts, traj.endpoint


def _cmd_drift(args):
    from . import odesys
    sys_ = _parse_system(args)
    rep = odesys.first_integral_drift(parse(args.phi), sys_, _floats(args.x0, "x0"),
                                      args.T, args.h, args.tol)
    return _from_check(rep)


def _cmd_eigen(args):
    from . import odesys
    pairs = odesys.eigen_solve(_parse_matrix(args.A))
    values = {
        "eigenvalues": [p.value for p in pairs],
        "multiplicities": [p.multiplicity for p in pairs],
        "eigenvectors": [[list(v) for v in p.vectors] for p in pairs],
        "chain_depths": [p.chain_depth for p in pairs],
    }
    return "pass", None, None, values, {}


def _cmd_linsolve(args):
    from . import odesys
    A = _parse_matrix(args.A)
    if np.iscomplexobj(A):
        raise UsageError("linsolve takes a real matrix")
    x0 = _floats(args.x0, "x0")
    t_eval = np.linspace(0.0, args.T, args.samples)
    res = odesys.linear_solve(A, x0, t_eval)
    if args.dump_csv:
        _dump_csv(args.dump_csv, res.trajectory)
    values = {"endpoint": list(res.trajectory.endpoint),
              "fit_residual": res.fit_residual}
    diag = {"modes": [{"eigenvalue": m.eigenvalue, "multiplicity": m.multiplicity,
                       "coefficients": [list(c) for c in m.coefficients]}
                      for m in res.modes]}
    return "pass", None, None, values, diag


def _cmd_matexp(args):
    from . import odesys
    E = odesys.matrix_exp(_parse_matrix(args.A), args.t)
    return "pass", None, None, {"matrix": [list(row) for row in E]}, {}


def _cmd_lie(args):
    from . import flow
    V = VectorField(tuple(args.vars.split(",")), tuple(parse(p) for p in args.V.split(";")))
    value = flow.lie_derivative(V, parse(args.f), _floats(args.point, "point"))
    return "pass", None, None, {"lie_derivative": value}, {}


def _cmd_flow(args):
    from . import flow
    V = VectorField(tuple(args.vars.split(",")), tuple(parse(p) for p in args.V.split(";")))
    point = flow.lie_series_flow(V, _floats(args.x0, "x0"), args.t, args.order)
    return "pass", None, None, {"point": list(point)}, {}


def _cmd_equilibrium(args):
    from . import flow
    V = VectorField(tuple(args.vars.split(",")), tuple(parse(p) for p in args.V.split(";")))
    point = flow.equilibrium_find(V, _floats(args.seed, "seed"), args.tol)
    return "pass", None, None, {"point": list(point)}, {}


def _pde_from_args(args) -> charpde.QuasilinearPDE:
    from . import charpde
    return charpde.QuasilinearPDE(parse(args.P), parse(args.Q), parse(args.R))


def _cmd_pde_char(args):
    from . import odesys
    pde = _pde_from_args(args)
    t0, t1 = _floats(args.t_span, "t-span")
    start = _floats(args.start, "start")
    _, endpoint = _trace(odesys.RK4Traces(pde.characteristic_system), start, (t0, t1), args.h,
                         args.dump_csv, empty=True)
    return "pass", None, None, {"endpoint": list(endpoint)}, {}


def _cmd_pde_solve(args):
    from . import charpde
    pde = _pde_from_args(args)
    parts = args.ic.split(";")
    if len(parts) != 5:
        raise UsageError("initial curve needs 'x0(s);y0(s);z0(s);s_start;s_end'")
    ic = charpde.InitialCurve("s", parse(parts[0]), parse(parts[1]), parse(parts[2]),
                              float(parts[3]), float(parts[4]))
    queries = [_floats(q, "query") for q in args.query]
    sol = charpde.solve_cauchy(pde, ic, queries, h=args.h,
                               newton_tol=args.newton_tol, t_max=args.t_max)
    diag = {"params": [list(p) for p in sol.params],
            "iterations": list(sol.iterations)}
    return "pass", None, None, {"z": list(sol.z_values)}, diag


def _cmd_pde_residual(args):
    from . import charpde
    pde = _pde_from_args(args)
    region = _parse_region(args.region, ("x", "y"))
    rep = charpde.pde_residual(pde, parse(args.z), region, args.tol, args.grid)
    return _from_check(rep)


def _cmd_bt_check(args):
    from . import btlax
    indep = tuple(args.vars.split(","))
    bt = btlax.BTSystem(parse(args.B1), parse(args.B2), parse(args.Pu),
                        parse(args.Qv), indep=indep)
    region = _parse_region(args.region, indep)
    rep = btlax.bt_residual(bt, parse(args.u), parse(args.v), region,
                            args.tol, args.grid)
    return _from_check(rep)


def _cmd_sg_kink(args):
    from . import btlax
    u = btlax.sine_gordon_kink(args.a, args.C)
    region = Region(("x", "t"), ((-2.0, 2.0), (-2.0, 2.0)))
    bt_rep = btlax.bt_residual(btlax.sine_gordon_bt(args.a), u, parse("0"),
                               region, args.tol, args.grid)
    values = {"u_at_origin": u.eval({"x": 0.0, "t": 0.0}).real,
              "bt_residual": bt_rep.max_residual}
    return bt_rep.status, bt_rep.max_residual, bt_rep.tolerance, values, \
        {"expression": render(u)}


def _cmd_kdv_lax(args):
    from . import btlax
    dev = btlax.lax_commuting_flow(parse(args.u), args.lam, args.psi0,
                                   args.x0, args.t0,
                                   _floats(args.delta, "delta"), args.steps,
                                   psi_x0=args.psi_x0)
    return "pass", None, None, {"deviation": dev.deviation}, {}


def _cmd_maxwell_wave(args):
    from . import btlax
    wave, E, B = btlax.maxwell_plane_wave(
        _floats(args.k_dir, "k-dir"), args.E0, alpha=args.alpha,
        omega=args.omega, wavelength=args.wavelength, eps0mu0=args.eps0mu0,
        E0_dir=_floats(args.E0_dir, "E0-dir") if args.E0_dir else None)
    values = {"omega": wave.omega, "c": wave.c, "k": list(wave.k),
              "E0R": list(wave.E0R), "B0R": list(wave.B0R)}
    diag = {"E": [render(c) for c in E], "B": [render(c) for c in B]}
    return "pass", None, None, values, diag


def _cmd_maxwell_check(args):
    from . import btlax
    region = _parse_region(args.region, ("x", "y", "z", "t"))
    E = tuple(parse(p) for p in args.E.split(";"))
    B = tuple(parse(p) for p in args.B.split(";"))
    rep = btlax.maxwell_residual(E, B, args.eps0mu0, region, args.tol, args.grid)
    return _from_check(rep)


# --------------------------------------------------------------------------
# Argument wiring
# --------------------------------------------------------------------------

def _build_commands():
    """Each command: (handler, [(flag, kwargs), ...])."""
    def opt(name, **kw):
        return (name, kw)

    field_flags = [opt("--P", required=True), opt("--Q", required=True), opt("--R")]
    grid_tol = [opt("--grid", type=int, default=41), opt("--tol", type=float, default=1e-9)]
    csv = [opt("--dump-csv")]
    commands = {
        "exact-check": (_cmd_exact_check, field_flags + [
            opt("--region", required=True), opt("--exclude")] + grid_tol),
        "line-integral": (_cmd_line_integral, field_flags + [
            opt("--curve", required=True), opt("--interval", required=True),
            opt("--panels", type=int, default=64),
            opt("--closed", action="store_true")]),
        "potential": (_cmd_potential, field_flags + [
            opt("--base", required=True), opt("--target", required=True),
            opt("--panels", type=int, default=64)]),
        "path-probe": (_cmd_path_probe, field_flags + [
            opt("--A", required=True), opt("--B", required=True),
            opt("--path", action="append", required=True),
            opt("--tol", type=float, default=1e-8),
            opt("--panels", type=int, default=64)]),
        "cr-check": (_cmd_cr_check, [
            opt("--u", required=True), opt("--v", required=True),
            opt("--region", required=True)] + grid_tol),
        "contour": (_cmd_contour, [
            opt("--f", required=True), opt("--circle"),
            opt("--orient", choices=["ccw", "cw"], default="ccw"),
            opt("--curve"), opt("--interval"), opt("--closed", action="store_true"),
            opt("--nodes", type=int, default=256)]),
        "cauchy": (_cmd_cauchy, [
            opt("--f", required=True), opt("--z0", required=True), opt("--circle"),
            opt("--orient", choices=["ccw", "cw"], default="ccw"),
            opt("--curve"), opt("--interval"), opt("--closed", action="store_true"),
            opt("--nodes", type=int, default=256)]),
        "laurent": (_cmd_laurent, [
            opt("--f", required=True), opt("--z0", required=True),
            opt("--rho", type=float, required=True),
            opt("--nmin", type=int, required=True), opt("--nmax", type=int, required=True),
            opt("--nodes", type=int, default=256)]),
        "conjugate": (_cmd_conjugate, [
            opt("--v", required=True), opt("--base", required=True),
            opt("--region", required=True), opt("--grid", type=int, default=41),
            opt("--laplace-tol", type=float, default=1e-8),
            opt("--cr-tol", type=float, default=1e-7)] + csv),
        "ode-exact": (_cmd_ode_exact, [
            opt("--M", required=True), opt("--N", required=True),
            opt("--x0", type=float, required=True), opt("--y0", type=float, required=True),
            opt("--region"), opt("--base"), opt("--tol", type=float, default=1e-9)]),
        "ode-mu": (_cmd_ode_mu, [
            opt("--M", required=True), opt("--N", required=True),
            opt("--mu", required=True), opt("--region", required=True)] + grid_tol),
        "energy": (_cmd_energy, [
            opt("--F", required=True), opt("--m", type=float, required=True),
            opt("--x0", type=float, required=True), opt("--v0", type=float, required=True),
            opt("--t0", type=float, default=0.0), opt("--x-ref", type=float, default=0.0),
            opt("--x-target", type=float), opt("--t-target", type=float),
            opt("--samples", type=int, default=50)] + csv),
        "rk4": (_cmd_rk4, [
            opt("--f", required=True), opt("--vars", required=True),
            opt("--x0", required=True), opt("--t-span", required=True),
            opt("--h", type=float, required=True), opt("--time-var")] + csv),
        "drift": (_cmd_drift, [
            opt("--f", required=True), opt("--vars", required=True),
            opt("--x0", required=True), opt("--phi", required=True),
            opt("--T", type=float, required=True), opt("--h", type=float, required=True),
            opt("--time-var"), opt("--tol", type=float)]),
        "eigen": (_cmd_eigen, [opt("--A", required=True)]),
        "linsolve": (_cmd_linsolve, [
            opt("--A", required=True), opt("--x0", required=True),
            opt("--T", type=float, default=1.0),
            opt("--samples", type=int, default=101)] + csv),
        "matexp": (_cmd_matexp, [
            opt("--A", required=True), opt("--t", type=float, default=1.0)]),
        "lie": (_cmd_lie, [
            opt("--V", required=True), opt("--vars", required=True),
            opt("--f", required=True), opt("--point", required=True)]),
        "flow": (_cmd_flow, [
            opt("--V", required=True), opt("--vars", required=True),
            opt("--x0", required=True), opt("--t", type=float, required=True),
            opt("--order", type=int, default=10)]),
        "equilibrium": (_cmd_equilibrium, [
            opt("--V", required=True), opt("--vars", required=True),
            opt("--seed", required=True), opt("--tol", type=float, default=1e-12)]),
        "pde-char": (_cmd_pde_char, [
            opt("--P", required=True), opt("--Q", required=True), opt("--R", required=True),
            opt("--start", required=True), opt("--t-span", required=True),
            opt("--h", type=float, default=0.01)] + csv),
        "pde-solve": (_cmd_pde_solve, [
            opt("--P", required=True), opt("--Q", required=True), opt("--R", required=True),
            opt("--ic", required=True), opt("--query", action="append", required=True),
            opt("--h", type=float, default=0.01),
            opt("--newton-tol", type=float, default=1e-10),
            opt("--t-max", type=float, default=5.0)]),
        "pde-residual": (_cmd_pde_residual, [
            opt("--P", required=True), opt("--Q", required=True), opt("--R", required=True),
            opt("--z", required=True), opt("--region", required=True)] + grid_tol),
        "bt-check": (_cmd_bt_check, [
            opt("--B1", required=True), opt("--B2", required=True),
            opt("--Pu", required=True), opt("--Qv", required=True),
            opt("--u", required=True), opt("--v", required=True),
            opt("--region", required=True), opt("--vars", default="x,t")] + grid_tol),
        "sg-kink": (_cmd_sg_kink, [
            opt("--a", type=float, required=True), opt("--C", type=float, required=True),
            opt("--grid", type=int, default=41), opt("--tol", type=float, default=1e-9)]),
        "kdv-lax": (_cmd_kdv_lax, [
            opt("--u", required=True), opt("--lam", type=float, required=True),
            opt("--psi0", type=float, default=1.0), opt("--psi-x0", type=float, default=0.0),
            opt("--x0", type=float, default=0.0), opt("--t0", type=float, default=0.0),
            opt("--delta", default="0.2,0.2"), opt("--steps", type=int, default=16)]),
        "maxwell-wave": (_cmd_maxwell_wave, [
            opt("--k-dir", required=True), opt("--E0", type=float, required=True),
            opt("--alpha", type=float, default=0.0), opt("--omega", type=float),
            opt("--wavelength", type=float), opt("--eps0mu0", type=float, default=1.0),
            opt("--E0-dir")]),
        "maxwell-check": (_cmd_maxwell_check, [
            opt("--E", required=True), opt("--B", required=True),
            opt("--region", required=True), opt("--eps0mu0", type=float, default=1.0),
            opt("--grid", type=int, default=5), opt("--tol", type=float, default=1e-9)]),
    }
    return commands


COMMANDS = _build_commands()


def _parse_argv(argv):
    """Minimal deterministic flag parser (argparse would sys.exit on errors
    before a report could be emitted)."""
    if not argv:
        raise UsageError("no command given; expected one of: "
                         + ", ".join(sorted(COMMANDS)))
    pretty = False
    rest = []
    for a in argv:
        if a == "--pretty":
            pretty = True
        else:
            rest.append(a)
    if rest and rest[0] == "--task":
        if len(rest) != 2:
            raise UsageError("--task takes exactly one file argument")
        rest = _load_task(rest[1])
    if not rest:
        raise UsageError("task file or command line named no command")
    command, flags = rest[0], rest[1:]
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    handler, flag_spec = COMMANDS[command]
    table = {name: kw for name, kw in flag_spec}
    values = {}
    inputs = {}
    i = 0
    while i < len(flags):
        flag = flags[i]
        if flag == "--pretty":
            pretty = True
            i += 1
            continue
        if not flag.startswith("--") or flag not in table:
            raise UsageError(f"unknown flag {flag!r} for command {command!r}")
        kw = table[flag]
        dest = flag[2:].replace("-", "_")
        if kw.get("action") == "store_true":
            values[dest] = True
            inputs[flag[2:]] = "true"
            i += 1
            continue
        if i + 1 >= len(flags):
            raise UsageError(f"flag {flag!r} needs a value")
        raw = flags[i + 1]
        if kw.get("action") == "append":
            inputs.setdefault(flag[2:], []).append(raw)
        else:
            inputs[flag[2:]] = raw
        typ = kw.get("type", str)
        try:
            val = typ(raw)
        except ValueError:
            raise UsageError(f"bad value {raw!r} for {flag!r}")
        if "choices" in kw and val not in kw["choices"]:
            raise UsageError(f"{flag!r} must be one of {kw['choices']}")
        if kw.get("action") == "append":
            values.setdefault(dest, []).append(val)
        else:
            values[dest] = val
        i += 2
    for name, kw in flag_spec:
        dest = name[2:].replace("-", "_")
        if dest not in values:
            if kw.get("required"):
                raise UsageError(f"missing required flag {name!r}")
            if kw.get("action") == "store_true":
                values[dest] = False
            else:
                values[dest] = kw.get("default")
    ns = type("Args", (), values)()
    return command, handler, ns, inputs, pretty


def _load_task(path: str):
    """Task file: 'kind = command' plus 'key = value' lines (repeats allowed)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as ex:
        raise UsageError(f"cannot read task file: {ex}")
    kind = None
    pairs = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"task line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "kind":
            kind = value
        else:
            pairs.append((key, value))
    if kind is None:
        raise UsageError("task file has no 'kind = <command>' line")
    if kind not in COMMANDS:
        raise UsageError(f"unknown command {kind!r} in task file")
    allowed = {name[2:] for name, _ in COMMANDS[kind][1]}
    argv = [kind]
    for key, value in pairs:
        if key not in allowed:
            raise UsageError(f"unknown task key {key!r} for command {kind!r}")
        kw = dict(COMMANDS[kind][1])[f"--{key}"]
        if kw.get("action") == "store_true":
            if value.lower() in ("1", "true", "yes"):
                argv.append(f"--{key}")
            continue
        argv.extend([f"--{key}", value])
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pretty = "--pretty" in argv
    command = argv[0] if argv and not argv[0].startswith("--") else "?"
    try:
        command, handler, args, inputs, pretty = _parse_argv(argv)
    except (UsageError, ParseError, ValueError) as ex:
        report = _report(command, {}, "error", diagnostics={"error": str(ex)})
        _emit(report, pretty)
        return USAGE_ERROR
    try:
        status, max_res, tol, values, diagnostics = handler(args)
    except (UsageError, ParseError, NonDifferentiableError) as ex:
        _emit(_report(command, inputs, "error", diagnostics={"error": str(ex)}), pretty)
        return USAGE_ERROR
    except (NumericError, np.linalg.LinAlgError, ZeroDivisionError, RuntimeError) as ex:
        _emit(_report(command, inputs, "error", diagnostics={"error": str(ex)}), pretty)
        return NUMERIC_ERROR
    except (ValueError, TypeError) as ex:
        _emit(_report(command, inputs, "error", diagnostics={"error": str(ex)}), pretty)
        return USAGE_ERROR
    report = _report(command, inputs, status, max_res, tol, values, diagnostics)
    _emit(report, pretty)
    return 0 if status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
