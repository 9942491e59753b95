"""Seeded known-answer request generators, one per workload.

A request is the argv of one `integrikit` command plus what its report
must say: the exit code and a list of checks on report fields.  Every
expected verdict and value comes from a closed form in `forms`; the
tolerances are stated next to each template.

Request k of a run uses template k mod T of its workload and a private
`random.Random` seeded from (workload, seed, k), so the same seed gives
the same requests.  The size (grid, panels, nodes, steps) and the
variant of the j-th request of a template come from fixed irrational
sequences that do not depend on the seed: every run sends the same
schedule of sizes and variants, and the seed changes the expressions
and coefficients.  Every request carries fresh coefficients, so no
request is served from a compile cache filled by an earlier one.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

import numpy as np

from forms import (SILVER, Analytic, Potential, Smooth1D, cnum, join, ladder, num, pick,
                   signed, stratified)


@dataclass
class Request:
    kind: str
    argv: list
    code: int = 0
    # (op, path, expected, tol) with op in eq, close, le, ge
    checks: list = field(default_factory=list)


def _status(status: str):
    return ("eq", "status", status, None)


def _passes(residual_tol: float):
    return [_status("pass"), ("le", "max_residual", residual_tol, None)]


def _fails_with(residual: float, tol: float):
    return [_status("fail"), ("close", "max_residual", residual, tol)]


def _box(rng, n: int, lo=(-2.0, -1.0), hi=(1.0, 2.0)):
    return [(round(rng.uniform(*lo), 3), round(rng.uniform(*hi), 3)) for _ in range(n)]


def _region(bounds) -> str:
    return ",".join(repr(v) for pair in bounds for v in pair)


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# --------------------------------------------------------------------------
# Check evaluation
# --------------------------------------------------------------------------

def _lookup(report, path: str):
    node = report
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def _number(v):
    if isinstance(v, dict):
        return complex(_number(v["re"]), _number(v["im"]))
    if v in ("nan", "inf", "-inf"):
        return float(v)
    if isinstance(v, list):
        return [_number(x) for x in v]
    return v


def _close(got, want, tol: float) -> bool:
    if isinstance(want, (list, tuple, np.ndarray)):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, tol) for g, w in zip(got, want)))
    return abs(got - want) <= tol


def check(req: Request, code: int, report) -> str:
    """Empty string when the reply matches its known answer, else the reason."""
    if code != req.code:
        detail = report.get("diagnostics", {}).get("error", "") if isinstance(report, dict) else ""
        return f"exit code {code}, expected {req.code} {detail}".strip()
    for op, path, want, tol in req.checks:
        try:
            got = _number(_lookup(report, path))
        except (KeyError, IndexError, TypeError, ValueError):
            return f"report has no {path}"
        if op == "eq":
            ok = got == want
        elif op == "close":
            ok = _close(got, want, tol)
        elif op == "le":
            ok = got <= want
        else:
            ok = got >= want
        if not ok:
            return f"{path} = {got!r}, expected {op} {want!r}" + (f" (tol {tol:g})" if tol else "")
    return ""


# --------------------------------------------------------------------------
# grid_checks: few calls, many points each
# --------------------------------------------------------------------------

def exact_2d(rng, u, v, fail=False):
    phi = Potential.random(rng, ("x", "y"), rng.randint(1, 5))
    P, Q = phi.grad_texts()
    argv = ["exact-check", "--P", P, "--Q", Q, "--region", _region(_box(rng, 2)),
            "--grid", str(ladder(u, 41, 401)), "--tol", "1e-8"]
    if not fail:
        return Request("exact-check-2d", argv, 0, _passes(1e-8))
    eps = signed(rng, 0.01, 0.5)   # dP/dy - dQ/dx = -eps everywhere
    argv[4] = f"{Q} + {num(eps)}*x"
    return Request("exact-check-2d-fail", argv, 1, _fails_with(abs(eps), 1e-9))


def exact_3d(rng, u, v, fail=False):
    phi = Potential.random(rng, ("x", "y", "z"), rng.randint(1, 5))
    P, Q, R = phi.grad_texts()
    argv = ["exact-check", "--P", P, "--Q", Q, "--R", R, "--region", _region(_box(rng, 3)),
            "--grid", str(ladder(u, 9, 25)), "--tol", "1e-8"]
    if not fail:
        return Request("exact-check-3d", argv, 0, _passes(1e-8))
    eps = signed(rng, 0.01, 0.5)   # dP/dz - dR/dx = -eps
    argv[6] = f"{R} + {num(eps)}*x"
    return Request("exact-check-3d-fail", argv, 1, _fails_with(abs(eps), 1e-9))


def cr_check(rng, u, v, fail=False):
    f = Analytic.random(rng, rng.randint(1, 4))
    U, V = f.uv_text()
    if fail:
        eps = signed(rng, 0.01, 0.5)   # u_y + v_x = eps
        V = f"{V} + {num(eps)}*x"
    argv = ["cr-check", "--u", U, "--v", V, "--region", _region(_box(rng, 2)),
            "--grid", str(ladder(u, 41, 401)), "--tol", "1e-8"]
    if fail:
        return Request("cr-check-fail", argv, 1, _fails_with(abs(eps), 1e-9))
    return Request("cr-check", argv, 0, _passes(1e-8))


def ode_mu(rng, u, v, fail=False):
    """M = phi_x/mu, N = phi_y/mu: mu is an integrating factor by construction."""
    phi = Potential.random(rng, ("x", "y"), rng.randint(1, 3))
    px, py = phi.grad_texts()
    if rng.random() < 0.5:
        mu = f"exp({num(signed(rng, 0.1, 0.5))}*x + {num(signed(rng, 0.1, 0.5))}*y)"
    else:
        mu = f"{num(rng.uniform(0.5, 2.0))} + x^2 + y^2"
    eps = signed(rng, 0.01, 0.5)
    if fail:   # mu*N = phi_y + eps*x, so d(mu M)/dy - d(mu N)/dx = -eps
        py = f"{py} + {num(eps)}*x"
    argv = ["ode-mu", "--M", f"({px})/({mu})", "--N", f"({py})/({mu})", "--mu", mu,
            "--region", _region(_box(rng, 2)), "--grid", str(ladder(u, 41, 401)),
            "--tol", "1e-7"]
    if fail:
        return Request("ode-mu-fail", argv, 1, _fails_with(abs(eps), 1e-8))
    return Request("ode-mu", argv, 0, _passes(1e-7))


def pde_residual(rng, u, v, fail=False):
    bounds = _box(rng, 2)
    g = Smooth1D.random(rng, rng.randint(1, 3), bmax=0.25)
    eps = signed(rng, 0.01, 0.5)
    if pick(v, (True, False)):
        # a z_x + b z_y = c  is solved by  z = (c/a) x + g(b x - a y)
        a, b, c = signed(rng, 0.5, 2.0), signed(rng, 0.5, 2.0), signed(rng, 0.2, 1.0)
        P, Q, R = num(a), num(b), num(c)
        z = f"{num(c / a)}*x + {g.text(f'{num(b)}*x - {num(a)}*y')}"
        broken = f"{z} + {num(eps)}*y"     # residual b*eps everywhere
        residual = abs(b * eps)
    else:
        # -w y z_x + w x z_y = 0  is solved by  z = g(x^2 + y^2)
        w = signed(rng, 0.5, 2.0)
        P, Q, R = f"{num(-w)}*y", f"{num(w)}*x", "0"
        z = g.text("x^2 + y^2")
        broken = f"{z} + {num(eps)}*x"     # residual -w y eps, largest on the edge
        residual = abs(w * eps) * max(abs(bounds[1][0]), abs(bounds[1][1]))
    argv = ["pde-residual", "--P", P, "--Q", Q, "--R", R, "--z", broken if fail else z,
            "--region", _region(bounds), "--grid", str(ladder(u, 41, 401)), "--tol", "1e-8"]
    if fail:
        return Request("pde-residual-fail", argv, 1, _fails_with(residual, 1e-8))
    return Request("pde-residual", argv, 0, _passes(1e-8))


def bt_check(rng, u, v, fail=False):
    """Cauchy-Riemann as an auto-Backlund transformation of Laplace's equation."""
    f = Analytic.random(rng, rng.randint(1, 3))
    U, V = f.uv_text()
    eps = signed(rng, 0.01, 0.5)
    if fail:
        V = f"{V} + {num(eps)}*x"          # B2 = u_y + v_x = eps
    argv = ["bt-check", "--B1", "u_x - v_y", "--B2", "u_y + v_x",
            "--Pu", "u_xx + u_yy", "--Qv", "v_xx + v_yy", "--u", U, "--v", V,
            "--region", _region(_box(rng, 2)), "--vars", "x,y",
            "--grid", str(ladder(u, 41, 401)), "--tol", "1e-8"]
    if fail:
        return Request("bt-check-fail", argv, 1, _fails_with(abs(eps), 1e-8))
    return Request("bt-check", argv, 0, _passes(1e-8))


def sg_kink(rng, u, v):
    a, C = signed(rng, 0.5, 1.5), rng.uniform(0.5, 1.5)
    argv = ["sg-kink", "--a", repr(a), "--C", repr(C), "--grid", str(ladder(u, 41, 201))]
    return Request("sg-kink", argv, 0, _passes(1e-9) + [
        ("close", "values.u_at_origin", 4 * math.atan(C), 1e-12)])


def maxwell_check(rng, u, v, fail=False):
    """E = A e cos(k.x - w t), B = k x E / w; Maxwell holds iff w^2 eps0mu0 = |k|^2."""
    k = np.array([signed(rng, 0.3, 1.5) for _ in range(3)])
    e = np.cross(k, [rng.uniform(-1, 1) for _ in range(3)])
    e /= np.linalg.norm(e)
    A, eps0mu0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    w0 = float(np.linalg.norm(k)) / math.sqrt(eps0mu0)
    w = w0 * (1 + signed(rng, 0.02, 0.2)) if fail else w0
    phase = f"{num(k[0])}*x + {num(k[1])}*y + {num(k[2])}*z + {num(-w)}*t"
    kxe = np.cross(k, e)
    E = ";".join(f"{num(A * c)}*cos({phase})" for c in e)
    B = ";".join(f"{num(A * c / w)}*cos({phase})" for c in kxe)
    grid = ladder(u, 5, 9)
    bounds = [(-1.0, 1.0)] * 3 + [(0.0, 2.0)]
    argv = ["maxwell-check", "--E", E, "--B", B, "--region", _region(bounds),
            "--eps0mu0", repr(eps0mu0), "--grid", str(grid), "--tol", "1e-9"]
    if not fail:
        return Request("maxwell-check", argv, 0, _passes(1e-9))
    # curl B - eps0mu0 dE/dt = A sin(phase) e (|k|^2/w - eps0mu0 w)
    axes = [np.linspace(lo, hi, grid) for lo, hi in bounds]
    X, Y, Z, T = np.meshgrid(*axes, indexing="ij")
    smax = float(np.max(np.abs(np.sin(k[0] * X + k[1] * Y + k[2] * Z - w * T))))
    gap = abs(float(k @ k) / w - eps0mu0 * w)
    residual = A * smax * float(np.max(np.abs(e))) * gap
    return Request("maxwell-check-fail", argv, 1, _fails_with(residual, 1e-9 * (1 + residual)))


# --------------------------------------------------------------------------
# quadrature: thousands of small eval_many calls
# --------------------------------------------------------------------------

def _curve(rng, start):
    """x_i(t) = p + q t + r t^2 + s sin(w t) on [0, 1]: its text and its end point."""
    coefs = [(p, signed(rng, 0.1, 0.7), signed(rng, 0.05, 0.4), signed(rng, 0.05, 0.3),
              signed(rng, 0.5, 3.0)) for p in start]
    text = ";".join(f"{num(p)} + {num(q)}*t + {num(r)}*t^2 + {num(s)}*sin({num(w)}*t)"
                    for p, q, r, s, w in coefs)
    end = [p + q + r + s * math.sin(w) for p, q, r, s, w in coefs]
    return text, end


def _field(phi):
    """--P --Q [--R] flags of grad phi."""
    return [a for flag, g in zip(("--P", "--Q", "--R"), phi.grad_texts()) for a in (flag, g)]


def line_integral(rng, u, v):
    n = pick(v, (2, 3))
    phi = Potential.random(rng, ("x", "y", "z")[:n], rng.randint(1, 4))
    start = [rng.uniform(-1, 1) for _ in range(n)]
    text, end = _curve(rng, start)
    argv = ["line-integral", *_field(phi), "--curve", text, "--interval", "0,1",
            "--panels", str(ladder(u, 8, 128))]
    want = phi.value(end) - phi.value(start)
    return Request("line-integral", argv, 0, [
        ("close", "values.integral", want, 1e-8 * (1 + abs(want)))])


def potential(rng, u, v):
    n = pick(v, (2, 3))
    phi = Potential.random(rng, ("x", "y", "z")[:n], rng.randint(1, 4))
    base = [round(rng.uniform(-1.5, 1.5), 3) for _ in range(n)]
    target = [round(rng.uniform(-1.5, 1.5), 3) for _ in range(n)]
    argv = ["potential", *_field(phi), "--base", _csv(base), "--target", _csv(target),
            "--panels", str(ladder(u, 8, 128))]
    want = phi.value(target) - phi.value(base)
    return Request("potential", argv, 0, [
        ("close", "values.potential", want, 1e-8 * (1 + abs(want)))])


def _area_term(A, B, bump):
    """Exact integral of x dy - y dx along A + (B - A) t + bump t (1 - t), t in [0, 1]."""
    P = np.polynomial.Polynomial
    x = P([A[0], B[0] - A[0] + bump[0], -bump[0]])
    y = P([A[1], B[1] - A[1] + bump[1], -bump[1]])
    integrand = (x * y.deriv() - y * x.deriv()).integ()
    return float(integrand(1.0) - integrand(0.0))


def path_probe(rng, u, v, fail=False):
    phi = Potential.random(rng, ("x", "y"), rng.randint(1, 4))
    P, Q = phi.grad_texts()
    A = [round(rng.uniform(-1.5, 0.0), 3) for _ in range(2)]
    B = [round(rng.uniform(0.0, 1.5), 3) for _ in range(2)]
    bumps = [(0.0, 0.0)] + [(signed(rng, 0.2, 1.0), signed(rng, 0.2, 1.0))
                            for _ in range(rng.randint(1, 2))]
    paths = []
    for bx, by in bumps:
        xs = f"{num(A[0])} + {num(B[0] - A[0] + bx)}*t + {num(-bx)}*t^2"
        ys = f"{num(A[1])} + {num(B[1] - A[1] + by)}*t + {num(-by)}*t^2"
        paths += ["--path", f"{xs};{ys};0;1"]
    eps = signed(rng, 0.05, 0.5)
    if fail:   # adds eps (-y, x), whose work along a path is eps * (x dy - y dx)
        P, Q = f"{P} + {num(-eps)}*y", f"{Q} + {num(eps)}*x"
    panels = ladder(u, 8, 128)
    argv = ["path-probe", "--P", P, "--Q", Q, "--A", _csv(A), "--B", _csv(B), *paths,
            "--tol", "1e-8", "--panels", str(panels)]
    base = phi.value(B) - phi.value(A)
    if not fail:
        return Request("path-probe", argv, 0, _passes(1e-8) + [
            ("close", f"values.I{k}", base, 1e-8 * (1 + abs(base))) for k in range(len(bumps))])
    works = [base + eps * _area_term(A, B, b) for b in bumps]
    spread = max(works) - min(works)
    return Request("path-probe-fail", argv, 1, _fails_with(spread, 1e-8 * (1 + spread)) + [
        ("close", f"values.I{k}", w, 1e-8 * (1 + abs(w))) for k, w in enumerate(works)])


def _poles(rng, inside_max: float, outside_min: float, orders=(1, 2)):
    """1-3 poles (c, p, n, inside) in the unit-scaled plane."""
    out = []
    for _ in range(rng.randint(1, 3)):
        inside = rng.random() < 0.5
        rho = rng.uniform(0.0, inside_max) if inside else rng.uniform(outside_min, 2 * outside_min)
        out.append((complex(signed(rng, 0.2, 1.0), signed(rng, 0.2, 1.0)),
                    rho * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                    rng.choice(orders), inside))
    return out


def _pole_text(c, p, n) -> str:
    return f"{cnum(c)}/(z-{cnum(p)})" + (f"^{n}" if n > 1 else "")


def contour_circle(rng, u, v):
    c0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    r = rng.uniform(0.5, 1.5)
    poles = [(c, c0 + r * p, n, inside) for c, p, n, inside in _poles(rng, 0.6, 1.6)]
    entire = Analytic.random(rng, rng.randint(0, 2))
    f = join([_pole_text(c, p, n) for c, p, n, _ in poles] + [entire.z_text()])
    orient = rng.choice(("ccw", "cw"))
    want = 2j * math.pi * sum(c for c, _, n, inside in poles if inside and n == 1)
    want *= 1 if orient == "ccw" else -1
    argv = ["contour", "--f", f, "--circle", _csv([c0.real, c0.imag, r]), "--orient", orient,
            "--nodes", str(ladder(u, 64, 1024))]
    return Request("contour-circle", argv, 0, [("close", "values.integral", want, 1e-9)])


def contour_ellipse(rng, u, v):
    c0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    a, b = rng.uniform(0.6, 1.5), rng.uniform(0.6, 1.5)
    poles = []
    for c, p, _, inside in _poles(rng, 0.4, 2.2, orders=(1,)):
        poles.append((c, c0 + complex(a * p.real, b * p.imag), 1, inside))
    f = join(_pole_text(c, p, n) for c, p, n, _ in poles)
    curve = f"{num(c0.real)} + {num(a)}*cos(t);{num(c0.imag)} + {num(b)}*sin(t)"
    want = 2j * math.pi * sum(c for c, _, _, inside in poles if inside)
    argv = ["contour", "--f", f, "--curve", curve, "--interval", f"0,{2 * math.pi!r}",
            "--closed", "--nodes", str(ladder(u, 256, 1280))]
    return Request("contour-ellipse", argv, 0, [("close", "values.integral", want, 1e-8)])


def cauchy(rng, u, v):
    f = Analytic.random(rng, rng.randint(1, 3))
    c0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    r = rng.uniform(0.5, 1.5)
    z0 = c0 + r * rng.uniform(0, 0.6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    want = f.value(z0)
    argv = ["cauchy", "--f", f.z_text(), "--z0", _csv([z0.real, z0.imag]),
            "--circle", _csv([c0.real, c0.imag, r]), "--nodes", str(ladder(u, 64, 1024))]
    return Request("cauchy", argv, 0, [("close", "values.value", want, 1e-9 * (1 + abs(want)))])


def laurent(rng, u, v):
    """c1/(z-z0) + c2/(z-z0)^2 + c exp(b (z-z0)) + d/(z-p) with |p - z0| > 2 rho."""
    z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    rho = rng.uniform(0.3, 1.0)
    c1, c2, c, d = (complex(signed(rng, 0.2, 1.0), signed(rng, 0.2, 1.0)) for _ in range(4))
    b = signed(rng, 0.3, 1.5)
    p = z0 + rho * rng.uniform(2.0, 4.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    f = join([_pole_text(c1, z0, 1), _pole_text(c2, z0, 2),
              f"{cnum(c)}*exp({num(b)}*(z-{cnum(z0)}))", _pole_text(d, p, 1)])
    nmax = rng.randint(2, 6)
    want = {-2: c2, -1: c1}
    for n in range(nmax + 1):
        want[n] = c * b ** n / math.factorial(n) - d / (p - z0) ** (n + 1)
    argv = ["laurent", "--f", f, "--z0", _csv([z0.real, z0.imag]), "--rho", repr(rho),
            "--nmin", "-2", "--nmax", str(nmax), "--nodes", str(ladder(u, 64, 1024))]
    return Request("laurent", argv, 0, [
        ("close", f"values.a_{n}", a, 1e-9 * (1 + abs(a))) for n, a in sorted(want.items())])


def conjugate(rng, u, v):
    """v = Im f; u = Re f - Re f(base).  The CR report's tolerance is the
    central-difference truncation bound h^2/6 max|f'''| of its own grid."""
    f = Analytic.random(rng, rng.randint(1, 3), amax=1.0)
    _, V = f.uv_text()
    bounds = _box(rng, 2, lo=(-1.5, -0.5), hi=(0.5, 1.5))
    base = [round(rng.uniform(lo, hi), 3) for lo, hi in bounds]
    grid = ladder(u, 11, 41)
    h = max((hi - lo) / (grid - 1) for lo, hi in bounds)
    X, Y = np.meshgrid(*(np.linspace(lo, hi, 201) for lo, hi in bounds), indexing="ij")
    m3 = float(np.max(np.abs(f.third_derivative(X + 1j * Y))))
    cr_tol = 1.1 * h * h / 6 * m3 + 1e-9
    corner = complex(bounds[0][1], bounds[1][1])
    want = (f.value(corner) - f.value(complex(*base))).real
    argv = ["conjugate", "--v", V, "--base", _csv(base), "--region", _region(bounds),
            "--grid", str(grid), "--cr-tol", repr(cr_tol)]
    return Request("conjugate", argv, 0, _passes(cr_tol) + [
        ("le", "values.laplacian_residual", 1e-8, None),
        ("close", "values.u_at_upper_corner", want, 1e-8 * (1 + abs(want)))])


def ode_exact(rng, u, v):
    phi = Potential.random(rng, ("x", "y"), rng.randint(1, 4))
    M, N = phi.grad_texts()
    x0, y0 = round(rng.uniform(-1.5, 1.5), 3), round(rng.uniform(-1.5, 1.5), 3)
    argv = ["ode-exact", "--M", M, "--N", N, "--x0", repr(x0), "--y0", repr(y0),
            "--region", "-2.5,2.5,-2.5,2.5", "--base", "0,0"]
    want = phi.value((x0, y0)) - phi.value((0.0, 0.0))
    return Request("ode-exact", argv, 0, [("close", "values.C0", want, 1e-8 * (1 + abs(want)))])


def energy(rng, u, v):
    """m x'' = F(x) with a non-polynomial force and a closed-form motion."""
    m = rng.uniform(0.5, 2.0)
    samples = ladder(u, 3, 12)
    if pick(v, (True, False)):
        # x(t) = c ln(1 + t/tau)  <=>  F = -(m c / tau^2) exp(-2 x / c), v0 = c / tau
        c, tau = rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)
        F = f"{num(-m * c / tau ** 2)}*exp({num(-2.0 / c)}*x)"
        v0 = c / tau
        X = rng.uniform(0.3, 1.5) * c
        t_end = tau * (math.exp(X / c) - 1.0)
        kind = "energy-log"
    else:
        # pendulum separatrix: x(t) = 4 atan(exp(w t)) - pi, F = -m w^2 sin(x), v0 = 2 w
        w = rng.uniform(0.5, 1.5)
        F = f"{num(-m * w * w)}*sin(x)"
        v0 = 2.0 * w
        X = rng.uniform(0.5, 2.0)
        t_end = math.log(math.tan((X + math.pi) / 4.0)) / w
        kind = "energy-pendulum"
    argv = ["energy", "--F", F, "--m", repr(m), "--x0", "0", "--v0", repr(v0),
            "--x-target", repr(X), "--samples", str(samples)]
    return Request(kind, argv, 0, [
        ("close", "values.E", 0.5 * m * v0 * v0, 1e-9),
        ("close", "values.x_end", X, 1e-12),
        ("close", "values.t_end", t_end, 1e-7 * (1 + t_end))])


# --------------------------------------------------------------------------
# trajectories: one long trace per request
# --------------------------------------------------------------------------

def _span(rng, u, lo=5.0, hi=10.0):
    T = round(rng.uniform(lo, hi), 3)
    n = ladder(u, 1000, 20000)
    return T, n, repr(T / n)


def rk4(rng, u, v):
    T, n, h = _span(rng, u)
    kind = pick(v, ("oscillator", "spiral", "riccati", "forced"))
    x0 = [round(rng.uniform(-1, 1), 3) for _ in range(3)]
    extra = []
    if kind == "oscillator":
        w2 = rng.uniform(0.25, 2.0)
        w = math.sqrt(w2)
        f, names = f"y;{num(-w2)}*x", "x,y"
        x0 = x0[:2]
        want = [x0[0] * math.cos(w * T) + x0[1] / w * math.sin(w * T),
                -x0[0] * w * math.sin(w * T) + x0[1] * math.cos(w * T)]
    elif kind == "spiral":
        a, w, b = rng.uniform(0.05, 0.3), signed(rng, 0.5, 1.5), rng.uniform(0.05, 0.5)
        f = f"{num(-a)}*x + {num(-w)}*y;{num(w)}*x + {num(-a)}*y;{num(-b)}*z"
        names = "x,y,z"
        g = math.exp(-a * T)
        want = [g * (x0[0] * math.cos(w * T) - x0[1] * math.sin(w * T)),
                g * (x0[0] * math.sin(w * T) + x0[1] * math.cos(w * T)),
                x0[2] * math.exp(-b * T)]
    elif kind == "riccati":
        x0 = [rng.uniform(0.2, 1.0), x0[1]]
        f, names = "(-1)*x^2;x*y", "x,y"
        want = [x0[0] / (1 + x0[0] * T), x0[1] * (1 + x0[0] * T)]
    else:
        w = rng.uniform(0.5, 2.0)
        f, names = f"cos({num(w)}*t);x", "x,y"
        x0 = x0[:2]
        want = [x0[0] + math.sin(w * T) / w,
                x0[1] + x0[0] * T + (1 - math.cos(w * T)) / (w * w)]
        extra = ["--time-var", "t"]
    argv = ["rk4", "--f", f, "--vars", names, "--x0", _csv(x0), "--t-span", f"0,{T!r}",
            "--h", h, *extra]
    return Request(f"rk4-{kind}", argv, 0, [
        ("close", "values.endpoint", want, 1e-7), ("eq", "values.steps", n, None)])


def drift(rng, u, v):
    T, n, h = _span(rng, u)
    kind = pick(v, ("lotka-volterra", "pendulum", "rigid-body", "broken"))
    if kind == "lotka-volterra":
        al, be, ga, de = (rng.uniform(0.5, 1.5) for _ in range(4))
        f = f"{num(al)}*x + {num(-be)}*x*y;{num(de)}*x*y + {num(-ga)}*y"
        phi = f"{num(de)}*x + {num(-ga)}*ln(x) + {num(be)}*y + {num(-al)}*ln(y)"
        names, x0 = "x,y", [rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)]
    elif kind == "pendulum":
        w2 = rng.uniform(0.5, 2.0)
        f, phi = f"y;{num(-w2)}*sin(x)", f"y^2/2 + {num(-w2)}*cos(x)"
        names, x0 = "x,y", [rng.uniform(-1, 1), rng.uniform(-1, 1)]
    elif kind == "rigid-body":
        a, b = signed(rng, 0.3, 1.0), signed(rng, 0.3, 1.0)
        c = -(a + b)
        f = f"{num(a)}*y*z;{num(b)}*x*z;{num(c)}*x*y"
        phi = "x^2 + y^2 + z^2"          # conserved because a + b + c = 0
        names, x0 = "x,y,z", [rng.uniform(-1, 1) for _ in range(3)]
    else:
        # rotation conserves x^2 + y^2; the added eps x drifts by eps (x(t) - x0)
        w, eps = signed(rng, 0.5, 1.5), signed(rng, 0.01, 0.1)
        f, phi = f"{num(-w)}*y;{num(w)}*x", f"x^2 + y^2 + {num(eps)}*x"
        names, x0 = "x,y", [rng.uniform(-1, 1), rng.uniform(-1, 1)]
    argv = ["drift", "--f", f, "--vars", names, "--x0", _csv(x0), "--phi", phi,
            "--T", repr(T), "--h", h, "--tol", "1e-6"]
    if kind != "broken":
        return Request(f"drift-{kind}", argv, 0, _passes(1e-6))
    ts = np.minimum(np.arange(n + 1) * (T / n), T)
    xs = x0[0] * np.cos(w * ts) - x0[1] * np.sin(w * ts)
    residual = float(np.max(np.abs(eps * (xs - x0[0]))))
    return Request("drift-broken", argv, 1, _fails_with(residual, 1e-7))


def pde_char(rng, u, v):
    T, n, h = _span(rng, u, 1.0, 3.0)
    start = [round(rng.uniform(-1, 1), 3) for _ in range(3)]
    x, y, z = start
    kind = pick(v, ("transport", "swirl", "burgers"))
    if kind == "transport":
        P, Q, R = (signed(rng, 0.2, 1.5) for _ in range(3))
        texts = (num(P), num(Q), num(R))
        want = [x + T * P, y + T * Q, z + T * R]
    elif kind == "swirl":
        w, k = signed(rng, 0.5, 1.5), signed(rng, 0.1, 0.5)
        texts = (f"{num(-w)}*y", f"{num(w)}*x", f"{num(k)}*z")
        want = [x * math.cos(w * T) - y * math.sin(w * T),
                x * math.sin(w * T) + y * math.cos(w * T), z * math.exp(k * T)]
    else:
        texts = ("z", "1", "0")
        want = [x + z * T, y + T, z]
    argv = ["pde-char", "--P", texts[0], "--Q", texts[1], "--R", texts[2],
            "--start", _csv(start), "--t-span", f"0,{T!r}", "--h", h]
    return Request(f"pde-char-{kind}", argv, 0, [("close", "values.endpoint", want, 1e-7)])


def kdv_lax(rng, u, v, fail=False):
    steps = ladder(u, 50, 500)     # four legs of `steps` RK4 steps each
    lam, x0, t0 = rng.uniform(0.1, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    if fail:
        # u = a x + b is no KdV solution: u_t - 6 u u_x + u_xxx = -6 a (a x + b)
        a = signed(rng, 0.5, 1.5)
        b = -a * x0 + signed(rng, 0.5, 1.0)
        field_ = f"{num(a)}*x + {num(b)}"
        checks = [("ge", "values.deviation", 1e-3, None)]
    else:
        # the soliton u = -2 k^2 sech^2(k x - 4 k^3 t - s) solves KdV
        k, s = rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5)
        field_ = f"{num(-2 * k * k)}/cosh({num(k)}*x + {num(-4 * k ** 3)}*t + {num(-s)})^2"
        checks = [("le", "values.deviation", 1e-6, None)]
    argv = ["kdv-lax", "--u", field_, "--lam", repr(lam), "--psi-x0",
            repr(round(rng.uniform(-0.5, 0.5), 3)), "--x0", repr(x0), "--t0", repr(t0),
            "--steps", str(steps)]
    return Request("kdv-lax-linear" if fail else "kdv-lax-soliton", argv, 0, checks)


def lie_flow(rng, u, v):
    kind = pick(v, ("scaling", "riccati", "rotation"))
    # D_V^l x for V = (x^2, c y) doubles in size per order; order 10 passes
    # the program's 50000-node cap, so that family stops at order 9
    order = ladder(u, 5, 9) if kind == "riccati" else ladder(u, 6, 12)
    t = rng.uniform(0.2, 0.5)
    tail = lambda q: q ** (order + 1) / math.factorial(order + 1) * math.exp(q)
    if kind == "scaling":
        a, b = signed(rng, 0.3, 1.5), signed(rng, 0.3, 1.5)
        V, names, x0 = f"{num(a)}*x;{num(b)}*y", "x,y", [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        want = [x0[0] * math.exp(a * t), x0[1] * math.exp(b * t)]
        bound = max(abs(x0[0]) * tail(abs(a * t)), abs(x0[1]) * tail(abs(b * t)))
    elif kind == "riccati":
        c = signed(rng, 0.3, 1.5)
        x0 = [rng.uniform(0.2, 0.6), rng.uniform(-1, 1)]
        V, names = f"x^2;{num(c)}*y", "x,y"
        q = x0[0] * t
        want = [x0[0] / (1 - q), x0[1] * math.exp(c * t)]
        bound = max(x0[0] * q ** (order + 1) / (1 - q), abs(x0[1]) * tail(abs(c * t)))
    else:
        w, a = signed(rng, 0.5, 1.5), signed(rng, 0.2, 1.0)
        x0 = [rng.uniform(-1, 1) for _ in range(3)]
        V, names = f"{num(-w)}*y;{num(w)}*x;{num(a)}*z", "x,y,z"
        want = [x0[0] * math.cos(w * t) - x0[1] * math.sin(w * t),
                x0[0] * math.sin(w * t) + x0[1] * math.cos(w * t), x0[2] * math.exp(a * t)]
        bound = math.hypot(x0[0], x0[1]) * tail(abs(w * t)) + abs(x0[2]) * tail(abs(a * t))
    argv = ["flow", "--V", V, "--vars", names, "--x0", _csv(x0), "--t", repr(t),
            "--order", str(order)]
    return Request(f"flow-{kind}", argv, 0, [
        ("close", "values.point", want, 2 * bound + 1e-12)])


def equilibrium(rng, u, v):
    """Zero at (p, q[, r]) by construction; the seed starts nearby."""
    n = pick(v, (2, 3))
    root = [round(rng.uniform(-1, 1), 3) for _ in range(n)]
    al, be, ga = (signed(rng, 0.2, 0.8) for _ in range(3))
    dx, dy, dz = (f"({v} - {num(r)})" for v, r in zip("xyz", root + [0.0]))
    comps = [f"{dx} + {num(al)}*{dy}^2", f"{dy} + {num(be)}*sin{dx}"]
    if n == 3:
        comps.append(f"{dz} + {num(ga)}*{dx}*{dy}")
    seed = [r + rng.uniform(-0.2, 0.2) for r in root]
    argv = ["equilibrium", "--V", ";".join(comps), "--vars", ",".join("xyz"[:n]),
            "--seed", _csv(seed)]
    return Request("equilibrium", argv, 0, [("close", "values.point", root, 1e-9)])


def _diagonalizable(rng, n):
    """A = S diag(lams) S^-1 with well-separated real eigenvalues."""
    lams = [rng.uniform(-0.2, 1.0)]
    for _ in range(n - 1):
        lams.append(lams[-1] - rng.uniform(0.3, 0.8))
    S = np.eye(n) + np.array([[rng.uniform(-0.3, 0.3) for _ in range(n)] for _ in range(n)])
    A = S @ np.diag(lams) @ np.linalg.inv(S)
    return A, S, lams


def _matrix(A) -> str:
    return ";".join(_csv(row) for row in A)


def linsolve(rng, u, v):
    n = pick(v, (2, 3))
    A, S, lams = _diagonalizable(rng, n)
    x0 = np.array([rng.uniform(-1, 1) for _ in range(n)])
    T = rng.uniform(0.5, 2.0)
    want = S @ (np.exp(T * np.array(lams)) * np.linalg.solve(S, x0))
    argv = ["linsolve", "--A", _matrix(A), "--x0", _csv(x0), "--T", repr(T),
            "--samples", str(ladder(u, 51, 401))]
    return Request("linsolve", argv, 0, [
        ("close", "values.endpoint", list(want), 1e-8),
        ("le", "values.fit_residual", 1e-7, None)])


def eigen(rng, u, v):
    A, _, lams = _diagonalizable(rng, pick(v, (2, 3)))
    return Request("eigen", ["eigen", "--A", _matrix(A)], 0, [
        ("close", "values.eigenvalues", lams, 1e-8)])


def short_solves(rng, u, v):
    """flow, equilibrium, linsolve, eigen or matexp: requests of a few ms
    share one template, so the median latency lies inside the long traces."""
    template = pick(v, (lie_flow, equilibrium, linsolve, eigen, matexp))
    return template(rng, u, (v * 5) % 1.0)


def matexp(rng, u, v):
    a, w, t = rng.uniform(0.0, 0.5), signed(rng, 0.5, 2.0), rng.uniform(0.2, 3.0)
    A = [[-a, -w], [w, -a]]
    g = math.exp(-a * t)
    c, s = g * math.cos(w * t), g * math.sin(w * t)
    want = [[c, -s], [s, c]]
    return Request("matexp", ["matexp", "--A", _matrix(A), "--t", repr(t)], 0, [
        ("close", "values.matrix", want, 1e-10)])


# --------------------------------------------------------------------------
# cauchy_fan: pde-solve, hundreds of short traces per request
# --------------------------------------------------------------------------

def pde_solve(rng, u, v):
    """Quasilinear Cauchy problems with data x = s, y = 0, z = g(s)."""
    nq = rng.randint(1, 8)
    h = rng.uniform(0.08, 0.15)
    t_max = h * ladder(u, 8, 25)     # the longest fan trace has 8..25 steps
    kind = pick(v, ("transport", "growth", "burgers", "swirl"))
    s0, s1 = -2.0, 2.0
    g = Smooth1D.random(rng, rng.randint(1, 3))
    tol_scale = 1.0
    # each query is generated from its characteristic coordinates (s, t)
    st = [(rng.uniform(s0 + 0.25 * (s1 - s0), s1 - 0.25 * (s1 - s0)),
           rng.uniform(-0.7, 0.7) * t_max) for _ in range(nq)]
    if kind in ("transport", "growth"):
        a, b = signed(rng, 0.5, 1.5), signed(rng, 0.5, 1.5)
        c = signed(rng, 0.1, 0.5)
        P, Q = num(a), num(b)
        R = num(c) if kind == "transport" else f"{num(c)}*z"
        queries = [(s + a * t, b * t) for s, t in st]
        if kind == "transport":   # z = g(x - a y / b) + c y / b
            want = [g.value(s) + c * t for s, t in st]
        else:                     # z = g(x - a y / b) exp(c y / b)
            want = [g.value(s) * math.exp(c * t) for s, t in st]
        z0 = g.text("s")
    elif kind == "burgers":
        # z_x z + z_y = 0 with z(s, 0) = al s + be:  z = (al x + be) / (1 + al y)
        al, be = signed(rng, 0.05, 0.3), rng.uniform(-1, 1)
        P, Q, R = "z", "1", "0"
        queries = [(s + (al * s + be) * t, t) for s, t in st]
        want = [(al * x + be) / (1 + al * y) for x, y in queries]
        z0 = f"{num(al)}*s + {num(be)}"
    else:
        # rotation -w y z_x + w x z_y = 0 with z(s, 0) = g(s), s > 0:  z = g(r)
        w = rng.uniform(0.6, 1.2)
        s0, s1 = 0.5, 2.0
        st = [(rng.uniform(0.8, 1.7), rng.uniform(-0.7, 0.7) * t_max) for _ in range(nq)]
        P, Q, R = f"{num(-w)}*y", f"{num(w)}*x", "0"
        queries = [(s * math.cos(w * t), s * math.sin(w * t)) for s, t in st]
        want = [g.value(s) for s, _ in st]
        z0 = g.text("s")
        tol_scale = 1.0 + 2.0 * g.slope_bound(s0, s1)
    argv = ["pde-solve", "--P", P, "--Q", Q, "--R", R,
            "--ic", f"s;0;{z0};{s0!r};{s1!r}", "--h", repr(h), "--t-max", repr(t_max)]
    for x, y in queries:
        argv += ["--query", _csv([x, y])]
    tol = 1e-6 * tol_scale
    return Request(f"pde-solve-{kind}", argv, 0, [
        ("close", "values.z", [float(v) for v in want], tol * (1 + max(abs(v) for v in want)))])


# --------------------------------------------------------------------------
# Workload table
# --------------------------------------------------------------------------

def _fail(template):
    return lambda rng, u, v: template(rng, u, v, fail=True)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    varies: str
    templates: tuple
    tail_percentile: float     # reported tail; leaves >= 10 samples above it in a normal run
    trace_requests: int        # fixed request count of a traced run

    def request(self, seed: int, k: int) -> Request:
        n = len(self.templates)
        start = random.Random(f"{self.name}:start:{k % n}")
        u0, v0 = start.random(), start.random()
        rng = random.Random(f"{self.name}:{seed}:{k}")
        return self.templates[k % n](rng, stratified(u0, k // n),
                                     stratified(v0, k // n, SILVER))

    def warmup(self) -> list:
        """One smallest-size request per template, the same for every seed,
        so set-up time does not depend on the seed."""
        return [t(random.Random(f"{self.name}:warmup:{i}"), 0.0, 0.0)
                for i, t in enumerate(self.templates)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "grid_checks",
        "Few calls with many points: expr.diff, compile and the vectorized "
        "eval_points dominate; no RK4. A CSE/codegen evaluator should move it, "
        "batched RK4 should not.",
        "expression size (1-5 terms), 2-D grids 41^2..401^2 (27 KB to 2.5 MB per "
        "array, past L2), 3-D grids 9^3..25^3, 4-D grids 5^4..9^4, pass and fail "
        "verdicts",
        (exact_2d, _fail(exact_2d), exact_3d, _fail(exact_3d), cr_check, _fail(cr_check),
         ode_mu, _fail(ode_mu), pde_residual, _fail(pde_residual), bt_check,
         _fail(bt_check), sg_kink, maxwell_check, _fail(maxwell_check)),
        95.0, 30),
    Workload(
        "quadrature",
        "The evaluation layer the other way round: thousands of eval_many calls "
        "of 5-1280 points on freshly substituted expressions, so compile cost "
        "per call shows.",
        "panels 8..128 and nodes 64..1280 (points per call), 2-D and 3-D fields, "
        "1-4 term potentials, pole count and order, conjugate grids 11^2..41^2 "
        "(121..1681 quadratures), energy samples 3..12",
        (line_integral, potential, path_probe, _fail(path_probe), contour_circle,
         contour_ellipse, cauchy, laurent, conjugate, ode_exact, energy),
        95.0, 22),
    Workload(
        "trajectories",
        "Single long traces: per-step cost of the scalar RK4 stack machine and "
        "of the expr.evaluate tree walk (kdv-lax, flow). Batched RK4 at batch 1 "
        "should not move it.",
        "steps 1e3..2e4 per trace, 2-D and 3-D systems, linear and nonlinear "
        "right-hand sides, Lie-series order 5..12, matrix size 2..3",
        (rk4, drift, pde_char, kdv_lax, _fail(kdv_lax), short_solves),
        90.0, 18),
    Workload(
        "cauchy_fan",
        "pde-solve: the same RK4 layer as trajectories but ~850 short traces per "
        "request, so per-trace overhead in odesys/charpde dominates; the target "
        "of a batched characteristic fan.",
        "1-8 queries per request, step 0.08..0.15, fan traces of 8..25 steps, linear, "
        "growth, Burgers and rotation characteristics",
        (pde_solve,),
        75.0, 6),
)}
