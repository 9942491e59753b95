"""Acceptance criteria, one test per criterion, each printing a status line.

Every tolerance here is pinned; nothing is deferred to calibration.
"""

import math

import numpy as np

from integrikit import btlax, charpde, cplx, flow, odekit, odesys
from integrikit.expr import Const, diff, eval_many, parse
from integrikit.realfield import (ParametricCurve, Region, VectorField,
                                  line_integral, path_independence_probe)

from conftest import bounded_smooth_exprs, grid_rows


def report(num, ok, label):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_contour_identity():
    a, rho = 1 + 2j, 0.7
    ok = True
    for k in range(-2, 6):
        f = parse("1") if k == 0 else parse(f"1/(z-(1+2*i))^{k}")
        val = cplx.contour_integral(f, cplx.Contour.circle(a, rho), nodes=256)
        expected = 2j * math.pi if k == 1 else 0.0
        tol = 1e-12 if k == 1 else 1e-10
        ok &= abs(val - expected) <= tol
    report(1, ok, "circle power identity, k in {-2..5}, 256 nodes")


def test_criterion_02_exact_ode_constant():
    region = Region(("x", "y"), ((-3, 3), (-3, 3)))
    sol = odekit.exact_solve(odekit.ExactODE("x+y+1", "x-y^2+3"), 0.0, 1.0, region)
    ok = abs(sol.C0 - 8.0 / 3.0) <= 1e-9
    report(2, ok, f"C0 = {sol.C0!r} vs 8/3, anchored at u(0,0)=0")


def test_criterion_03_eigenvalues():
    pairs = odesys.eigen_solve([[1, 2], [4, 3]])
    by_val = {round(p.value.real): p for p in pairs}
    ok = abs(by_val[5].value - 5) <= 1e-10 and abs(by_val[-1].value + 1) <= 1e-10
    v5, vm1 = by_val[5].vectors[0], by_val[-1].vectors[0]
    ok &= abs(v5[1] / v5[0] - 2.0) <= 1e-8
    ok &= abs(vm1[1] / vm1[0] + 1.0) <= 1e-8
    report(3, ok, "k = {5, -1} within 1e-10; direction ratios 2 and -1")


def test_criterion_04_double_root():
    pairs = odesys.eigen_solve([[1, -1], [1, 3]])
    ok = len(pairs) == 1 and pairs[0].multiplicity == 2
    res = odesys.linear_solve(np.array([[1.0, -1.0], [1.0, 3.0]]), (1.0, -2.0),
                              np.linspace(0.0, 1.0, 101))
    ok &= res.fit_residual <= 1e-8
    mode = res.modes[0]
    ok &= mode.multiplicity == 2 and abs(mode.eigenvalue - 2.0) <= 1e-8
    report(4, ok, f"multiplicity-2 cluster; (c1+c2 t)e^2t fit residual "
                  f"{res.fit_residual:.2e}")


def test_criterion_05_matrix_exponential(rng):
    A = [[0.0, 1.0], [-1.0, 0.0]]
    E = odesys.matrix_exp(A, math.pi / 2)
    # oracle: order-40 Taylor series
    M = np.asarray(A) * (math.pi / 2)
    term = np.eye(2)
    oracle = np.eye(2)
    for k in range(1, 41):
        term = term @ M / k
        oracle = oracle + term
    ok = np.max(np.abs(E - np.array([[0, 1], [-1, 0]]))) <= 1e-12
    ok &= np.max(np.abs(E - oracle)) <= 1e-12
    for _ in range(20):
        B = rng.uniform(-1, 1, (3, 3))
        s, t = rng.uniform(-2, 2, 2)
        left = odesys.matrix_exp(B, s + t)
        right = odesys.matrix_exp(B, s) @ odesys.matrix_exp(B, t)
        ok &= np.max(np.abs(left - right)) <= 1e-10 * max(1.0, np.max(np.abs(left)))
    report(5, ok, "rotation generator at pi/2 (1e-12) + semigroup on 20 random 3x3")


def test_criterion_06_first_integral_drifts():
    saddle = odesys.AutonomousSystem(("x", "y"), ("y", "x"))
    rotation = odesys.AutonomousSystem(("x", "y"), ("y", "-x"))
    cyclic = odesys.AutonomousSystem(("x", "y", "z"), ("y-z", "z-x", "x-y"))
    long_runs = [
        ("(x+y)*e^(-t)", saddle, (1.0, 1.0)),
        ("(x-y)*e^t", saddle, (1.0, 1.0)),
        ("x^2+y^2", rotation, (1.0, 0.0)),
        ("x+y+z", cyclic, (1.0, 0.5, -0.2)),
        ("x^2+y^2+z^2", cyclic, (1.0, 0.5, -0.2)),
    ]
    ok = True
    for phi, sys_, x0 in long_runs:
        rep = odesys.first_integral_drift(phi, sys_, x0, 10.0, 1e-3, tol=1e-7)
        ok &= rep.passed
    # t + atan(y/x) is conserved only modulo the principal branch of atan;
    # it is checked on a quarter turn, before x crosses zero
    rep = odesys.first_integral_drift("t + atan(y/x)", rotation, (1.0, 0.0),
                                      1.0, 1e-3, tol=1e-7)
    ok &= rep.passed
    report(6, ok, "five integrals over T=10 at 1e-7 (+ branch-limited atan case)")


def test_criterion_07_lie_series():
    scale_shift = VectorField.of(("x", "y"), "x", "2")
    out = flow.lie_series_flow(scale_shift, (1.0, 0.0), 0.5)
    ok = abs(out[0] - math.exp(0.5)) <= 1e-8 and abs(out[1] - 1.0) <= 1e-8
    rotation = VectorField.of(("x", "y"), "y", "-x")
    out2 = flow.lie_series_flow(rotation, (1.0, 0.0), 0.3)
    ok &= abs(out2[0] - math.cos(0.3)) <= 1e-9
    ok &= abs(out2[1] + math.sin(0.3)) <= 1e-9
    report(7, ok, "order-10 series: (e^0.5, 1) at 1e-8; rotation at 1e-9")


def test_criterion_08_harmonic_conjugate():
    region = Region(("x", "y"), ((-1, 1), (-1, 1)))
    out = cplx.harmonic_conjugate("x*y", (0.0, 0.0), region, grid=41)
    X, Y = np.meshgrid(out.x_axis, out.y_axis, indexing="ij")
    gap = out.u_grid - (X ** 2 - Y ** 2) / 2
    gap -= gap.mean()  # match up to one additive constant
    ok = np.max(np.abs(gap)) <= 1e-8
    report(8, ok, "u from v=xy matches (x^2-y^2)/2 on [-1,1]^2 within 1e-8")


def test_criterion_09_antiderivative():
    expected = (1 - 1j) / 3
    paths = [
        None,
        cplx.Contour.parametric("-1 + t + 0.4*t*(1-t)", "t - 0.3*t*(1-t)", 0.0, 1.0),
        cplx.Contour.parametric("-1 + t - 0.25*t*(1-t)", "t + 0.5*t*(1-t)", 0.0, 1.0),
    ]
    ok = all(abs(cplx.antiderivative_eval("z^2", -1.0, 1j, p) - expected) <= 1e-11
             for p in paths)
    report(9, ok, "integral of z^2 from -1 to i equals (1-i)/3 on three paths")


def test_criterion_10_laurent():
    f = "1/(z*(z-1))"
    a = cplx.laurent_coeffs(f, 0.0, 0.3, (-1, 1))
    b = cplx.laurent_coeffs(f, 0.0, 0.5, (-1, 1))
    ok = all(abs(b[n] + 1.0) <= 1e-10 for n in (-1, 0, 1))
    ok &= all(abs(a[n] + 1.0) <= 1e-10 for n in (-1, 0, 1))
    ok &= max(abs(a[n] - b[n]) for n in a) <= 1e-9
    report(10, ok, "a_{-1} = a_0 = a_1 = -1 at rho in {0.3, 0.5}")


def test_criterion_11_energy_method():
    ok = True
    sol = odekit.energy_solve(odekit.EnergyProblem("2", 1.0, 0.0, 1.0),
                              t_target=2.0, samples=41)
    for t in np.linspace(0.1, 2.0, 20):
        ok &= abs(sol.position_at(float(t)) - (t * t + t)) <= 1e-8
    sol_neg = odekit.energy_solve(odekit.EnergyProblem("-2", 1.0, 0.0, -1.0),
                                  t_target=2.0, samples=41)
    for t in np.linspace(0.1, 2.0, 20):
        ok &= abs(sol_neg.position_at(float(t)) - (-t * t - t)) <= 1e-8
    report(11, ok, "x = a t^2/2 + v0 t at 20 times, v0 > 0 and v0 < 0")


def test_criterion_12_characteristics():
    square = Region(("x", "y"), ((-2, 2), (-2, 2)))
    upper = Region(("x", "y"), ((-2, 2), (0.5, 2.0)))
    families = [
        (charpde.QuasilinearPDE("1", "1", "1"),
         ["x", "x + sin(x-y) - (x-y)"], square),
        (charpde.QuasilinearPDE("-y", "x", "0"),
         ["x^2+y^2", "exp(x^2+y^2)"], square),
        (charpde.QuasilinearPDE("x", "y", "z"),
         ["x", "x^2/y"], upper),
    ]
    ok = True
    for pde, members, region in families:
        for z in members:
            rep = charpde.pde_residual(pde, z, region, tol=1e-12)
            ok &= rep.passed
    pde = charpde.QuasilinearPDE("1", "1", "1")
    ic = charpde.InitialCurve("s", "s", "0", "sin(s)", -3.0, 3.0)
    xs = np.linspace(-1.0, 1.0, 10)
    ys = np.linspace(-0.4, 0.4, 5)
    queries = [(float(x), float(y)) for x in xs for y in ys]  # 50 points
    sol = charpde.solve_cauchy(pde, ic, queries)
    for (x, y), z in zip(queries, sol.z_values):
        ok &= abs(z - (y + math.sin(x - y))) <= 1e-6
    report(12, ok, "three solution families at 1e-12; z = y + sin(x-y) at 50 points")


def test_criterion_13_sine_gordon():
    region = Region(("x", "t"), ((-2, 2), (-2, 2)))
    ok = True
    for a in (0.5, 1.0, 2.0):
        u = btlax.sine_gordon_kink(a, 1.0)
        from integrikit.expr import call
        residual = diff(diff(u, "x"), "t") - call("sin", u)
        pts = grid_rows(region, 41)
        ok &= float(np.max(np.abs(eval_many(residual, ("x", "t"), pts)))) <= 1e-10
        rep = btlax.bt_residual(btlax.sine_gordon_bt(a), u, "0", region, tol=1e-9)
        ok &= rep.details["B1"] <= 1e-9 and rep.details["B2"] <= 1e-9
    report(13, ok, "kink residual 1e-10 and BT residuals 1e-9 for a in {0.5,1,2}")


def test_criterion_14_liouville():
    region = Region(("x", "t"), ((-2, 2), (-2, 2)))
    rep = btlax.bt_residual(btlax.liouville_bt(), "-2*ln(5 - (x+t)/sqrt(2))", "0",
                            region, tol=1e-10)
    ok = rep.passed and rep.max_residual <= 1e-10
    report(14, ok, "Liouville PDE and BT residuals at 1e-10, C = 5")


def test_criterion_15_maxwell_plane_wave(rng):
    region = Region(("x", "y", "z", "t"), ((-1, 1), (-1, 1), (-1, 1), (0, 2)))
    wave, E, B = btlax.maxwell_plane_wave((0.0, 0.0, 1.0), 2.0, alpha=0.4,
                                          omega=3.0, E0_dir=(1.0, 0.0, 0.0))
    rep = btlax.maxwell_residual(E, B, 1.0, region, tol=1e-10, grid=5)
    ok = rep.passed
    pts = rng.uniform(-1, 1, size=(100, 4))
    Ev = np.stack([eval_many(c, ("x", "y", "z", "t"), pts).real for c in E], axis=1)
    Bv = np.stack([eval_many(c, ("x", "y", "z", "t"), pts).real for c in B], axis=1)
    gap = np.abs(np.linalg.norm(Ev, axis=1) - wave.c * np.linalg.norm(Bv, axis=1))
    ok &= float(np.max(gap)) <= 1e-12
    detuned_carrier = btlax._phase_expr(wave.k, wave.omega * 1.1, 0.0)
    detuned = tuple(Const(float(a)) * detuned_carrier for a in wave.E0R)
    ok &= not btlax.wave_equation_residual(detuned, 1.0, region, tol=1e-9).passed
    report(15, ok, "Maxwell residuals 1e-10 on 5^4 grid; E = cB; detuned fails")


def test_criterion_16_kdv_lax():
    soliton = "-2/cosh(x - 4*t)^2"
    region = Region(("x", "t"), ((-2, 2), (-0.5, 0.5)))
    ok = btlax.kdv_residual(soliton, region, tol=1e-10).passed
    dev = btlax.lax_commuting_flow(soliton, 0.3, 1.0, 0.1, 0.0, (0.2, 0.2))
    half = btlax.lax_commuting_flow(soliton, 0.3, 1.0, 0.1, 0.0, (0.1, 0.1))
    ok &= dev.deviation <= 1e-5
    ok &= dev.deviation / max(half.deviation, 1e-300) >= 8.0
    bad = btlax.lax_commuting_flow("x", 0.3, 1.0, 1.0, 0.0, (0.2, 0.2))
    ok &= bad.deviation > 1e-2
    report(16, ok, f"soliton deviation {dev.deviation:.2e} (1e-5), "
                   f"shrink x{dev.deviation / half.deviation:.1f}, u=x deviates")


def test_criterion_17_appendix_identities(rng):
    reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
    ok = odesys.matrix_identity_check([["1 + x^2", "y"], ["0", "1"]], reg,
                                      tol=1e-8).passed
    ok &= odesys.matrix_identity_check([["e^(x*y)", "0"], ["x", "1"]], reg,
                                       tol=1e-8).passed
    # Exercise-3 flow satisfies du/dt = [u, A] to O(h^2)
    A = rng.uniform(-1, 1, (3, 3))
    u0 = rng.uniform(-1, 1, (3, 3))
    errs = []
    for h in (1e-3, 5e-4):
        fd = (odesys.commutator_flow(A, u0, 1.0 + h)
              - odesys.commutator_flow(A, u0, 1.0 - h)) / (2 * h)
        u = odesys.commutator_flow(A, u0, 1.0)
        errs.append(float(np.max(np.abs(fd - (u @ A - A @ u)))))
    ok &= errs[0] <= 1e-4 and 2.0 <= errs[0] / errs[1] <= 8.0  # O(h^2) halving
    report(17, ok, "flat-connection + conjugation identities at 1e-8; "
                   "commutator flow O(h^2)")


def test_criterion_18_property_suites(rng):
    ok = True
    # orientation antisymmetry
    F = VectorField.of(("x", "y"), "x^2 - y", "sin(x) + y")
    L = ParametricCurve("t", (parse("t"), parse("t^2")), 0.0, 1.0)
    ok &= abs(line_integral(F, L) + line_integral(F, L.reversed())) <= 1e-10
    # path-independence probes
    paths = [ParametricCurve.segment((0, 0), (1, 1)),
             ParametricCurve("t", (parse("t"), parse("t^2")), 0.0, 1.0),
             ParametricCurve("t", (parse("t"), parse("t^5")), 0.0, 1.0)]
    ok &= path_independence_probe(VectorField.of(("x", "y"), "y", "x"),
                                  (0, 0), (1, 1), paths, tol=1e-9).passed
    ok &= not path_independence_probe(VectorField.of(("x", "y"), "y", "-x"),
                                      (0, 0), (1, 1), paths, tol=1e-8).passed
    # omega winding across radii
    omega = VectorField.of(("x", "y"), "-y/(x^2+y^2)", "x/(x^2+y^2)")
    for r in (0.5, 1.0, 3.0):
        circ = ParametricCurve("t", (parse(f"{r}*cos(t)"), parse(f"{r}*sin(t)")),
                               0.0, 2 * math.pi, closed=True)
        ok &= abs(line_integral(omega, circ) - 2 * math.pi) <= 1e-8
    # RK4 order
    rotation = odesys.AutonomousSystem(("x", "y"), ("y", "-x"))
    exact = np.array([math.cos(2.0), -math.sin(2.0)])
    e1 = np.max(np.abs(odesys.integrate_rk4(rotation, (1, 0), (0, 2), 0.1).endpoint - exact))
    e2 = np.max(np.abs(odesys.integrate_rk4(rotation, (1, 0), (0, 2), 0.05).endpoint - exact))
    ok &= 12.0 <= e1 / e2 <= 20.0
    # derivative vs finite difference on 200 random expressions
    names = ("x", "y")
    pts = rng.uniform(-1.5, 1.5, size=(50, 2))
    h = 1e-6
    for e in bounded_smooth_exprs(seed=99, count=200, names=names):
        for axis, nm in enumerate(names):
            sym = eval_many(diff(e, nm), names, pts)
            shift = np.zeros(2)
            shift[axis] = h
            fd = (eval_many(e, names, pts + shift)
                  - eval_many(e, names, pts - shift)) / (2 * h)
            ok &= bool(np.max(np.abs(sym - fd) / (1 + np.abs(sym))) <= 1e-5)
    report(18, ok, "antisymmetry, probes, winding, RK4 order, 200-expression FD sweep")
