import math

import numpy as np
import pytest

from integrikit.odekit import (
    EnergyProblem, ExactODE, NonExactError, TurningPointError,
    energy_solve, exact_check, exact_solve, integrating_factor_apply, reduction_residual,
)
from integrikit.realfield import Region

SQUARE = Region(("x", "y"), ((-3, 3), (-3, 3)))


class TestExactCheck:
    def test_polynomial_pair_exact(self):
        rep = exact_check(ExactODE("x+y+1", "x-y^2+3"), SQUARE)
        assert rep.passed and rep.max_residual == 0.0

    def test_not_exact(self):
        rep = exact_check(ExactODE("y", "-x"), SQUARE)
        assert not rep.passed

    def test_constants(self):
        assert exact_check(ExactODE("1", "1"), SQUARE).passed

    def test_rejects_stray_variables(self):
        with pytest.raises(ValueError):
            ExactODE("x+q", "y")


class TestExactSolve:
    def test_initial_condition_constant(self):
        sol = exact_solve(ExactODE("x+y+1", "x-y^2+3"), 0.0, 1.0, SQUARE)
        assert abs(sol.C0 - 8.0 / 3.0) <= 1e-9

    def test_dx_plus_dy(self):
        sol = exact_solve(ExactODE("1", "1"), 0.0, 0.0, SQUARE)
        assert abs(sol.C0) < 1e-12
        assert abs(sol.u_eval((0.5, -0.5))) < 1e-12  # x + y = 0 level set

    def test_xy_level_set(self):
        sol = exact_solve(ExactODE("y", "x"), 1.0, 2.0, SQUARE)
        assert abs(sol.C0 - 2.0) < 1e-12
        assert abs(sol.u_eval((2.0, 1.0)) - sol.C0) < 1e-10

    def test_rejects_non_exact(self):
        with pytest.raises(NonExactError):
            exact_solve(ExactODE("y", "-x"), 0.0, 1.0, SQUARE)

    def test_newton_tracer_level_set_consistency(self):
        # the branch through (0, 1) folds near x = -0.32; stay inside it
        sol = exact_solve(ExactODE("x+y+1", "x-y^2+3"), 0.0, 1.0, SQUARE)
        for x in np.linspace(-0.25, 1.0, 50):
            y = sol.y_of_x(float(x))
            assert abs(sol.u_eval((float(x), y)) - sol.C0) <= 1e-7

    def test_newton_tracer_reports_fold(self):
        sol = exact_solve(ExactODE("x+y+1", "x-y^2+3"), 0.0, 1.0, SQUARE)
        with pytest.raises(RuntimeError, match="fold"):
            sol.y_of_x(-0.5)


class TestIntegratingFactor:
    def test_y_minus_x_with_mu(self):
        reg = Region(("x", "y"), ((-2, 2), (0.5, 2.5)))
        rep, transformed = integrating_factor_apply(ExactODE("y", "-x"), "1/y^2", reg)
        assert rep.passed
        sol = exact_solve(transformed, 1.0, 2.0, reg)
        # u = x/y: the line y = 2x lies on the level set through (1, 2)
        assert abs(sol.u_eval((1.5, 3.0)) - sol.C0) < 1e-9

    def test_identity_factor_on_exact_ode(self):
        rep, transformed = integrating_factor_apply(ExactODE("y", "x"), "1", SQUARE)
        assert rep.passed
        assert transformed.M == ExactODE("y", "x").M

    def test_identity_factor_on_non_exact(self):
        rep, _ = integrating_factor_apply(ExactODE("y", "-x"), "1", SQUARE)
        assert not rep.passed

    def test_warns_on_near_zero_factor(self):
        with pytest.warns(UserWarning, match="vanishes"):
            integrating_factor_apply(ExactODE("y", "x"), "x", SQUARE)

    def test_near_zero_factor_points_are_plain_floats(self):
        region = Region(("x", "y"), ((-1, 1), (-1, 1)))
        with pytest.warns(UserWarning) as record:
            integrating_factor_apply(ExactODE("y", "x"), "x", region, grid=5)
        assert str(record[0].message) == (
            "integrating factor nearly vanishes at 5 grid points (e.g. (0.0, -1.0), "
            "(0.0, -0.5), (0.0, 0.0), (0.0, 0.5), (0.0, 1.0))")

    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            integrating_factor_apply(ExactODE("y", "x"), "0", SQUARE)


class TestReductionResidual:
    def test_y_yprime_integral(self):
        # y^2 = C1 x + C2 with C1 = 2, C2 = 1: Phi = y*y1 is constant
        rep = reduction_residual("y*y1", "sqrt(2*x+1)", (0.0, 2.0), tol=1e-9)
        assert rep.passed

    def test_log_derivative_integral(self):
        rep = reduction_residual("y1/y", "3*e^(2*x)", (0.0, 1.0), tol=1e-9)
        assert rep.passed

    def test_non_integral_fails(self):
        rep = reduction_residual("x", "x^2", (0.0, 1.0), tol=1e-9)
        assert not rep.passed
        assert abs(rep.max_residual - 1.0) < 1e-12

    def test_second_derivative_symbol(self):
        # Phi = y*y2 - y1^2 f or y = e^x is y*y'' - (y')^2 = 0 identically
        rep = reduction_residual("y*y2 - y1^2", "e^x", (0.0, 1.0), tol=1e-9)
        assert rep.passed

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            reduction_residual("y*w", "x", (0.0, 1.0))

    @pytest.mark.parametrize("interval,samples,worst", [
        ((2.0, 0.0), 7, (2.0,)),        # reversed: sampled from 2.0 down
        ((0.5, 0.5), 5, (0.5,)),        # one point, sampled 5 times
        ((0.0, 1.0), 1, (0.0,)),
        ((0.0, 1.0), 0, ()),
    ])
    def test_samples_linspace_of_any_interval(self, interval, samples, worst):
        """x is sampled as np.linspace(a, b, samples), which takes a reversed
        or empty interval and fewer than 2 samples; every point ties on the
        residual 1 of Phi = y1 - x, so the worst point is the first."""
        rep =reduction_residual("y1 - x", "x^2", interval, tol=1e-9, samples=samples)
        assert rep.max_residual == (1.0 if samples else 0.0)
        assert rep.worst_point == worst and rep.samples_used == samples


class TestEnergySolve:
    def test_constant_force_closed_form(self):
        # m=1, F=2, x0=0, v0=1  =>  x(t) = t^2 + t
        sol = energy_solve(EnergyProblem("2", 1.0, 0.0, 1.0), t_target=2.0, samples=41)
        for t in np.linspace(0.1, 2.0, 20):
            assert abs(sol.position_at(float(t)) - (t * t + t)) <= 1e-8

    def test_constant_force_negative_velocity(self):
        # same form with signed v0: F=-2, v0=-1  =>  x(t) = -t^2 - t
        sol = energy_solve(EnergyProblem("-2", 1.0, 0.0, -1.0), t_target=2.0, samples=41)
        for t in np.linspace(0.1, 2.0, 20):
            assert abs(sol.position_at(float(t)) - (-t * t - t)) <= 1e-8

    def test_free_particle(self):
        sol = energy_solve(EnergyProblem("0", 1.0, 0.5, 2.0), x_target=1.5)
        assert abs(sol.t_end - 0.5) < 1e-12
        assert abs(sol.position_at(0.25) - 1.0) < 1e-10

    def test_energy_value(self):
        sol = energy_solve(EnergyProblem("2", 1.5, 0.0, 2.0), x_target=1.0)
        assert abs(sol.E - 0.5 * 1.5 * 4.0) < 1e-12

    def test_turning_point_is_error(self):
        with pytest.raises(TurningPointError) as ex:
            energy_solve(EnergyProblem("-2", 1.0, 0.0, 1.0), x_target=0.5)
        assert abs(ex.value.x_turn - 0.25) < 0.05

    def test_zero_velocity_rejected(self):
        with pytest.raises(ValueError):
            energy_solve(EnergyProblem("2", 1.0, 0.0, 0.0), x_target=1.0)

    def test_energy_conserved_along_trajectory(self):
        sol = energy_solve(EnergyProblem("2", 1.0, 0.0, 1.0), t_target=2.0, samples=201)
        ts = sol.trajectory.ts
        xs = sol.trajectory.states[:, 0]
        v = np.gradient(xs, ts)
        energies = 0.5 * v ** 2 + np.array([sol.U(float(x)) for x in xs])
        drift = np.max(np.abs(energies[2:-2] - sol.E))
        assert drift <= 1e-7 * (1 + abs(sol.E))

    def test_potential_shift_invariance(self):
        a = energy_solve(EnergyProblem("2", 1.0, 0.0, 1.0, x_ref=0.0),
                         t_target=1.5, samples=11)
        b = energy_solve(EnergyProblem("2", 1.0, 0.0, 1.0, x_ref=5.0),
                         t_target=1.5, samples=11)
        assert np.max(np.abs(a.trajectory.states - b.trajectory.states)) <= 1e-9
        assert a.E != b.E  # the shift lands in E and cancels in E - U

    def test_non_polynomial_force_quadrature_path(self):
        # F = -sin(x): U = -cos(x_ref) ... matches pendulum energy integral
        sol = energy_solve(EnergyProblem("-sin(x)", 1.0, 0.0, 1.5),
                           t_target=0.5, samples=11)
        # independent oracle: RK4 on (x' = v, v' = -sin x)
        from integrikit.odesys import AutonomousSystem, integrate_rk4
        traj = integrate_rk4(AutonomousSystem(("x", "v"), ("v", "-sin(x)")),
                             (0.0, 1.5), (0.0, 0.5), 1e-4)
        assert abs(sol.position_at(0.5) - traj.endpoint[0]) <= 1e-6

    # forces with an antiderivative G: U(x) = G(x_ref) - G(x)
    CLOSED_FORMS = [
        ("-sin(x) + 0.3*cos(2*x)", lambda x: math.cos(x) + 0.15 * math.sin(2 * x)),
        ("(x+1)^12", lambda x: (x + 1) ** 13 / 13),
        ("-3*exp(-4*x)", lambda x: 0.75 * math.exp(-4 * x)),
        ("x*cos(x)", lambda x: math.cos(x) + x * math.sin(x)),
    ]

    def test_potential_matches_closed_forms(self):
        m, x0, v0 = 1.5, 0.2, 3.0
        xs = np.linspace(-2.0, 2.0, 41)
        for force, G in self.CLOSED_FORMS:
            for x_ref in (-2.0, 0.0, 0.4, 3.0):
                sol = energy_solve(EnergyProblem(force, m, x0, v0, x_ref=x_ref), x_target=1.0)
                for xv in map(float, xs):
                    want = G(x_ref) - G(xv)
                    assert abs(sol.U(xv) - want) <= 1e-14 * (1 + abs(want)), (force, x_ref, xv)
                assert sol.E == 0.5 * m * v0 ** 2 + sol.U(x0)
        # v from the same U, bit for bit, on the force whose E - U stays positive
        sol = energy_solve(EnergyProblem(self.CLOSED_FORMS[0][0], m, x0, v0, x_ref=0.4),
                           x_target=1.0)
        for xv in map(float, xs):
            assert sol._v(np.array([xv]))[0] == np.sqrt((2.0 / m) * (sol.E - sol.U(xv)))

    def test_x_target_ends_at_the_last_sample_time(self):
        sol = energy_solve(EnergyProblem("-sin(x)", 1.0, 0.0, 2.5), x_target=2.0, samples=7)
        assert sol.t_end == sol.trajectory.ts[-1]
        assert sol.trajectory.ts[0] == 0.0 and np.all(np.diff(sol.trajectory.ts) > 0)

    def test_position_on_the_pendulum_separatrix(self):
        # F = -w^2 sin(x), v0 = 2w: x(t) = 4 atan(exp(w t)) - pi
        w = 1.3
        sol = energy_solve(EnergyProblem(f"-{w * w!r}*sin(x)", 1.0, 0.0, 2 * w), x_target=2.5)
        for t in np.linspace(0.0, sol.t_end, 9):
            want = 4.0 * math.atan(math.exp(w * t)) - math.pi
            assert abs(sol.position_at(float(t)) - want) <= 1e-12

    def test_t_target_on_an_exponential_force(self):
        # F = -(m c / tau^2) exp(-2x/c), v0 = c/tau: x(t) = c ln(1 + t/tau)
        m, c, tau = 1.3, 0.8, 1.7
        problem = EnergyProblem(f"{-m * c / tau ** 2!r}*exp({-2.0 / c!r}*x)", m, 0.0, c / tau)
        for t_target in (0.3, 2.0, 5.5):
            sol = energy_solve(problem, t_target=t_target, samples=9)
            assert abs(sol.x_end - c * math.log1p(t_target / tau)) <= 1e-12
            assert sol.t_end == t_target
            assert abs(sol.trajectory.ts[-1] - t_target) <= 1e-12

    def test_non_finite_target_rejected(self):
        problem = EnergyProblem("-sin(x)", 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="x_target must be finite, got inf"):
            energy_solve(problem, x_target=float("inf"))
        with pytest.raises(ValueError, match="t_target must be finite, got nan"):
            energy_solve(problem, t_target=float("nan"))

    @pytest.mark.parametrize("field", ["m", "x0", "v0", "t0", "x_ref"])
    def test_non_finite_problem_value_rejected(self, field):
        values = {"m": 1.0, "x0": 0.0, "v0": 1.0, "t0": 0.0, "x_ref": 0.0, field: float("inf")}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            EnergyProblem("2", **values)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_samples_rejected(self, samples):
        # the trajectory runs from x0 to x_end, so it needs both ends
        with pytest.raises(ValueError, match=f"samples must be at least 2, got {samples}"):
            energy_solve(EnergyProblem("2", 1.0, 0.0, 1.0), x_target=1.0, samples=samples)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            EnergyProblem("2", -1.0, 0.0, 1.0)
