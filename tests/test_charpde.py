import math

import numpy as np
import pytest

from integrikit import charpde
from integrikit.charpde import (
    CharacteristicFanError, InitialCurve, NotPotentialError, QuasilinearPDE,
    TransversalityError, characteristic_trace, homogeneous_solution_check,
    normal_surface_check, pde_residual, solve_cauchy,
)
from integrikit.expr import compile_system, eval_many, parse
from integrikit.odesys import _run_rk4
from integrikit.realfield import Region, VectorField

SQUARE = Region(("x", "y"), ((-2, 2), (-2, 2)))


class TestTypes:
    def test_homogeneous_flag(self):
        assert QuasilinearPDE("-y", "x", "0").homogeneous_linear
        assert not QuasilinearPDE("1", "1", "1").homogeneous_linear
        assert not QuasilinearPDE("z", "x", "0").homogeneous_linear

    def test_initial_curve_validation(self):
        with pytest.raises(ValueError):
            InitialCurve("s", "s", "q", "0", 0.0, 1.0)
        with pytest.raises(ValueError):
            InitialCurve("s", "s", "0", "0", 1.0, 0.0)


class TestCharacteristicTrace:
    def test_diagonal_line(self):
        pde = QuasilinearPDE("1", "1", "1")
        traj = characteristic_trace(pde, (0.0, 0.0, 0.0), (0.0, 2.0), 0.01)
        # the invariants x - y and z - x stay constant along it
        diffs1 = traj.states[:, 0] - traj.states[:, 1]
        diffs2 = traj.states[:, 2] - traj.states[:, 0]
        assert np.max(np.abs(diffs1 - diffs1[0])) <= 1e-8
        assert np.max(np.abs(diffs2 - diffs2[0])) <= 1e-8

    def test_circle_at_height(self):
        pde = QuasilinearPDE("-y", "x", "0")
        traj = characteristic_trace(pde, (1.0, 0.0, 5.0), (0.0, 2.0), 0.005)
        radii = np.hypot(traj.states[:, 0], traj.states[:, 1])
        assert np.max(np.abs(radii - 1.0)) <= 1e-8
        assert np.max(np.abs(traj.states[:, 2] - 5.0)) == 0.0

    def test_zero_length_span(self):
        pde = QuasilinearPDE("1", "1", "1")
        traj = characteristic_trace(pde, (0.5, -1.0, 2.0), (1.0, 1.0), 0.01)
        assert len(traj.ts) == 1
        assert np.array_equal(traj.states[0], [0.5, -1.0, 2.0])

    def test_first_integral_drift_along_characteristics(self):
        cases = [
            (QuasilinearPDE("1", "1", "1"), ("x-y", "z-x"), (0.1, -0.2, 0.4)),
            (QuasilinearPDE("-y", "x", "0"), ("z", "x^2+y^2"), (1.0, 0.0, 5.0)),
            (QuasilinearPDE("x", "y", "z"), ("x/y", "z/x"), (1.0, 2.0, 0.5)),
        ]
        for pde, integrals, start in cases:
            traj = characteristic_trace(pde, start, (0.0, 2.0), 0.005)
            for psi in integrals:
                vals = eval_many(parse(psi), ("x", "y", "z"), traj.states).real
                assert np.max(np.abs(vals - vals[0])) <= 1e-8


class TestSolveCauchy:
    def test_transport_with_sine_data(self):
        # oracle: z = y + sin(x - y) fits data z(x, 0) = sin(x) for z_x + z_y = 1
        pde = QuasilinearPDE("1", "1", "1")
        ic = InitialCurve("s", "s", "0", "sin(s)", -3.0, 3.0)
        sol = solve_cauchy(pde, ic, [(1.0, 0.3)])
        assert abs(sol.z_values[0] - (0.3 + math.sin(0.7))) <= 1e-6

    def test_rotation_with_square_data(self):
        # oracle: z = x^2 + y^2 from z(x, 0) = x^2 on x > 0
        pde = QuasilinearPDE("-y", "x", "0")
        ic = InitialCurve("s", "s", "0", "s^2", 0.1, 2.0)
        sol = solve_cauchy(pde, ic, [(0.6, 0.8)])
        assert abs(sol.z_values[0] - 1.0) <= 1e-6

    def test_euler_homogeneous(self):
        # oracle: z = x F(x/y) with F = id from data z(x, 1) = x
        pde = QuasilinearPDE("x", "y", "z")
        ic = InitialCurve("s", "s", "1", "s", 0.5, 3.0)
        sol = solve_cauchy(pde, ic, [(2.0, 2.0)])
        assert abs(sol.z_values[0] - 2.0) <= 1e-6

    def test_local_pde_residual_consistency(self):
        pde = QuasilinearPDE("1", "1", "1")
        ic = InitialCurve("s", "s", "0", "sin(s)", -3.0, 3.0)
        h_fd = 1e-3
        x0, y0 = 0.8, 0.4
        queries = [(x0, y0), (x0 + h_fd, y0), (x0 - h_fd, y0),
                   (x0, y0 + h_fd), (x0, y0 - h_fd)]
        z = solve_cauchy(pde, ic, queries).z_values
        z_x = (z[1] - z[2]) / (2 * h_fd)
        z_y = (z[3] - z[4]) / (2 * h_fd)
        assert abs(z_x + z_y - 1.0) <= 1e-4

    def test_transversality_violation(self):
        pde = QuasilinearPDE("1", "1", "1")
        along_characteristic = InitialCurve("s", "s", "s", "0", 0.0, 1.0)
        with pytest.raises(TransversalityError):
            solve_cauchy(pde, along_characteristic, [(1.0, 0.3)])

    def test_unreachable_query(self):
        pde = QuasilinearPDE("-y", "x", "0")
        ic = InitialCurve("s", "s", "0", "s^2", 0.5, 2.0)
        with pytest.raises(CharacteristicFanError):
            solve_cauchy(pde, ic, [(3.5, 0.0)])  # radius beyond the data range


class TestCharacteristicFan:
    """The fan traces each of its rows once forward and once backward;
    Newton makes one variational trace per iteration."""
    PDE = QuasilinearPDE("1", "1", "1")
    IC = InitialCurve("s", "s", "0", "sin(s)", -3.0, 3.0)
    QUERIES = [(1.0, 0.3), (-0.4, -1.2)]     # reached forward and backward in t

    @pytest.fixture
    def traces(self, monkeypatch):
        """Every ``(ts, states)`` solve_cauchy gets from _run_rk4, in order."""
        made = []

        def recording(*args, **kwargs):
            made.append(_run_rk4(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(charpde, "_run_rk4", recording)
        return made

    @pytest.mark.parametrize("fan_rows", [5, 21])
    def test_trace_count(self, traces, fan_rows):
        sol = solve_cauchy(self.PDE, self.IC, self.QUERIES, fan_rows=fan_rows)
        assert len(traces) == 2 * fan_rows + sum(sol.iterations)

    @pytest.mark.parametrize("query", QUERIES, ids=["forward", "backward"])
    def test_newton_starts_at_the_nearest_fan_point(self, traces, query):
        solve_cauchy(self.PDE, self.IC, [query], fan_rows=9)
        fan = np.concatenate([states for _, states in traces[:18]])
        nearest = fan[np.argmin(np.linalg.norm(fan[:, :2] - query, axis=1))]
        assert np.max(np.abs(traces[18][1][-1][:3] - nearest)) <= 1e-12

    @pytest.mark.parametrize("P, Q, R, curve, query", [
        ("z", "1", "0", ("s", "0", "0.5*sin(s)"), (0.9, 0.4)),      # Burgers
        ("-y", "x", "0", ("s", "0", "s^2"), (0.6, 0.8)),            # rotation
    ], ids=["burgers", "rotation"])
    def test_variational_column_matches_a_central_difference(self, traces, P, Q, R,
                                                             curve, query):
        pde = QuasilinearPDE(P, Q, R)
        ic = InitialCurve("s", *curve, 0.1, 2.0)
        sol = solve_cauchy(pde, ic, [query], fan_rows=9)
        ts, states = traces[-1]
        (s, _), t = sol.params[0], ts[-1]
        ds = 1e-6 * (1 + abs(s))
        plus, minus = (charpde._trace(pde.characteristic_system, p, t, 0.01)[1][-1]
                       for p in ic.points([s + ds, s - ds]))
        column = (plus - minus) / (2 * ds)
        assert np.max(np.abs(states[-1][3:] - column)) <= 1e-6 * np.max(np.abs(column))


class TestCharacteristicSystem:
    def test_one_solve_compiles_two_systems(self):
        pde = QuasilinearPDE("1.375", "0.625 + 0.0625*x", "0.8125*z")
        ic = InitialCurve("s", "s", "0", "sin(s)", -1.0, 1.0)
        queries = [(0.5, 0.3), (-0.2, -0.4)]
        before = compile_system.cache_info().misses
        solve_cauchy(pde, ic, queries, h=0.05, t_max=1.0, fan_rows=5)
        assert compile_system.cache_info().misses - before == 2
        before = compile_system.cache_info().misses
        solve_cauchy(pde, ic, queries, h=0.05, t_max=1.0, fan_rows=5)
        assert compile_system.cache_info().misses == before


class TestPDEResidual:
    def test_transport_family_member(self):
        pde = QuasilinearPDE("1", "1", "1")
        rep = pde_residual(pde, "x + sin(x-y) - (x-y)", SQUARE, tol=1e-12)
        assert rep.passed

    def test_rotation_family_member(self):
        pde = QuasilinearPDE("-y", "x", "0")
        rep = pde_residual(pde, "x^2+y^2", SQUARE, tol=1e-12)
        assert rep.passed and rep.max_residual == 0.0

    def test_trivial_member(self):
        pde = QuasilinearPDE("1", "1", "1")
        rep = pde_residual(pde, "x", SQUARE, tol=1e-12)
        assert rep.passed and rep.max_residual == 0.0

    def test_non_solution(self):
        pde = QuasilinearPDE("1", "1", "1")
        rep = pde_residual(pde, "x^2", SQUARE, tol=1e-9)
        assert not rep.passed


class TestHomogeneousSolutionCheck:
    def test_cubed_composer(self):
        pde = QuasilinearPDE("-y", "x", "0")
        rep = homogeneous_solution_check(pde, "x^2+y^2", "w^3", SQUARE, tol=1e-9)
        assert rep.passed

    def test_exponential_composer_transport(self):
        pde = QuasilinearPDE("1", "1", "0")
        rep = homogeneous_solution_check(pde, "x-y", "exp(w)", SQUARE, tol=1e-9)
        assert rep.passed

    def test_non_integral_psi_fails(self):
        pde = QuasilinearPDE("-y", "x", "0")
        rep = homogeneous_solution_check(pde, "x", "w", SQUARE, tol=1e-9)
        assert not rep.passed

    def test_rejects_non_homogeneous(self):
        with pytest.raises(ValueError):
            homogeneous_solution_check(QuasilinearPDE("1", "1", "1"), "x-y", "w",
                                       SQUARE)


class TestNormalSurface:
    SHELL = Region(("x", "y", "z"), ((0.5, 2), (0.5, 2), (0.5, 2)))

    def test_radial_field(self):
        V = VectorField.of(("x", "y", "z"), "x", "y", "z")
        rep = normal_surface_check(V, "(x^2+y^2+z^2)/2", self.SHELL, tol=1e-12)
        assert rep.passed

    def test_coulomb_potential(self):
        V = VectorField.of(("x", "y", "z"), "x/(x^2+y^2+z^2)^1.5",
                           "y/(x^2+y^2+z^2)^1.5", "z/(x^2+y^2+z^2)^1.5")
        rep = normal_surface_check(V, "-1/sqrt(x^2+y^2+z^2)", self.SHELL, tol=1e-8)
        assert rep.passed

    def test_rotational_field_refused(self):
        V = VectorField.of(("x", "y", "z"), "y", "-x", "0")
        with pytest.raises(NotPotentialError):
            normal_surface_check(V, "x", self.SHELL)

    def test_solution_surface_contains_characteristics(self):
        # trace from a point of z = x^2 + y^2 stays on the surface
        pde = QuasilinearPDE("-y", "x", "0")
        x0, y0 = 0.6, 0.8
        traj = characteristic_trace(pde, (x0, y0, x0 ** 2 + y0 ** 2), (0.0, 1.0), 0.005)
        surface = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
        assert np.max(np.abs(surface - traj.states[:, 2])) <= 1e-6
