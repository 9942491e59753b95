import math
from array import array

import numpy as np
import pytest

from integrikit import _backend
from integrikit.charpde import (
    CharacteristicFanError, InitialCurve, NotPotentialError, QuasilinearPDE,
    TransversalityError, homogeneous_solution_check,
    normal_surface_check, pde_residual, solve_cauchy,
)
from integrikit.expr import EvalError, compile_system, eval_many, parse
from integrikit.odesys import AutonomousSystem, IntegrationError, RK4Traces
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
        traj = RK4Traces(pde.characteristic_system).trajectory(
            (0.0, 0.0, 0.0), (0.0, 2.0), 0.01, empty=True)
        # the invariants x - y and z - x stay constant along it
        diffs1 = traj.states[:, 0] - traj.states[:, 1]
        diffs2 = traj.states[:, 2] - traj.states[:, 0]
        assert np.max(np.abs(diffs1 - diffs1[0])) <= 1e-8
        assert np.max(np.abs(diffs2 - diffs2[0])) <= 1e-8

    def test_circle_at_height(self):
        pde = QuasilinearPDE("-y", "x", "0")
        traj = RK4Traces(pde.characteristic_system).trajectory(
            (1.0, 0.0, 5.0), (0.0, 2.0), 0.005, empty=True)
        radii = np.hypot(traj.states[:, 0], traj.states[:, 1])
        assert np.max(np.abs(radii - 1.0)) <= 1e-8
        assert np.max(np.abs(traj.states[:, 2] - 5.0)) == 0.0

    def test_zero_length_span(self):
        pde = QuasilinearPDE("1", "1", "1")
        traj = RK4Traces(pde.characteristic_system).trajectory(
            (0.5, -1.0, 2.0), (1.0, 1.0), 0.01, empty=True)
        assert len(traj.ts) == 1
        assert np.array_equal(traj.states[0], [0.5, -1.0, 2.0])

    def test_first_integral_drift_along_characteristics(self):
        cases = [
            (QuasilinearPDE("1", "1", "1"), ("x-y", "z-x"), (0.1, -0.2, 0.4)),
            (QuasilinearPDE("-y", "x", "0"), ("z", "x^2+y^2"), (1.0, 0.0, 5.0)),
            (QuasilinearPDE("x", "y", "z"), ("x/y", "z/x"), (1.0, 2.0, 0.5)),
        ]
        for pde, integrals, start in cases:
            traj = RK4Traces(pde.characteristic_system).trajectory(
                start, (0.0, 2.0), 0.005, empty=True)
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

    # sqrt(0.5 - v) on the 33 samples of [-1, 1] first leaves the reals at
    # v = 0.5625, where its imaginary part is 0.25; later samples give more
    @pytest.mark.parametrize("pde,curve,message", [
        (("1", "1", "0"), ("s", "0", "sqrt(0.5 - s)"),
         "initial curve has non-negligible imaginary part 0.25"),
        (("sqrt(0.5 - x)", "1", "0"), ("s", "0", "0"),
         "P has non-negligible imaginary part 0.25"),
    ], ids=["initial-curve", "P"])
    def test_a_value_that_leaves_the_reals_is_named_at_its_first_point(self, pde, curve,
                                                                        message):
        with pytest.raises(EvalError) as err:
            solve_cauchy(QuasilinearPDE(*pde), InitialCurve("s", *curve, -1.0, 1.0), [(0.1, 0.5)])
        assert str(err.value) == message

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
        """Every ``(ts, states)`` trace solve_cauchy makes, in order: each fan
        row forward and then backward, then each Newton trace, whose states
        are the endpoint it keeps."""
        made = []
        fan, endpoint = RK4Traces.fan, RK4Traces.endpoint

        def recording_fan(self, starts, t_end, h):
            ts, states = fan(self, starts, t_end, h)
            back = int(np.flatnonzero(ts == 0.0)[1])      # where the backward leg starts
            for rows in states.reshape(len(starts), len(ts), self.n):
                made.extend([(ts[:back], rows[:back]), (ts[back:], rows[back:])])
            return ts, states

        def recording_endpoint(self, *args):
            ts, y = endpoint(self, *args)
            made.append((ts, y[None]))
            return ts, y

        monkeypatch.setattr(RK4Traces, "fan", recording_fan)
        monkeypatch.setattr(RK4Traces, "endpoint", recording_endpoint)
        return made

    @pytest.mark.parametrize("fan_rows", [5, 21])
    def test_trace_count(self, traces, fan_rows):
        sol = solve_cauchy(self.PDE, self.IC, self.QUERIES, fan_rows=fan_rows)
        assert len(traces) == 2 * fan_rows + sum(sol.iterations)
        starts = self.IC.points(np.linspace(-3.0, 3.0, fan_rows))
        for k, (ts, states) in enumerate(traces[:2 * fan_rows]):
            assert np.array_equal(states[0], starts[k // 2])
            assert (ts[0], ts[-1]) == (0.0, 5.0 if k % 2 == 0 else -5.0)
        for ts, states in traces[2 * fan_rows:]:
            assert states.shape[1] == 6 and ts[0] == 0.0

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
        characteristic = RK4Traces(pde.characteristic_system)
        plus, minus = (characteristic(p, 0.0, t, 0.01 if t >= 0 else -0.01)[1][-1]
                       for p in ic.points([s + ds, s - ds]))
        column = (plus - minus) / (2 * ds)
        assert np.max(np.abs(states[-1][3:] - column)) <= 1e-6 * np.max(np.abs(column))

    @pytest.mark.parametrize("P, Q, R", [
        ("1", "1", "1"), ("z", "1", "0"), ("-y", "x", "0"), ("x", "y", "z"),
        ("sin(z) + 0.5", "cos(x*y)", "atan(z)^3 - x^2"),
    ])
    def test_fan_points_are_the_row_traces_bit_for_bit(self, P, Q, R):
        traces = RK4Traces(QuasilinearPDE(P, Q, R).characteristic_system)
        starts = InitialCurve("s", "s", "0.5*s", "sin(s)", -1.0, 1.0).points(
            np.linspace(-1.0, 1.0, 7))
        ts, states = traces.fan(starts, 0.55, 0.05)
        rows = []
        for start in starts:
            for t_end, h in ((0.55, 0.05), (-0.55, -0.05)):
                rows.append(traces(start, 0.0, t_end, h))
        assert ts.tobytes() == np.concatenate([t for t, _ in rows[:2]]).tobytes()
        assert states.tobytes() == np.concatenate([x for _, x in rows]).tobytes()

    # cosh above 708 is left to the complex trace, where it stays real
    FLOAT_FAILURES = AutonomousSystem(("x", "y"), (parse("1e-300*cosh(y)"), parse("0")))
    FLOAT_FAILURE_STARTS = [(0.0, 1.0), (0.0, 708.5), (0.0, -2.0), (0.0, 709.0), (0.0, 3.0)]

    def test_a_fan_row_that_fails_on_floats_reruns_on_complex(self):
        system, starts = self.FLOAT_FAILURES, self.FLOAT_FAILURE_STARTS
        tape = compile_system(system.components, system.names, None)
        traces = RK4Traces(system)
        ts, states = traces.fan(starts, 0.3, 0.1)
        rows, on_floats = [], []
        for start in starts:
            for t_end, h in ((0.3, 0.1), (-0.3, -0.1)):
                rows.append(traces(start, 0.0, t_end, h)[1])
                failed, _ = _backend.rk4(tape.ops, tape.consts, tape.outs, [start], 1e12,
                                         [(0.0, h, h, 3)], 0, array("d").extend, True)
                on_floats.append(failed < 0)
        assert on_floats.count(False) == 4 and on_floats.count(True) == 6
        assert states.tobytes() == np.concatenate(rows).tobytes()

    def test_a_fan_runs_no_trace_on_floats_twice(self, monkeypatch):
        entries = {True: 0, False: 0}     # calls of the float and the complex routine
        build = _backend._trace_fn

        def counting_trace_fn(*key):
            trace = build(*key)

            def entered(*args):
                entries[key[5]] += 1      # _trace_fn(ops, consts, outs, n, guard, real, every)
                return trace(*args)
            return entered

        monkeypatch.setattr(_backend, "_trace_fn", counting_trace_fn)
        RK4Traces(self.FLOAT_FAILURES).fan(self.FLOAT_FAILURE_STARTS, 0.3, 0.1)
        assert entries[True] <= 4 + 1 and entries[False] == 4    # 4 traces fail on floats

    @pytest.mark.parametrize("Q, R, curve, query, t_max, message", [
        # the first fan row blows up backward
        ("0.5", "z^2", ("s", "0", "s", -1.0, 1.0), (0.2, 0.1), 2.0,
         "state blew up or left the evaluation domain (last good t = -1.0)"),
        # the first fan row leaves the reals backward, and its complex rerun too
        ("1", "sqrt(z)", ("s", "0", "s", 0.1, 0.5), (0.3, 0.2), 1.0,
         "trajectory acquired a non-negligible imaginary part (last good t = -1.0)"),
        # the fan passes, and a Newton trace blows up
        ("1", "z^2", ("s", "0", "s", 0.1, 0.5), (2.4, 1.8), 1.9,
         "state blew up or left the evaluation domain (last good t = 1.7000000000000002)"),
    ], ids=["fan-blow-up", "fan-imaginary", "newton-blow-up"])
    def test_a_failing_trace_names_its_last_good_time(self, Q, R, curve, query, t_max,
                                                      message):
        with pytest.raises(IntegrationError) as ex:
            solve_cauchy(QuasilinearPDE("1", Q, R), InitialCurve("s", *curve), [query],
                         h=0.1, t_max=t_max)
        assert str(ex.value) == message


class TestCharacteristicSystem:
    def test_one_solve_compiles_two_systems(self):
        pde = QuasilinearPDE("1.375", "0.625 + 0.0625*x", "0.8125*z")
        ic = InitialCurve("s", "s", "0", "sin(s)", -1.0, 1.0)
        queries = [(0.5, 0.3), (-0.2, -0.4)]
        before = compile_system.cache_info().misses
        solve_cauchy(pde, ic, queries, h=0.05, t_max=1.0, fan_rows=5)
        assert compile_system.cache_info().misses - before == 2
        before = (compile_system.cache_info().misses, _backend._trace_fn.cache_info().misses,
                  _backend._build.cache_info().misses)
        solve_cauchy(pde, ic, queries, h=0.05, t_max=1.0, fan_rows=5)
        assert (compile_system.cache_info().misses, _backend._trace_fn.cache_info().misses,
                _backend._build.cache_info().misses) == before


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
        traj = RK4Traces(pde.characteristic_system).trajectory(
            (x0, y0, x0 ** 2 + y0 ** 2), (0.0, 1.0), 0.005, empty=True)
        surface = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
        assert np.max(np.abs(surface - traj.states[:, 2])) <= 1e-6
