import math

import numpy as np
import pytest

from integrikit import btlax
from integrikit.btlax import (
    BTSystem, bt_residual, cauchy_riemann_bt, chiral_residual, kdv_residual,
    lax_commuting_flow, liouville_bt, maxwell_plane_wave, maxwell_residual,
    sine_gordon_bt, sine_gordon_kink, wave_equation_residual,
)
from integrikit.expr import Const, EvalDomainError, compile_system, eval_many, evaluate, parse
from integrikit.odesys import RK4Traces, SingularMatrixSampleError
from integrikit.realfield import Region

from conftest import grid_rows

XT_SQUARE = Region(("x", "t"), ((-2, 2), (-2, 2)))
XY_SQUARE = Region(("x", "y"), ((-2, 2), (-2, 2)))
SOLITON = "-2/cosh(x - 4*t)^2"  # kappa = 1


class TestBTResidual:
    def test_cauchy_riemann_auto_bt(self):
        rep = bt_residual(cauchy_riemann_bt(), "(x^2-y^2)/2", "x*y", XY_SQUARE,
                          tol=1e-12)
        assert rep.passed
        assert all(v == 0.0 for v in rep.details.values())

    def test_liouville_bt_and_pde(self):
        u = "-2*ln(5 - (x+t)/sqrt(2))"  # C = 5 keeps the log argument >= 0.1
        rep = bt_residual(liouville_bt(), u, "0", XT_SQUARE, tol=1e-10)
        assert rep.passed
        assert rep.details["B1"] <= 1e-10 and rep.details["B2"] <= 1e-10
        assert rep.details["Pu"] <= 1e-10

    def test_sine_gordon_trivial_solution(self):
        rep = bt_residual(sine_gordon_bt(1.0), "0", "0", XT_SQUARE, tol=1e-12)
        assert rep.passed and rep.max_residual == 0.0

    def test_bt_implies_pde_on_examples(self):
        # whenever B1, B2 pass at 1e-9, the targets pass at 1e-7
        cases = [
            (cauchy_riemann_bt(), "(x^2-y^2)/2", "x*y", XY_SQUARE),
            (liouville_bt(), "-2*ln(5 - (x+t)/sqrt(2))", "0", XT_SQUARE),
            (sine_gordon_bt(1.0), sine_gordon_kink(1.0, 1.0), "0", XT_SQUARE),
        ]
        for bt, u, v, region in cases:
            rep = bt_residual(bt, u, v, region, tol=1e-7)
            assert rep.details["B1"] <= 1e-9 and rep.details["B2"] <= 1e-9
            assert rep.details["Pu"] <= 1e-7 and rep.details["Qv"] <= 1e-7

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            BTSystem("u_x - w", "v_x", "u_xx", "v_xx")

    def test_bad_suffix_rejected(self):
        with pytest.raises(ValueError):
            BTSystem("u_q", "v_x", "u_xx", "v_xx")


class TestSineGordonKink:
    def test_value_at_origin(self):
        u = sine_gordon_kink(1.0, 1.0)
        assert abs(evaluate(u, {"x": 0.0, "t": 0.0}).real - math.pi) <= 1e-12

    def test_pde_residual_grid(self):
        for a in (0.5, 1.0, 2.0):
            u = sine_gordon_kink(a, 1.0)
            from integrikit.expr import call, diff
            residual = diff(diff(u, "x"), "t") - call("sin", u)
            pts = grid_rows(XT_SQUARE, 41)
            vals = np.abs(eval_many(residual, ("x", "t"), pts))
            assert vals.max() <= 1e-10

    def test_bt_parameter_sweep(self):
        for a in (0.5, 1.0, 2.0):
            u = sine_gordon_kink(a, 1.0)
            rep = bt_residual(sine_gordon_bt(a), u, "0", XT_SQUARE, tol=1e-9)
            assert rep.passed

    def test_asymptotic_limits(self):
        # atan asymptotics: u -> 0 at x -> -inf, u -> 2*pi at x -> +inf
        u = sine_gordon_kink(1.0, 1.0)
        left = evaluate(u, {"x": -20.0, "t": 0.0}).real
        right = evaluate(u, {"x": 20.0, "t": 0.0}).real
        assert abs(left) <= 1e-6
        assert abs(right - 2 * math.pi) <= 1e-6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sine_gordon_kink(0.0, 1.0)
        with pytest.raises(ValueError):
            sine_gordon_kink(1.0, -1.0)


class TestKdV:
    REGION = Region(("x", "t"), ((-2, 2), (-0.5, 0.5)))

    def test_soliton_residual(self):
        rep = kdv_residual(SOLITON, self.REGION, tol=1e-10)
        assert rep.passed

    def test_zero_solution(self):
        rep = kdv_residual("0", self.REGION, tol=0.0)
        assert rep.passed and rep.max_residual == 0.0

    def test_linear_non_solution(self):
        rep = kdv_residual("x", XT_SQUARE, tol=1e-9)
        assert not rep.passed
        assert abs(rep.max_residual - 12.0) <= 1e-12  # |-6x| peaks at x = 2


class TestLaxCommutingFlow:
    def test_soliton_commutes(self):
        dev = lax_commuting_flow(SOLITON, 0.3, 1.0, 0.1, 0.0, (0.2, 0.2))
        assert dev.deviation <= 1e-5

    def test_zero_solution_commutes(self):
        dev = lax_commuting_flow("0", 0.3, 1.0, 0.0, 0.0, (0.2, 0.2))
        assert dev.deviation <= 1e-9

    def test_non_solution_deviates(self):
        dev = lax_commuting_flow("x", 0.3, 1.0, 1.0, 0.0, (0.2, 0.2))
        assert dev.deviation > 1e-2

    def test_legs_share_two_compiled_systems(self):
        compile_system.cache_clear()
        first = lax_commuting_flow(SOLITON, 0.3, 1.0, 0.1, 0.0, (0.2, 0.2))
        assert compile_system.cache_info().misses == 2    # one along x, one along t
        again = lax_commuting_flow(SOLITON, 0.3, 1.0, -0.4, 0.3, (0.2, -0.1))
        assert compile_system.cache_info().misses == 2
        assert first.deviation <= 1e-5 and again.deviation <= 1e-5

    def test_the_fields_of_all_four_legs_are_evaluated_at_once(self, monkeypatch):
        calls, eval_columns = [], btlax.eval_columns

        def counting(exprs, names, columns, shape):
            calls.append(shape)
            return eval_columns(exprs, names, columns, shape)

        monkeypatch.setattr(btlax, "eval_columns", counting)
        lax_commuting_flow(SOLITON, 0.3, 1.0, 0.1, 0.0, (0.2, 0.2), steps=16)
        assert calls == [(4 * 3 * 16,)]        # four legs of 16 steps, three stage points each

    def test_a_failing_third_leg_raises_after_the_first_two_traces(self, monkeypatch):
        traced, endpoint = [], RK4Traces.endpoint

        def recording(self, *args):
            traced.append(args[1:])
            return endpoint(self, *args)

        monkeypatch.setattr(RK4Traces, "endpoint", recording)
        # 1/0 at (0, 0.125): a stage point of the third leg (along t at x = 0) only
        with pytest.raises(EvalDomainError) as ex:
            lax_commuting_flow("1/(x^2 + (t - 0.125)^2)", 0.3, 1.0, 0.0, 0.0, (0.25, 0.25))
        assert str(ex.value) == "division by zero while evaluating '1/(x^2 + (t - 0.125)^2)'"
        assert traced == [(0.0, 0.25, 0.015625)] * 2

    def test_deviation_shrinks_with_rectangle(self):
        big = lax_commuting_flow(SOLITON, 0.3, 1.0, 0.1, 0.0, (0.2, 0.2))
        small = lax_commuting_flow(SOLITON, 0.3, 1.0, 0.1, 0.0, (0.1, 0.1))
        assert big.deviation / max(small.deviation, 1e-300) >= 8.0


class TestChiralResidual:
    def test_commuting_exponentials(self):
        g = [["e^(x + t)", "0"], ["0", "e^(2*x - t)"]]
        rep = chiral_residual(g, XT_SQUARE, tol=1e-10)
        assert rep.passed

    def test_constant_matrix(self):
        rep = chiral_residual([["2", "1"], ["0", "1"]], XT_SQUARE, tol=0.0)
        assert rep.passed and rep.max_residual == 0.0

    def test_known_nonzero_residual(self):
        # g = diag(e^{xt}, 1): g^-1 g_x = diag(t, 0), g^-1 g_t = diag(x, 0)
        # => residual = |d_t t + d_x x| = 2 everywhere (hand-computed)
        rep = chiral_residual([["e^(x*t)", "0"], ["0", "1"]],
                              Region(("x", "t"), ((-1, 1), (-1, 1))), tol=1e-9)
        assert abs(rep.max_residual - 2.0) <= 1e-9

    def test_singular_sample_is_named_in_plain_floats(self):
        with pytest.raises(SingularMatrixSampleError) as ex:
            chiral_residual([["x", "0"], ["0", "1"]], XT_SQUARE, grid=5)
        assert str(ex.value) == "g is near-singular at (0.0, -2.0)"


SPACETIME = Region(("x", "y", "z", "t"), ((-1, 1), (-1, 1), (-1, 1), (0, 2)))


class TestMaxwell:
    def test_amplitude_relations(self):
        wave, E, B = maxwell_plane_wave((0.0, 0.0, 1.0), 2.0, omega=3.0,
                                        E0_dir=(1.0, 0.0, 0.0))
        assert np.allclose(wave.B0R, [0.0, 2.0 / wave.c, 0.0], atol=1e-14)
        assert abs(np.linalg.norm(wave.E0R) - wave.c * np.linalg.norm(wave.B0R)) <= 1e-12

    def test_wave_satisfies_maxwell(self):
        _, E, B = maxwell_plane_wave((0.0, 0.0, 1.0), 2.0, alpha=0.4, omega=3.0,
                                     E0_dir=(1.0, 0.0, 0.0))
        rep = maxwell_residual(E, B, 1.0, SPACETIME, tol=1e-10)
        assert rep.passed

    def test_zero_fields(self):
        zeros = (Const(0.0),) * 3
        rep = maxwell_residual(zeros, zeros, 1.0, SPACETIME, tol=0.0)
        assert rep.passed and rep.max_residual == 0.0

    def test_divergence_detector(self):
        E = (parse("x"), Const(0.0), Const(0.0))
        B = (Const(0.0),) * 3
        rep = maxwell_residual(E, B, 1.0, SPACETIME, tol=1e-9)
        assert not rep.passed
        assert abs(rep.details["div_E"] - 1.0) <= 1e-12

    def test_instantaneous_field_ratio(self, rng):
        wave, E, B = maxwell_plane_wave((0.0, 0.0, 1.0), 2.0, alpha=0.7, omega=3.0,
                                        eps0mu0=2.0)
        pts = rng.uniform(-1, 1, size=(100, 4))
        Ev = np.stack([eval_many(c, ("x", "y", "z", "t"), pts).real for c in E], axis=1)
        Bv = np.stack([eval_many(c, ("x", "y", "z", "t"), pts).real for c in B], axis=1)
        gap = np.abs(np.linalg.norm(Ev, axis=1) - wave.c * np.linalg.norm(Bv, axis=1))
        assert np.max(gap) <= 1e-12

    def test_right_handed_frame(self, rng):
        wave, E, B = maxwell_plane_wave((0.0, 1.0, 0.0), 1.5, omega=2.0)
        pts = rng.uniform(-1, 1, size=(100, 4))
        Ev = np.stack([eval_many(c, ("x", "y", "z", "t"), pts).real for c in E], axis=1)
        Bv = np.stack([eval_many(c, ("x", "y", "z", "t"), pts).real for c in B], axis=1)
        triple = np.cross(Ev, Bv) @ wave.k
        live = np.linalg.norm(Ev, axis=1) > 1e-9
        assert np.all(triple[live] > 0)

    def test_wave_equation_for_plane_wave(self):
        _, E, _ = maxwell_plane_wave((0.0, 0.0, 1.0), 2.0, omega=3.0)
        rep = wave_equation_residual(E, 1.0, SPACETIME, tol=1e-10)
        assert rep.passed

    def test_generic_profile_with_dispersion(self):
        # A = cos(k.r - w t) with w = c|k| solves the wave equation exactly
        kx, ky, kz = (float(v) for v in np.array([1.0, 2.0, 2.0]) / 3.0 * 4.0)
        w = math.sqrt(kx ** 2 + ky ** 2 + kz ** 2)
        carrier = parse(f"cos({kx!r}*x + {ky!r}*y + {kz!r}*z - {w!r}*t)")
        rep = wave_equation_residual((carrier, carrier, carrier), 1.0, SPACETIME,
                                     tol=1e-10)
        assert rep.passed

    def test_detuned_frequency_fails(self):
        wave, _, _ = maxwell_plane_wave((0.0, 0.0, 1.0), 2.0, omega=3.0)
        from integrikit.btlax import _phase_expr
        carrier = _phase_expr(wave.k, wave.omega * 1.1, 0.0)
        detuned = tuple(Const(float(a)) * carrier for a in wave.E0R)
        rep = wave_equation_residual(detuned, 1.0, SPACETIME, tol=1e-9)
        assert not rep.passed
        assert rep.max_residual > 0.1 * np.linalg.norm(wave.k) ** 2

    def test_maxwell_implies_wave_but_not_conversely(self):
        _, E, B = maxwell_plane_wave((0.0, 0.0, 1.0), 2.0, omega=3.0)
        assert maxwell_residual(E, B, 1.0, SPACETIME, tol=1e-9).passed
        assert wave_equation_residual(E, 1.0, SPACETIME, tol=1e-6).passed
        assert wave_equation_residual(B, 1.0, SPACETIME, tol=1e-6).passed
        # counterexample for the converse: E a plane wave, B = 0
        zeros = (Const(0.0),) * 3
        assert wave_equation_residual(zeros, 1.0, SPACETIME, tol=0.0).passed
        assert not maxwell_residual(E, zeros, 1.0, SPACETIME, tol=1e-9).passed

    def test_projection_warning_and_parallel_error(self):
        with pytest.warns(UserWarning, match="projected"):
            maxwell_plane_wave((0.0, 0.0, 1.0), 1.0, omega=1.0,
                               E0_dir=(1.0, 0.0, 0.5))
        with pytest.raises(ValueError, match="parallel"):
            maxwell_plane_wave((0.0, 0.0, 1.0), 1.0, omega=1.0,
                               E0_dir=(0.0, 0.0, 2.0))

    def test_unit_wavevector_required(self):
        with pytest.raises(ValueError):
            maxwell_plane_wave((0.0, 0.0, 2.0), 1.0, omega=1.0)

    def test_wavelength_input(self):
        wave, _, _ = maxwell_plane_wave((1.0, 0.0, 0.0), 1.0, wavelength=2.0,
                                        eps0mu0=4.0)
        # c = 1/2, omega = 2 pi c / wavelength = pi / 2
        assert abs(wave.c - 0.5) <= 1e-15
        assert abs(wave.omega - math.pi / 2) <= 1e-15
