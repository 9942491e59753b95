import math

import numpy as np
import pytest

from integrikit.cplx import (
    ComplexFunction, Contour, NotHarmonicError, WindingError,
    antiderivative_eval, cauchy_value, contour_integral, cr_residual,
    harmonic_conjugate, laurent_coeffs, winding_number,
)
from integrikit.expr import EvalDomainError, diff, parse
from integrikit.realfield import TIE, Region, VectorField, potential_grid

SQUARE = Region(("x", "y"), ((-2, 2), (-2, 2)))
TWO_PI_I = 2j * math.pi


def smooth_square_contour(scale=1.0):
    """Square-ish smooth closed curve around the origin (tanh-rounded)."""
    x = parse(f"{scale}*tanh(3*cos(t))/tanh(3)")
    y = parse(f"{scale}*tanh(3*sin(t))/tanh(3)")
    return Contour.parametric(x, y, 0.0, 2 * math.pi, closed=True)


class TestComplexFunction:
    def test_exactly_one_representation(self):
        with pytest.raises(ValueError):
            ComplexFunction(z_expr=parse("z"), u_expr=parse("x"), v_expr=parse("y"))
        with pytest.raises(ValueError):
            ComplexFunction()

    def test_forms_agree(self, rng):
        fz = ComplexFunction.from_z("z^2/2")
        fuv = ComplexFunction.from_uv("(x^2-y^2)/2", "x*y")
        zs = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)
        assert np.max(np.abs(fz.sample(zs) - fuv.sample(zs))) < 1e-14


class TestCauchyRiemann:
    def test_z_squared_over_two(self):
        rep = cr_residual(ComplexFunction.from_uv("(x^2-y^2)/2", "x*y"), SQUARE, tol=1e-12)
        assert rep.passed and rep.max_residual == 0.0

    def test_abs_squared_fails_off_origin(self):
        rep = cr_residual(ComplexFunction.from_uv("x^2+y^2", "0"), SQUARE, tol=1e-9)
        assert not rep.passed
        assert abs(rep.max_residual - 4.0) < 1e-12  # max(|2x|, |2y|) on the square

    def test_constants_pass(self):
        rep = cr_residual(ComplexFunction.from_uv("3", "-1"), SQUARE, tol=1e-12)
        assert rep.passed


class TestHarmonicConjugate:
    def test_v_xy(self):
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        out = harmonic_conjugate("x*y", (0.0, 0.0), reg, grid=21)
        X, Y = np.meshgrid(out.x_axis, out.y_axis, indexing="ij")
        assert np.max(np.abs(out.u_grid - (X ** 2 - Y ** 2) / 2)) < 1e-8
        assert out.cr_report.passed

    def test_linear_case(self):
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        out = harmonic_conjugate("y", (0.0, 0.0), reg, grid=11)
        X, _ = np.meshgrid(out.x_axis, out.y_axis, indexing="ij")
        assert np.max(np.abs(out.u_grid - X)) < 1e-12

    def test_exp_sin(self):
        # CR quadrature oracle: u must match e^x cos y - 1 (u(0,0) = 0)
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        out = harmonic_conjugate("e^x*sin(y)", (0.0, 0.0), reg, grid=21)
        X, Y = np.meshgrid(out.x_axis, out.y_axis, indexing="ij")
        target = np.exp(X) * np.cos(Y) - 1.0
        assert np.max(np.abs(out.u_grid - target)) < 1e-8
        assert out.cr_report.passed

    def test_a_period_ties_and_names_the_first_enclosing_point(self):
        """u = arg(z - (1 + i)/4): the polylines from (-1, -1) to the four
        nodes with x, y >= 0.5 enclose the pole, and their differences are
        2*pi or one ulp below it.  argmax picks (1, 1), the tie rule the
        first of them in grid order."""
        v = "0.5*ln((x-0.25)^2+(y-0.25)^2)"
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        out = harmonic_conjugate(v, (-1.0, -1.0), reg, grid=5)
        vx, vy = diff(parse(v), "x"), diff(parse(v), "y")
        u_xy, u_yx = potential_grid(VectorField.of(("x", "y"), vy, -vx),
                                    (out.x_axis, out.y_axis), (-1.0, -1.0))
        gap = np.abs(u_xy - u_yx)
        assert np.argmax(gap) == gap.size - 1 and gap[3, 3] < gap.max() <= gap[3, 3] * (1 + TIE)
        assert abs(out.cr_report.max_residual - 2 * math.pi) <= 1e-15
        assert out.cr_report.worst_point == (0.5, 0.5) and not out.cr_report.passed

    def test_rejects_non_harmonic(self):
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        with pytest.raises(NotHarmonicError):
            harmonic_conjugate("x^2", (0.0, 0.0), reg, grid=11)


class TestContourIntegral:
    def test_power_identity_battery(self):
        a = 1 + 2j
        for k in range(-2, 6):
            f = parse("1") if k == 0 else parse(f"1/(z-(1+2*i))^{k}")
            val = contour_integral(f, Contour.circle(a, 0.7), nodes=256)
            expected = TWO_PI_I if k == 1 else 0.0
            tol = 1e-12 if k == 1 else 1e-10
            assert abs(val - expected) <= tol

    def test_clockwise_negates(self):
        val = contour_integral("1/(z-1)", Contour.circle(1.0, 0.5, "cw"))
        assert abs(val + TWO_PI_I) < 1e-12

    def test_inverse_square_vanishes(self):
        val = contour_integral("1/(z-1)^2", Contour.circle(1.0, 0.5))
        assert abs(val) < 1e-12

    def test_cauchy_goursat_random_contours(self, rng):
        from test_realfield import fourier_loop
        for name in ("z^2", "1 + 2*z - z^3", "sin(z)"):
            f = parse(name)
            for _ in range(10):
                loop = fourier_loop(rng, center=(0.3, -0.2))
                contour = Contour(loop, "general")
                assert abs(contour_integral(f, contour, nodes=1280)) <= 1e-9

    def test_deformation_invariance_square_contour(self):
        val = contour_integral("1/z", smooth_square_contour(), nodes=2048)
        assert abs(val - TWO_PI_I) <= 1e-8

    def test_trapezoid_spectral_convergence(self):
        # pole at 0.5 inside the unit circle: error ~ 0.5^N per N nodes
        exact = TWO_PI_I
        errs = {n: abs(contour_integral("1/(z-0.5)", Contour.circle(0.0, 1.0), n) - exact)
                for n in (16, 32, 64)}
        assert errs[16] / errs[32] >= 1e4
        assert errs[64] <= 1e-14  # machine floor

    def test_singular_node(self):
        with pytest.raises(EvalDomainError):
            contour_integral("1/(z-1)", Contour.circle(0.0, 1.0))


class TestCauchyValue:
    def test_analytic_value(self):
        val = cauchy_value("z^2", 1.0, Contour.circle(1.0, 1.0))
        assert abs(val - 1.0) < 1e-12

    def test_unit_numerator(self):
        # equivalent to the closed integral dz/(z-z0) = 2*pi*i
        val = cauchy_value("1", 0.3 - 0.1j, Contour.circle(0.0, 1.0))
        assert abs(val - 1.0) < 1e-12

    def test_outside_is_error(self):
        with pytest.raises(WindingError):
            cauchy_value("z^2", 3.0, Contour.circle(1.0, 1.0))

    def test_on_contour_is_error(self):
        with pytest.raises(WindingError):
            cauchy_value("z", 2.0, Contour.circle(1.0, 1.0))

    def test_winding_number_values(self):
        c = Contour.circle(0.0, 1.0)
        assert winding_number(c, 0.0) == 1
        assert winding_number(c, 2.0) == 0
        assert winding_number(Contour.circle(0.0, 1.0, "cw"), 0.0) == -1


class TestLaurent:
    def test_geometric_series_coefficients(self):
        # oracle: 1/(z(z-1)) = -(1/z) * sum z^k  =>  a_n = -1 for n >= -1
        coeffs = laurent_coeffs("1/(z*(z-1))", 0.0, 0.5, (-2, 2))
        assert abs(coeffs[-2]) < 1e-10
        for n in (-1, 0, 1, 2):
            assert abs(coeffs[n] + 1.0) < 1e-10

    def test_radius_independence(self):
        a = laurent_coeffs("1/(z*(z-1))", 0.0, 0.3, (-1, 1))
        b = laurent_coeffs("1/(z*(z-1))", 0.0, 0.5, (-1, 1))
        assert max(abs(a[n] - b[n]) for n in a) <= 1e-9

    def test_monomial(self):
        z0 = 0.2 + 0.1j
        coeffs = laurent_coeffs(parse("(z-(0.2+0.1*i))^3"), z0, 0.7, (-2, 5))
        for n, v in coeffs.items():
            assert abs(v - (1.0 if n == 3 else 0.0)) < 1e-12

    def test_power_identity_delta(self):
        # coefficients of (z-a)^{-k} about a: a_n = delta_{n,-k}
        a = 0.5j
        for k in (1, 2, 3):
            coeffs = laurent_coeffs(parse(f"1/(z-0.5*i)^{k}"), a, 0.4, (-4, 1))
            for n, v in coeffs.items():
                assert abs(v - (1.0 if n == -k else 0.0)) < 1e-9

    def test_singular_node_rejected(self):
        with pytest.raises(EvalDomainError):
            laurent_coeffs("1/(z-0.5)", 0.0, 0.5, (0, 1))


class TestAntiderivative:
    def test_z_squared_three_paths(self):
        expected = (1 - 1j) / 3
        paths = [
            None,  # straight segment
            Contour.parametric("-1 + t + 0.4*t*(1-t)", "t - 0.3*t*(1-t)", 0.0, 1.0),
            Contour.parametric("-1 + t - 0.25*t*(1-t)", "t + 0.5*t*(1-t)", 0.0, 1.0),
        ]
        for path in paths:
            val = antiderivative_eval("z^2", -1.0, 1j, path)
            assert abs(val - expected) <= 1e-11

    def test_inverse_square(self):
        z1, z2 = 1.0, 1j
        val = antiderivative_eval("1/z^2", z1, z2)
        assert abs(val - (1 / z1 - 1 / z2)) < 1e-10

    def test_zero_length(self):
        assert antiderivative_eval("z^2", 0.5j, 0.5j) == 0

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            antiderivative_eval("z", 0.0, 1.0, Contour.segment(0.0, 2.0))


class TestContourType:
    def test_circle_kind_invariant(self):
        c = Contour.circle(1 + 1j, 2.0)
        assert c.kind == "circle" and c.radius == 2.0

    def test_fake_circle_rejected(self):
        curve = Contour.segment(0.0, 1.0).curve
        with pytest.raises(ValueError):
            Contour(curve, "circle", 0.0, 1.0, 1)
