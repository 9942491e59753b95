import math

import numpy as np
import pytest

from integrikit.expr import eval_many, parse
from integrikit.flow import (
    EquilibriumError, LieSeriesConfig, LieSeriesOverflowError,
    equilibrium_find, infinitesimal_transform, level_surface_membership,
    lie_derivative, lie_series_flow, transform_function,
)
from integrikit.odesys import AutonomousSystem, integrate_rk4
from integrikit.realfield import Region, VectorField

from conftest import grid_rows

ROTATION = VectorField.of(("x", "y"), "y", "-x")
SCALE_SHIFT = VectorField.of(("x", "y"), "x", "2")  # alpha=1, beta=2


class TestLieDerivative:
    def test_first_integral_annihilated(self):
        assert lie_derivative(ROTATION, "x^2+y^2", (3.0, 4.0)) == 0.0

    def test_coordinate_function_gives_component(self):
        assert lie_derivative(ROTATION, "x", (3.0, 4.0)) == 4.0
        assert lie_derivative(ROTATION, "y", (3.0, 4.0)) == -3.0

    def test_constant(self):
        assert lie_derivative(ROTATION, "7", (1.0, 1.0)) == 0.0


class TestLieSeriesFlow:
    def test_scale_shift_closed_form(self):
        out = lie_series_flow(SCALE_SHIFT, (1.0, 0.0), 0.5)
        assert abs(out[0] - math.exp(0.5)) <= 1e-8
        assert out[1] == 1.0

    def test_time_zero_identity(self):
        out = lie_series_flow(ROTATION, (0.3, -0.7), 0.0)
        assert np.array_equal(out, [0.3, -0.7])

    def test_rotation_closed_form(self):
        out = lie_series_flow(ROTATION, (1.0, 0.0), 0.3)
        assert abs(out[0] - math.cos(0.3)) <= 1e-9
        assert abs(out[1] + math.sin(0.3)) <= 1e-9

    def test_flow_composition(self):
        for field in (ROTATION, SCALE_SHIFT):
            for s, t in ((0.2, 0.1), (-0.3, 0.25), (0.15, 0.15)):
                mid = lie_series_flow(field, (0.8, 0.4), s)
                two_step = lie_series_flow(field, tuple(mid), t)
                one_step = lie_series_flow(field, (0.8, 0.4), s + t)
                assert np.max(np.abs(two_step - one_step)) <= 1e-8

    def test_series_matches_rk4(self):
        pendulum = VectorField.of(("x", "y"), "y", "-sin(x)")
        cfg = LieSeriesConfig(order=10, node_cap=1_000_000)  # pendulum terms are bulky
        for field in (ROTATION, pendulum):
            sys_ = AutonomousSystem(field.names, field.components)
            for t in (0.25, 0.5):
                series = lie_series_flow(field, (1.0, 0.3), t, cfg)
                rk = integrate_rk4(sys_, (1.0, 0.3), (0.0, t), 1e-4)
                assert np.max(np.abs(series - rk.endpoint)) <= 1e-6

    def test_order_cap(self):
        with pytest.raises(ValueError):
            LieSeriesConfig(order=13)

    def test_node_cap_overflow(self):
        messy = VectorField.of(("x", "y"), "(x+y)^3", "(x-y)^3")
        with pytest.raises(LieSeriesOverflowError, match="RK4"):
            lie_series_flow(messy, (0.1, 0.2), 0.1,
                            LieSeriesConfig(order=10, node_cap=500))


class TestInfinitesimal:
    def test_generator_step(self):
        out = infinitesimal_transform(SCALE_SHIFT, (1.0, 0.0), 0.01)
        assert np.allclose(out, [1.01, 0.02], rtol=0, atol=0)

    def test_time_zero(self):
        out = infinitesimal_transform(SCALE_SHIFT, (1.0, 0.0), 0.0)
        assert np.array_equal(out, [1.0, 0.0])

    def test_second_order_gap(self):
        # |flow - infinitesimal| should scale like t^2 (Richardson slope 2)
        gaps = []
        for t in (1e-2, 1e-3):
            full = lie_series_flow(SCALE_SHIFT, (1.0, 0.0), t)
            lin = infinitesimal_transform(SCALE_SHIFT, (1.0, 0.0), t)
            gaps.append(np.max(np.abs(full - lin)))
        slope = math.log10(gaps[0] / gaps[1])
        assert abs(slope - 2.0) <= 0.1


class TestTransformFunction:
    def test_product_function(self):
        unit = VectorField.of(("x", "y"), "x", "1")
        val = transform_function(unit, "x*y", (1.0, 1.0), 0.2)
        assert abs(val - math.exp(0.2) * 1.2) <= 1e-9

    def test_constant_unchanged(self):
        assert transform_function(ROTATION, "5", (1.0, 0.0), 0.4) == 5.0

    def test_first_integral_unchanged(self):
        for t in (0.1, 0.25, 0.4):
            val = transform_function(ROTATION, "x^2+y^2", (0.6, 0.8), t)
            assert abs(val - 1.0) <= 1e-9

    def test_infinitesimal_form(self):
        # F(moved) ~ F + t * V F for small t
        F = parse("x^2*y")
        t = 1e-4
        moved = transform_function(ROTATION, F, (1.0, 2.0), t)
        base = 2.0
        lie = lie_derivative(ROTATION, F, (1.0, 2.0))
        assert abs(moved - (base + t * lie)) <= 1e-6


class TestEquilibrium:
    def test_rotation_origin(self):
        out = equilibrium_find(ROTATION, (0.3, -0.2))
        assert np.max(np.abs(out)) <= 1e-12

    def test_no_equilibrium(self):
        with pytest.raises(EquilibriumError):
            equilibrium_find(SCALE_SHIFT, (1.0, 1.0))

    def test_affine(self):
        out = equilibrium_find(VectorField.of(("x", "y"), "x-1", "y+2"), (0.0, 0.0))
        assert np.allclose(out, [1.0, -2.0], atol=1e-12)


class TestLevelSurface:
    def test_rotation_circle(self):
        sys_ = AutonomousSystem(("x", "y"), ("y", "-x"))
        rep = level_surface_membership("x^2+y^2", sys_, (0.6, 0.8), 10.0, 1e-3)
        assert rep.passed

    def test_symmetric_plane(self):
        sys3 = AutonomousSystem(("x", "y", "z"), ("y-z", "z-x", "x-y"))
        rep = level_surface_membership("x+y+z", sys3, (1.0, 0.0, 0.5), 10.0, 1e-3)
        assert rep.passed

    def test_non_integral_fails(self):
        sys_ = AutonomousSystem(("x", "y"), ("y", "-x"))
        rep = level_surface_membership("x", sys_, (0.6, 0.8), 5.0, 1e-3)
        assert not rep.passed

    def test_lie_annihilation_implies_membership(self, rng):
        # L_V phi = 0 on the grid  =>  trajectories stay on level sets
        phi = parse("x^2+y^2")
        V = ROTATION
        residual = None
        for name, comp in zip(V.names, V.components):
            from integrikit.expr import diff
            term = comp * diff(phi, name)
            residual = term if residual is None else residual + term
        pts = grid_rows(Region(("x", "y"), ((-2, 2), (-2, 2))), 41)
        assert np.max(np.abs(eval_many(residual, ("x", "y"), pts))) == 0.0
        sys_ = AutonomousSystem(V.names, V.components)
        for _ in range(10):
            start = rng.uniform(-1.5, 1.5, 2)
            if np.linalg.norm(start) < 0.1:
                continue
            rep = level_surface_membership(phi, sys_, tuple(start), 3.0, 1e-3)
            assert rep.passed

    def test_clockwise_orientation(self):
        sys_ = AutonomousSystem(("x", "y"), ("y", "-x"))
        traj = integrate_rk4(sys_, (1.0, 0.0), (0.0, 0.2), 1e-3)
        assert np.all(traj.states[1:, 1] < 0)  # y(t) < 0 for small t > 0
