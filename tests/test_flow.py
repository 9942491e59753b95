import math
import random

import numpy as np
import pytest

from integrikit.expr import (
    EvalDomainError, EvalError, NonDifferentiableError, as_expr, diff, eval_many, evaluate,
    node_count, parse,
)
from integrikit.flow import (
    EquilibriumError, equilibrium_find, infinitesimal_transform, level_surface_membership,
    lie_derivative, lie_series_flow, transform_function,
)
from integrikit.odesys import AutonomousSystem, integrate_rk4
from integrikit.realfield import Region, VectorField

from conftest import grid_rows, random_smooth_expr

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

    def test_undeclared_variable_is_refused(self):
        # diff by x and y drops z, so it was never evaluated, and L_V z read 0
        with pytest.raises(ValueError, match=r"'z' references undeclared \['z'\]"):
            lie_derivative(ROTATION, "z", (1.0, 2.0))


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
        for field in (ROTATION, pendulum):
            sys_ = AutonomousSystem(field.names, field.components)
            for t in (0.25, 0.5):
                series = lie_series_flow(field, (1.0, 0.3), t)
                rk = integrate_rk4(sys_, (1.0, 0.3), (0.0, t), 1e-4)
                assert np.max(np.abs(series - rk.endpoint)) <= 1e-6

    def test_order_cap(self):
        for order in (0, 13):
            with pytest.raises(ValueError, match="1..12"):
                lie_series_flow(ROTATION, (1.0, 0.0), 0.1, order)

    def test_bulky_fields_match_rk4(self):
        # fields whose symbolic terms D_V^l x grow past 50,000 nodes by order 6 to 10
        for comps, x0, t, order in (
                (("y", "-sin(x)"), (1.0, 0.3), 0.5, 10),
                (("x*y", "exp(-x)/(1+y^2)"), (0.3, 0.2), 0.3, 12),
                (("(x+y)^3", "(x-y)^3"), (0.1, 0.2), 0.1, 10)):
            series = lie_series_flow(VectorField.of(("x", "y"), *comps), x0, t, order)
            rk = integrate_rk4(AutonomousSystem(("x", "y"), comps), x0, (0.0, t), 1e-4)
            assert np.max(np.abs(series - rk.endpoint)) <= 1e-6

    def test_constant_and_bare_variable_components(self):
        # x' = y, y' = 2: the outputs sit on a variable and a constant slot
        out = lie_series_flow(VectorField.of(("x", "y"), "y", "2"), (1.0, 0.0), 0.5)
        assert np.array_equal(out, [1.25, 1.0])

    def test_a_power_of_a_constant_zero_series(self):
        # x stays 0, so x^1.5 is the scalar 0^1.5, not exp(1.5 ln 0)
        out = lie_series_flow(VectorField.of(("x", "y"), "x^1.5", "1"), (0.0, 0.0), 0.1, 2)
        assert np.array_equal(out, [0.0, 0.1])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_time_is_refused(self, t):
        with pytest.raises(ValueError, match="flow time t must be finite"):
            lie_series_flow(ROTATION, (1.0, 0.0), t)

    def test_a_failure_at_x0_is_the_tree_walks(self):
        field = VectorField.of(("x", "y"), "1/x", "1")
        with pytest.raises(EvalDomainError, match=r"division by zero at \(x=0.0, y=0.0\)") as ex:
            lie_series_flow(field, (0.0, 0.0), 0.1)
        assert ex.value.subtree == parse("1/x")
        with pytest.raises(EvalDomainError, match="non-finite binding"):
            lie_series_flow(ROTATION, (math.nan, 0.0), 0.1)

    def test_a_later_failure_names_the_order(self):
        # x_1 = exp(exp(6)) ~ 1e175 is finite, x_2 = x_1^2 exp(6) / 2 is not
        field = VectorField.of(("x", "y"), "exp(exp(x))", "1")
        with pytest.raises(EvalError, match="Lie series of x is not finite from its order-2 term"):
            lie_series_flow(field, (6.0, 0.0), 0.1)

    def test_an_overflowing_sum_is_refused(self):
        with pytest.raises(EvalError, match="Lie series of y is not finite"):
            lie_series_flow(ROTATION, (1e200, 0.0), 1e200)

    @pytest.mark.parametrize("fn", ["abs", "re", "im", "conj"])
    def test_a_moving_argument_of_a_non_differentiable_op_is_refused(self, fn):
        field = VectorField.of(("x", "y"), f"{fn}(y)", "1")
        with pytest.raises(NonDifferentiableError, match=f"'{fn}' has no derivative rule"):
            lie_series_flow(field, (1.0, 0.0), 0.1, 2)
        # order 1 reads only V(x0), and a constant argument has its value
        assert lie_series_flow(field, (1.0, 0.0), 0.1, 1)[1] == 0.1
        fixed = VectorField.of(("x", "y"), f"{fn}(-2)*y", "1")
        assert np.isfinite(lie_series_flow(fixed, (1.0, 0.0), 0.1)).all()


def symbolic_lie_series(V, x0, t, order, cap=5000):
    """The symbolic Lie series, kept as the oracle: each D_V^l x built as an
    expression tree, one order after the other, tree-walked at x0 and summed
    with t^l / l!.  Returns the sums and the sums of the terms' magnitudes,
    or None once a term passes `cap` nodes."""
    bindings = dict(zip(V.names, x0))
    values, scales = [], []
    for name in V.names:
        seq = [as_expr(name)]
        for _ in range(order):
            nxt = None
            for var, comp in zip(V.names, V.components):
                term = comp * diff(seq[-1], var)
                nxt = term if nxt is None else nxt + term
            if node_count(nxt) > cap:
                return None
            seq.append(nxt)
        acc, coeff, scale = 0j, 1.0, 0.0
        for l, term in enumerate(seq):
            if l > 0:
                coeff *= t / l
            value = coeff * evaluate(term, bindings)
            acc += value
            scale += abs(value)
        values.append(acc.real)
        scales.append(scale)
    return np.array(values), np.array(scales)


# every catalog op on a moving argument (abs, re, im and conj on constants),
# whole, non-whole and negative powers, a constant base and a variable exponent
CATALOG_FIELDS = [
    ("sin(x) + y", "cos(x*y)"), ("tan(x)", "atan(x + y)"), ("exp(-x)*y", "ln(2 + x)"),
    ("sqrt(3 + y)", "sinh(x) - cosh(y)"), ("tanh(x*y)", "x/(2 + y)"), ("x^2.5", "2^y"),
    ("x^y", "-x"), ("x^-2 - y", "(1 + y)^-3"), ("x*y", "exp(-x)/(1 + y^2)"),
    ("abs(-2)*y + re(3)", "im(2*i)*x - conj(1)"), ("x^3 - y", "x^0.5"),
]


def _oracle_fields():
    rng = random.Random(25)
    fields = [VectorField.of(("x", "y"), *comps) for comps in CATALOG_FIELDS]
    for _ in range(24):
        names = ("x", "y", "z")[:rng.choice((2, 3))]
        fields.append(VectorField(names, tuple(random_smooth_expr(rng, names) for _ in names)))
    return fields


@pytest.mark.parametrize("k, field", list(enumerate(_oracle_fields())),
                         ids=lambda v: "; ".join(map(str, v.components))
                         if isinstance(v, VectorField) else str(v))
def test_series_agrees_with_the_symbolic_series(k, field):
    """Orders 1..12, as far as the symbolic terms stay below 5,000 nodes (4
    to 12 here): within 4 ulps of the sum of the terms' magnitudes.  Of the
    232 runs, 218 agree bit for bit and the rest within 0.56 ulps."""
    gen = np.random.default_rng(k)
    x0 = tuple(float(v) for v in gen.uniform(0.2, 0.9, field.n))
    t = float(gen.uniform(-0.4, 0.4))
    for order in range(1, 13):
        oracle = symbolic_lie_series(field, x0, t, order)
        if oracle is None:
            break
        want, scale = oracle
        got = lie_series_flow(field, x0, t, order)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale), order
    assert order > 3


class TestInfinitesimal:
    def test_generator_step(self):
        out = infinitesimal_transform(SCALE_SHIFT, (1.0, 0.0), 0.01)
        assert np.allclose(out, [1.01, 0.02], rtol=0, atol=0)

    def test_time_zero(self):
        out = infinitesimal_transform(SCALE_SHIFT, (1.0, 0.0), 0.0)
        assert np.array_equal(out, [1.0, 0.0])

    def test_is_x0_plus_t_times_the_tree_walks_field(self):
        field = VectorField.of(("x", "y"), "sin(x*y) + 1/(2 + x)", "exp(-y)*x^2")
        x0, t = (0.7, -0.3), 0.037
        step = [evaluate(c, dict(zip(field.names, x0))).real for c in field.components]
        assert np.array_equal(infinitesimal_transform(field, x0, t),
                              np.asarray(x0) + t * np.asarray(step))

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

    def test_undeclared_variable_is_refused(self):
        with pytest.raises(ValueError, match=r"references undeclared \['w'\]"):
            transform_function(ROTATION, "x + w", (1.0, 0.0), 0.1)


class TestEquilibrium:
    def test_rotation_origin(self):
        out = equilibrium_find(ROTATION, (0.3, -0.2))
        assert np.max(np.abs(out)) <= 1e-12

    def test_no_equilibrium(self):
        with pytest.raises(EquilibriumError):
            equilibrium_find(SCALE_SHIFT, (1.0, 1.0))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_a_tolerance_that_is_not_a_finite_number_at_least_0_is_refused(self, tol):
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            equilibrium_find(ROTATION, (0.3, -0.2), tol)

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
