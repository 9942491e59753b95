import math

import numpy as np
import pytest

from integrikit.expr import EvalDomainError
from integrikit.odesys import (
    AutonomousSystem, DegenerateSamplesError, IntegrationError, Trajectory,
    char_poly, commutator_flow, dependent_integral_check, eigen_solve,
    first_integral_drift, integrate_rk4, linear_solve, matrix_exp,
    matrix_identity_check,
)
from integrikit.realfield import Region

SADDLE = AutonomousSystem(("x", "y"), ("y", "x"))
ROTATION = AutonomousSystem(("x", "y"), ("y", "-x"))


def taylor_expm_oracle(A, t, order=40):
    """Independent high-order Taylor series for exp(t*A)."""
    A = np.asarray(A, dtype=float) * t
    term = np.eye(A.shape[0])
    acc = term.copy()
    for k in range(1, order + 1):
        term = term @ A / k
        acc = acc + term
    return acc


class TestTrajectoryType:
    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)))


class TestRK4:
    def test_saddle_reaches_e(self):
        traj = integrate_rk4(SADDLE, (1.0, 1.0), (0.0, 1.0), 1e-3)
        assert np.max(np.abs(traj.endpoint - math.e)) <= 1e-8

    def test_rotation_period(self):
        traj = integrate_rk4(ROTATION, (1.0, 0.0), (0.0, 2 * math.pi), 1e-3)
        assert np.max(np.abs(traj.endpoint - np.array([1.0, 0.0]))) <= 1e-7

    def test_zero_field(self):
        still = AutonomousSystem(("x", "y"), ("0", "0"))
        traj = integrate_rk4(still, (0.3, -0.4), (0.0, 5.0), 0.1)
        assert np.max(np.abs(traj.states - np.array([0.3, -0.4]))) == 0.0

    def test_lands_exactly_on_t_end(self):
        traj = integrate_rk4(SADDLE, (1.0, 1.0), (0.0, 0.35), 0.1)
        assert traj.ts[-1] == 0.35

    def test_degenerate_span_rejected(self):
        with pytest.raises(ValueError):
            integrate_rk4(SADDLE, (1.0, 1.0), (1.0, 1.0), 0.1)

    def test_blow_up_guard(self):
        quad = AutonomousSystem(("x",), ("x^2",))
        with pytest.raises(IntegrationError) as ex:
            integrate_rk4(quad, (1.5,), (0.0, 2.0), 1e-3)
        assert 0 < ex.value.t_last < 1.0

    def test_order_four_convergence(self):
        exact = np.array([math.cos(2.0), -math.sin(2.0)])
        errs = []
        for h in (0.1, 0.05):
            traj = integrate_rk4(ROTATION, (1.0, 0.0), (0.0, 2.0), h)
            errs.append(np.max(np.abs(traj.endpoint - exact)))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_non_autonomous_time_variable(self):
        sys_t = AutonomousSystem(("x",), ("2*t",), time_var="t")
        traj = integrate_rk4(sys_t, (0.0,), (0.0, 1.0), 1e-3)
        assert abs(traj.endpoint[0] - 1.0) <= 1e-10


class TestFirstIntegralDrift:
    def test_saddle_integral(self):
        rep = first_integral_drift("(x+y)*e^(-t)", SADDLE, (1.0, 1.0), 10.0, 1e-3)
        assert rep.passed

    def test_rotation_arctan_integral(self):
        # t + atan(y/x) is conserved; the principal branch jumps when x
        # crosses 0, so the horizon stays inside the first quadrant arc
        rep = first_integral_drift("t + atan(y/x)", ROTATION, (1.0, 0.0), 1.0, 1e-3)
        assert rep.passed

    def test_three_dimensional_integral(self):
        sys3 = AutonomousSystem(("x", "y", "z"), ("y-z", "z-x", "x-y"))
        rep = first_integral_drift("x^2+y^2+z^2", sys3, (1.0, 0.5, -0.2), 10.0, 1e-3)
        assert rep.passed

    def test_non_integral_fails(self):
        rep = first_integral_drift("x", ROTATION, (1.0, 0.0), 5.0, 1e-3)
        assert not rep.passed


class TestDependentIntegralCheck:
    def test_saddle_product(self):
        rep = dependent_integral_check(["(x+y)*e^(-t)", "(x-y)*e^t"], "x^2-y^2")
        assert rep.detected == "product" and rep.is_product_or_functional
        assert abs(rep.coefficients[0] - 1.0) < 1e-8

    def test_ratio_family_product(self):
        rep = dependent_integral_check(["y/z", "(x^2+y^2+z^2)/y"], "(x^2+y^2+z^2)/z")
        assert rep.detected == "product"

    def test_unrelated_candidate(self):
        rep = dependent_integral_check(["(x+y)*e^(-t)", "(x-y)*e^t"], "x")
        assert rep.detected is None and not rep.is_product_or_functional

    def test_linear_combination(self):
        rep = dependent_integral_check(["x+y", "x-y"], "3*x + y")
        assert rep.detected == "linear"

    def test_degenerate_samples(self):
        with pytest.raises(DegenerateSamplesError):
            dependent_integral_check(["1", "x"], "x")


class TestCharPoly:
    def test_example_one(self):
        assert np.allclose(char_poly([[1, 2], [4, 3]]), [1, -4, -5], atol=1e-12)

    def test_example_two(self):
        assert np.allclose(char_poly([[1, -1], [1, 3]]), [1, -4, 4], atol=1e-12)

    def test_zero_matrix(self):
        assert np.allclose(char_poly(np.zeros((3, 3))), [1, 0, 0, 0], atol=0)


class TestEigenSolve:
    def test_distinct_roots(self):
        pairs = eigen_solve([[1, 2], [4, 3]])
        values = sorted((p.value for p in pairs), key=lambda v: -v.real)
        assert abs(values[0] - 5) <= 1e-10 and abs(values[1] + 1) <= 1e-10
        by_val = {round(p.value.real): p for p in pairs}
        v5 = by_val[5].vectors[0]
        assert abs(v5[1] / v5[0] - 2.0) <= 1e-8       # beta = 2 alpha
        vm1 = by_val[-1].vectors[0]
        assert abs(vm1[1] / vm1[0] + 1.0) <= 1e-8     # delta = -gamma

    def test_double_root(self):
        pairs = eigen_solve([[1, -1], [1, 3]])
        assert len(pairs) == 1
        p = pairs[0]
        assert p.multiplicity == 2 and abs(p.value - 2.0) <= 1e-10
        assert p.eigenspace_dim == 1 and p.chain_depth == 2
        v = p.vectors[0]
        assert abs(v[1] / v[0] + 1.0) <= 1e-10        # eigenvector (1, -1)

    def test_identity(self):
        pairs = eigen_solve(np.eye(4))
        assert len(pairs) == 1
        assert pairs[0].multiplicity == 4 and pairs[0].eigenspace_dim == 4
        assert abs(pairs[0].value - 1.0) <= 1e-12

    @pytest.mark.parametrize("diag", [(1, 2, 3), (0, 1, 2), (-3, -1, 1, 3, 5)])
    def test_equally_spaced_roots_stay_apart(self, diag):
        # p'' vanishes at the middle root, which once merged its neighbours
        pairs = eigen_solve(np.diag(np.array(diag, dtype=float)))
        assert [p.multiplicity for p in pairs] == [1] * len(diag)
        assert [p.eigenspace_dim for p in pairs] == [1] * len(diag)
        values = [p.value for p in pairs]
        assert max(abs(v - d) for v, d in zip(values, sorted(diag, reverse=True))) <= 1e-10

    def test_triple_root_and_jordan_block(self):
        pairs = eigen_solve(2 * np.eye(3))
        assert len(pairs) == 1 and pairs[0].multiplicity == 3
        assert pairs[0].eigenspace_dim == 3 and abs(pairs[0].value - 2.0) <= 1e-12
        pairs = eigen_solve([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
        assert len(pairs) == 1 and pairs[0].multiplicity == 3
        assert pairs[0].eigenspace_dim == 1 and pairs[0].chain_depth == 3

    def test_complex_pair(self):
        pairs = eigen_solve([[0, 1], [-1, 0]])
        values = sorted((p.value for p in pairs), key=lambda v: v.imag)
        assert abs(values[0] + 1j) <= 1e-10 and abs(values[1] - 1j) <= 1e-10

    def test_size_limit(self):
        with pytest.raises(ValueError):
            eigen_solve(np.eye(9))


class TestMatrixExp:
    def test_rotation_quarter_turn(self):
        A = [[0.0, 1.0], [-1.0, 0.0]]
        E = matrix_exp(A, math.pi / 2)
        assert np.max(np.abs(E - np.array([[0, 1], [-1, 0]]))) <= 1e-12
        assert np.max(np.abs(E - taylor_expm_oracle(A, math.pi / 2))) <= 1e-12

    def test_zero_matrix(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3)), 2.0), np.eye(3))

    def test_derivative_matches_generator(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        h = 1e-5
        t = 0.7
        fd = (matrix_exp(A, t + h) - matrix_exp(A, t - h)) / (2 * h)
        exact = A @ matrix_exp(A, t)
        assert np.max(np.abs(fd - exact)) <= 1e-8 * (1 + np.max(np.abs(exact)))

    def test_semigroup_on_random_matrices(self, rng):
        for _ in range(20):
            A = rng.uniform(-1, 1, (3, 3))
            s, t = rng.uniform(-2, 2, 2)
            left = matrix_exp(A, s + t)
            right = matrix_exp(A, s) @ matrix_exp(A, t)
            scale = max(1.0, float(np.max(np.abs(left))))
            assert np.max(np.abs(left - right)) <= 1e-10 * scale


class TestLinearSolve:
    def test_example_one_closed_form(self):
        t = np.linspace(0.0, 1.0, 101)
        res = linear_solve(np.array([[1.0, 2.0], [4.0, 3.0]]), (2.0, 1.0), t)
        exact = np.stack([np.exp(5 * t) + np.exp(-t),
                          2 * np.exp(5 * t) - np.exp(-t)], axis=1)
        assert np.max(np.abs(res.trajectory.states - exact)) <= 1e-10 * np.max(exact)
        assert res.fit_residual <= 1e-8

    def test_example_two_polynomial_mode(self):
        t = np.linspace(0.0, 1.0, 101)
        res = linear_solve(np.array([[1.0, -1.0], [1.0, 3.0]]), (1.0, -2.0), t)
        assert res.fit_residual <= 1e-8
        mode = res.modes[0]
        assert mode.multiplicity == 2 and abs(mode.eigenvalue - 2.0) <= 1e-10
        c0, c1 = mode.coefficients
        assert np.max(np.abs(np.array(c0) - [1.0, -2.0])) <= 1e-8   # (c1, -(c1+c2))
        assert np.max(np.abs(np.array(c1) - [1.0, -1.0])) <= 1e-8   # c2 * (1, -1)

    def test_diagonal_componentwise(self):
        t = np.linspace(0.0, 1.0, 11)
        res = linear_solve(np.diag([1.0, -2.0]), (3.0, 5.0), t)
        exact = np.stack([3 * np.exp(t), 5 * np.exp(-2 * t)], axis=1)
        assert np.max(np.abs(res.trajectory.states - exact)) <= 1e-12 * np.max(exact)

    def test_agrees_with_rk4(self):
        A = np.array([[1.0, 2.0], [4.0, 3.0]])
        sys_ = AutonomousSystem(("x", "y"), ("x + 2*y", "4*x + 3*y"))
        rk = integrate_rk4(sys_, (2.0, 1.0), (0.0, 1.0), 1e-3)
        lin = linear_solve(A, (2.0, 1.0), np.linspace(0.0, 1.0, 11))
        assert np.max(np.abs(rk.endpoint - lin.trajectory.endpoint)) <= 1e-7

    def test_complex_pair_keeps_real_solution(self):
        # rotation generator: complex eigenvalues, real trajectory (cos t, -sin t)
        t = np.linspace(0.0, math.pi / 2, 21)
        res = linear_solve(np.array([[0.0, 1.0], [-1.0, 0.0]]), (1.0, 0.0), t)
        exact = np.stack([np.cos(t), -np.sin(t)], axis=1)
        assert np.max(np.abs(res.trajectory.states - exact)) <= 1e-12
        assert res.fit_residual <= 1e-10
        values = sorted(m.eigenvalue.imag for m in res.modes)
        assert abs(values[0] + 1.0) <= 1e-10 and abs(values[1] - 1.0) <= 1e-10

    def test_rejects_complex_input(self):
        with pytest.raises(TypeError):
            linear_solve(np.eye(2) * 1j, (1.0, 0.0), np.linspace(0, 1, 5))


class TestCommutatorFlow:
    def test_commuting_diagonal(self):
        A = np.diag([1.0, 2.0])
        u0 = np.diag([3.0, -1.0])
        assert np.max(np.abs(commutator_flow(A, u0, 1.3) - u0)) <= 1e-12

    def test_t_zero(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        u0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(commutator_flow(A, u0, 0.0), u0)

    def test_derivative_is_commutator(self):
        # finite-difference oracle for du/dt = [u, A]
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        u0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        h = 1e-5
        t = 1.0
        fd = (commutator_flow(A, u0, t + h) - commutator_flow(A, u0, t - h)) / (2 * h)
        u = commutator_flow(A, u0, t)
        assert np.max(np.abs(fd - (u @ A - A @ u))) <= 1e-6

    def test_exercise_identity_random(self, rng):
        # d/dt (e^{-tA} B e^{tA}) = [e^{-tA} B e^{tA}, A] for random A, B
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 3))
        h = 1e-5
        for t in (0.0, 0.4, 1.1):
            fd = (commutator_flow(A, B, t + h) - commutator_flow(A, B, t - h)) / (2 * h)
            u = commutator_flow(A, B, t)
            err = np.max(np.abs(fd - (u @ A - A @ u)))
            assert err <= 1e-8 * (1 + np.max(np.abs(u)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            commutator_flow(np.eye(2), np.eye(3), 1.0)


class TestMatrixIdentityCheck:
    def test_polynomial_matrix(self):
        entries = [["1 + x^2", "y"], ["0", "1"]]
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        rep = matrix_identity_check(entries, reg, tol=1e-9)
        assert rep.passed

    def test_constant_matrix(self):
        entries = [["2", "1"], ["1", "1"]]
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        rep = matrix_identity_check(entries, reg, tol=1e-12)
        assert rep.passed
        assert rep.details["flat_connection"] == 0.0

    def test_exponential_matrix(self):
        entries = [["e^(x*y)", "0"], ["x", "1"]]
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        rep = matrix_identity_check(entries, reg, tol=1e-8)
        assert rep.passed

    def test_singular_sample_rejected(self):
        from integrikit.odesys import SingularMatrixSampleError
        entries = [["x", "0"], ["0", "1"]]  # singular at x = 0
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        with pytest.raises(SingularMatrixSampleError) as ex:
            matrix_identity_check(entries, reg)
        assert str(ex.value) == "matrix is near-singular at (0.0, -1.0)"

    def test_a_singular_sample_is_named_before_a_derivative_domain_error(self):
        from integrikit.odesys import SingularMatrixSampleError
        entries = [["sqrt(x)", "0"], ["0", "1"]]  # singular at x = 0, where d/dx divides by 0
        reg = Region(("x", "y"), ((0, 1), (-1, 1)))
        with pytest.raises(SingularMatrixSampleError) as ex:
            matrix_identity_check(entries, reg)
        assert str(ex.value) == "matrix is near-singular at (0.0, -1.0)"

    def test_a_domain_error_of_an_entry_is_raised_as_itself(self):
        entries = [["1 + x", "ln(x)"], ["0", "1"]]
        reg = Region(("x", "y"), ((0, 1), (-1, 1)))
        with pytest.raises(EvalDomainError) as ex:
            matrix_identity_check(entries, reg)
        assert str(ex.value) == "ln of zero at (x=0.0, y=-1.0) while evaluating 'ln(x)'"
