import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from integrikit.expr import EvalDomainError
from integrikit.odesys import (
    AutonomousSystem, DegenerateSamplesError, IntegrationError, NonFiniteExponentialError,
    Trajectory, commutator_flow, dependent_integral_check, eigen_solve,
    first_integral_drift, integrate_rk4, linear_solve, matrix_exp, matrix_exps,
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


def one_t_matrix_exp(A, t):
    """exp(t*A) for one t by the scaling-and-squaring steps `matrix_exps`
    takes on each slice of its stack, written for a single matrix: the
    oracle its slices must equal bit for bit."""
    A = np.asarray(A)
    real_input = not np.iscomplexobj(A)
    B = (A.astype(np.complex128) if not real_input else A.astype(np.float64)) * t
    n = B.shape[0]
    norm1 = float(np.max(np.abs(B).sum(axis=0))) if n else 0.0
    s = 0
    if norm1 > 1.0:
        s = max(0, int(math.ceil(math.log2(norm1))))
    M = B / (2.0 ** s)
    eye = np.eye(n, dtype=M.dtype)
    E = eye.copy()
    for k in range(16, 0, -1):
        E = eye + (M @ E) / k
    for _ in range(s):
        E = E @ E
    return E


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


#: Jordan structures as (eigenvalue, block size) blocks.
JORDAN_CASES = [
    [(2, 2), (5, 1)], [(2, 3), (5, 1)], [(1, 2), (1, 2)],
    [(1, 2), (1, 1), (3, 1)], [(-1, 3), (4, 2)], [(0, 4)],
]


def jordan(blocks) -> np.ndarray:
    J = np.zeros((sum(k for _, k in blocks),) * 2)
    i = 0
    for lam, k in blocks:
        J[i:i + k, i:i + k] = lam * np.eye(k) + np.eye(k, k=1)
        i += k
    return J


def structure(blocks) -> list:
    """(multiplicity, eigenspace dimension, chain depth) of each distinct
    eigenvalue of the Jordan form."""
    out = {}
    for lam, k in blocks:
        m, g, depth = out.get(lam, (0, 0, 0))
        out[lam] = (m + k, g + 1, max(depth, k))
    return list(out.values())


def symmetric(lams) -> np.ndarray:
    """Q diag(lams) Q^T for a seeded random orthogonal Q, made exactly symmetric."""
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((len(lams),) * 2))
    A = Q @ np.diag(lams) @ Q.T
    return (A + A.T) / 2


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
        # equal gaps tie every link of the single-linkage tree: the values
        # must still come out one by one, each simple
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

    @pytest.mark.parametrize("blocks", JORDAN_CASES, ids=lambda b: "+".join(
        f"J{k}({lam})" for lam, k in b))
    def test_jordan_structure_under_similarity(self, blocks):
        rng, J = np.random.default_rng(23), jordan(blocks)
        want = sorted(structure(blocks))
        for _ in range(50):
            S = rng.standard_normal(J.shape)
            A = S @ J @ np.linalg.inv(S)
            got = sorted((p.multiplicity, p.eigenspace_dim, p.chain_depth)
                         for p in eigen_solve(A))
            assert got == want, A.tolist()

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_distinct_spectra_keep_the_lapack_values(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            S = rng.standard_normal((n, n))
            A = S @ np.diag(rng.uniform(-10, 10, n)) @ np.linalg.inv(S)
            pairs = eigen_solve(A)
            assert [p.multiplicity for p in pairs] == [1] * n, A.tolist()
            assert np.array_equal(np.sort_complex([p.value for p in pairs]),
                                  np.sort_complex(np.linalg.eigvals(A))), A.tolist()

    def test_wide_symmetric_spectrum(self):
        lams = np.geomspace(1e-3, 5000, 8)
        A = symmetric(lams)
        values = np.array([p.value for p in eigen_solve(A)])[::-1]
        assert np.max(np.abs(values - lams) / (1 + lams)) <= 1e-12

    def test_close_simple_eigenvalues_stay_exact(self):
        diag = [100, 1.00000003, 1]
        pairs = eigen_solve(np.diag(diag))
        assert [p.value for p in pairs] == diag
        assert [(p.multiplicity, p.eigenspace_dim) for p in pairs] == [(1, 1)] * 3

    def test_tiny_matrix_keeps_its_eigenvalues_apart(self):
        pairs = eigen_solve(1e-300 * np.diag([1.0, 2.0]))
        assert [p.multiplicity for p in pairs] == [1, 1]
        assert np.allclose([p.value for p in pairs], [2e-300, 1e-300], rtol=1e-14, atol=0)

    def test_one_repeated_eigenvalue_of_a_badly_scaled_triangle(self):
        # LAPACK returns the diagonal, n equal values, while the ranks of
        # the staircase are unsure: the values still make one eigenvalue
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            A = np.triu(rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8, (n, n)), 1)
            pairs = eigen_solve(A + 2 * np.eye(n))
            assert [(p.value, p.multiplicity) for p in pairs] == [(2, n)], A.tolist()
            assert 1 <= pairs[0].eigenspace_dim <= n and 1 <= pairs[0].chain_depth <= n

    @pytest.mark.parametrize("k", [-40, -10, 10, 40])
    def test_structure_is_scale_free(self, k):
        rng = np.random.default_rng(17)
        cases = [np.diag([100, 1.00000003, 1]), symmetric(np.geomspace(1e-3, 5000, 8)),
                 [[1, 2], [4, 3]], [[1, -1], [1, 3]], [[0, 1], [-1, 0]], np.eye(4)]
        for blocks in JORDAN_CASES:
            n = len(jordan(blocks))
            for _ in range(10):
                S = rng.standard_normal((n, n))
                cases.append(S @ jordan(blocks) @ np.linalg.inv(S))
        for _ in range(20):
            S = rng.standard_normal((4, 4))
            cases.append(S @ np.diag([1.0, 1.0, 2.0, -3.0]) @ np.linalg.inv(S))
        for A in cases:
            A = np.asarray(A, dtype=float)
            base, scaled = eigen_solve(A), eigen_solve(np.ldexp(A, k))
            assert ([(p.multiplicity, p.eigenspace_dim, p.chain_depth) for p in scaled]
                    == [(p.multiplicity, p.eigenspace_dim, p.chain_depth) for p in base]), A.tolist()
            for p, q in zip(base, scaled):
                assert abs(q.value / 2.0 ** k - p.value) <= 1e-14 * (1 + abs(p.value))

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            for _ in range(25):
                for A in (rng.standard_normal((n, n)),
                          rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-5, 5, (n, n)),
                          rng.standard_normal((n, n)) * 10.0 ** rng.choice([-5, 5]),
                          rng.integers(-1, 2, (n, n)).astype(float)):
                    pairs = eigen_solve(A)
                    assert sum(p.multiplicity for p in pairs) == n, A.tolist()
                    for p in pairs:
                        assert 1 <= p.eigenspace_dim <= p.multiplicity, A.tolist()
                        assert 1 <= p.chain_depth <= p.multiplicity, A.tolist()
                    values = sorted((p.value.real, p.value.imag, p.multiplicity) for p in pairs)
                    assert values == sorted((v, -w, m) for v, w, m in values), A.tolist()


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A, ts, message", [
        ([[1e200, 0.0], [0.0, 1.0]], [0.0, 1e200], "t*A has no finite 1-norm at t = 1e+200"),
        ([[1.0, 0.0], [0.0, 1.0]], [0.5, float("nan")], "t*A has no finite 1-norm at t = nan"),
        ([[1.0, 0.0], [0.0, 1.0]], [float("-inf")], "t*A has no finite 1-norm at t = -inf"),
        ([[800.0, 0.0], [0.0, 1.0]], [0.5, 1.0, 2.0], "exp(t*A) is not finite at t = 1.0"),
        ([[1e308, 1.0], [1e308, 1.0]], [0.0, 1.0], "t*A has no finite 1-norm at t = 1.0"),
    ])
    def test_non_finite_is_refused_at_the_first_t(self, A, ts, message):
        with pytest.raises(NonFiniteExponentialError) as info:
            matrix_exps(A, ts)
        assert str(info.value) == message

    def test_huge_negative_generator_decays(self):
        # 1-norm just under 2^1024: 1024 halvings and squarings
        assert np.array_equal(matrix_exp([[-1.7e308]]), [[0.0]])

    def test_semigroup_on_random_matrices(self, rng):
        for _ in range(20):
            A = rng.uniform(-1, 1, (3, 3))
            s, t = rng.uniform(-2, 2, 2)
            left = matrix_exp(A, s + t)
            right = matrix_exp(A, s) @ matrix_exp(A, t)
            scale = max(1.0, float(np.max(np.abs(left))))
            assert np.max(np.abs(left - right)) <= 1e-10 * scale


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), complex_=st.booleans(),
       skew=st.booleans(), log_norm=st.floats(-2.0, 12.0))
@example(seed=591314, n=1, complex_=True, skew=False, log_norm=2.5)  # exp(-ts[0]*A) overflows
def test_matrix_exps_slices_are_bit_equal_to_one_t_runs(seed, n, complex_, skew, log_norm):
    # A has 1-norm 10^log_norm and |t| <= 5, so slices take 0 to 43
    # squarings; a skew(-Hermitian) A keeps exp(t*A) bounded at any norm
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    if complex_:
        A = A + 1j * rng.standard_normal((n, n))
    if skew:
        A = A - A.conj().T
    norm1 = float(np.abs(A).sum(axis=0).max())
    if norm1:   # a 1x1 skew A is 0
        A = A * (10.0 ** log_norm / norm1)
    ts = np.concatenate([rng.uniform(-5.0, 5.0, 6), [0.0, 1.0, -1.0]])
    with np.errstate(all="ignore"):
        expected = [one_t_matrix_exp(A, t) for t in ts]
    finite = [bool(np.isfinite(e).all()) for e in expected]
    if not all(finite):
        first = float(ts[finite.index(False)])
        with pytest.raises(NonFiniteExponentialError, match=re.escape(f"at t = {first!r}") + "$"):
            matrix_exps(A, ts)
        return
    E = matrix_exps(A, ts)
    assert E.shape == (len(ts), n, n) and E.dtype == expected[0].dtype
    for i, t in enumerate(ts):
        assert E[i].tobytes() == expected[i].tobytes(), (i, t)
        assert matrix_exp(A, t).tobytes() == expected[i].tobytes(), (i, t)
    u0 = rng.standard_normal((n, n))
    with np.errstate(all="ignore"):
        back = one_t_matrix_exp(A, -ts[0])
    if not np.isfinite(back).all():
        # the flow also needs exp(-ts[0]*A), at a time the slices above skip
        back_t = float(-ts[0])
        with pytest.raises(NonFiniteExponentialError, match=re.escape(f"at t = {back_t!r}") + "$"):
            commutator_flow(A, u0, ts[0])
        return
    flow = commutator_flow(A, u0, ts[0])
    assert flow.tobytes() == (back @ u0 @ expected[0]).tobytes()


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

    def test_states_are_the_one_t_exponentials_times_x0(self, rng):
        for n in range(1, 7):
            A = rng.standard_normal((n, n))
            x0 = rng.standard_normal(n)
            t = np.linspace(0.0, 3.0, 401)
            states = np.stack([one_t_matrix_exp(A, float(s)) @ x0 for s in t])
            assert linear_solve(A, x0, t).trajectory.states.tobytes() == states.tobytes()

    def test_refuses_an_overflowing_state(self):
        # exp(t*A) is finite at t = 710 (0.5 e^710 off the diagonal), its
        # product with (1, 1) is not
        A = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(NonFiniteExponentialError,
                           match=r"^exp\(t\*A\) x0 is not finite at t = 710\.0$"):
            linear_solve(A, (1.0, 1.0), [0.0, 710.0])

    def test_refuses_an_overflowing_mode(self):
        # x0 lies in the kernel, so every state is finite, but the mode
        # e^t of eigenvalue 1 overflows at t = 710
        A = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(NonFiniteExponentialError,
                           match=r"exp\(\(1\+0j\) t\) is not finite at t = 710\.0$"):
            linear_solve(A, (1.0, -1.0), [0.0, 710.0])


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

    @pytest.mark.parametrize("entries", [[["1 + x^2", "y"], ["0", "1"]],
                                         [["e^(x*y)", "0"], ["x", "1"]]])
    def test_the_report_is_the_two_grid_identities(self, entries):
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)))
        rep = matrix_identity_check(entries, reg, tol=1e-8, grid=21)
        assert set(rep.details) == {"flat_connection", "conjugation"}
        assert rep.max_residual == max(rep.details.values())
        assert rep.max_residual <= 1e-15
        assert all(v in axis for v, axis in zip(rep.worst_point, reg.axes(21)))

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
