import functools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from integrikit import _backend, cli, cplx, expr, realfield
from integrikit.expr import EvalDomainError, eval_many, parse
from integrikit.realfield import (
    EndpointMismatchError, ExcludedPointError, NonConservativeError,
    ParametricCurve, Region, VectorField, exactness_check, gauss_nodes,
    line_integral, path_independence_probe, potential_grid,
    potential_reconstruct, work_energy,
)

from conftest import bounded_smooth_exprs, random_smooth_expr

SQUARE = Region(("x", "y"), ((-2, 2), (-2, 2)))


def fourier_loop(rng, n_modes=3, scale=0.7, center=(0.0, 0.0)):
    """Random smooth closed curve as a truncated Fourier series in t."""
    parts_x = [f"{float(center[0])!r}"]
    parts_y = [f"{float(center[1])!r}"]
    for k in range(1, n_modes + 1):
        ax, bx, ay, by = (float(v) for v in rng.uniform(-scale / k, scale / k, size=4))
        parts_x.append(f"+ {ax!r}*cos({k}*t) + {bx!r}*sin({k}*t)")
        parts_y.append(f"+ {ay!r}*cos({k}*t) + {by!r}*sin({k}*t)")
    return ParametricCurve("t", (parse(" ".join(parts_x)), parse(" ".join(parts_y))),
                           0.0, 2 * math.pi, closed=True)


class TestTypes:
    def test_component_count_mismatch(self):
        with pytest.raises(ValueError):
            VectorField(("x", "y"), ("x",))

    def test_undeclared_variable(self):
        with pytest.raises(ValueError):
            VectorField(("x", "y"), ("x", "q"))

    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region(("x",), ((2, 1),))
        with pytest.raises(ValueError):
            Region(("x", "y"), ((0, 1), (0, 1)), excluded=((5, 5),))

    def test_region_excluded_points_removed(self):
        reg = Region(("x", "y"), ((-1, 1), (-1, 1)), excluded=((0.0, 0.0),))
        axes = reg.axes(3)
        assert np.flatnonzero(reg.excluded_mask(axes)).tolist() == [4]
        # 1/(x^2 + y^2) has its pole at the excluded origin: the sweep
        # leaves that point out and counts the other 8
        max_res, worst, per, samples = realfield.residual_sweep([parse("1/(x^2 + y^2)")], reg, 3)
        assert samples == 8
        assert max_res == per[0] == 1.0 and worst == (-1.0, 0.0)

    @pytest.mark.parametrize("bounds,message", [
        (((0, 1), (float("-inf"), 1)), "lower bound of y must be finite, got -inf"),
        (((0, float("nan")), (0, 1)), "upper bound of x must be finite, got nan"),
    ])
    def test_region_bounds_must_be_finite(self, bounds, message):
        with pytest.raises(ValueError, match=message):
            Region(("x", "y"), bounds)

    def test_curve_interval_must_be_finite(self):
        with pytest.raises(ValueError, match="t_start must be finite, got -inf"):
            ParametricCurve("t", (parse("t"),), float("-inf"), 0.0)

    def test_closed_curve_endpoint_check(self):
        with pytest.raises(ValueError):
            ParametricCurve("t", (parse("t"), parse("t")), 0.0, 1.0, closed=True)

    def test_curve_interval_order(self):
        with pytest.raises(ValueError):
            ParametricCurve("t", (parse("t"),), 1.0, 0.0)


class TestExactness:
    def test_exact_pair(self):
        rep = exactness_check(VectorField.of(("x", "y"), "y", "x"), SQUARE)
        assert rep.passed and rep.max_residual == 0.0

    def test_non_exact_pair(self):
        rep = exactness_check(VectorField.of(("x", "y"), "y", "-x"), SQUARE)
        assert not rep.passed
        assert abs(rep.max_residual - 2.0) < 1e-12

    def test_symmetric_3d(self):
        F = VectorField.of(("x", "y", "z"), "x+y+z", "x+y+z", "x+y+z")
        reg = Region(("x", "y", "z"), ((-1, 1),) * 3)
        rep = exactness_check(F, reg, grid=11)
        assert rep.passed

    def test_report_invariant(self):
        rep = exactness_check(VectorField.of(("x", "y"), "y", "-x"), SQUARE, tol=5.0)
        assert rep.passed == (rep.max_residual <= rep.tolerance)

    def test_domain_error_reports_coordinates(self):
        omega = VectorField.of(("x", "y"), "-y/(x^2+y^2)", "x/(x^2+y^2)")
        with pytest.raises(Exception, match=r"x=0\.0"):
            exactness_check(omega, SQUARE)  # grid hits the origin, not excluded

    def test_excluded_singularity_passes(self):
        omega = VectorField.of(("x", "y"), "-y/(x^2+y^2)", "x/(x^2+y^2)")
        punctured = Region(("x", "y"), ((-2, 2), (-2, 2)), excluded=((0.0, 0.0),))
        rep = exactness_check(omega, punctured)
        assert rep.passed


class TestLineIntegral:
    def test_segment_value(self):
        # oracle: u = x*y is a potential of (y, x); u(2,3) - u(0,0) = 6
        F = VectorField.of(("x", "y"), "y", "x")
        val = line_integral(F, ParametricCurve.segment((0, 0), (2, 3)))
        assert abs(val - 6.0) < 1e-12

    def test_orientation_antisymmetry(self):
        fields = [VectorField.of(("x", "y"), "y", "x"),
                  VectorField.of(("x", "y"), "x^2 - y", "sin(x) + y")]
        curves = [ParametricCurve.segment((0, 0), (1, 2)),
                  ParametricCurve("t", (parse("t"), parse("t^2")), 0.0, 1.0)]
        for F in fields:
            for L in curves:
                a = line_integral(F, L)
                b = line_integral(F, L.reversed())
                assert abs(a + b) <= 1e-10 * (1 + abs(a))

    def test_omega_unit_circle(self, rng):
        # oracle: dense trapezoid quadrature on plain numpy lambdas
        ts = np.linspace(0, 2 * math.pi, 20001)
        x, y = np.cos(ts), np.sin(ts)
        integrand = (-y / (x ** 2 + y ** 2)) * (-np.sin(ts)) \
            + (x / (x ** 2 + y ** 2)) * np.cos(ts)
        oracle = np.trapezoid(integrand, ts)
        assert abs(oracle - 2 * math.pi) < 1e-9

        omega = VectorField.of(("x", "y"), "-y/(x^2+y^2)", "x/(x^2+y^2)")
        circle = ParametricCurve("t", (parse("cos(t)"), parse("sin(t)")),
                                 0.0, 2 * math.pi, closed=True)
        assert abs(line_integral(omega, circle) - 2 * math.pi) < 1e-10

    def test_omega_winding_multiple_radii(self):
        omega = VectorField.of(("x", "y"), "-y/(x^2+y^2)", "x/(x^2+y^2)")
        for r in (0.5, 1.0, 3.0):
            circ = ParametricCurve("t", (parse(f"{r}*cos(t)"), parse(f"{r}*sin(t)")),
                                   0.0, 2 * math.pi, closed=True)
            assert abs(line_integral(omega, circ) - 2 * math.pi) < 1e-8

    def test_error_estimate_bounds_refinement(self):
        F = VectorField.of(("x", "y"), "exp(x)*sin(y)", "cos(x*y)")
        L = ParametricCurve("t", (parse("t"), parse("t^2")), 0.0, 1.5)
        v16, err16 = line_integral(F, L, panels=16, return_error=True)
        v32 = line_integral(F, L, panels=32)
        assert abs(v32 - v16) <= err16 + 1e-15

    def test_singular_sample_cites_the_curve_point(self):
        # the coarse nodes come first, so the node that fails is the one
        # the pulled-back tree failed at ('exp(2000*t)' at t=0.3557...)
        F = VectorField.of(("x", "y"), "exp(2000*x)", "0")
        L = ParametricCurve.segment((0, 0), (1, 0))
        with pytest.raises(EvalDomainError) as info:
            line_integral(F, L, return_error=True)
        assert str(info.value) == ("function domain error at (x=0.35576929148520064, y=0.0) "
                                   "while evaluating 'exp(2000*x)'")

    def test_curve_off_the_reals_is_refused(self):
        F = VectorField.of(("x", "y"), "1", "0")
        L = ParametricCurve("t", (parse("sqrt(t)"), parse("0")), -1.0, 1.0)
        with pytest.raises(expr.EvalError, match="^curve point has non-negligible imaginary"):
            line_integral(F, L)

    def test_overflowing_integrand_is_refused(self):
        # F and r' are finite at every node, their product is not
        F = VectorField.of(("x", "y"), "1e200", "0")
        L = ParametricCurve("t", (parse("1e200*t"), parse("0")), 0.0, 1.0)
        with pytest.raises(expr.EvalError, match="^line integral is not finite$"):
            line_integral(F, L)


class TestAxisParallelCurve:
    """F_k is not evaluated along a curve whose r_k' is 0 at all of its
    nodes, as the term F_k(r) * r_k' adds exactly 0 there: Q = 1/y on the
    x-axis."""
    F = VectorField.of(("x", "y"), "1", "1/y")
    AXIS = ParametricCurve.segment((0, 0), (1, 0))

    def test_line_integral(self):
        value, err = line_integral(self.F, self.AXIS, return_error=True)
        assert abs(value - 1.0) <= 1e-14 and err <= 1e-14

    def test_probe_skips_q_on_the_axis_path_alone(self):
        # the bent path moves in y, so Q is evaluated on it (y > 0 there)
        bent = ParametricCurve("t", (parse("t"), parse("t-t^2")), 0.0, 1.0)
        rep = path_independence_probe(self.F, (0, 0), (1, 0), [self.AXIS, bent], tol=1e-8)
        assert rep.details["I0"] == line_integral(self.F, self.AXIS)
        assert rep.details["I1"] == line_integral(self.F, bent)

    def test_work_energy_agrees_with_its_potential_leg(self):
        res = work_energy(self.F, self.AXIS, m=1.0, v0=0.0)
        assert abs(res.work - 1.0) <= 1e-14 and res.U_B == -res.work


def pullback_oracle(F, curve, panels):
    """F(r(t)) . r'(t) as one substituted expression, integrated by
    `integrate_rows` on `panels` panels."""
    sub = dict(zip(F.names, curve.components))
    terms = [c.subs(sub) * d for c, d in zip(F.components, curve.derivative())]
    integrand = functools.reduce(operator.add, terms)
    return complex(realfield.integrate_rows(integrand, curve.param, curve.t_start, curve.t_end,
                                            panels)[0])


def random_field(seed, n):
    names = ("x", "y", "z")[:n]
    rng = random.Random(seed)
    return VectorField(names, tuple(random_smooth_expr(rng, names) for _ in names))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from((2, 3)),
       panels=st.integers(1, 40), t0=st.floats(-1.0, 0.5), length=st.floats(0.05, 1.0))
def test_line_integral_matches_the_pullback_oracle(seed, n, panels, t0, length):
    F = random_field(seed, n)
    comps = bounded_smooth_exprs(seed % 1000, n, ("t",), bound=3.0)
    curve = ParametricCurve("t", comps, t0, t0 + length)
    value, err = line_integral(F, curve, panels, return_error=True)
    fine, coarse = pullback_oracle(F, curve, 2 * panels), pullback_oracle(F, curve, panels)
    scale = 1e-13 * (1 + abs(value))
    assert abs(value - fine.real) <= scale and abs(fine.imag) <= scale
    assert abs(err - (abs(fine - coarse) + 1e-15 * (1 + abs(fine)))) <= scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from((2, 3)),
       count=st.integers(2, 4), panels=st.integers(1, 40))
def test_probe_integrals_are_the_line_integrals_bit_for_bit(seed, n, count, panels):
    # paths A + (B - A) t + t (1 - t) g_k(t) on [0, 1] share their endpoints
    F = random_field(seed, n)
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    bends = bounded_smooth_exprs(seed % 1000, count * n, ("t",), bound=3.0)
    t = expr.as_expr("t")
    paths = [ParametricCurve("t", [float(p) + float(q - p) * t + t * (1 - t) * g
                                   for p, q, g in zip(a, b, bends[k * n:(k + 1) * n])],
                             0.0, 1.0) for k in range(count)]
    rep = path_independence_probe(F, a, b, paths, tol=1.0, panels=panels)
    for k, path in enumerate(paths):
        assert rep.details[f"I{k}"] == line_integral(F, path, panels)


class TestPathIndependence:
    def paths(self):
        seg = ParametricCurve.segment((0, 0), (1, 1))
        parabola = ParametricCurve("t", (parse("t"), parse("t^2")), 0.0, 1.0)
        quintic = ParametricCurve("t", (parse("t"), parse("t^5")), 0.0, 1.0)
        return [seg, parabola, quintic]

    def test_exact_field_passes(self):
        F = VectorField.of(("x", "y"), "y", "x")
        rep = path_independence_probe(F, (0, 0), (1, 1), self.paths(), tol=1e-9)
        assert rep.passed

    def test_non_exact_field_fails(self):
        F = VectorField.of(("x", "y"), "y", "-x")
        rep = path_independence_probe(F, (0, 0), (1, 1), self.paths(), tol=1e-8)
        assert not rep.passed
        assert rep.max_residual > 0.1

    def test_identical_paths_zero_difference(self):
        F = VectorField.of(("x", "y"), "y", "-x")
        seg = ParametricCurve.segment((0, 0), (1, 1))
        rep = path_independence_probe(F, (0, 0), (1, 1), [seg, seg, seg], tol=1e-12)
        assert rep.passed and rep.max_residual == 0.0

    def test_endpoint_mismatch(self):
        F = VectorField.of(("x", "y"), "y", "x")
        wrong = ParametricCurve.segment((0, 0), (2, 2))
        with pytest.raises(EndpointMismatchError):
            path_independence_probe(F, (0, 0), (1, 1),
                                    [wrong, ParametricCurve.segment((0, 0), (1, 1))],
                                    tol=1e-9)


class TestPotential:
    def test_xy_potential(self):
        F = VectorField.of(("x", "y"), "y", "x")
        assert abs(potential_reconstruct(F, (0, 0), (2, 3)) - 6.0) < 1e-12

    def test_symmetric_3d(self):
        F = VectorField.of(("x", "y", "z"), "x+y+z", "x+y+z", "x+y+z")
        assert abs(potential_reconstruct(F, (0, 0, 0), (1, 1, 1)) - 4.5) < 1e-12

    def test_base_equals_target(self):
        F = VectorField.of(("x", "y"), "y", "x")
        assert potential_reconstruct(F, (1, 2), (1, 2)) == 0.0

    def test_matches_probe_path_integral(self):
        F = VectorField.of(("x", "y"), "x + e^y", "x*e^y - 2*y")
        s, t = (0.2, -0.3), (1.1, 0.7)
        du = potential_reconstruct(F, (0, 0), t) - potential_reconstruct(F, (0, 0), s)
        probe = ParametricCurve(
            "t", (parse(f"{s[0]} + ({t[0]} - {s[0]})*t + 0.2*t*(1-t)"),
                  parse(f"{s[1]} + ({t[1]} - {s[1]})*t - 0.1*t*(1-t)")), 0.0, 1.0)
        assert abs(du - line_integral(F, probe)) < 1e-10

    def test_excluded_point_on_polyline(self):
        F = VectorField.of(("x", "y"), "-y/(x^2+y^2)", "x/(x^2+y^2)")
        reg = Region(("x", "y"), ((-2, 2), (-2, 2)), excluded=((0.0, 0.0),))
        with pytest.raises(ExcludedPointError):
            potential_reconstruct(F, (-1, 0), (1, 0), region=reg)

    def test_excluded_point_between_leg_samples(self):
        # 0.003 is no point of a 129-point scan of [-1, 1]; the leg is
        # refused by where the point lies, not by how near a sample it is
        F = VectorField.of(("x", "y"), "1/(x-0.003)", "0")
        reg = Region(("x", "y"), ((-2, 2), (-2, 2)), excluded=((0.003, 0.0),))
        with pytest.raises(ExcludedPointError):
            potential_reconstruct(F, (-1, 0), (1, 0), region=reg)

    def test_excluded_point_off_the_legs(self):
        F = VectorField.of(("x", "y"), "y", "x")
        reg = Region(("x", "y"), ((-2, 2), (-2, 2)),
                     excluded=((0.5, 1e-8), (1.5, 0.0), (1.0, 1.5)))
        assert abs(potential_reconstruct(F, (-1, 0), (1, 1), region=reg) - 1.0) < 1e-12

    def test_closed_loops_in_exact_field(self, rng):
        fields = [VectorField.of(("x", "y"), "y", "x"),
                  VectorField.of(("x", "y"), "x + e^y", "x*e^y - 2*y")]
        for F in fields:
            for _ in range(10):
                loop = fourier_loop(rng)
                assert abs(line_integral(F, loop, panels=96)) <= 1e-9


class TestBatchedQuadrature:
    """Quadrature over many intervals at once agrees bit for bit with the
    one-interval computation it replaces."""
    INTERVALS = [(0.25, 0.25), (0.0, 0.0), (2.0, -1.0), (-3.5, -1.25), (0.1, 0.7),
                 (2.9, -1.3), (-1e3, 2e4 / 3), (1e-300, 3e-300), (-0.0, 1.0)]

    @pytest.mark.parametrize("panels", [1, 7, 64])
    def test_node_rows_match_the_one_interval_nodes(self, panels):
        x, w = np.polynomial.legendre.leggauss(5)
        t0, t1 = zip(*self.INTERVALS)
        nodes, weights = gauss_nodes(t0, t1, panels)
        for row, (a, b) in enumerate(self.INTERVALS):
            one_nodes, one_weights = gauss_nodes(a, b, panels)
            assert nodes[row].tobytes() == one_nodes.tobytes()
            assert weights[row].tobytes() == one_weights.tobytes()
            edges = np.linspace(a, b, panels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            assert nodes[row].tobytes() == (mid[:, None] + half[:, None] * x).ravel().tobytes()
            assert weights[row].tobytes() == (half[:, None] * w).ravel().tobytes()

    @staticmethod
    def per_gap_running(e, param, ref, ends, name, values):
        """running_integrals one gap at a time: one GL5 panel per gap of the
        sorted edges, then summed outward from ref one gap at a time."""
        x, w = np.polynomial.legendre.leggauss(5)
        span = np.linspace(min(min(ends), ref), max(max(ends), ref), 65)
        edges = sorted(set(ends) | {ref} | set(span.tolist()))
        r = edges.index(ref)
        out = np.empty((len(values), len(ends)))
        for i, c in enumerate(values):
            legs = []
            for a, b in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                vals = eval_many(e, (param, name), [[mid + half * t, c] for t in x])
                legs.append(np.add.reduce(half * w * vals).real)
            for j, end in enumerate(ends):
                k, acc = edges.index(end), 0.0
                gaps = range(r, k) if k > r else range(r - 1, k - 1, -1)
                for n, g in enumerate(gaps):
                    acc = legs[g] if n == 0 else acc + legs[g]
                out[i, j] = acc if k >= r else -acc
        return out

    @pytest.mark.parametrize("ref", [0.25, -0.377], ids=["ref-on-an-end", "ref-off-the-ends"])
    def test_running_integrals_match_gap_by_gap(self, ref):
        exprs = bounded_smooth_exprs(seed=5, count=4, names=("x", "y"))
        # ends on both sides of ref, repeated, and unsorted
        ends = [0.9, -1.0, 0.25, -0.6, 0.25, 1.3, -1.0, 0.0]
        # 25 rows of about 70 gaps of 5 nodes span two blocks of eval_many
        rows = np.linspace(-1.2, 1.2, 25)
        for e in exprs:
            got = realfield.running_integrals(e, "x", ref, ends, {"y": rows})
            want = self.per_gap_running(e, "x", ref, ends, "y", rows)
            assert got.tobytes() == want.tobytes()

    def test_potential_grid_matches_a_polynomial_potential(self):
        # u = x^3 y - 2 x y^2 + y^3 + x, whose legs GL5 integrates exactly
        F = VectorField.of(("x", "y"), "3*x^2*y - 2*y^2 + 1", "x^3 - 4*x*y + 3*y^2")
        axes = (np.linspace(-1.0, 1.0, 15), np.linspace(-1.2, 0.8, 11))
        base = (0.1234, -0.377)

        def u(x, y):
            return x ** 3 * y - 2 * x * y ** 2 + y ** 3 + x

        xg, yg = np.meshgrid(*axes, indexing="ij")
        for got in potential_grid(F, axes, base):   # x-then-y and y-then-x
            assert np.max(np.abs(got - (u(xg, yg) - u(*base)))) <= 1e-13

    def test_a_column_over_more_than_a_block_matches_each_interval_alone(self, rng):
        e = parse("sin(x*y) + exp(x/2)/(1 + y^2) - atan(x - y)")
        n = _backend.BLOCK // 5 + 300            # one-panel intervals: two blocks of nodes
        t0 = rng.uniform(-2.0, 1.0, n)
        t1 = t0 + rng.uniform(0.0, 1.5, n)
        ys = rng.uniform(-2.0, 2.0, n)
        got = realfield.integrate_rows(e, "x", t0, t1, 1, {"y": ys})
        alone = [realfield.integrate_rows(e, "x", a, b, 1, {"y": [c]})[0]
                 for a, b, c in zip(t0, t1, ys)]
        assert got.tobytes() == np.array(alone).tobytes()

    def test_conjugate_request_makes_few_evaluator_calls(self, monkeypatch, capsys):
        calls, blocks = [], []
        original, run = expr.eval_columns, _backend.eval_grid

        def counted(exprs, names, columns, shape):
            calls.append(shape)
            return original(exprs, names, columns, shape)

        def blocked(ops, consts, cols, shape, outs, skip=None):
            for lo, hi, values in run(ops, consts, cols, shape, outs, skip):
                blocks.append((hi - lo) * math.prod(shape[1:]))
                yield lo, hi, values

        for module in (expr, realfield, cplx):
            monkeypatch.setattr(module, "eval_columns", counted)
        monkeypatch.setattr(_backend, "eval_grid", blocked)
        code = cli.main(["conjugate", "--v", "x^2 - y^2 + x*y", "--base", "0,0",
                         "--region", "-1,1,-1,1", "--grid", "41"])
        capsys.readouterr()
        assert code == 0
        # the y-legs are 41 rows of 96 gaps of 5 nodes, in blocks that bound
        # the memory of one array pass
        assert 0 < len(calls) <= 10, len(calls)
        assert max(blocks) <= _backend.BLOCK

    def test_pole_on_a_leg_names_the_point_and_subtree(self):
        F = VectorField.of(("x", "y"), "1", "1/x")
        axes = (np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
        with pytest.raises(EvalDomainError, match=r"x=0\.0\) while evaluating '1/x'"):
            potential_grid(F, axes, base=(0.5, 0.0))


COULOMB = VectorField.of(
    ("x", "y", "z"),
    "x/(x^2+y^2+z^2)^1.5", "y/(x^2+y^2+z^2)^1.5", "z/(x^2+y^2+z^2)^1.5")


class TestWorkEnergy:
    def test_coulomb_radial_work(self):
        # W = kqQ (1/r_a - 1/r_b) with kqQ = 1, r_a = 1, r_b = 2
        res = work_energy(COULOMB, ParametricCurve.segment((1, 0, 0), (2, 0, 0)),
                          m=1.0, v0=1.0)
        assert abs(res.work - 0.5) < 1e-10
        assert abs((res.U_B - res.U_A) + res.work) < 1e-10
        assert res.E_total == 0.5

    def test_closed_loop_zero_work(self):
        F = VectorField.of(("x", "y"), "y", "x")
        loop = ParametricCurve("t", (parse("cos(t)"), parse("sin(t)")),
                               0.0, 2 * math.pi, closed=True)
        res = work_energy(F, loop, m=2.0, v0=0.5)
        assert abs(res.work) < 1e-10

    def test_zero_length_path(self):
        F = VectorField.of(("x", "y"), "y", "x")
        still = ParametricCurve("t", (parse("1"), parse("1")), 0.0, 1.0)
        res = work_energy(F, still, m=1.0, v0=3.0)
        assert res.work == 0.0

    def test_rejects_non_conservative(self):
        F = VectorField.of(("x", "y"), "y", "-x")
        with pytest.raises(NonConservativeError):
            work_energy(F, ParametricCurve.segment((0, 0), (1, 1)), m=1.0, v0=1.0)

    def test_rejects_bad_mass(self):
        F = VectorField.of(("x", "y"), "y", "x")
        with pytest.raises(ValueError):
            work_energy(F, ParametricCurve.segment((0, 0), (1, 1)), m=0.0, v0=1.0)
