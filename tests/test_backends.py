"""The tape evaluator against the tree walk `evaluate`: values, domain
failures, blocking, the float and complex array paths, and the RK4 driver
built on it."""

import gc
import inspect
import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from integrikit import _backend
from integrikit.expr import (
    Const, EvalDomainError, NonDifferentiableError, _lower, add, call, compile_exprs,
    compile_system, diff, eval_columns,
    eval_many, evaluate, mul, neg, node_count, parse, pow_,
)
from integrikit.odesys import GUARD, AutonomousSystem, IntegrationError, RK4Traces, integrate_rk4

from conftest import bounded_smooth_exprs, random_smooth_expr

MESSY = "sin(x*y) + exp(x/2)/(1 + y^2) - tanh(x - y)^3 + atan(x)*cos(y)"
NAMES = ("x", "y")


def scalar_eval(e, names, point):
    """The scalar path: one run of the tape on complex scalars."""
    tape = compile_exprs((e,), names)
    regs = _backend._run(tape.ops, _backend.SCALAR_OPS,
                         [complex(v) for v in point] + list(tape.consts))
    return regs[tape.outs[0]]


def test_eval_points_match_tree_walk(rng):
    e = parse(MESSY)
    pts = rng.uniform(-2, 2, size=(20, 2))
    batch = eval_many(e, NAMES, pts)
    direct = np.array([e.eval({"x": p[0], "y": p[1]}) for p in pts])
    assert np.max(np.abs(batch - direct)) <= 1e-13 * (1 + np.max(np.abs(direct)))


def test_array_scalar_and_tree_walk_agree(rng):
    pts = rng.uniform(-1.5, 1.5, size=(16, 2))
    for e in bounded_smooth_exprs(7, 40, NAMES):
        batch = eval_many(e, NAMES, pts)
        for p, b in zip(pts, batch):
            ref = evaluate(e, dict(zip(NAMES, p)))
            s = scalar_eval(e, NAMES, p)
            scale = 1e-13 * max(1.0, abs(ref))
            assert abs(b - ref) <= scale, (str(e), p)
            assert abs(s - ref) <= scale, (str(e), p)


@pytest.mark.parametrize("npts", [_backend.BLOCK - 1, _backend.BLOCK, _backend.BLOCK + 1])
def test_blocked_evaluation_is_bit_identical(rng, npts):
    e = parse(MESSY)
    pts = rng.uniform(-2, 2, size=(_backend.BLOCK + 1, 2))
    whole = eval_many(e, NAMES, pts)
    part = eval_many(e, NAMES, pts[:npts])
    assert part.shape == (npts,)
    assert np.array_equal(part, whole[:npts])
    tail = eval_many(e, NAMES, pts[npts - 1:])   # straddles the block boundary
    assert np.array_equal(tail, whole[npts - 1:])


@pytest.mark.parametrize("npts", [1, 5, _backend.BLOCK + 1])
def test_constant_and_variable_outputs_are_fresh_arrays(rng, npts):
    pts = np.ascontiguousarray(rng.uniform(-2, 2, size=(npts, 2)), dtype=np.complex128)
    const = eval_many(parse("2 + 3*i"), NAMES, pts)
    assert const.shape == (npts,) and np.all(const == 2 + 3j)
    var = eval_many(parse("y"), NAMES, pts)
    assert var.shape == (npts,) and np.array_equal(var, pts[:, 1])
    assert not np.shares_memory(var, pts)
    assert eval_many(Const(0.5), (), np.empty((npts, 0))).shape == (npts,)


SINGULAR = [
    ("1/x", 0.0, "division by zero"),
    ("ln(x)", 0.0, "ln of zero"),
    ("x^-1", 0.0, "zero raised"),
    ("1/0", 0.0, "division by zero"),
    ("exp(x)", 800.0, "function domain error"),
]


@pytest.mark.parametrize("text,bad,reason", SINGULAR)
def test_singular_inputs_fail_like_the_tree_walk(text, bad, reason):
    e = parse(text)
    xs = np.array([1.0, 2.0, bad, 3.0, bad])
    with pytest.raises(EvalDomainError) as walk:
        evaluate(e, {"x": bad})
    assert reason in walk.value.reason
    first = 0 if text == "1/0" else 2
    with pytest.raises(EvalDomainError) as batch:
        eval_many(e, ("x",), xs)
    assert batch.value.subtree == walk.value.subtree
    assert batch.value.reason == f"{walk.value.reason} at (x={float(xs[first])!r})"
    for x in xs:
        fails = text == "1/0" or x == bad
        assert np.isfinite(scalar_eval(e, ("x",), [x])) != fails


def test_division_guard_produces_domain_error():
    pts = np.array([[1.0], [0.0]])
    with pytest.raises(EvalDomainError, match="division by zero"):
        eval_many(parse("1/x"), ("x",), pts)


def test_pow_and_log_guards():
    with pytest.raises(EvalDomainError):
        eval_many(parse("x^-1"), ("x",), np.array([[0.0]]))
    with pytest.raises(EvalDomainError, match="ln"):
        eval_many(parse("ln(x)"), ("x",), np.array([[0.0]]))


# Overflow inside an op that maps infinities to finite values: the array
# paths must not hide what the tree walk reports.
ABSORBED = [
    ("1/exp(1000*x)", "exp(1000*x)"),
    ("atan(exp(1000*x))", "exp(1000*x)"),
    ("tanh(cosh(1000*x))", "cosh(1000*x)"),
    ("exp(-exp(1000*x))", "exp(1000*x)"),
    ("im(exp(1000*x))", "exp(1000*x)"),
    ("re(sqrt(-exp(1000*x)))", "exp(1000*x)"),
    ("tan(sqrt(-exp(1000*x)))", "exp(1000*x)"),
    ("(2e154*x)^-2", "(2e+154*x)^-2"),           # 1/inf after an overflowing square
]


@pytest.mark.parametrize("text,subtree", ABSORBED)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_an_absorbed_overflow_fails_like_the_tree_walk(text, subtree, dtype):
    e = parse(text)
    with pytest.raises(EvalDomainError) as walk:
        evaluate(e, {"x": 1.0})
    assert str(walk.value.subtree) == subtree
    xs = np.array([0.25, 0.5, 1.0, 2.0], dtype=dtype)
    with pytest.raises(EvalDomainError) as batch:
        eval_many(e, ("x",), xs)
    assert batch.value.subtree == walk.value.subtree
    assert batch.value.reason == f"{walk.value.reason} at (x=1.0)"


def test_whole_powers_on_floats_are_the_complex_products_bit_for_bit(rng):
    a = rng.uniform(0.5, 3, size=1000) * rng.choice([-1.0, 1.0], size=1000)   # no overflow
    for n in range(-99, 100):
        with np.errstate(all="ignore"):
            got = _backend.REAL_ARRAY_OPS["^"](a, np.float64(n))
            want = _backend.ARRAY_OPS["^"](a.astype(np.complex128), np.complex128(n))
        assert got.dtype == np.float64 and not want.imag.any()
        assert got.tobytes() == np.ascontiguousarray(want.real).tobytes(), n


def real_run(e, names, pts):
    """The float path alone: one run of the tape on float64 columns."""
    tape = compile_exprs((e,), names)
    with np.errstate(all="ignore"):
        regs = _backend._run(tape.ops, _backend.REAL_ARRAY_OPS,
                             [pts[:, j] for j in range(len(names))]
                             + [c.real for c in tape.consts])
    return np.broadcast_to(regs[tape.outs[0]], len(pts))


def array_path(e, names, pts):
    """`_backend.eval_grid` on the columns of `pts` as given: float64 or
    complex128."""
    tape = compile_exprs((e,), names)
    out = np.empty(len(pts), dtype=np.complex128)
    for lo, hi, (v,) in _backend.eval_grid(tape.ops, tape.consts, list(pts.T), (len(pts),),
                                           tape.outs):
        out[lo:hi] = v
    return out


def walk_or_none(e, names, point):
    try:
        return evaluate(e, dict(zip(names, point)))
    except EvalDomainError:
        return None


_IN_RANGE = st.floats(-2.0, 2.0)
_EXTREME = st.sampled_from([1e155, -1e155, 1e300, -1e300, math.inf, -math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       inner=st.lists(st.tuples(_IN_RANGE, _IN_RANGE), min_size=1, max_size=12),
       outer=st.lists(st.tuples(_IN_RANGE | _EXTREME, _IN_RANGE | _EXTREME), max_size=6))
def test_float_path_complex_path_and_tree_walk_agree(seed, inner, outer):
    """Values agree within 1e-13 (1 + |v|) on [-2, 2]^2, where the float
    path never refuses; with overflowing and non-finite points as well, all
    three fail at the same points."""
    e = random_smooth_expr(random.Random(seed), NAMES, depth=4)
    pts = np.array(inner, dtype=np.float64)
    flt = real_run(e, NAMES, pts)
    cpx = array_path(e, NAMES, pts.astype(np.complex128))
    for p, f, c in zip(pts, flt, cpx):
        ref = walk_or_none(e, NAMES, p)
        assert ref is not None and np.isfinite(f) and np.isfinite(c), (str(e), p)
        bound = 1e-13 * (1 + abs(ref))
        assert abs(f - ref) <= bound and abs(c - ref) <= bound, (str(e), p)
    pts = np.array(inner + outer, dtype=np.float64)
    flt = array_path(e, NAMES, pts)
    cpx = array_path(e, NAMES, pts.astype(np.complex128))
    walked = [walk_or_none(e, NAMES, p) is None for p in pts]
    assert list(~np.isfinite(flt)) == list(~np.isfinite(cpx)) == walked, str(e)


@pytest.mark.parametrize("text,bad", [
    ("sqrt(x - 1)", 0.5), ("ln(x - 1)", 0.5), ("(x - 1)^1.5", 0.5), ("1/(x - 1)", 1.0),
], ids=["sqrt", "ln", "pow", "div0"])
@pytest.mark.parametrize("where", [_backend.BLOCK - 1, _backend.BLOCK], ids=["before", "after"])
def test_only_the_block_that_leaves_the_reals_runs_on_complex(text, bad, where):
    """Three blocks of real points, one of them with one point where the
    float op refuses: that block is the complex path bit for bit, the
    others are the float path bit for bit."""
    e = parse(text)
    xs = np.linspace(1.5, 3.0, 3 * _backend.BLOCK)
    xs[where] = bad
    pts = xs.reshape(-1, 1)
    got = array_path(e, ("x",), pts)
    whole = array_path(e, ("x",), pts.astype(np.complex128))
    leaves = where // _backend.BLOCK
    for k in range(3):
        rows = slice(k * _backend.BLOCK, (k + 1) * _backend.BLOCK)
        if k == leaves:
            assert got[rows].tobytes() == whole[rows].tobytes()
            assert got[where].imag != 0 or not np.isfinite(got[where])
        else:
            assert got[rows].tobytes() == real_run(e, ("x",), pts[rows]).astype(complex).tobytes()
    if text == "1/(x - 1)":
        with pytest.raises(EvalDomainError) as batch:
            eval_many(e, ("x",), xs)
        with pytest.raises(EvalDomainError) as walk:
            evaluate(e, {"x": bad})
        assert batch.value.subtree == walk.value.subtree
        assert batch.value.reason == f"{walk.value.reason} at (x={bad!r})"
    else:
        assert eval_many(e, ("x",), xs).tobytes() == got.tobytes()


def test_a_failure_in_a_later_block_names_the_tree_walks_point():
    """The first block leaves the reals without failing; the third fails."""
    e = parse("sqrt(x) + 1/(x - 2)")
    xs = np.linspace(2.5, 3.0, 3 * _backend.BLOCK)
    xs[3], xs[2 * _backend.BLOCK + 5] = -1.0, 2.0
    with pytest.raises(EvalDomainError) as batch:
        eval_many(e, ("x",), xs)
    with pytest.raises(EvalDomainError) as walk:
        evaluate(e, {"x": 2.0})
    assert batch.value.subtree == walk.value.subtree and str(walk.value.subtree) == "1/(x - 2)"
    assert batch.value.reason == f"{walk.value.reason} at (x=2.0)"


@pytest.mark.parametrize("text,column", [
    ("sin(x*y) + sqrt(x)", [0.5 + 1e-300j, -2.0]),   # a complex column
    ("sqrt(x) + i*y", [0.5, -2.0]),                   # a complex constant
    ("sqrt(x) + y", [complex(0.5, -0.0), complex(-2.0, -0.0)]),  # -0.0: the lower side of the cut
], ids=["column", "constant", "negative-zero"])
def test_complex_input_runs_the_complex_path_bit_for_bit(rng, text, column):
    e = parse(text)
    pts = np.empty((_backend.BLOCK + 3, 2), dtype=np.complex128)
    pts[:, 0] = np.resize(np.array(column), len(pts))
    pts[:, 1] = rng.uniform(-2, 2, size=len(pts))
    tape = compile_exprs((e,), NAMES)
    with np.errstate(all="ignore"):
        ref = np.concatenate([
            np.broadcast_to(_backend._run(tape.ops, _backend.ARRAY_OPS,
                                          [block[:, 0], block[:, 1], *tape.consts])[tape.outs[0]],
                            len(block))
            for block in (pts[:_backend.BLOCK], pts[_backend.BLOCK:])])
    got = eval_many(e, NAMES, pts)
    assert got.tobytes() == ref.tobytes()
    assert np.any(got.imag != 0)


SEVERAL = ["sqrt(x)", "x^2", MESSY, "2 + 3*i", "y", "x*i + y", "ln(y)*x"]


@pytest.mark.parametrize("grid", [False, True], ids=["point-set", "grid"])
def test_several_expressions_give_the_bits_of_single_calls(rng, grid):
    """One tape for several outputs: each output is what a call of its own
    gives, bit for bit, also where one output leaves the reals (sqrt of a
    negative x) and another (x^2) stays on floats."""
    exprs = [parse(text) for text in SEVERAL]
    if grid:    # more than one block of whole rows
        xs, ys = rng.uniform(-2, 2, 150), rng.uniform(-2, 2, 70)
        cols, shape = np.ix_(xs, ys), (150, 70)
    else:
        xs, ys = rng.uniform(-2, 2, (2, 60))
        cols, shape = (xs, ys), (60,)
    together = eval_columns(exprs, NAMES, cols, shape)
    for e, v in zip(exprs, together):
        assert v.shape == shape
        assert v.tobytes() == eval_columns((e,), NAMES, cols, shape)[0].tobytes(), str(e)
    assert together[0].imag.any() and not together[1].imag.any()


def test_a_failing_set_names_its_first_failing_expression():
    xs = np.array([1.0, 0.0, 2.0, -1.0])
    exprs = [parse("x + 1"), parse("1/(x + 1)"), parse("ln(x)")]   # ln(x) fails first in x
    with pytest.raises(EvalDomainError) as batch:
        eval_columns(exprs, ("x",), [xs], xs.shape)
    with pytest.raises(EvalDomainError) as walk:
        evaluate(exprs[1], {"x": -1.0})
    assert batch.value.subtree == walk.value.subtree and str(walk.value.subtree) == "1/(x + 1)"
    assert batch.value.reason == f"{walk.value.reason} at (x=-1.0)"


def test_kdv_residual_tape_is_smaller_than_its_tree(rng):
    u = parse("-2/cosh(x - 4*t)^2")          # the soliton
    ux = diff(u, "x")
    residual = diff(u, "t") - Const(6.0) * u * ux + diff(diff(ux, "x"), "x")
    tape = compile_exprs((residual,), ("x", "t"))
    assert len(tape.ops) < node_count(residual)
    # heavy slot reuse: every shared value must outlive its last reader
    pts = rng.uniform(-1, 1, size=(8, 2))
    batch = eval_many(residual, ("x", "t"), pts)
    for p, b in zip(pts, batch):
        ref = evaluate(residual, {"x": p[0], "t": p[1]})
        assert abs(b - ref) <= 1e-12 * max(1.0, abs(ref))
        assert abs(scalar_eval(residual, ("x", "t"), p) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_system_tape_has_one_output_per_component():
    tape = compile_system((parse("y"), parse("-sin(x)"), parse("s")), ("x", "y"), "s")
    assert tape.outs[0] == 1 and tape.outs[2] == 2   # slots: x, y, time
    assert len(tape.outs) == 3 and len(tape.ops) == 2


# Golden values recorded with the stack-machine RK4: the tape must not move them.
def test_rk4_pendulum_endpoint_is_unchanged():
    pendulum = AutonomousSystem(("x", "y"), (parse("y"), parse("-sin(x)")))
    traj = integrate_rk4(pendulum, [1.0, 0.2], (0.0, 2.0), 1e-2)
    assert [repr(float(v)) for v in traj.endpoint] == [
        "-0.08254060207082237", "-0.9760052788970709"]
    assert len(traj.ts) == 201 and traj.ts[-1] == 2.0


def test_rk4_blow_up_is_reported_at_the_same_time():
    blow_up = AutonomousSystem(("x",), (parse("x^2"),))
    with pytest.raises(IntegrationError) as ex:
        integrate_rk4(blow_up, [1.0], (0.0, 2.0), 1e-2)
    assert ex.value.t_last == 1.0


def test_rk4_rejects_a_trajectory_that_turns_complex():
    root = AutonomousSystem(("x",), (parse("sqrt(x)"),))
    integrate_rk4(root, [1.0], (0.0, 1.0), 1e-2)
    with pytest.raises(IntegrationError, match="imaginary part"):
        integrate_rk4(root, [-1.0], (0.0, 1.0), 1e-2)


def generated_trace(tape, x0, t0, h, nsteps, real):
    """One generated trace of `nsteps` steps of h from x0 at t0: (ys,
    status, reached), ys float64 when `real`, else complex128, holding the
    start and every state stored."""
    buf = array("d")
    failed, reached = _backend.rk4(tape.ops, tape.consts, tape.outs, [x0], 1e12,
                                   [(t0, h, h, nsteps)], 0, buf.extend, real)
    ys = np.frombuffer(buf, dtype=np.float64 if real else np.complex128).reshape(-1, len(x0))
    return (ys, 0, nsteps) if failed < 0 else (ys, 1, reached)


def complex_trace(tape, x0, t0, h, nsteps):
    """The generated trace forced onto complex scalars: (ys, status, reached)."""
    return generated_trace(tape, [complex(v) for v in x0], t0, h, nsteps, False)


def float_trace(tape, x0, t0, h, nsteps):
    """The generated trace on Python floats: (ys, status, reached)."""
    return generated_trace(tape, [float(v) for v in x0], t0, h, nsteps, True)


@pytest.fixture
def routines(monkeypatch):
    """The `real` flag of each call of `_backend.rk4`, in order."""
    made, rk4 = [], _backend.rk4
    signature = inspect.signature(rk4)

    def recording_rk4(*args, **kwargs):
        made.append(signature.bind(*args, **kwargs).arguments["real"])
        return rk4(*args, **kwargs)

    monkeypatch.setattr(_backend, "rk4", recording_rk4)
    return made


def reference_rk4(tape, x0, t0, h, nsteps):
    """RK4 over the tape interpreter `_backend._run`, with the arithmetic of
    the generated step (Python complex constants).  Returns rk4's
    (steps + 1, n) states."""
    consts = [complex(c) for c in tape.consts]

    def rhs(state, t):
        regs = _backend._run(tape.ops, _backend.SCALAR_OPS, [*state, complex(t), *consts])
        return [regs[o] for o in tape.outs]

    y = [complex(v) for v in x0]
    states = [y]
    for s in range(nsteps):
        t = t0 + s * h
        k1 = rhs(y, t)
        k2 = rhs([a + 0.5 * h * k for a, k in zip(y, k1)], t + 0.5 * h)
        k3 = rhs([a + 0.5 * h * k for a, k in zip(y, k2)], t + 0.5 * h)
        k4 = rhs([a + h * k for a, k in zip(y, k3)], t + h)
        y = [a + (h / 6.0) * (b + 2.0 * c + 2.0 * d + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        states.append(y)
    return np.array(states, dtype=np.complex128)


@pytest.mark.parametrize("names,time_name", [
    (("x", "y"), None), (("x", "y"), "s"), (("x", "y", "z"), None), (("x", "y", "z"), "s"),
])
@pytest.mark.parametrize("h", [0.01], ids=["one_state"])
def test_generated_step_matches_the_tape_interpreter_bit_for_bit(names, time_name, h, rng):
    variables = names + ((time_name,) if time_name else ())
    exprs = bounded_smooth_exprs(len(names) + (3 if time_name else 0), 3 * len(names), variables)
    for k in range(3):
        tape = compile_system(tuple(exprs[k::3]), names, time_name)
        x0 = rng.uniform(-0.5, 0.5, size=len(names))
        ys, status, reached = complex_trace(tape, x0, 0.25, h, 50)
        ref = reference_rk4(tape, x0, 0.25, h, 50)
        assert ys.shape == (reached + 1, len(names))      # the start and every state reached
        assert ys.tobytes() == np.ascontiguousarray(ref[:reached + 1]).tobytes(), \
            [str(e) for e in exprs[k::3]]
        if status:                        # a random system may blow up: same step
            assert not np.all(np.isfinite(ref[reached + 1]) & (np.abs(ref[reached + 1]) <= 1e12))


def with_ln_atan_and_cubes(exprs, n):
    """Systems of n components from `exprs`: every third one as it is, the
    others with ln(1.5 + sin(.)) or atan(.) * (.)^3 in place of one component."""
    systems = []
    for k in range(0, len(exprs) - n + 1, n):
        comps = list(exprs[k:k + n])
        if k // n % 3 == 1:
            comps[0] = call("ln", add(Const(1.5), call("sin", comps[0])))
        elif k // n % 3 == 2:
            comps[-1] = mul(call("atan", comps[-1]), pow_(comps[0], Const(3.0)))
        systems.append(tuple(comps))
    return systems


@pytest.mark.parametrize("names,time_name", [
    (("x", "y"), None), (("x", "y"), "s"), (("x", "y", "z"), None), (("x", "y", "z"), "s"),
])
def test_float_trace_is_the_real_part_of_the_complex_trace_bit_for_bit(names, time_name, rng):
    variables = names + ((time_name,) if time_name else ())
    exprs = bounded_smooth_exprs(31 + len(variables), 12 * len(names), variables)
    traced, ops = 0, set()
    for comps in with_ln_atan_and_cubes(exprs, len(names)):
        tape = compile_system(comps, names, time_name)
        ops |= {op for op, _, _, _ in tape.ops}
        x0 = rng.uniform(-0.5, 0.5, size=len(names))
        ys, status, reached = float_trace(tape, x0, 0.25, 0.01, 200)
        ref, ref_status, _ = complex_trace(tape, x0, 0.25, 0.01, 200)
        assert ys.dtype == np.float64 and ref.dtype == np.complex128
        if status:                         # a blow-up: the complex rerun decides
            assert ref_status, [str(e) for e in comps]
            continue
        traced += 1
        assert ref_status == 0 and ys.shape == ref.shape == (201, len(names))
        assert ys.tobytes() == np.ascontiguousarray(ref.real).tobytes(), [str(e) for e in comps]
    assert traced >= 8 and {"^", "ln", "atan"} <= ops


@pytest.mark.parametrize("op,a,b", [
    ("^", 1.3, 3.0), ("^", -0.7, 3.0), ("^", 2.0, -2.0), ("^", 0.0, 0.0), ("^", 1.7, 0.5),
    ("^", 3.0, 101.0), ("ln", 0.3, None), ("ln", 5.5, None), ("atan", 0.8, None),
    ("atan", -3e10, None), ("exp", 700.0, None), ("sinh", -40.0, None), ("tanh", 0.4, None),
    ("sqrt", 2.0, None), ("tan", 1.2, None), ("abs", -2.5, None), ("im", 1.5, None),
])
def test_float_ops_give_the_real_part_of_the_complex_ops(op, a, b):
    args = (a,) if b is None else (a, b)
    want = _backend.SCALAR_OPS[op](*(complex(v) for v in args))
    got = _backend.FLOAT_OPS[op](*args)
    assert type(got) is float and got == want.real and want.imag == 0


@pytest.mark.parametrize("op,args", [
    ("^", (-2.0, 0.5)), ("^", (0.0, -1.0)), ("^", (1e200, 2.0)), ("^", (float("inf"), 1.0)),
    ("/", (1.0, 0.0)), ("/", (1.0, float("inf"))), ("ln", (-1.0,)), ("ln", (0.0,)),
    ("sqrt", (-1.0,)), ("exp", (709.0,)), ("exp", (-float("inf"),)), ("cosh", (708.5,)),
    ("tanh", (float("inf"),)), ("atan", (float("nan"),)), ("im", (float("inf"),)),
])
def test_float_ops_refuse_what_may_differ_on_complex(op, args):
    with pytest.raises((OverflowError, ValueError, ZeroDivisionError)):
        _backend.FLOAT_OPS[op](*args)


def test_a_real_system_traces_on_floats_and_a_non_real_one_on_complex(routines):
    real = RK4Traces(AutonomousSystem(("x", "y"), (parse("y"), parse("-sin(x)"))))
    rotating = AutonomousSystem(("x",), (parse("i*x"),))
    ts, ys = real([0.5, 0.0], 0.0, 1.0, 0.1)
    assert (ys.dtype, ys.shape, routines) == (np.float64, (11, 2), [True])
    assert ts[-1] == 1.0 and np.array_equal(ts[:-1], np.arange(10) * 0.1)
    real([0.5, 1e-300j], 0.0, 1.0, 0.1)            # a non-real start
    assert routines[1:] == [False]
    with pytest.raises(IntegrationError, match="imaginary part"):
        integrate_rk4(rotating, [1.0], (0.0, 1.0), 0.1)     # a non-real constant
    assert routines[2:] == [False]
    tape = compile_system(rotating.components, rotating.names, None)
    ys_r, status, _ = complex_trace(tape, [1.0], 0.0, 0.1, 10)
    assert ys_r.dtype == np.complex128 and status == 0
    assert ys_r.tobytes() == reference_rk4(tape, [1.0], 0.0, 0.1, 10).tobytes()


def test_a_failing_float_trace_reruns_on_complex_with_the_same_failure(routines):
    with pytest.raises(IntegrationError, match="imaginary part"):
        integrate_rk4(AutonomousSystem(("x",), (parse("sqrt(x)"),)), [-1.0], (0.0, 1.0), 1e-2)
    assert routines == [True, False]
    root = compile_system((parse("sqrt(x)"),), ("x",), None)
    assert float_trace(root, [-1.0], 0.0, 0.01, 100)[1] == 1     # sqrt(-1) leaves the reals
    ys, status, _ = complex_trace(root, [-1.0], 0.0, 0.01, 100)
    assert ys.dtype == np.complex128 and status == 0
    # 1/x through 0: a stage lands on x = 0 from 0.5, and passes near it from 0.55
    pole = AutonomousSystem(("x", "y"), (parse("-1"), parse("1/x")))
    for x0, t_last in ((0.5, 0.4), (0.55, 0.5)):
        with pytest.raises(IntegrationError, match="blew up") as ex:
            integrate_rk4(pole, [x0, 0.0], (0.0, 1.0), 0.1)
        assert ex.value.t_last == t_last


def test_overflow_inside_a_step_stops_like_a_non_finite_state():
    # exp(y) overflows in the last stage of the step from t = 7.09 (y = 710)
    logistic = AutonomousSystem(("x", "y"), (parse("1/(1 + exp(y))"), parse("100")))
    with pytest.raises(IntegrationError) as ex:
        integrate_rk4(logistic, [0.0, 0.0], (0.0, 10.0), 1e-2)
    assert ex.value.t_last == 7.09


def test_lowering_and_generated_steps_leave_no_reference_cycles():
    u = parse("-0.5/cosh(0.5*x - 0.5*t)^2")
    uxxx = diff(diff(diff(u, "x"), "x"), "x")
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            _lower((uxxx,), ("x", "t"))
        assert gc.collect() == 0
        tape = _lower((uxxx, u), ("x", "y", "t"))
        float_trace(tape, [0.1, 0.2], 0.0, 0.1, 2)
        complex_trace(tape, [0.1j, 0.2], 0.0, 0.1, 2)
        assert _backend._trace_fn.cache_info().currsize >= 2
        assert _backend._build.cache_info().currsize >= 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def traced_bytes(tape, x0, real, every, guard=GUARD, nsteps=10):
    """The bytes one generated trace stores, and its (failed, reached)."""
    buf = array("d")
    result = _backend.rk4(tape.ops, tape.consts, tape.outs, [x0], guard,
                          [(0.0, 0.1, 0.1, nsteps)], 0, buf.extend, real, every=every)
    return buf.tobytes(), result


@pytest.mark.parametrize("every", [True, False], ids=["full", "endpoint"])
@pytest.mark.parametrize("real", [True, False], ids=["float", "complex"])
def test_systems_that_differ_only_in_constants_compile_once(real, every, compiles):
    tapes = [compile_system((parse(f"-{w}*y"), parse(f"{w}*x")), ("x", "y"), None)
             for w in ("0.9", "1.3")]
    x0 = [1.0, 0.5] if real else [1.0, 0.5j]
    shared = [traced_bytes(tape, x0, real, every) for tape in tapes]
    assert len(compiles) == 1
    assert shared[0] != shared[1] and all(r == (-1, 0) for _, r in shared)
    for tape, states in zip(tapes, shared):
        _backend._trace_fn.cache_clear()
        _backend._build.cache_clear()
        assert traced_bytes(tape, x0, real, every) == states     # built alone
    assert len(compiles) == 3 and len(set(compiles)) == 1


def test_only_whole_exponents_of_powers_enter_the_float_code(compiles):
    def codes(texts, real):
        before = len(compiles)
        for text in texts:
            traced_bytes(compile_system((parse(text),), ("x",), None), [0.5], real, True)
        return len(set(compiles[before:]))

    assert codes(["x^2", "x^3", "x^2.5"], True) == 3
    assert codes(["2*x", "2.5*x"], True) == 1
    assert codes(["x^2", "x^3", "x^2.5"], False) == 1     # complex powers are calls
    assert len(compiles) == 5


def test_systems_of_one_shape_keep_their_own_guard(compiles):
    ones, twos = (compile_system((Const(c),), ("x",), None) for c in (1.0, 2.0))
    # x grows by 0.1 or 0.2 a step: a guard of 0.25 fails the third step of
    # the first and the second step of the other
    assert traced_bytes(ones, [0.0], True, False, guard=0.25)[1] == (0, 2)
    assert traced_bytes(twos, [0.0], True, False, guard=10.0)[1] == (-1, 0)
    assert traced_bytes(ones, [0.0], True, False, guard=10.0)[1] == (-1, 0)
    assert traced_bytes(twos, [0.0], True, False, guard=0.25)[1] == (0, 1)
    assert traced_bytes(ones, [0.0], True, False, guard=0.25)[1] == (0, 2)
    assert len(compiles) == 1 and _backend._trace_fn.cache_info().currsize == 4


def test_negative_step_is_the_negated_system_bit_for_bit(rng):
    """RK4 by -h on F multiplies the same operands as RK4 by h on -F."""
    names = ("x", "y", "z")
    exprs = bounded_smooth_exprs(17, 9, names)
    for k in range(3):
        forward = AutonomousSystem(names, tuple(exprs[k::3]))
        negated = AutonomousSystem(names, tuple(neg(e) for e in exprs[k::3]))
        x0 = rng.uniform(-0.5, 0.5, size=3)
        ts, states = RK4Traces(forward)(x0, 0.0, -0.537, -0.01)
        ref_ts, ref_states = RK4Traces(negated)(x0, 0.0, 0.537, 0.01)
        assert len(ts) == 55 and ts[-1] == -0.537
        assert np.array_equal(ts, -ref_ts)
        assert states.tobytes() == ref_states.tobytes(), [str(e) for e in exprs[k::3]]


@pytest.mark.parametrize("start,inside", [
    (GUARD, True), (-GUARD, True), (complex(GUARD / 2, -GUARD / 2), True),
    (np.nextafter(GUARD, np.inf), False),
    (complex(np.nextafter(GUARD / 2, np.inf), -np.nextafter(GUARD / 2, np.inf)), False),
    (float("inf"), False), (float("nan"), False),
], ids=["at", "at-negative", "at-complex", "above", "above-complex", "inf", "nan"])
def test_the_generated_step_keeps_a_state_at_the_guard_and_fails_the_next_float(start, inside):
    still = compile_system((Const(0.0),), ("x",), None)      # every step returns its state
    traces = [complex_trace(still, [start], 0.0, 0.5, 2)]
    if not complex(start).imag:                               # a real start runs on floats too
        traces.append(float_trace(still, [start], 0.0, 0.5, 2))
    for ys, status, reached in traces:
        assert (status, reached) == ((0, 2) if inside else (1, 0))
        if inside:
            assert ys[-1, 0] == start


def test_a_state_past_the_guard_is_a_blow_up_at_its_last_good_time():
    drift = AutonomousSystem(("x",), (Const(-1.0),))     # x grows by 0.5 per step back
    _, states = RK4Traces(drift)([GUARD - 1.0], 0.0, -1.0, -0.5)
    assert states[-1, 0] == GUARD
    with pytest.raises(IntegrationError, match="blew up") as ex:
        RK4Traces(drift)([GUARD - 1.0], 0.0, -1.5, -0.5)
    assert ex.value.t_last == -1.0


PENDULUM = AutonomousSystem(("x", "y"), (parse("y"), parse("-sin(x)")))
# cosh above 708 is left to the complex trace, where it stays real
FLOAT_FAILURE = AutonomousSystem(("x", "y"), (parse("1e-300*cosh(y)"), parse("0")))


@pytest.mark.parametrize("system,x0,t0,t1,h", [
    (PENDULUM, [1.0, 0.2], 0.0, 2.0, 1e-2),                         # on floats
    (FLOAT_FAILURE, [0.0, 708.5], 0.0, 0.3, 0.1),                   # rerun on complex
    (PENDULUM, [0.5, 1e-300j], 0.0, 1.0, 0.1),                      # a non-real start
    (AutonomousSystem(("x", "y"), (parse("abs(i)*y"), parse("-x"))),  # a complex constant
     [1.0, 0.0], 0.0, 1.0, 0.1),
    (PENDULUM, [1.0, 0.2], 0.5, -0.537, -0.01),                     # backward
    (PENDULUM, [1.0, 0.2], 0.5, 0.5, 0.1),                          # zero-length span
    (PENDULUM, [1.0, 0.2], 0.0, 0.05, 0.1),                         # one step
    (PENDULUM, [1.0, 0.2], 0.0, 0.15, 0.1),                         # two steps
], ids=["float", "float-failure", "non-real-start", "complex-constant", "backward",
        "zero-span", "one-step", "two-steps"])
def test_an_endpoint_trace_is_the_last_state_of_the_full_trace_bit_for_bit(system, x0, t0,
                                                                          t1, h, routines):
    traces = RK4Traces(system)
    ts, states = traces(x0, t0, t1, h)
    end_ts, y = traces.endpoint(x0, t0, t1, h)
    assert end_ts.tobytes() == ts.tobytes()
    assert y.shape == (2,) and y.tobytes() == states[-1].tobytes()
    assert routines[len(routines) // 2:] == routines[:len(routines) // 2]   # same routes


@pytest.mark.parametrize("system,x0,t1", [
    (AutonomousSystem(("x",), (parse("x^2"),)), [1.0], 2.0),        # blows up on both
    (AutonomousSystem(("x",), (parse("sqrt(x)"),)), [-1.0], 1.0),   # turns complex
    (AutonomousSystem(("x", "y"), (parse("-1"), parse("1/x"))), [0.5, 0.0], 1.0),
], ids=["blow-up", "imaginary", "pole"])
def test_a_failing_endpoint_trace_raises_as_the_full_trace_does(system, x0, t1):
    traces = RK4Traces(system)
    with pytest.raises(IntegrationError) as full:
        traces(x0, 0.0, t1, 1e-2)
    with pytest.raises(IntegrationError) as endpoint:
        traces.endpoint(x0, 0.0, t1, 1e-2)
    assert str(endpoint.value) == str(full.value)
    assert endpoint.value.t_last == full.value.t_last


def test_the_endpoint_routine_stores_once_per_successful_float_trace():
    tape = compile_system(FLOAT_FAILURE.components, FLOAT_FAILURE.names, None)
    starts = [[0.0, 1.0], [0.0, -2.0], [0.0, 708.5], [0.0, 3.0]]
    legs = [(0.0, 0.1, 0.1, 3), (0.0, -0.1, -0.1, 3), (0.0, 0.1, 0.1, 0)]
    stored, full = [], array("d")
    failed, reached = _backend.rk4(tape.ops, tape.consts, tape.outs, starts, GUARD, legs, 0,
                                   stored.append, True, every=False)
    assert (failed, reached) == (6, 0)              # cosh(708.5) is left to complex
    assert _backend.rk4(tape.ops, tape.consts, tape.outs, starts, GUARD, legs, 0,
                        full.extend, True) == (6, 0)
    ends = np.frombuffer(full).reshape(-1, 2)[[3, 7, 8, 12, 16, 17]]   # each trace's last
    assert np.array_equal(np.array(stored), ends)
    assert _backend.rk4(tape.ops, tape.consts, tape.outs, starts, GUARD, legs, 7,
                        stored.append, True, every=False) == (7, 0)     # backward too
    assert len(stored) == 6
    assert _backend.rk4(tape.ops, tape.consts, tape.outs, starts, GUARD, legs, 8,
                        stored.append, True, every=False) == (-1, 0)
    assert len(stored) == 6 + 4
    assert stored[6] == (0.0, 708.5)                # a zero-step leg stores its start


# --------------------------------------------------------------------------
# SERIES_OPS and taylor: truncated Taylor series against closed forms
# --------------------------------------------------------------------------

M = 13                                   # coefficients, as at order 12
KS = np.arange(M)
FACT = np.array([math.factorial(k) for k in KS], dtype=float)


def series(*coeffs):
    """The series of coeffs[0] + coeffs[1] t + ..., cut after M coefficients."""
    out = np.zeros(M, dtype=np.complex128)
    out[:len(coeffs)] = coeffs
    return out


def binomial(c, k):
    out = 1.0
    for j in range(k):
        out *= (c - j) / (j + 1)
    return out


A, B, C, D = 0.7, -0.4, 1.3, 0.6
R = B / A
Z = 0.7 + 0.5j                           # a non-real starting value
# the odd Taylor coefficients of tan: 1, 1/3, 2/15, 17/315, 62/2835, 1382/155925
TAN = {1: 1.0, 3: 1 / 3, 5: 2 / 15, 7: 17 / 315, 9: 62 / 2835, 11: 1382 / 155925}


def _atan_line(a, b):
    """atan(a + b t) = (i/2) (ln(1 - i(a + b t)) - ln(1 + i(a + b t)))."""
    p, q = -1j * b / (1 - 1j * a), 1j * b / (1 + 1j * a)
    return np.array([math.atan(a)] + [0.5j * (-1) ** (k + 1) / k * (p ** k - q ** k)
                                       for k in range(1, M)])


SERIES_CASES = [
    ("neg", (series(A, B),), series(-A, -B)),
    ("+", (series(A, B), series(C, D)), series(A + C, B + D)),
    ("-", (series(A, B), series(C, D)), series(A - C, B - D)),
    ("*", (series(A, B), series(C, D)), series(A * C, A * D + B * C, B * D)),
    ("/", (series(C, D), series(A, B)),
     np.convolve([C, D], (-R) ** KS / A)[:M]),
    ("^", (series(A, B), series(3)), [binomial(3, k) * A ** (3 - k) * B ** k for k in KS]),
    ("^", (series(A, B), series(2.5)), A ** 2.5 * np.array([binomial(2.5, k) for k in KS]) * R ** KS),
    ("^", (series(A, B), series(-2)), A ** -2 * np.array([binomial(-2, k) for k in KS]) * R ** KS),
    ("^", (series(2), series(0, B)), (B * math.log(2)) ** KS / FACT),
    ("exp", (series(A, B),), math.exp(A) * B ** KS / FACT),
    ("exp", (series(Z, B),), np.exp(Z) * B ** KS / FACT),
    ("ln", (series(A, B),), [math.log(A)] + [(-1) ** (k + 1) * R ** k / k for k in KS[1:]]),
    ("ln", (series(Z, B),), [np.log(Z)] + [(-1) ** (k + 1) * (B / Z) ** k / k for k in KS[1:]]),
    ("sqrt", (series(A, B),), math.sqrt(A) * np.array([binomial(0.5, k) for k in KS]) * R ** KS),
    ("sin", (series(A, B),), np.sin(A + KS * math.pi / 2) * B ** KS / FACT),
    ("cos", (series(A, B),), np.cos(A + KS * math.pi / 2) * B ** KS / FACT),
    ("sinh", (series(A, B),), (math.exp(A) * B ** KS - math.exp(-A) * (-B) ** KS) / (2 * FACT)),
    ("cosh", (series(A, B),), (math.exp(A) * B ** KS + math.exp(-A) * (-B) ** KS) / (2 * FACT)),
    ("tan", (series(0, B),), [TAN.get(k, 0.0) * B ** k for k in KS]),
    ("tanh", (series(0, B),), [TAN.get(k, 0.0) * (-1) ** (k // 2) * B ** k for k in KS]),
    ("atan", (series(A, B),), _atan_line(A, B)),
    ("atan", (series(0, B),), [TAN.get(k, 0.0) and (-1) ** (k // 2) * B ** k / k for k in KS]),
]


@pytest.mark.parametrize("op, args, want", SERIES_CASES,
                         ids=[f"{c[0]}-{k}" for k, c in enumerate(SERIES_CASES)])
def test_each_series_op_matches_its_closed_form_expansion(op, args, want):
    got = _backend.SERIES_OPS[op](*args)
    assert got.shape == (M,)
    np.testing.assert_allclose(got, np.asarray(want, dtype=complex), rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("op", sorted(_backend.SCALAR_OPS))
def test_a_series_op_on_constant_series_is_the_scalar_op(op):
    """Bit for bit, and a domain failure or overflow there is a NaN series."""
    for values in ((0.7, 1.3), (0.7 - 0.2j, 1.3), (0.0, -1.0), (1000.0, 2.0)):
        values = [complex(v) for v in values[:1 + (op in "+-*/^")]]
        args = [series(v) for v in values]
        try:
            want = _backend.SCALAR_OPS[op](*values)
        except (OverflowError, ValueError, ZeroDivisionError):
            want = complex("nan+nanj")
        got = _backend.SERIES_OPS[op](*args)
        assert got[1:].tolist() == [0j] * (M - 1) or np.isnan(want)
        assert np.array_equal(got[:1], [want], equal_nan=True)


@pytest.mark.parametrize("fn", ["abs", "re", "im", "conj"])
def test_a_non_differentiable_op_of_a_moving_series_is_refused(fn):
    with pytest.raises(NonDifferentiableError, match=f"'{fn}' has no derivative rule"):
        _backend.SERIES_OPS[fn](series(A, B))


def test_taylor_reads_outputs_on_variable_and_constant_slots():
    # x' = y, y' = 2, z' = x: x = 1 + t^2, y = 2 t, z = t + t^3/3
    tape = compile_system((parse("y"), parse("2"), parse("x")), ("x", "y", "z"))
    assert tape.ops == ()
    got = _backend.taylor(tape.ops, tape.consts, tape.outs, (1.0, 0.0, 0.0), 5)
    assert got.tolist() == [[1, 0, 1, 0, 0, 0], [0, 2, 0, 0, 0, 0], [0, 1, 0, 1 / 3, 0, 0]]


def test_taylor_pass_zero_is_the_tree_walk():
    system = (parse(MESSY), parse("x^1.5 - ln(y)"))
    tape = compile_system(system, NAMES)
    x0 = (0.3, 0.8)
    got = _backend.taylor(tape.ops, tape.consts, tape.outs, x0, 1)
    assert got[:, 1].tolist() == [evaluate(e, dict(zip(NAMES, x0))) for e in system]
