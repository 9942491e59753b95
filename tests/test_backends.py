"""The tape evaluator against the tree walk `evaluate`: values, domain
failures, blocking and the RK4 driver built on it."""

import numpy as np
import pytest

from integrikit import _backend
from integrikit.expr import (
    Const, EvalDomainError, compile_expr, compile_system, diff, eval_many,
    evaluate, node_count, parse,
)
from integrikit.odesys import AutonomousSystem, IntegrationError, integrate_rk4

from conftest import bounded_smooth_exprs

MESSY = "sin(x*y) + exp(x/2)/(1 + y^2) - tanh(x - y)^3 + atan(x)*cos(y)"
NAMES = ("x", "y")


def scalar_eval(e, names, point):
    """The scalar path: one run of the tape on complex scalars."""
    tape = compile_expr(e, names)
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


def test_kdv_residual_tape_is_smaller_than_its_tree(rng):
    u = parse("-2/cosh(x - 4*t)^2")          # the soliton
    ux = diff(u, "x")
    residual = diff(u, "t") - Const(6.0) * u * ux + diff(diff(ux, "x"), "x")
    tape = compile_expr(residual, ("x", "t"))
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


PENDULUM = AutonomousSystem(("x", "y"), (parse("y"), parse("-sin(x)")))
NONLINEAR = AutonomousSystem(("x", "y"), (parse("sin(y) + exp(-x^2)/(1 + y^2)"),
                                          parse("x/(2 + cos(x*y)) - y/10")))


@pytest.mark.parametrize("system", [PENDULUM, NONLINEAR], ids=["pendulum", "nonlinear"])
def test_batched_rk4_rows_match_their_single_runs(system, rng):
    starts = rng.uniform(-1.5, 1.5, size=(5, 2))
    batch = integrate_rk4(system, starts, (0.0, 2.0), 1e-2)
    assert batch.states.shape == (201, 5, 2) and batch.n == 2
    for k, start in enumerate(starts):
        single = integrate_rk4(system, start, (0.0, 2.0), 1e-2)
        assert np.array_equal(batch.ts, single.ts)
        scale = 1 + np.max(np.abs(single.states))
        assert np.max(np.abs(batch.states[:, k] - single.states)) <= 1e-13 * scale


def test_batched_rk4_fails_with_its_first_failing_row():
    blow_up = AutonomousSystem(("x",), (parse("x^2"),))
    integrate_rk4(blow_up, [[0.25], [0.4]], (0.0, 2.0), 1e-2)   # both rows survive
    with pytest.raises(IntegrationError) as ex:
        integrate_rk4(blow_up, [[0.25], [1.0], [0.4]], (0.0, 2.0), 1e-2)
    assert ex.value.t_last == 1.0          # where the row from 1.0 alone stops


def test_batched_rk4_checks_every_row_for_imaginary_parts():
    root = AutonomousSystem(("x",), (parse("sqrt(x)"),))
    integrate_rk4(root, [[1.0], [2.0]], (0.0, 1.0), 1e-2)
    with pytest.raises(IntegrationError, match="imaginary part"):
        integrate_rk4(root, [[1.0], [-1.0]], (0.0, 1.0), 1e-2)
