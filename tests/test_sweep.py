"""Grid residual sweeps on the region's broadcast axes, one tape per check,
against the full point array they replaced."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from integrikit import _backend
from integrikit.expr import (Const, EvalDomainError, EvalError, Var, call, div, eval_many, parse,
                            pow_, sub)
from integrikit.realfield import TIE, Region, residual_sweep

from conftest import grid_rows, random_smooth_expr

NAMES = ("x", "y", "z", "t")


def oracle(exprs, region, grid):
    """The sweep as the grid checks once ran it: the full point array, one
    eval_many per residual in order, and the worst point searched on the
    whole array: the first point in grid order within TIE of the maximum
    (the first argmax when nothing else is that close)."""
    pts = grid_rows(region, grid)
    vals = [np.abs(eval_many(e, region.names, pts)) for e in exprs]
    if not len(pts):
        return 0.0, (), [0.0] * len(exprs), 0
    w = np.max(vals, axis=0)
    top = w.max()
    k = int(np.argmax(w >= top - TIE * top))
    return float(top), tuple(float(v) for v in pts[k]), [float(v.max()) for v in vals], len(pts)


def outcome(fn, *args):
    """What `fn` returns, or the type, message and subtree of its EvalError."""
    try:
        return fn(*args)
    except EvalError as ex:
        return type(ex), str(ex), getattr(ex, "subtree", None)


def same(got, want):
    """Equal outcomes; values compared bit for bit."""
    if isinstance(want[0], type):
        return got == want
    top, worst, per, samples = got
    return (np.float64(top).tobytes() == np.float64(want[0]).tobytes() and worst == want[1]
            and np.array(per).tobytes() == np.array(want[2]).tobytes() and samples == want[3])


# points per axis: some grids fit one block, some span several
_COUNTS = {
    1: st.sampled_from([2, 3, 41, _backend.BLOCK - 1, _backend.BLOCK + 1, 2 * _backend.BLOCK + 7]),
    2: st.integers(2, 130),
    3: st.integers(2, 28),
    4: st.integers(2, 12),
}


@st.composite
def sweeps(draw):
    d = draw(st.integers(1, 4))
    names = NAMES[:d]
    counts = [draw(_COUNTS[d]) for _ in range(d)]
    bounds = []
    for _ in range(d):
        lo = draw(st.floats(-2.0, 1.5))
        bounds.append((lo, lo + draw(st.floats(0.25, 2.0))))
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(bounds, counts)]
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    exprs = [random_smooth_expr(rng, names) for _ in range(draw(st.integers(1, 3)))]
    exprs.append(random_smooth_expr(rng, (rng.choice(names),)))        # one axis only
    exprs.append(Const(round(rng.uniform(-2, 2), 3)))                  # constant
    excluded = [tuple(rng.uniform(lo, hi) for lo, hi in bounds)        # off the grid
                for _ in range(draw(st.integers(0, 1)))]
    if draw(st.booleans()):
        # a pole at an excluded grid point
        at = tuple(float(a[rng.randrange(len(a))]) for a in axes)
        excluded.append(at)
        dist = None
        for name, c in zip(names, at):
            term = pow_(sub(Var(name), Const(c)), Const(2.0))
            dist = term if dist is None else dist + term
        pole = div(Const(round(rng.uniform(0.1, 2.0), 3)), dist)
        exprs.insert(rng.randrange(len(exprs) + 1), pole)
    for _ in range(draw(st.integers(0, 2))):
        # a domain failure on a whole hyperplane of the grid
        j = rng.randrange(d)
        gap = sub(Var(names[j]), Const(float(axes[j][rng.randrange(counts[j])])))
        bad = div(Const(1.0), gap) if rng.random() < 0.5 else call("ln", pow_(gap, Const(2.0)))
        exprs.insert(rng.randrange(len(exprs) + 1), bad)
    return exprs, Region(names, bounds, tuple(excluded)), counts


@settings(max_examples=120, deadline=None)
@given(case=sweeps())
def test_the_sweep_matches_the_full_point_array_bit_for_bit(case):
    exprs, region, counts = case
    got = outcome(residual_sweep, exprs, region, counts)
    want = outcome(oracle, exprs, region, counts)
    assert same(got, want), (got, want, [str(e) for e in exprs])


@pytest.mark.parametrize("grid", [2 * _backend.BLOCK + 1, 41], ids=["blocks", "one-block"])
def test_a_pole_at_the_excluded_origin_passes(grid):
    region = Region(("x",), ((-1.0, 1.0),), excluded=((0.0,),))
    # 0.3/x on complex128 is 0.3 * (1/x), not always 0.3/x to the last bit
    exprs = [parse("1/x"), parse("0.3/x"), parse("x^2")]
    assert region.axes(grid)[0][grid // 2] == 0.0
    got = residual_sweep(exprs, region, grid)
    assert same(got, oracle(exprs, region, grid))
    assert got[3] == grid - 1
    with pytest.raises(EvalError, match=r"division by zero at \(x=0\.0\)"):
        residual_sweep(exprs, Region(("x",), ((-1.0, 1.0),)), grid)


def test_a_domain_failure_names_the_first_residual_in_order():
    """The second residual fails in an earlier block than the third; the
    second is named, at its first failing point in grid order."""
    region = Region(("x", "y"), ((0.0, 2.0), (0.0, 2.0)))
    grid = 201                                  # 40 x-rows per block
    late, early = (float(v) for v in region.axes(grid)[0][[150, 3]])
    exprs = [parse("x*y"), parse(f"ln(x - {late!r})^2"), parse(f"1/(x - {early!r})")]
    got = outcome(residual_sweep, exprs, region, grid)
    assert got == outcome(oracle, exprs, region, grid)
    assert got[0] is EvalDomainError
    assert got[1] == f"ln of zero at (x={late!r}, y=0.0) while evaluating 'ln(x - {late!r})'"


def test_rounding_level_ties_name_the_first_point():
    """|1 + 3e-16 x| is 1 at x = 0 and one ulp above 1 at x = 0.5 and 1:
    argmax picks x = 0.5, the tie rule the first point."""
    e = parse("1 + 3e-16*x")
    region = Region(("x",), ((0.0, 1.0),))
    vals = np.abs(eval_many(e, ("x",), region.axes(3)[0]))
    assert vals[0] < vals.max() <= vals[0] * (1 + TIE) and np.argmax(vals) == 1
    top, worst, per, samples = residual_sweep([e], region, 3)
    assert top == per[0] == vals.max() and worst == (0.0,) and samples == 3


def test_a_sweep_holds_no_full_grid_array_per_residual():
    region = Region(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)))
    exprs = [parse(s) for s in ("sin(x*y) + x^2", "cos(x - y)*y", "atan(x*y)",
                                "exp(x)/(1 + y^2)")]
    residual_sweep(exprs, region, 41)           # compiled outside the measurement
    tracemalloc.start()
    try:
        residual_sweep(exprs, region, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_array = 401 ** 2 * np.dtype(np.complex128).itemsize
    assert peak < one_array < len(exprs) * one_array
