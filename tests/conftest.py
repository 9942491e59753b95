import random
from pathlib import Path

import numpy as np
import pytest

import integrikit
from integrikit import _backend
from integrikit.expr import Const, Var, add, call, eval_many, mul, neg, pow_, sub


def child_env(**extra: str) -> dict:
    """Minimal environment for a child `python` that must import the same
    `integrikit` tree as this process: a fixed PATH, PYTHONPATH pointing at
    the directory this process imported the package from, and `extra`."""
    src = Path(integrikit.__file__).resolve().parents[1]
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src), **extra}


def grid_rows(region, per_axis) -> np.ndarray:
    """The region's sample grid as (npts, n) rows in grid order, the points
    within 1e-9 of an excluded point dropped: the full point array that
    the grid checks once built, kept here as a test oracle."""
    axes = region.axes(per_axis)
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    keep = np.ones(len(pts), dtype=bool)
    for p in region.excluded:
        keep &= np.linalg.norm(pts - np.asarray(p), axis=1) > 1e-9
    return pts[keep]


# Function pool for random smooth expressions: everywhere-differentiable,
# with arguments tamed so values and partials stay bounded.
_SMOOTH_FNS = ("sin", "cos", "atan", "tanh")


def random_smooth_expr(rng: random.Random, names, depth: int = 3):
    """Random expression over `names` that is smooth on [-2, 2]^n."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            return Var(rng.choice(list(names)))
        return Const(round(rng.uniform(-2, 2), 3))
    pick = rng.random()
    if pick < 0.25:
        return add(random_smooth_expr(rng, names, depth - 1),
                   random_smooth_expr(rng, names, depth - 1))
    if pick < 0.45:
        return sub(random_smooth_expr(rng, names, depth - 1),
                   random_smooth_expr(rng, names, depth - 1))
    if pick < 0.65:
        return mul(random_smooth_expr(rng, names, depth - 1),
                   random_smooth_expr(rng, names, depth - 1))
    if pick < 0.8:
        return pow_(random_smooth_expr(rng, names, depth - 1),
                    Const(float(rng.choice([2, 3]))))
    if pick < 0.95:
        return call(rng.choice(_SMOOTH_FNS),
                    random_smooth_expr(rng, names, depth - 1))
    return neg(random_smooth_expr(rng, names, depth - 1))


def bounded_smooth_exprs(seed: int, count: int, names, bound: float = 100.0):
    """`count` random smooth expressions whose values and first partials
    stay below `bound` on sample points in [-1.5, 1.5]^n (rejection)."""
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    probe = np_rng.uniform(-1.5, 1.5, size=(32, len(names)))
    out = []
    while len(out) < count:
        e = random_smooth_expr(rng, names)
        if not e.variables():
            continue
        from integrikit.expr import diff
        try:
            vals = [eval_many(e, names, probe)]
            for nm in names:
                vals.append(eval_many(diff(e, nm), names, probe))
        except Exception:
            continue
        if max(float(np.max(np.abs(v))) for v in vals) <= bound:
            out.append(e)
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def compiles(monkeypatch):
    """The source of each routine `_backend` compiles, in order, from empty caches."""
    made = []

    def recording_compile(source, *args, **kwargs):
        made.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(_backend, "compile", recording_compile, raising=False)
    _backend._trace_fn.cache_clear()
    _backend._build.cache_clear()
    return made
