import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from integrikit.expr import (
    Binary, Call, Const, EvalDomainError, NonDifferentiableError, ParseError,
    UnboundVariableError, UnknownFunctionError, Var, add, as_real, call, diff,
    div, eval_many, evaluate, mul, neg, parse, pow_, render, sub,
)

from conftest import bounded_smooth_exprs


class TestParse:
    def test_sum_with_exponential_structure(self):
        e = parse("x + e^y")
        assert e == Binary("+", Var("x"), Binary("^", Const(math.e), Var("y")))

    def test_sum_times_one(self):
        e = parse("(x+y+z)*(1)")
        assert evaluate(e, {"x": 1, "y": 1, "z": 1}) == 3

    def test_omega_component(self):
        e = parse("-y/(x^2+y^2)")
        assert evaluate(e, {"x": 0.0, "y": 1.0}) == -1

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2") == neg(parse("x^2"))
        assert evaluate(parse("-3^2"), {}) == -9

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512

    def test_negative_exponent(self):
        assert evaluate(parse("x^-2"), {"x": 2.0}) == 0.25

    def test_scientific_literals(self):
        assert evaluate(parse("1e-3"), {}) == 1e-3
        assert evaluate(parse("2.5e2"), {}) == 250.0
        # a bare 'e' after digits stays Euler's constant
        assert evaluate(parse("2*e"), {}) == 2 * math.e

    def test_reserved_constants(self):
        assert evaluate(parse("pi"), {}) == complex(math.pi)
        assert evaluate(parse("i^2"), {}) == -1

    def test_function_call(self):
        assert parse("sin(x)") == Call("sin", Var("x"))

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError) as ex:
            parse("x + foo(y)")
        assert ex.value.offset == 4

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as ex:
            parse("x + ")
        assert ex.value.offset == 4
        with pytest.raises(ParseError):
            parse("(x+y")
        with pytest.raises(ParseError) as ex2:
            parse("x $ y")
        assert ex2.value.offset == 2

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x y")


class TestEval:
    def test_product(self):
        assert evaluate(parse("x*y"), {"x": 2, "y": 3}) == 6

    def test_potential_formula(self):
        val = evaluate(parse("x^2/2 + x*e^y - y^2"), {"x": 0, "y": 1})
        assert val == -1

    def test_pole_is_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/(z-2)"), {"z": 2})

    def test_ln_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("ln(x)"), {"x": 0})

    def test_overflow(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("exp(x)"), {"x": 1e4})

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("x+y"), {"x": 1})

    def test_no_default_for_missing_names(self):
        with pytest.raises(UnboundVariableError):
            parse("q").eval({})

    def test_complex_bindings(self):
        assert evaluate(parse("z^2"), {"z": 1j}) == -1

    def test_as_real_guard(self):
        assert as_real(3.0 + 0j) == 3.0
        with pytest.raises(Exception):
            as_real(1 + 0.5j)


class TestDiff:
    def test_exponential_partial(self):
        assert diff(parse("x + e^y"), "y") == parse("e^y")

    def test_constant(self):
        assert diff(parse("c"), "x") == Const(0.0)

    def test_mixed_partials_agree(self, rng):
        e = parse("x^2*y^3")
        d_xy = diff(diff(e, "x"), "y")
        d_yx = diff(diff(e, "y"), "x")
        pts = rng.uniform(-2, 2, size=(100, 2))
        a = eval_many(d_xy, ("x", "y"), pts)
        b = eval_many(d_yx, ("x", "y"), pts)
        assert np.max(np.abs(a - b)) == 0
        # independent finite-difference oracle for d/dy of dE/dx
        h = 1e-6
        dx = diff(e, "x")
        fd = (eval_many(dx, ("x", "y"), pts + [0, h])
              - eval_many(dx, ("x", "y"), pts - [0, h])) / (2 * h)
        assert np.max(np.abs(a - fd) / (1 + np.abs(a))) < 1e-5

    def test_power_rule_keeps_negative_bases_real(self):
        d = diff(parse("x^3"), "x")
        val = evaluate(d, {"x": -1.5})
        assert abs(val - 3 * 1.5 ** 2) < 1e-12

    def test_general_power(self):
        d = diff(parse("x^y"), "y")
        val = evaluate(d, {"x": 2.0, "y": 3.0})
        assert abs(val - 8 * math.log(2)) < 1e-12

    def test_non_differentiable_catalog(self):
        for fn in ("abs", "re", "im", "conj"):
            with pytest.raises(NonDifferentiableError):
                diff(parse(f"{fn}(x)"), "x")

    def test_non_differentiable_call_free_of_the_variable_is_constant(self):
        assert diff(parse("abs(2)*x"), "x") == Call("abs", Const(2.0))
        for fn in ("abs", "re", "im", "conj"):
            assert diff(parse(f"{fn}(y)"), "x") == Const(0.0)
            with pytest.raises(NonDifferentiableError, match=f"'{fn}'"):
                diff(parse(f"x*{fn}(y)"), "y")

    def test_diff_variables_subset(self):
        e = parse("sin(x*y) + exp(x)")
        assert diff(e, "x").variables() <= e.variables()

    def test_diff_vs_finite_difference_200_random(self, rng):
        # 200 random expressions, checked at 200 points each
        names = ("x", "y")
        h = 1e-6
        exprs = bounded_smooth_exprs(seed=7, count=200, names=names)
        pts = rng.uniform(-1.5, 1.5, size=(200, 2))
        for e in exprs:
            for axis, nm in enumerate(names):
                d = diff(e, nm)
                sym = eval_many(d, names, pts)
                shift = np.zeros(2)
                shift[axis] = h
                fd = (eval_many(e, names, pts + shift)
                      - eval_many(e, names, pts - shift)) / (2 * h)
                err = np.abs(sym - fd)
                assert np.max(err / (1 + np.abs(sym))) <= 1e-5

    def test_mixed_partial_symmetry_random(self, rng):
        names = ("x", "y")
        exprs = bounded_smooth_exprs(seed=11, count=40, names=names)
        pts = rng.uniform(-1.5, 1.5, size=(50, 2))
        for e in exprs:
            a = eval_many(diff(diff(e, "x"), "y"), names, pts)
            b = eval_many(diff(diff(e, "y"), "x"), names, pts)
            assert np.max(np.abs(a - b) / (1 + np.abs(a))) < 1e-9


# -- parse . render fixpoint -------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "t", "alpha_1"])
_consts = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(lambda v: Const(complex(v))),
    st.sampled_from([Const(complex(math.pi)), Const(1j), Const(2.5j), Const(1 + 2j),
                     Const(-3.0), Const(0.0), Const(1.0)]),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: add(*ab)),
        st.tuples(children, children).map(lambda ab: sub(*ab)),
        st.tuples(children, children).map(lambda ab: mul(*ab)),
        st.tuples(children, children).map(lambda ab: div(*ab)),
        st.tuples(children, st.sampled_from([Const(2.0), Const(3.0), Const(-1.0)])
                  ).map(lambda ab: pow_(*ab)),
        children.map(neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "atan", "sqrt", "ln",
                                   "abs", "conj"]), children).map(lambda fa: call(*fa)),
    )


_expr_strategy = st.recursive(
    st.one_of(_names.map(Var), _consts), _combine, max_leaves=25)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_expr_strategy)
    def test_parse_render_fixpoint(self, e):
        assert parse(render(e)) == e

    @pytest.mark.parametrize("text", [
        "-x^2", "x^-y", "2^3^2", "1 - -2.5", "(x+y)*z", "x - (y - z)",
        "x/(y*z)", "-(x+y)^2", "2.5*i", "(1+2*i)*x", "sin(x)^2/cos(x)^2",
        "x*y + x/y - x^2*y^3", "e^(x+y)", "atan(y/x)",
    ])
    def test_fixpoint_on_source_texts(self, text):
        tree = parse(text)
        assert parse(render(tree)) == tree

    def test_render_preserves_value(self, rng):
        exprs = bounded_smooth_exprs(seed=3, count=30, names=("x", "y"))
        pts = rng.uniform(-1.2, 1.2, size=(20, 2))
        for e in exprs:
            back = parse(render(e))
            assert np.allclose(eval_many(e, ("x", "y"), pts),
                               eval_many(back, ("x", "y"), pts), rtol=0, atol=0)


class TestImmutability:
    def test_nodes_frozen(self):
        e = parse("x+1")
        with pytest.raises(Exception):
            e.left = Var("y")

    def test_structural_equality_and_hash(self):
        assert parse("x*y + 1") == parse("x*y + 1")
        assert hash(parse("sin(x)")) == hash(parse("sin(x)"))
        assert parse("x+y") != parse("y+x")

    def test_hash_is_computed_once_per_node(self):
        calls = []

        class CountingVar(Var):
            def __hash__(self):
                calls.append(self.name)
                return super().__hash__()

        e = Binary("*", Call("sin", CountingVar("x")), Const(2.0))
        first = hash(e)
        assert calls == ["x"]
        assert hash(e) == first and calls == ["x"]
        assert first == hash(Binary("*", Call("sin", Var("x")), Const(2.0)))

    def test_copies_rebuild_from_fields(self):
        e = parse("sin(x*y) + 1/x - 2*i")
        h = hash(e)
        for f in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert f is not e and getattr(f, "_hash", None) is None
            assert f == e and hash(f) == h
