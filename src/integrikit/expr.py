"""Expression trees over complex-valued variables.

This module is the substrate for the whole toolkit: immutable expression
trees with a text grammar, pointwise evaluation in complex double
precision, exact symbolic differentiation, and compilation to
value-numbered instruction tapes, which :mod:`integrikit._backend` runs
on blocks of points and turns into straight-line RK4 steps.
Shared subtrees are computed once per tape; the tree walk
:func:`evaluate` stays the reference and the source of error messages.

Grammar (infix, tightest first)::

    power   :=  atom ('^' factor)?          # right-associative
    factor  :=  '-' factor | power          # unary minus binds below '^'
    term    :=  factor (('*' | '/') factor)*
    expr    :=  term (('+' | '-') term)*
    atom    :=  NUMBER | 'pi' | 'e' | 'i' | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are ``[a-zA-Z_][a-zA-Z0-9_]*``; ``pi``, ``e`` and ``i`` are
reserved constants.  Function names come from a fixed catalog; anything
else with a ``(`` is an error.  Numbers are decimal literals with an
optional exponent part (``1e-3``); the exponent is only consumed when it
is followed by digits, so ``2*e`` still means twice Euler's constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from . import _backend

Number = Union[int, float, complex]
Bindings = Mapping[str, Number]

#: Function catalog.  All functions take a single argument.
FUNCTIONS = (
    "sin", "cos", "tan", "atan", "exp", "ln", "sqrt",
    "sinh", "cosh", "tanh", "abs", "re", "im", "conj",
)

#: Catalog functions with no derivative rule in a variable they depend on.
NON_DIFFERENTIABLE = frozenset({"abs", "re", "im", "conj"})

CONSTANTS: Mapping[str, complex] = {
    "pi": complex(math.pi),
    "e": complex(math.e),
    "i": 1j,
}


class NumericError(Exception):
    """Marks an error that means the numbers went wrong, not that the
    request was malformed: the CLI exits 3 on it."""


class ExprError(Exception):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    pass


class EvalError(ExprError, NumericError):
    """Base class for evaluation failures."""


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class EvalDomainError(EvalError):
    """Domain error (division by zero, ln 0, overflow) at a subtree."""

    def __init__(self, subtree: "Expr", reason: str):
        super().__init__(f"{reason} while evaluating '{subtree}'")
        self.subtree = subtree
        self.reason = reason


class NonDifferentiableError(ExprError):
    pass


# --------------------------------------------------------------------------
# Tree nodes
# --------------------------------------------------------------------------

class Expr:
    """Immutable expression node.  Subclasses: Const, Var, Unary, Binary, Call.

    Arithmetic operators build new (constant-folded) trees, so residual
    expressions can be assembled directly in Python::

        residual = diff(p, "y") - diff(q, "x")
    """

    __slots__ = ()

    # -- construction sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, as_expr(other))

    def __rpow__(self, other):
        return pow_(as_expr(other), self)

    def __neg__(self):
        return neg(self)

    # -- API ----------------------------------------------------------------
    def eval(self, bindings: Bindings) -> complex:
        return evaluate(self, bindings)

    def diff(self, var: str) -> "Expr":
        return diff(self, var)

    def subs(self, mapping: Mapping[str, Union["Expr", Number]]) -> "Expr":
        return substitute(self, mapping)

    def variables(self) -> frozenset:
        return variables(self)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Expr({render(self)!r})"

    def __reduce__(self):
        # rebuilt from its fields: a cached hash stays in the process that made it
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _cached_hash(node: Expr, *key) -> int:
    """Hash of an inner node, computed once from its children's hashes."""
    if getattr(node, "_hash", None) is None:
        object.__setattr__(node, "_hash", hash(key))
    return node._hash


@dataclass(frozen=True, eq=True, repr=False)
class Const(Expr):
    __slots__ = ("value",)
    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError("constant payload must be finite")
        # normalize signed zeros so constant folding cannot depend on the
        # branch-cut side a payload happened to be built on
        object.__setattr__(self, "value", complex(v.real + 0.0, v.imag + 0.0))

    def __hash__(self):
        return hash(("const", self.value))


@dataclass(frozen=True, eq=True, repr=False)
class Var(Expr):
    __slots__ = ("name",)
    name: str

    def __hash__(self):
        return hash(("var", self.name))


@dataclass(frozen=True, eq=True, repr=False)
class Unary(Expr):
    __slots__ = ("op", "child", "_hash")
    op: str  # only '-'
    child: Expr

    def __hash__(self):
        return _cached_hash(self, "unary", self.op, self.child)


@dataclass(frozen=True, eq=True, repr=False)
class Binary(Expr):
    __slots__ = ("op", "left", "right", "_hash")
    op: str  # + - * / ^
    left: Expr
    right: Expr

    def __hash__(self):
        return _cached_hash(self, "binary", self.op, self.left, self.right)


@dataclass(frozen=True, eq=True, repr=False)
class Call(Expr):
    __slots__ = ("fn", "arg", "_hash")
    fn: str
    arg: Expr

    def __post_init__(self):
        if self.fn not in FUNCTIONS:
            raise ExprError(f"unknown function '{self.fn}'")

    def __hash__(self):
        return _cached_hash(self, "call", self.fn, self.arg)


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(obj: Union[Expr, Number, str]) -> Expr:
    """Coerce a number, string (parsed) or Expr to an Expr."""
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, str):
        return parse(obj)
    if isinstance(obj, (int, float, complex)):
        return Const(complex(obj))
    raise TypeError(f"cannot interpret {obj!r} as an expression")


# --------------------------------------------------------------------------
# Smart constructors: constant folding and 0/1 identities only
# --------------------------------------------------------------------------

def _is_const(e: Expr, value=None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def _fold(op, a: Const, b: Const):
    """Fold a binary op on constants; None when the result is not a clean
    finite value (the unevaluated node is kept and eval reports the error)."""
    try:
        return Const(op(a.value, b.value))
    except (OverflowError, ValueError, ZeroDivisionError):
        return None


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(lambda x, y: x + y, a, b)
        if folded is not None:
            return folded
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(lambda x, y: x - y, a, b)
        if folded is not None:
            return folded
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(lambda x, y: x * y, a, b)
        if folded is not None:
            return folded
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        folded = _fold(lambda x, y: x / y, a, b)
        if folded is not None:
            return folded
    if _is_const(a, 0) and not _is_const(b, 0):
        return ZERO
    if _is_const(b, 1):
        return a
    return Binary("/", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        base, ex = a.value, b.value
        if not (base == 0 and (ex.real < 0 or ex.imag != 0)):
            folded = _fold(lambda x, y: x ** y, a, b)
            if folded is not None:
                return folded
    if _is_const(b, 1):
        return a
    if _is_const(b, 0):
        return ONE
    return Binary("^", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary):
        return a.child
    return Unary("-", a)


def call(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ExprError(f"unknown function '{fn}'")
    return Call(fn, arg)


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


def _tokenize(source: str):
    """Yield (kind, text, offset) with kind in NUM, IDENT, OP, END."""
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and source[i + 1] in _DIGITS):
            start = i
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i] in _DIGITS:
                    i += 1
            # exponent part only when e/E is followed by [sign] digits
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j] in _DIGITS:
                    i = j
                    while i < n and source[i] in _DIGITS:
                        i += 1
            yield ("NUM", source[start:i], start)
            continue
        if c in _IDENT_START:
            start = i
            while i < n and source[i] in _IDENT_CONT:
                i += 1
            yield ("IDENT", source[start:i], start)
            continue
        if c in "+-*/^(),":
            yield ("OP", c, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    yield ("END", "", n)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = list(_tokenize(source))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "OP" or text != op:
            raise ParseError(f"expected '{op}'", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expression()
        kind, text, off = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return e

    def expression(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "OP" and text in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "OP" and text in "*/":
                self.advance()
                rhs = self.factor()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "OP" and text == "-":
            self.advance()
            return neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "OP" and text == "^":
            self.advance()
            return pow_(base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "NUM":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError("numeric literal out of double range", off)
            return Const(value)
        if kind == "IDENT":
            nk, nt, _ = self.peek()
            if nk == "OP" and nt == "(":
                if text not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function '{text}'", off)
                self.advance()
                arg = self.expression()
                self.expect_op(")")
                return Call(text, arg)
            if text in CONSTANTS:
                return Const(CONSTANTS[text])
            return Var(text)
        if kind == "OP" and text == "(":
            e = self.expression()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse(source: str) -> Expr:
    """Parse expression text into an Expr tree (constant folding applied)."""
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# Rendering (inverse of parse up to structural identity)
# --------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_FACTOR, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return repr(int(x))
    return repr(x)


def _render_const(v: complex) -> str:
    if v.imag == 0:
        r = _fmt_real(v.real)
        return r
    if v.real == 0:
        if v.imag == 1:
            return "i"
        if v.imag == -1:
            return "-i"
        return f"{_fmt_real(v.imag)}*i"
    im = v.imag
    op = "+" if im >= 0 else "-"
    im_txt = "i" if abs(im) == 1 else f"{_fmt_real(abs(im))}*i"
    return f"({_fmt_real(v.real)}{op}{im_txt})"


def _level(e: Expr) -> int:
    if isinstance(e, Const):
        # the text form dictates how a constant re-parses: "(1+2*i)" is an
        # atom, "2.5*i" a product, "-3" a unary-minus factor
        txt = _render_const(e.value)
        if txt.startswith("("):
            return _LEVEL_ATOM
        if "*" in txt:
            return _LEVEL_MUL
        return _LEVEL_FACTOR if txt.startswith("-") else _LEVEL_ATOM
    if isinstance(e, (Var, Call)):
        return _LEVEL_ATOM
    if isinstance(e, Unary):
        return _LEVEL_FACTOR
    return {"+": _LEVEL_ADD, "-": _LEVEL_ADD, "*": _LEVEL_MUL, "/": _LEVEL_MUL, "^": _LEVEL_POW}[e.op]


def _wrap(e: Expr, min_level: int) -> str:
    txt = render(e)
    if _level(e) < min_level:
        return f"({txt})"
    return txt


def render(e: Expr) -> str:
    """Expression text such that parse(render(e)) is structurally equal to e."""
    if isinstance(e, Const):
        return _render_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        return "-" + _wrap(e.child, _LEVEL_FACTOR)
    if isinstance(e, Call):
        return f"{e.fn}({render(e.arg)})"
    if e.op in "+-":
        left = _wrap(e.left, _LEVEL_ADD)
        right = _wrap(e.right, _LEVEL_MUL)  # keep left-association on reparse
        return f"{left} {e.op} {right}"
    if e.op in "*/":
        left = _wrap(e.left, _LEVEL_MUL)
        right = _wrap(e.right, _LEVEL_FACTOR)
        return f"{left}{e.op}{right}"
    # '^': base must be an atom; exponent may be a factor (unary minus ok)
    base = _wrap(e.left, _LEVEL_ATOM)
    exponent = _wrap(e.right, _LEVEL_FACTOR)
    return f"{base}^{exponent}"


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def evaluate(e: Expr, bindings: Bindings) -> complex:
    """Evaluate bottom-up in complex double precision.

    Raises UnboundVariableError for missing names and EvalDomainError for
    division by zero, ln(0), overflow, or any non-finite intermediate.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            v = complex(bindings[e.name])
        except KeyError:
            raise UnboundVariableError(e.name) from None
        if not _finite(v):
            raise EvalDomainError(e, "non-finite binding")
        return v
    if isinstance(e, Unary):
        return -evaluate(e.child, bindings)
    if isinstance(e, Binary):
        a = evaluate(e.left, bindings)
        b = evaluate(e.right, bindings)
        if e.op == "/" and b == 0:
            raise EvalDomainError(e, "division by zero")
        if e.op == "^" and a == 0 and (b.real < 0 or b.imag != 0):
            raise EvalDomainError(e, "zero raised to a negative/complex power")
        try:
            v = _backend.SCALAR_OPS[e.op](a, b)
        except (OverflowError, ValueError, ZeroDivisionError):
            raise EvalDomainError(e, "arithmetic domain error") from None
        if not _finite(v):
            raise EvalDomainError(e, "non-finite value")
        return v
    # Call
    arg = evaluate(e.arg, bindings)
    if e.fn == "ln" and arg == 0:
        raise EvalDomainError(e, "ln of zero")
    try:
        v = _backend.SCALAR_OPS[e.fn](arg)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise EvalDomainError(e, "function domain error") from None
    if not _finite(v):
        raise EvalDomainError(e, "non-finite value")
    return v


def as_real(z: complex, tol: float = 1e-12, context: str = "value") -> float:
    """Collapse a complex result to a real, requiring a tiny imaginary part."""
    if abs(z.imag) > tol * (1.0 + abs(z.real)):
        raise EvalError(f"{context} has non-negligible imaginary part {z.imag!r}")
    return z.real


def real_parts(values, tol: float = 1e-12, context: str = "value") -> np.ndarray:
    """:func:`as_real` on every value of an array at once: the real parts,
    as a new float64 array, or as_real's error for the first value that
    fails its test."""
    values = np.ravel(values)
    bad = np.abs(values.imag) > tol * (1.0 + np.abs(values.real))
    if bad.any():
        as_real(complex(values[np.argmax(bad)]), tol, context)
    return values.real.copy()


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def diff(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with constant folding only.

    ``abs``, ``re``, ``im`` and ``conj`` have no derivative rule in a
    variable their argument depends on (NonDifferentiableError); in any
    other variable their derivative is 0."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Unary):
        return neg(diff(e.child, var))
    if isinstance(e, Binary):
        u, v = e.left, e.right
        du, dv = diff(u, var), diff(v, var)
        op = e.op
        if op == "+":
            return add(du, dv)
        if op == "-":
            return sub(du, dv)
        if op == "*":
            return add(mul(du, v), mul(u, dv))
        if op == "/":
            return div(sub(mul(du, v), mul(u, dv)), pow_(v, Const(2.0)))
        # power
        if isinstance(v, Const):
            # d(u^c) = c*u^(c-1)*u' (avoids ln u, so polynomials stay exact)
            c = v.value
            return mul(mul(v, pow_(u, Const(c - 1))), du)
        if isinstance(u, Const):
            # d(c^v) = c^v * ln(c) * v'  (0^v is identically 0 where defined)
            if u.value == 0:
                return ZERO
            return mul(mul(e, Const(cmath.log(u.value))), dv)
        # general u^v = exp(v ln u)
        return mul(e, add(mul(dv, call("ln", u)), mul(v, div(du, u))))
    # Call
    fn, u = e.fn, e.arg
    if fn in NON_DIFFERENTIABLE:
        if var not in variables(u):
            return ZERO
        raise NonDifferentiableError(f"'{fn}' has no derivative rule")
    du = diff(u, var)
    if fn == "sin":
        outer = call("cos", u)
    elif fn == "cos":
        outer = neg(call("sin", u))
    elif fn == "tan":
        outer = div(ONE, pow_(call("cos", u), Const(2.0)))
    elif fn == "atan":
        outer = div(ONE, add(ONE, pow_(u, Const(2.0))))
    elif fn == "exp":
        outer = e
    elif fn == "ln":
        outer = div(ONE, u)
    elif fn == "sqrt":
        outer = div(ONE, mul(Const(2.0), e))
    elif fn == "sinh":
        outer = call("cosh", u)
    elif fn == "cosh":
        outer = call("sinh", u)
    else:  # tanh
        outer = div(ONE, pow_(call("cosh", u), Const(2.0)))
    return mul(outer, du)


# --------------------------------------------------------------------------
# Structure utilities
# --------------------------------------------------------------------------

def variables(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Unary):
        return variables(e.child)
    if isinstance(e, Binary):
        return variables(e.left) | variables(e.right)
    return variables(e.arg)


def node_count(e: Expr) -> int:
    if isinstance(e, (Const, Var)):
        return 1
    if isinstance(e, Unary):
        return 1 + node_count(e.child)
    if isinstance(e, Binary):
        return 1 + node_count(e.left) + node_count(e.right)
    return 1 + node_count(e.arg)


def substitute(e: Expr, mapping: Mapping[str, Union[Expr, Number]]) -> Expr:
    """Simultaneous substitution of variables; rebuilds with folding."""
    table = {k: as_expr(v) for k, v in mapping.items()}

    def go(node: Expr) -> Expr:
        if isinstance(node, Var):
            return table.get(node.name, node)
        if isinstance(node, Const):
            return node
        if isinstance(node, Unary):
            return neg(go(node.child))
        if isinstance(node, Binary):
            a, b = go(node.left), go(node.right)
            return {"+": add, "-": sub, "*": mul, "/": div, "^": pow_}[node.op](a, b)
        return call(node.fn, go(node.arg))

    return go(e)


# --------------------------------------------------------------------------
# Compilation to value-numbered tapes + batch evaluation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Tape:
    """Straight-line program over a fixed list of variables.

    Slots are the variables, then `consts`, then one result per op in
    order.  Each op is ``(op, a, b, dead)``: the op name (``neg``, a
    binary operator or a catalog function), its argument slots (``b`` is
    -1 for one-argument ops) and the result slots no later op reads.
    `outs` holds the slot of each compiled expression.  The tape is data;
    :mod:`integrikit._backend` runs it.
    """
    ops: tuple
    consts: tuple          # complex128 scalars
    outs: tuple


def _number(e, memo) -> int:
    """Provisional slot of `e` (see `_lower`).  `memo` holds the lowering's
    state; it is passed, not closed over, so that no reference cycle forms."""
    nvars, var_slot, consts, const_slot, rows, row_slot, by_id = memo
    s = by_id.get(id(e))
    if s is not None:
        return s
    if isinstance(e, Binary):
        key = (e.op, _number(e.left, memo), _number(e.right, memo))
    elif isinstance(e, Call):
        key = (e.fn, _number(e.arg, memo), None)
    elif isinstance(e, Unary):
        key = ("neg", _number(e.child, memo), None)
    elif isinstance(e, Const):
        key = None
        s = const_slot.get(e.value)
        if s is None:
            s = const_slot[e.value] = -1 - len(consts)
            consts.append(np.complex128(e.value))
    else:
        key = None
        s = var_slot.get(e.name)
        if s is None:
            raise UnboundVariableError(e.name)
    if key is not None:
        s = row_slot.get(key)
        if s is None:
            s = row_slot[key] = nvars + len(rows)
            rows.append(key)
    by_id[id(e)] = s
    return s


def _lower(exprs, names: tuple) -> Tape:
    """Value-number the DAG of `exprs` into a Tape.

    Nodes are memoised by identity, and each op by (op, argument slots),
    so equal subtrees share one slot without hashing whole subtrees.
    Provisional slots: variables as final, constant k as -1 - k and
    result i as nvars + i; renumbered once the constant count is known.
    """
    nvars = len(names)
    consts: list = []
    rows: list = []
    memo = (nvars, {n: j for j, n in enumerate(names)}, consts, {}, rows, {}, {})
    provisional = [_number(e, memo) for e in exprs]
    shift = len(consts)

    def final(s):
        if s is None:
            return -1
        if s < 0:
            return nvars - 1 - s
        return s + shift if s >= nvars else s

    rows = [(op, final(a), final(b)) for op, a, b in rows]
    outs = tuple(final(s) for s in provisional)
    last_read = {}
    for i, (_, a, b) in enumerate(rows):
        last_read[a] = last_read[b] = i
    dead = [[] for _ in rows]
    for s, i in last_read.items():
        if s >= nvars + shift and s not in outs:
            dead[i].append(s)
    ops = tuple((op, a, b, tuple(d)) for (op, a, b), d in zip(rows, dead))
    return Tape(ops, tuple(consts), outs)


def compile_exprs(exprs, names) -> Tape:
    """Compile expressions to one Tape over variables `names`, one output
    each, sharing their common subterms.  Not cached: a caller compiles
    what it evaluates once, and a cache would only keep the trees alive."""
    return _lower(tuple(exprs), tuple(names))


def eval_columns(exprs, names, columns, shape) -> list:
    """Each of `exprs` at every point of `shape`, as new complex128 arrays
    of that shape, from one tape run by `_backend.eval_grid`.  Variable j
    of `names` takes ``columns[j]``, an array of ``len(shape)`` dimensions
    that broadcasts to `shape`: the columns of a point matrix for a point
    set, or axes shaped by ``np.ix_`` for a grid.

    Real columns (a real dtype, or complex ones whose imaginary parts are
    all +0.0) stay float64, so the backend can run them on floats.  The
    first of `exprs` that is not finite somewhere raises the tree walk's
    error (`fail_at`) at its first such point in C order.
    """
    names = tuple(names)
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(names):
        raise ValueError(f"{len(cols)} columns given, expected {len(names)}")
    if all(c.dtype.kind in "biuf" for c in cols):
        cols = [c.astype(np.float64, copy=False) for c in cols]
    else:
        cols = [c.astype(np.complex128, copy=False) for c in cols]
        # -0.0 picks the other side of a branch cut
        if not any(c.imag.view(np.uint64).any() for c in cols):
            cols = [c.real for c in cols]
    tape = compile_exprs(exprs, names)
    out = [np.empty(shape, dtype=np.complex128) for _ in tape.outs]
    for lo, hi, values in _backend.eval_grid(tape.ops, tape.consts, cols, shape, tape.outs):
        for o, v in zip(out, values):
            o[lo:hi] = v
    for e, o in zip(exprs, out):
        bad = ~np.isfinite(o)
        if bad.any():
            at = np.unravel_index(np.argmax(bad), shape)
            fail_at(e, {n: np.broadcast_to(c, shape)[at] for n, c in zip(names, cols)})
    return out


def eval_many(e: Expr, names, points) -> np.ndarray:
    """Evaluate an expression at many points (rows of `points`, or one
    value per point for a single variable): :func:`eval_columns` on the
    columns of `points`."""
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    return eval_columns((e,), names, pts.T, (len(pts),))[0]


def fail_at(e: Expr, bindings: Bindings):
    """Raise the error for `e` at `bindings`, a point where a batch value is
    not finite: the tree walk's domain error there, with the point."""
    where = ", ".join(f"{n}={_fmt_point(v)}" for n, v in bindings.items())
    try:
        evaluate(e, bindings)
    except EvalDomainError as ex:
        raise EvalDomainError(ex.subtree, f"{ex.reason} at ({where})") from None
    raise EvalError(f"non-finite batch value at ({where})")


def _fmt_point(v) -> str:
    v = complex(v)
    return repr(v.real) if v.imag == 0 else repr(v)


@lru_cache(maxsize=256)
def compile_system(exprs: tuple, names: tuple, time_name: str = None) -> Tape:
    """Compile component expressions into one Tape over `names` plus a
    trailing time slot, with one output slot per component.

    `time_name`, when given, is the variable name bound to the time slot;
    autonomous systems leave it None and may not reference time at all.
    """
    return _lower(exprs, tuple(names) + (time_name if time_name else "__time__",))
