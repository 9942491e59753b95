"""Closed-form building blocks for the known-answer generators.

Each object here produces expression text in integrikit's input language
together with the exact values behind that text, computed with `math`,
`cmath` and numpy.  Expected answers are derived from these closed forms
(a potential and its gradient, the real and imaginary parts of an
analytic function, the expansion of a rational function), never from
integrikit itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


def num(x: float) -> str:
    """A float literal that round-trips exactly; negatives are parenthesised."""
    x = float(x)
    text = repr(x)
    return f"({text})" if x < 0 else text


def cnum(z: complex) -> str:
    z = complex(z)
    return f"({num(z.real)}+{num(z.imag)}*i)"


def signed(rng, lo: float, hi: float) -> float:
    """Magnitude uniform in [lo, hi] with a random sign."""
    return rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))


def join(terms) -> str:
    terms = [t for t in terms if t]
    return " + ".join(terms) if terms else "0"


def ladder(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) log-uniformly onto the integers lo..hi."""
    return int(round(lo * (hi / lo) ** u))


def stratified(u0: float, j: int, step: float = GOLDEN) -> float:
    """The j-th point of the sequence u0 + j * step (mod 1), step irrational.

    Sizes and kinds drawn this way cover their range evenly within every
    run, so the mix of small and large requests barely depends on the seed.
    """
    return (u0 + j * step) % 1.0


def pick(v: float, options):
    """The option a stratified v in [0, 1) selects."""
    return options[int(v * len(options))]


def _power(var: str, p: int) -> str:
    if p == 0:
        return ""
    return var if p == 1 else f"{var}^{p}"


def _product(*factors) -> str:
    return "*".join(f for f in factors if f)


# --------------------------------------------------------------------------
# Smooth real potentials phi(x1..xn) with their exact gradients
# --------------------------------------------------------------------------

# outer function: (name, derivative text template, value, derivative value)
_RIDGE = {
    "sin": ("cos({L})", math.sin, math.cos),
    "cos": ("(-1)*sin({L})", math.cos, lambda s: -math.sin(s)),
    "exp": ("exp({L})", math.exp, math.exp),
    "atan": ("1/(1+({L})^2)", math.atan, lambda s: 1.0 / (1.0 + s * s)),
    "cosh": ("sinh({L})", math.cosh, math.sinh),
}


@dataclass(frozen=True)
class Ridge:
    """a * g(c . x + d)."""
    a: float
    g: str
    c: tuple
    d: float

    def _arg(self, names) -> str:
        parts = [f"{num(ci)}*{v}" for ci, v in zip(self.c, names)]
        return " + ".join(parts + [num(self.d)])

    def grad_text(self, names, i: int) -> str:
        outer = _RIDGE[self.g][0].format(L=self._arg(names))
        return f"{num(self.a * self.c[i])}*{outer}"

    def value(self, pt) -> float:
        s = sum(ci * xi for ci, xi in zip(self.c, pt)) + self.d
        return self.a * _RIDGE[self.g][1](s)


@dataclass(frozen=True)
class Monomial:
    """a * x_i^p * x_j^q with i != j."""
    a: float
    i: int
    j: int
    p: int
    q: int

    def grad_text(self, names, k: int) -> str:
        if k == self.i:
            return _product(num(self.a * self.p), _power(names[self.i], self.p - 1),
                            _power(names[self.j], self.q))
        if k == self.j:
            return _product(num(self.a * self.q), _power(names[self.i], self.p),
                            _power(names[self.j], self.q - 1))
        return ""

    def value(self, pt) -> float:
        return self.a * pt[self.i] ** self.p * pt[self.j] ** self.q


@dataclass(frozen=True)
class ExpProduct:
    """a * exp(b * x_i * x_j)."""
    a: float
    b: float
    i: int
    j: int

    def _exp(self, names) -> str:
        return f"exp({num(self.b)}*{names[self.i]}*{names[self.j]})"

    def grad_text(self, names, k: int) -> str:
        if k not in (self.i, self.j):
            return ""
        other = names[self.j] if k == self.i else names[self.i]
        return f"{num(self.a * self.b)}*{other}*{self._exp(names)}"

    def value(self, pt) -> float:
        return self.a * math.exp(self.b * pt[self.i] * pt[self.j])


@dataclass(frozen=True)
class LogBowl:
    """a * ln(d + sum x_k^2) with d >= 1."""
    a: float
    d: float

    def _inner(self, names) -> str:
        return " + ".join([num(self.d)] + [f"{v}^2" for v in names])

    def grad_text(self, names, k: int) -> str:
        return f"{num(2.0 * self.a)}*{names[k]}/({self._inner(names)})"

    def value(self, pt) -> float:
        return self.a * math.log(self.d + sum(x * x for x in pt))


@dataclass(frozen=True)
class Potential:
    """phi = sum of terms over the variables `names` (moderate for |x| <= 2.5).

    The program sees only the gradient text; phi's values give the
    expected line integrals and potential differences."""
    names: tuple
    terms: tuple

    @classmethod
    def random(cls, rng, names, n_terms: int) -> "Potential":
        n = len(names)
        scale = 1.2 / n
        terms = []
        for _ in range(n_terms):
            kind = rng.choice(("ridge", "ridge", "mono", "expprod", "log"))
            if kind == "ridge":
                terms.append(Ridge(signed(rng, 0.3, 1.5), rng.choice(sorted(_RIDGE)),
                                   tuple(signed(rng, 0.1, scale) for _ in names),
                                   rng.uniform(-0.5, 0.5)))
            elif kind == "mono":
                i, j = rng.sample(range(n), 2)
                terms.append(Monomial(signed(rng, 0.05, 0.4), i, j,
                                      rng.randint(1, 3), rng.randint(1, 3)))
            elif kind == "expprod":
                i, j = rng.sample(range(n), 2)
                terms.append(ExpProduct(signed(rng, 0.2, 1.0), signed(rng, 0.05, 0.3), i, j))
            else:
                terms.append(LogBowl(signed(rng, 0.2, 1.0), rng.uniform(1.0, 3.0)))
        return cls(tuple(names), tuple(terms))

    def grad_texts(self) -> list:
        return [join(t.grad_text(self.names, k) for t in self.terms)
                for k in range(len(self.names))]

    def value(self, pt) -> float:
        return sum(t.value(pt) for t in self.terms)


# --------------------------------------------------------------------------
# Analytic functions f(z) = u + i v with real parameters
# --------------------------------------------------------------------------

def _binomial_parts(n: int):
    """Re and Im of (x + i y)^n as lists of (coefficient, px, py)."""
    re, im = [], []
    for k in range(n + 1):
        c = math.comb(n, k)
        if k % 2 == 0:
            re.append((c * (-1) ** (k // 2), n - k, k))
        else:
            im.append((c * (-1) ** ((k - 1) // 2), n - k, k))
    return re, im


@dataclass(frozen=True)
class Entire:
    """c * g(a z): g in {pow (z^n), exp, sin, cos}."""
    kind: str
    c: float
    a: float = 1.0
    n: int = 1

    def z_text(self) -> str:
        if self.kind == "pow":
            return f"{num(self.c)}*z^{self.n}"
        return f"{num(self.c)}*{self.kind}({num(self.a)}*z)"

    def uv_text(self):
        c, a = self.c, self.a
        if self.kind == "pow":
            return tuple(join(_product(num(c * k), _power("x", px), _power("y", py))
                              for k, px, py in rows) for rows in _binomial_parts(self.n))
        ax, ay = f"{num(a)}*x", f"{num(a)}*y"
        if self.kind == "exp":
            return (f"{num(c)}*exp({ax})*cos({ay})", f"{num(c)}*exp({ax})*sin({ay})")
        if self.kind == "sin":
            return (f"{num(c)}*sin({ax})*cosh({ay})", f"{num(c)}*cos({ax})*sinh({ay})")
        return (f"{num(c)}*cos({ax})*cosh({ay})", f"{num(-c)}*sin({ax})*sinh({ay})")

    def value(self, z: complex) -> complex:
        if self.kind == "pow":
            return self.c * z ** self.n
        return self.c * getattr(cmath, self.kind)(self.a * z)

    def third_derivative(self, z):
        """f''' on a numpy array of complex points."""
        c, a, n = self.c, self.a, self.n
        if self.kind == "pow":
            return c * n * (n - 1) * (n - 2) * z ** max(n - 3, 0) if n >= 3 else 0 * z
        if self.kind == "exp":
            return c * a ** 3 * np.exp(a * z)
        if self.kind == "sin":
            return -c * a ** 3 * np.cos(a * z)
        return c * a ** 3 * np.sin(a * z)


@dataclass(frozen=True)
class Analytic:
    terms: tuple

    @classmethod
    def random(cls, rng, n_terms: int, amax: float = 1.2) -> "Analytic":
        terms = []
        for _ in range(n_terms):
            kind = rng.choice(("pow", "exp", "sin", "cos"))
            if kind == "pow":
                terms.append(Entire("pow", signed(rng, 0.1, 0.6), n=rng.randint(1, 4)))
            else:
                terms.append(Entire(kind, signed(rng, 0.2, 1.0), signed(rng, 0.3, amax)))
        return cls(tuple(terms))

    def z_text(self) -> str:
        return join(t.z_text() for t in self.terms)

    def uv_text(self):
        parts = [t.uv_text() for t in self.terms]
        return join(p[0] for p in parts), join(p[1] for p in parts)

    def value(self, z: complex) -> complex:
        return sum(t.value(z) for t in self.terms)

    def third_derivative(self, z):
        return sum(t.third_derivative(z) for t in self.terms)


# --------------------------------------------------------------------------
# Smooth functions of one variable g(s)
# --------------------------------------------------------------------------

_G1 = {
    "sin": (lambda b, s: math.sin(b * s), lambda b, s: b * math.cos(b * s)),
    "exp": (lambda b, s: math.exp(b * s), lambda b, s: b * math.exp(b * s)),
    "atan": (lambda b, s: math.atan(b * s), lambda b, s: b / (1 + (b * s) ** 2)),
    "sq": (lambda b, s: (b * s) ** 2, lambda b, s: 2 * b * b * s),
}


@dataclass(frozen=True)
class Smooth1D:
    """g(s) = sum a_k * h_k(b_k s)."""
    terms: tuple  # (kind, a, b)

    @classmethod
    def random(cls, rng, n_terms: int, bmax: float = 1.0) -> "Smooth1D":
        return cls(tuple((rng.choice(sorted(_G1)), signed(rng, 0.2, 1.0), signed(rng, 0.2, bmax))
                         for _ in range(n_terms)))

    def text(self, arg: str) -> str:
        out = []
        for kind, a, b in self.terms:
            inner = f"{num(b)}*({arg})"
            body = f"({inner})^2" if kind == "sq" else f"{kind}({inner})"
            out.append(f"{num(a)}*{body}")
        return join(out)

    def value(self, s: float) -> float:
        return sum(a * _G1[k][0](b, s) for k, a, b in self.terms)

    def slope_bound(self, lo: float, hi: float) -> float:
        return max(abs(sum(a * _G1[k][1](b, s) for k, a, b in self.terms))
                   for s in np.linspace(lo, hi, 65))
