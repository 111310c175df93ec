"""Sparse multivariate polynomials on the box [-1, 1]^n.

Coefficients are 64-bit floats, monomials are exponent tuples of length n.
Canonical form stores no exactly-zero coefficients, so structural equality
is meaningful after arithmetic.  All values are immutable and safe to share
across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# resolution**n above this raises SampleBudgetError before any point is made (read
# at call time); it bounds the work of a grid sweep, as grid_slabs holds one block
GRID_BUDGET = 10_000_000

# points per grid_slabs block, rounded down to whole x1-slabs (at least one):
# large enough that a 2-D grid up to 256^2 is one block, small enough that a
# block's per-term evaluation arrays stay near a megabyte
GRID_BLOCK_ROWS = 1 << 16


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class SampleBudgetError(RuntimeError):
    """A grid request exceeded the configured sample budget."""


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in canonical sparse form: map from exponent tuple to coefficient.

    Invariants: every key has length ``n``; no stored coefficient is exactly
    zero.  The zero polynomial has an empty term map and degree 0 by
    convention.
    """

    n: int
    terms: dict

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        clean = {}
        for mono, coeff in self.terms.items():
            key = tuple(int(e) for e in mono)
            if len(key) != self.n:
                raise ValueError(f"monomial {key} has length {len(key)}, expected {self.n}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in monomial {key}")
            c = float(coeff)
            if c != c or c in (float("inf"), float("-inf")):
                raise ValueError(f"non-finite coefficient {c} for monomial {key}")
            if c != 0.0:
                clean[key] = c
        object.__setattr__(self, "terms", clean)

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def constant(n: int, value: float) -> "Polynomial":
        return Polynomial(n, {(0,) * n: value})

    @staticmethod
    def variable(n: int, index: int) -> "Polynomial":
        """The coordinate polynomial x_<index>, index in 1..n."""
        if not 1 <= index <= n:
            raise ValueError(f"variable index {index} outside 1..{n}")
        mono = tuple(1 if i == index - 1 else 0 for i in range(n))
        return Polynomial(n, {mono: 1.0})

    @staticmethod
    def ball_generator(n: int) -> "Polynomial":
        """The radius-bounding polynomial n - sum_i x_i^2, non-negative on the box."""
        terms = {(0,) * n: float(n)}
        for i in range(n):
            mono = tuple(2 if j == i else 0 for j in range(n))
            terms[mono] = -1.0
        return Polynomial(n, terms)

    # ---- arithmetic ----------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        self._check_dim(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0.0) + c
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_dim(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial(self.n, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial(self.n, {m: c * float(factor) for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.n, 1.0)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree over terms; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def evaluate(self, point) -> float:
        """Value at one point: ``evaluate_many`` on one row, so bit for bit its batch value."""
        x = np.asarray(point, dtype=float).reshape(-1)
        if x.shape != (self.n,):
            raise ValueError(f"point has dimension {x.shape[0] if x.ndim else 0}, expected {self.n}")
        return float(self.evaluate_many(x[None])[0])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at every row of an (m, n) array: ``evaluate_axes`` on its columns."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"points must have shape (m, {self.n})")
        out = self.evaluate_axes(pts.T)
        return out if np.ndim(out) else np.full(len(pts), out)

    def evaluate_axes(self, axes) -> np.ndarray:
        """Values on the broadcast of one array per variable; the package's only term loop.

        Terms are summed in order, each c times its ``axes[i] ** e`` in variable
        order, so every element is the float ``evaluate_many`` gives at that
        point; the sum may come back broadcast-smaller than the full grid.
        """
        out = 0.0
        for mono, c in self.terms.items():
            term = c
            for x, e in zip(axes, mono):
                if e:
                    term = _into(np.multiply, x**e, term)
            out = _into(np.add, out, term)
        return out

    def truncate(self, max_degree: int) -> "Polynomial":
        """Drop all terms of total degree above ``max_degree``."""
        return Polynomial(self.n, {m: c for m, c in self.terms.items() if sum(m) <= max_degree})

    def max_coeff_diff(self, other: "Polynomial") -> float:
        """Coefficient-wise max-norm of self - other."""
        self._check_dim(other)
        keys = set(self.terms) | set(other.terms)
        if not keys:
            return 0.0
        return max(abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys)

    # ---- formatting ----------------------------------------------------

    def to_string(self) -> str:
        """Canonical text form; ``parse(p.to_string(), p.n) == p`` exactly."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (-sum(m), tuple(-e for e in m))):
            c = self.terms[mono]
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e]
            if not factors:
                body = repr(abs(c))
            elif abs(c) == 1.0:
                body = "*".join(factors)
            else:
                body = repr(abs(c)) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_string()


_TOKEN = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)


def _tokenize(text: str):
    # tolerate the typeset minus sign in copied-in formulas
    text = text.replace("−", "-")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr    := [+|-] product { (+|-) product }
    product := power { [*] power }          (juxtaposition multiplies)
    power   := atom [ ^ INT ]
    atom    := NUMBER [ / NUMBER ] | VAR | ( expr )
    """

    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.n = n
        self.i = 0
        self.length = len(text)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.length)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        if not self.tokens:
            raise ParseError("empty polynomial text", 0)
        p = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected token {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        sign = 1.0
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1.0 if val == "-" else 1.0
        total = self.product().scale(sign)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                term = self.product()
                total = total - term if val == "-" else total + term
            else:
                return total

    def product(self) -> Polynomial:
        result = self.power()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                result = result * self.power()
            elif kind in ("num", "var") or (kind == "op" and val == "("):
                result = result * self.power()
            else:
                return result

    def power(self) -> Polynomial:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "num" or not val.isdigit():
                raise ParseError("exponent must be a non-negative integer", pos)
            return base ** int(val)
        return base

    def atom(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "num":
            value = float(val)
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                self.next()
                k2, v2, pos2 = self.next()
                if k2 != "num":
                    raise ParseError("expected denominator after '/'", pos2)
                denom = float(v2)
                if denom == 0.0:
                    raise ParseError("zero denominator", pos2)
                value /= denom
            return Polynomial.constant(self.n, value)
        if kind == "var":
            index = int(val[1:])
            if not 1 <= index <= self.n:
                raise ParseError(f"variable index {index} outside 1..{self.n}", pos)
            return Polynomial.variable(self.n, index)
        if kind == "op" and val == "(":
            inner = self.expr()
            k, v, pos2 = self.next()
            if not (k == "op" and v == ")"):
                raise ParseError("expected ')'", pos2)
            return inner
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse(text: str, n: int) -> Polynomial:
    """Parse polynomial text with variables x1..xn into canonical form."""
    if not isinstance(text, str):
        raise TypeError(f"polynomial text must be a string, got {type(text).__name__}")
    return _Parser(text, n).parse()


def _check_grid(n: int, resolution: int) -> None:
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    count = resolution**n
    if count > GRID_BUDGET:
        raise SampleBudgetError(
            f"grid of {resolution}^{n} = {count} points exceeds the budget of {GRID_BUDGET}"
        )


def box_grid_points(n: int, resolution: int) -> np.ndarray:
    """Uniform resolution**n grid on [-1, 1]^n as an (m, n) array, x1-major.

    Row i1*resolution**(n-1) + ... + in holds (axis[i1], ..., axis[in]).
    Grids of odd resolutions 3, 5, 9, 17, ... are nested, which the sampling
    monotonicity guarantees rely on.
    """
    _check_grid(n, resolution)
    axis = np.linspace(-1.0, 1.0, resolution)
    # broadcast views, so the stacked (m, n) array is the only full-size one
    mesh = np.meshgrid(*([axis] * n), indexing="ij", copy=False)
    return np.stack(mesh, axis=-1).reshape(-1, n)


def grid_slabs(n: int, resolution: int):
    """The grid of ``box_grid_points`` as x1-major blocks of broadcastable axes.

    A block is about ``GRID_BLOCK_ROWS`` points of whole x1-slabs: its x1
    values shaped (b, 1, ..., 1), then the whole axis along each later
    dimension.  The resolution and budget checks run here, before any block.
    """
    _check_grid(n, resolution)
    return _slabs(n, resolution)


def _slabs(n: int, resolution: int):
    axis = np.linspace(-1.0, 1.0, resolution)
    tail = [axis.reshape((1,) * i + (-1,) + (1,) * (n - 1 - i)) for i in range(1, n)]
    per_block = max(1, GRID_BLOCK_ROWS // resolution ** (n - 1))
    for start in range(0, resolution, per_block):
        yield [axis[start : start + per_block].reshape((-1,) + (1,) * (n - 1)), *tail]


def on_grid(values, axes) -> np.ndarray:
    """``evaluate_axes`` or ``contains_axes`` values as a read-only view of the axes' full grid."""
    return np.broadcast_to(values, np.broadcast_shapes(*(np.shape(x) for x in axes)))


def _into(op, acc, x):
    # op(acc, x), in place when x broadcasts into the (always fresh) acc: no full-size copy
    if np.ndim(acc) and np.broadcast(acc, x).shape == acc.shape:
        return op(acc, x, out=acc)
    return op(acc, x)


def sup_norm_grid(p: Polynomial, resolution: int) -> float:
    """Max of |p| over the uniform grid; a lower bound on the true box sup-norm.

    Swept block by block through ``grid_slabs``, so memory stays at one
    block whatever the resolution.
    """
    slabs = grid_slabs(p.n, resolution)
    return float(np.max([np.max(np.abs(p.evaluate_axes(axes))) for axes in slabs]))
