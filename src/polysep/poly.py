"""Sparse multivariate polynomials on the box [-1, 1]^n.

Coefficients are 64-bit floats, monomials are exponent tuples of length n.
Canonical form stores no exactly-zero coefficients, so structural equality
is meaningful after arithmetic.  All values are immutable and safe to share
across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# resolution**n above this raises SampleBudgetError before any point is made (read
# at call time); it bounds the work of a grid sweep, as a sweep holds one block
GRID_BUDGET = 10_000_000

# points per grid_lines block, rounded down to whole x_n lines, at least one:
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
        point; the sum may come back broadcast-smaller than the full grid.  The
        sum is a numpy array, or a numpy float for a constant (``np.add``, so a
        comparison of it still has ``.any()``); only the zero polynomial gives
        the Python float 0.0.  A sum past the float range is inf, without a
        warning: on the box every term is finite, so no inf - inf arises.
        """
        out = 0.0
        with np.errstate(over="ignore"):
            for mono, c in self.terms.items():
                term = c
                for x, e in zip(axes, mono):
                    if e:
                        term = term * x**e
                out = np.add(out, term)
        return out

    def box_upper_bound(self, heads) -> np.ndarray:
        """Per prefix, a float no ``evaluate_axes`` value in the box under that prefix exceeds.

        ``heads`` holds values of x1..xk in [-1, 1], one array per variable,
        broadcasting together like ``evaluate_axes`` axes (the columns of a
        (P, k) array of prefix rows, say); x_{k+1}..x_n range over [-1, 1].
        Term c x^a splits into its head h = c * prod_{j<=k} x_j^a_j and its tail
        monomial prod_{j>k} x_j^a_j.  The heads of terms with the same tail are
        summed to H, and the group adds the max over the tail of H times its
        tail.  The tail ranges over [-1, 1] if some tail exponent is odd, over
        [0, 1] if the tail exponents are even and not all zero, and is 1
        otherwise, so the group adds |H|, max(H, 0) or H.  Those are the exact
        ranges over the box, and over any grid holding -1, 0 and 1, because the
        tail variables vary independently; the heads are taken at the exact
        prefix values, so on such a grid the only looseness is between distinct
        tails that share a variable.  The result may come back
        broadcast-smaller, as ``evaluate_axes`` values do; a call holds
        (broadcast size) x #terms floats.

        Rounding, with u = 2^-53 and gamma_K = K u / (1 - K u): every |x^a| <= 1
        on the box.  ``evaluate_axes`` takes per term at most n powers (numpy's,
        within one ulp: two roundings each) and n products, then sums the terms,
        so its value lies within gamma_{#terms + 3n} sum|c| of the exact one.
        Here a power x^e is taken by square-and-multiply, e factors x in e - 1
        products, so a head takes at most degree + n roundings.  The heads of a group are summed, then the groups' extremes,
        which are exact (a product by -1, 0 or 1, and a max) and move by no
        more than H does; so a head passes through at most (group size - 1) +
        (#groups - 1) <= #terms - 1 additions, as in one sum of the terms, and
        the bound lies within gamma_{#terms + degree + n} sum|c| of the exact
        bound.  So the bound is raised by 2 gamma_K sum|c| with K = #terms +
        degree + 3n + 1, the extra 1 covering the rounding of that allowance
        itself.  The analysis needs K u < 1 and no overflow, which holds while
        2 sum|c| is finite; beyond either the bound is inf and excludes nothing.

        The bound of -p caps -p the same way, so the larger of the two caps |p|:
        negating p negates every head and group sum exactly, and -p has p's
        allowance.
        """
        coeffs, powers, groups, allowance = self._bound_terms
        if allowance == np.inf:
            # no group is formed, so every bound is inf
            return allowance + np.zeros(np.broadcast_shapes(*(np.shape(x) for x in heads)))
        head = coeffs
        for x, (distinct, inverse) in zip(heads, powers):
            if distinct.any():
                head = head * _powers(np.asarray(x)[..., None], distinct)[..., inverse]
        order, starts, lows = groups[len(heads)]
        if order is not None:
            head = np.add.reduceat(head[..., order], starts, axis=-1)
        # exact: the tail's low end is -1, 0 or 1 and its high end 1
        return np.maximum(head, head * lows).sum(axis=-1) + allowance

    @cached_property
    def _bound_terms(self):
        # box_upper_bound's view of the terms: coefficients, per variable the
        # distinct exponents and each term's index into them, the tail groups
        # after k = 0..n fixed variables (entry k: the term order that makes
        # each group contiguous, the groups' starts in it and the low end of
        # each group's tail; the order and starts are None where no two terms
        # share a non-constant tail, and each term is its own group), and the
        # rounding allowance.
        # gamma_K = K u / (1 - K u) bounds K roundings only while K u < 1, and
        # the allowance needs 2 sum|c| finite; otherwise only the allowance, inf,
        # is formed, so no exponent past the integer range is ever laid out
        monos = list(self.terms)
        scale = sum(abs(c) for c in self.terms.values())
        rounds = len(monos) + self.total_degree() + 3 * self.n + 1
        if rounds >= 2**53 or not 2.0 * scale < np.inf:
            return None, None, None, np.inf
        groups = []
        for k in range(self.n + 1):
            tails = sorted({mono[k:] for mono in monos})
            index = {tail: g for g, tail in enumerate(tails)}
            labels = np.array([index[mono[k:]] for mono in monos], dtype=np.intp)
            # x^e ranges over [-1, 1] for odd e, [0, 1] for even e > 0, {1} for e = 0,
            # and a product of such ranges has the least of their low ends
            lows = np.array([min([1.0] + [-1.0 if e % 2 else 0.0 for e in tail if e]) for tail in tails])
            # terms whose tail is 1 add their heads either way, so only a shared
            # non-constant tail tightens the bound
            varying = [mono[k:] for mono in monos if any(mono[k:])]
            if len(set(varying)) < len(varying):
                order = np.argsort(labels, kind="stable")
                groups.append((order, np.searchsorted(labels[order], np.arange(len(tails))), lows))
            else:
                # every term its own group, kept in term order
                groups.append((None, None, lows[labels]))
        unit = rounds * 2.0**-53
        return (
            np.fromiter(self.terms.values(), float, len(monos)),
            tuple(
                np.unique(e, return_inverse=True)
                for e in np.array(monos, dtype=np.intp).reshape(-1, self.n).T
            ),
            groups,
            2.0 * unit / (1.0 - unit) * scale,
        )

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


def grid_axis(n: int, resolution: int) -> np.ndarray:
    """The axis of the resolution**n grid, once the resolution and budget checks pass."""
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    count = resolution**n
    if count > GRID_BUDGET:
        raise SampleBudgetError(
            f"grid of {resolution}^{n} = {count} points exceeds the budget of {GRID_BUDGET}"
        )
    return np.linspace(-1.0, 1.0, resolution)


def box_grid_points(n: int, resolution: int) -> np.ndarray:
    """Uniform resolution**n grid on [-1, 1]^n as an (m, n) array, x1-major.

    Row i1*resolution**(n-1) + ... + in holds (axis[i1], ..., axis[in]).
    Grids of odd resolutions 3, 5, 9, 17, ... are nested, which the sampling
    monotonicity guarantees rely on.
    """
    axis = grid_axis(n, resolution)
    # broadcast views, so the stacked (m, n) array is the only full-size one
    mesh = np.meshgrid(*([axis] * n), indexing="ij", copy=False)
    return np.stack(mesh, axis=-1).reshape(-1, n)


def grid_lines(n: int, resolution: int, keep, width: int):
    """The grid's whole x_n lines under the (x1, ..., x_{n-1}) prefixes ``keep`` accepts, in blocks.

    The resolution and budget checks run here, before any block.  The
    prefixes are descended x1-major, one level per variable, over chunks of
    parents: ``keep(heads)`` gets each chunk's children as broadcasting
    arrays (the parents' values shaped (P, 1), the axis last) and returns a
    mask, possibly broadcast-smaller, of the children to descend into; a
    rejected prefix drops every grid point under it.  ``width`` is how many
    floats per child ``keep`` allocates (its callers' term counts), so a
    chunk stays near ``GRID_BLOCK_ROWS`` floats.  A block holds about
    ``GRID_BLOCK_ROWS`` points of whole lines, at least one line: its prefix
    values shaped (P, 1) each, then the x_n axis shaped (1, resolution), so
    its points are ``box_grid_points`` rows in the same order.  With n = 1
    there is no prefix and the one line is cut into blocks.
    """
    return _lines(grid_axis(n, resolution), n, keep, width)


def _lines(axis: np.ndarray, n: int, keep, width: int):
    if n == 1:
        for start in range(0, len(axis), GRID_BLOCK_ROWS):
            yield [axis[None, start : start + GRID_BLOCK_ROWS]]
        return
    per_block = max(1, GRID_BLOCK_ROWS // len(axis))
    step = max(1, GRID_BLOCK_ROWS // (len(axis) * max(width, 1)))
    for cols in _prefixes(axis, n - 1, keep, step, []):
        for start in range(0, len(cols[0]), per_block):
            yield [c[start : start + per_block, None] for c in cols] + [axis[None, :]]


def _prefixes(axis: np.ndarray, depth: int, keep, step: int, cols: list):
    # depth first over chunks of ``step`` parents, so the kept prefixes of
    # length ``depth`` come out in batches, x1-major
    size = len(axis)
    for start in range(0, len(cols[0]) if cols else 1, step):
        parent = [c[start : start + step] for c in cols]
        heads = [c[:, None] for c in parent] + [axis]
        i, j = divmod(np.flatnonzero(on_grid(keep(heads), heads)), size)
        if not len(i):
            continue
        children = [c[i] for c in parent] + [axis[j]]
        if len(children) == depth:
            yield children
        else:
            yield from _prefixes(axis, depth, keep, step, children)


def on_grid(values, axes) -> np.ndarray:
    """``evaluate_axes`` or ``contains_axes`` values on the axes' full grid.

    Values that come back broadcast-smaller become a read-only broadcast view.
    """
    shape = np.broadcast_shapes(*(np.shape(x) for x in axes))
    return values if np.shape(values) == shape else np.broadcast_to(values, shape)


def _powers(x, exponents) -> np.ndarray:
    # x^e for each of the distinct exponents, down a new last axis, by
    # square-and-multiply: x^e is x^(e/2) squared for even e and x^(e-1) x for
    # odd e, each power made once, so x^e is e factors x in e - 1 products
    table = {0: np.ones_like(x), 1: x}

    def power(e):
        if e not in table:
            if e % 2:
                table[e] = power(e - 1) * x
            else:
                half = power(e // 2)
                table[e] = half * half
        return table[e]

    return np.concatenate([power(e) for e in exponents.tolist()], axis=-1)


def sup_norm_grid(p: Polynomial, resolution: int) -> float:
    """Max of |p| over the uniform grid; a lower bound on the true box sup-norm.

    The max starts at the 2^n grid corners; then ``grid_lines`` sweeps the
    lines under the prefixes where ``box_upper_bound`` of p or of -p is above
    the running max (a NaN bound keeps its prefix), so a prefix that cannot
    raise the max is never evaluated.  The bounds carry a rigorous rounding
    allowance and the max is a selection, so the result is the full sweep's
    float bit for bit.  Memory stays at one block whatever the resolution.
    """
    neg = -p

    def keep(heads):
        return ~((p.box_upper_bound(heads) <= best) & (neg.box_upper_bound(heads) <= best))

    # the grid checks run on this call; keep reads the running max as the walk goes
    lines = grid_lines(p.n, resolution, keep, len(p.terms))
    best = np.max(np.abs(p.evaluate_axes(np.ix_(*[[-1.0, 1.0]] * p.n))))
    for axes in lines:
        best = np.maximum(best, np.max(np.abs(p.evaluate_axes(axes))))
    return float(best)
