"""Truncated quadratic modules: bases, Gram incidence, sign symmetries and certificates.

A polynomial q belongs to the degree-l truncated quadratic module of
generators f_1..f_t when q = s_0 + sum_i s_i f_i with every multiplier s_i a
sum of squares, deg(s_0) <= l and deg(s_i f_i) <= l.  Each s_i is
parameterized by a Gram matrix over the monomial basis of half degree
floor((l - deg f_i)/2), so an identity between module elements becomes one
linear constraint per monomial of degree <= l.  Which row each Gram entry
feeds depends only on the generators' exponents: ``gram_incidence`` finds
it per multiplier term, and ``incidence_entries`` lists, as index arrays,
the (row, a, b, term) entries that feed just the rows an SDP keeps.
``sign_flips`` and ``parity_classes`` find the coordinate sign flips that
fix a set of monomials and split monomials by how those flips act on them;
the separator uses them to reduce its SDP.  ``separator._assemble_separation``
is the one assembler built on these pieces: it lays the rows out as a
max-margin SDP, and ``separator.margin_sdp_solution`` reads that SDP back.

``QmCertificate.polynomial`` reads a certificate back as its module element,
once per certificate: in arrays of integer-encoded exponents, with the
floats and the term order of dict arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .poly import Polynomial
from .sdp import min_eigenvalue


def monomials_up_to_degree(n: int, degree: int) -> list:
    """All exponent tuples of total degree <= degree, graded lex (x1 major)."""
    # tails[t]: the exponent tuples of the last j variables with total t, in
    # order, built up from j = 1 with the first of them, descending, major
    tails = [[(t,)] for t in range(degree + 1)]
    for _ in range(n - 1):
        tails = [[(k,) + rest for k in range(t, -1, -1) for rest in tails[t - k]] for t in range(degree + 1)]
    return [mono for tail in tails for mono in tail]


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial basis of R[x]_d used to parameterize one Gram matrix."""

    n: int
    elements: tuple

    def __post_init__(self):
        # the expansions encode exponent tuples as integer keys, which needs
        # every element to be n non-negative integers
        for mono in self.elements:
            if len(mono) != self.n or min(mono, default=0) < 0:
                raise ValueError(f"basis monomial {mono} is not {self.n} non-negative exponents")

    def __len__(self) -> int:
        return len(self.elements)


def basis(n: int, half_degree: int) -> MonomialBasis:
    if half_degree < 0:
        raise ValueError(f"half degree must be non-negative, got {half_degree}")
    return MonomialBasis(n, tuple(monomials_up_to_degree(n, half_degree)))


@dataclass(frozen=True)
class QmCertificate:
    """Explicit quadratic-module membership witness.

    ``grams[0]`` is the Gram matrix of the free SOS multiplier s_0 (for the
    implicit generator 1); ``grams[i]`` pairs with ``generators[i-1]``.  The
    certificate is read as frozen: ``polynomial`` expands it once and keeps
    the result, so its Grams must not change after that.
    """

    generators: tuple
    grams: tuple
    bases: tuple
    level: int

    def __post_init__(self):
        # polynomial() pairs the Grams with [1] + generators: an extra or missing one would be
        # dropped or leave a generator without a multiplier
        if len(self.grams) != len(self.bases) or len(self.grams) != len(self.generators) + 1:
            raise ValueError(
                f"certificate needs one Gram and basis per multiplier (1 + {len(self.generators)}"
                f" generators), got {len(self.grams)} Grams and {len(self.bases)} bases"
            )
        n = self.bases[0].n
        if any(x.n != n for x in (*self.bases, *self.generators)):
            raise ValueError(f"dimension mismatch: every basis and generator needs n = {n}")
        for gram, bas in zip(self.grams, self.bases):
            _check_gram(gram, bas)

    def multipliers(self) -> list:
        """The SOS multipliers s_0..s_t expanded to polynomials."""
        return [expand_gram(g, b) for g, b in zip(self.grams, self.bases)]

    def polynomial(self) -> Polynomial:
        """The module element s_0 + sum_i s_i f_i that the certificate witnesses."""
        return self._element

    @cached_property
    def _element(self) -> Polynomial:
        multipliers = [Polynomial.constant(self.bases[0].n, 1.0)] + list(self.generators)
        return _module_element(multipliers, self.grams, self.bases)

    def min_gram_eigenvalue(self) -> float:
        return min(min_eigenvalue(g) for g in self.grams)


def _check_gram(gram, bas: MonomialBasis) -> np.ndarray:
    g = np.asarray(gram, dtype=float)
    if g.shape != (len(bas), len(bas)):
        raise ValueError(f"Gram matrix shape {g.shape} does not match basis size {len(bas)}")
    return g


def expand_gram(gram: np.ndarray, bas: MonomialBasis) -> Polynomial:
    """The polynomial z(x)^T G z(x) over the basis monomials z."""
    return _module_element([Polynomial.constant(bas.n, 1.0)], (gram,), (bas,))


# The certificate read-back in arrays.  Dict arithmetic (each Gram expanded
# entry by entry, then s_i * f_i and the sum) fixes an order of float
# operations and of terms; these functions keep both, so every coefficient
# and every term order is the dict code's, bit for bit.  ``np.bincount`` adds
# its weights one by one in input order, from 0.0 as a missing dict entry does.


def _top_exponent(monomials) -> int:
    return max((max(mono, default=0) for mono in monomials), default=0)


class _KeyCode:
    """Exponent tuples of n entries up to ``top`` as integer keys: their digits in base top + 1.

    The sum of two keys is the key of the summed exponents while each entry
    stays at most ``top``.  Only exponents that occur are encoded, and keys
    past int64 are Python integers in object arrays, so any exponent a
    result file carries stays exact.
    """

    def __init__(self, n: int, top: int):
        self.n, self.base = n, top + 1
        dtype = np.int64 if self.base**n < 2**63 else object
        self.weights = np.array([self.base ** (n - 1 - j) for j in range(n)], dtype=dtype)

    def encode(self, monomials) -> np.ndarray:
        return np.array(list(monomials), dtype=self.weights.dtype).reshape(-1, self.n) @ self.weights

    def decode(self, keys: np.ndarray) -> list:
        return list(zip(*((keys // w % self.base).tolist() for w in self.weights)))

    def checked(self, keys: np.ndarray, values: np.ndarray):
        """(keys, values), unless a value is not finite: then the public constructor's ValueError."""
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            mono = self.decode(keys[bad[:1]])[0]
            raise ValueError(f"non-finite coefficient {float(values[bad[0]])} for monomial {mono}")
        return keys, values

    def polynomial(self, keys: np.ndarray, values: np.ndarray) -> Polynomial:
        return Polynomial._canonical(self.n, dict(zip(self.decode(keys), values.tolist())))


def _accumulate(keys: np.ndarray, values: np.ndarray):
    """A dict's ``out[k] = out.get(k, 0.0) + v`` over the stream, zeros then dropped.

    Returns the distinct keys in first-occurrence order with their sums.
    """
    index: dict = {}
    labels = [index.setdefault(k, len(index)) for k in keys.tolist()]
    sums = np.bincount(np.array(labels, dtype=np.intp), weights=values, minlength=len(index))
    keep = sums != 0.0
    return np.array(list(index), dtype=keys.dtype)[keep], sums[keep]


def _gram_sums(gram: np.ndarray, keys: np.ndarray):
    """``expand_gram``'s terms: the nonzero entries, row-major, summed by pair monomial."""
    a, b = np.nonzero(gram)  # a NaN entry counts, as it does in the dict loop
    return _accumulate(keys[a] + keys[b], gram[a, b])


def _module_element(multipliers, grams, bases) -> Polynomial:
    """sum_i (z_i^T G_i z_i) f_i as the dict code computes it: every Gram expanded, then multiplied and added in turn.

    A product s_i f_i adds c_s * c_f in (s-term, f-term) order, as
    ``Polynomial.__mul__`` does; the products are then added by
    ``Polynomial.__add__`` itself.  A non-finite coefficient raises where the
    dict code raised.
    """
    code = _KeyCode(
        bases[0].n,
        2 * _top_exponent(m for b in bases for m in b.elements)
        + _top_exponent(m for f in multipliers for m in f.terms),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        squares = [
            code.checked(*_gram_sums(_check_gram(g, b), code.encode(b.elements)))
            for g, b in zip(grams, bases)
        ]
        products = (
            code.polynomial(*_accumulate(
                (s_keys[:, None] + code.encode(f.terms)).ravel(),
                (s_vals[:, None] * np.fromiter(f.terms.values(), float, len(f.terms))).ravel(),
            ))
            for (s_keys, s_vals), f in zip(squares, multipliers)
        )
        return sum(products, Polynomial.zero(code.n))


def sign_flips(n: int, exponents) -> np.ndarray:
    """A basis of the coordinate sign flips that fix every monomial in ``exponents``.

    Flipping the coordinates in a 0/1 vector f maps x^alpha to
    (-1)^(f . alpha) x^alpha, so f fixes every listed monomial exactly when
    f . alpha is even for all of them: the flips form the null space over
    GF(2) of the exponent-parity matrix.  Returns a (k, n) 0/1 array whose
    rows span it; k = 0 means no flip is a symmetry.
    """
    parity = np.array(list(exponents), dtype=np.int64).reshape(-1, n) % 2
    pivots = []  # Gauss-Jordan elimination mod 2, pivot columns left to right
    for col in range(n):
        row = len(pivots)
        hits = row + np.flatnonzero(parity[row:, col])
        if hits.size == 0:
            continue
        parity[[row, hits[0]]] = parity[[hits[0], row]]
        others = np.flatnonzero(parity[:, col])
        others = others[others != row]
        parity[others] ^= parity[row]
        pivots.append(col)
    flips = []
    for free in (c for c in range(n) if c not in pivots):
        f = np.zeros(n, dtype=np.int64)
        f[free] = 1
        f[pivots] = parity[: len(pivots), free]
        flips.append(f)
    return np.array(flips, dtype=np.int64).reshape(-1, n)


def parity_classes(flips: np.ndarray, monomials) -> np.ndarray:
    """Each monomial's parity class: the integer whose bit j is the parity of flips[j] . alpha.

    Class 0 holds the monomials every flip fixes.  Two monomials share a class
    exactly when every flip in the span changes their signs alike.
    """
    parity = (np.array(list(monomials), dtype=np.int64) @ flips.T) % 2
    # Python integers keep the bits exact past 62 flips
    dtype = np.int64 if len(flips) < 63 else object
    return parity @ np.array([1 << j for j in range(len(flips))], dtype=dtype)


def gram_incidence(n: int, supports, level: int):
    """Gram bases and row incidence of the level-``level`` quadratic module.

    The module element is sum_i z_i^T G_i z_i f_i over the multipliers
    f_0 = 1 and the generators f_i, of which ``supports[i-1]`` lists the
    exponent tuples in term order.  Returns (bases, rows): z_i is
    ``bases[i]``, and term j of f_i feeds G_i[a, b], times its coefficient,
    into row monomial ``rows[i][j, a, b]`` of ``monomials_up_to_degree(n,
    level)``.  A (row, a, b) triple fixes its term, so each reached entry
    carries one coefficient.  A generator of degree above ``level`` has a
    negative half degree, which ``basis`` refuses with ValueError.
    """
    supports = [((0,) * n,)] + [tuple(s) for s in supports]
    bases = [basis(n, (level - max(map(sum, s), default=0)) // 2) for s in supports]
    # exponents are at most level: with c(alpha) = alpha's digits in base B =
    # level + 1 (x1 first), deg(alpha)*B^n - c(alpha) is a linear key rising
    # along the graded-lex rows; Python integers keep it exact past int64
    base = level + 1
    dtype = np.int64 if base ** (n + 1) < 2**63 else object
    weights = np.array([base**n - base ** (n - 1 - j) for j in range(n)], dtype=dtype)
    row_keys = np.array(monomials_up_to_degree(n, level)) @ weights
    rows = []
    for support, bas in zip(supports, bases):
        keys = np.array(bas.elements) @ weights
        term_keys = np.array(support, dtype=np.int64).reshape(-1, n) @ weights
        rows.append(np.searchsorted(row_keys, term_keys[:, None, None] + keys[:, None] + keys))
    return bases, rows


def incidence_entries(rows, row_pos):
    """The entries of one multiplier's Gram that feed the rows an SDP keeps, as index arrays.

    ``rows`` is the multiplier's ``gram_incidence`` array.  Row monomial r
    goes to SDP row ``row_pos[r]``, -1 drops it.  Returns (row, a, b, term):
    Gram entry (a, b) feeds SDP row ``row`` with term ``term``'s coefficient.
    """
    pos = row_pos[rows]
    term, a, b = np.nonzero(pos >= 0)
    return pos[term, a, b], a, b, term


def reconstruct_residual(cert: QmCertificate, target: Polynomial) -> float:
    """Coefficient-wise max-norm of target - (s_0 + sum_i s_i f_i)."""
    return target.max_coeff_diff(cert.polynomial())
