"""Truncated quadratic modules compiled to max-margin semidefinite programs.

A polynomial q belongs to the degree-l truncated quadratic module of
generators f_1..f_t when q = s_0 + sum_i s_i f_i with every multiplier s_i a
sum of squares, deg(s_0) <= l and deg(s_i f_i) <= l.  Each s_i is
parameterized by a Gram matrix over the monomial basis of half degree
floor((l - deg f_i)/2), so an identity between module elements becomes one
linear constraint per monomial of degree <= l.  ``gram_incidence`` finds the
row each Gram entry feeds per multiplier term; ``incidence_stack`` writes the
stacks of just the rows and Gram blocks an SDP keeps from it.
``sign_flips`` and ``parity_classes`` find the coordinate sign flips that
fix a set of monomials and split monomials by how those flips act on them;
the separator uses them to reduce its SDP.

``margin_sdp_data`` lays the rows out as a max-margin SDP: two 1x1 blocks w
and u carry the margin t = w - u, each row adds its own multiple of t to the
Gram part, and a last row pins w = 1, so t is maximized subject to t <= 1.
A positive optimum certifies strict feasibility; a non-positive one finds no
certificate at this level.  ``margin_sdp_solution`` is the one read-out of a
solved margin SDP: t and the Gram blocks.  ``separator._assemble_separation``
is the one assembler built on these pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Polynomial
from .sdp import SdpSolution, min_eigenvalue


class LevelTooSmallError(ValueError):
    """The requested level is below a generator's degree."""


def monomials_up_to_degree(n: int, degree: int) -> list:
    """All exponent tuples of total degree <= degree, graded lex (x1 major)."""

    def fixed(total: int, nvars: int):
        if nvars == 1:
            yield (total,)
            return
        for k in range(total, -1, -1):
            for rest in fixed(total - k, nvars - 1):
                yield (k,) + rest

    out = []
    for d in range(degree + 1):
        out.extend(fixed(d, n))
    return out


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial basis of R[x]_d used to parameterize one Gram matrix."""

    n: int
    elements: tuple

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
    implicit generator 1); ``grams[i]`` pairs with ``generators[i-1]``.
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

    def multipliers(self) -> list:
        """The SOS multipliers s_0..s_t expanded to polynomials."""
        return [expand_gram(g, b) for g, b in zip(self.grams, self.bases)]

    def polynomial(self) -> Polynomial:
        """The module element s_0 + sum_i s_i f_i that the certificate witnesses."""
        n = self.bases[0].n
        mults = [Polynomial.constant(n, 1.0)] + list(self.generators)
        return sum((s * f for f, s in zip(mults, self.multipliers())), Polynomial.zero(n))

    def min_gram_eigenvalue(self) -> float:
        return min(min_eigenvalue(g) for g in self.grams)


def expand_gram(gram: np.ndarray, bas: MonomialBasis) -> Polynomial:
    """The polynomial z(x)^T G z(x) over the basis monomials z."""
    g = np.asarray(gram, dtype=float)
    k = len(bas)
    if g.shape != (k, k):
        raise ValueError(f"Gram matrix shape {g.shape} does not match basis size {k}")
    terms: dict = {}
    elems = bas.elements
    for a in range(k):
        for b2 in range(k):
            if g[a, b2] == 0.0:
                continue
            mono = tuple(x + y for x, y in zip(elems[a], elems[b2]))
            terms[mono] = terms.get(mono, 0.0) + g[a, b2]
    return Polynomial(bas.n, terms)


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


def gram_incidence(n: int, generators, level: int):
    """Gram bases and sparse incidence of the level-``level`` quadratic module.

    The module element is sum_i z_i^T G_i z_i f_i over the multipliers
    f_0 = 1, f_i = ``generators[i-1]``.  Returns (bases, incidence): z_i is
    ``bases[i]``; ``incidence[i]`` is (rows, coeffs) over the t_i terms of f_i,
    and term j feeds G_i[a, b] times ``coeffs[j]`` into row monomial
    ``rows[j, a, b]`` of ``monomials_up_to_degree(n, level)``.  A (row, a, b)
    triple fixes its term, so each reached entry carries one coefficient.
    """
    multipliers = [Polynomial.constant(n, 1.0)] + list(generators)
    bases = []
    for f in multipliers:
        d = f.total_degree()
        if d > level:
            raise LevelTooSmallError(f"level {level} is below generator degree {d}")
        bases.append(basis(n, (level - d) // 2))
    # exponents are at most level: with c(alpha) = alpha's digits in base B =
    # level + 1 (x1 first), deg(alpha)*B^n - c(alpha) is a linear key rising
    # along the graded-lex rows; Python integers keep it exact past int64
    base = level + 1
    dtype = np.int64 if base ** (n + 1) < 2**63 else object
    weights = np.array([base**n - base ** (n - 1 - j) for j in range(n)], dtype=dtype)
    row_keys = np.array(monomials_up_to_degree(n, level)) @ weights
    incidence = []
    for f, bas in zip(multipliers, bases):
        keys = np.array(bas.elements) @ weights
        term_keys = np.array(list(f.terms), dtype=np.int64).reshape(-1, n) @ weights
        rows = np.searchsorted(row_keys, term_keys[:, None, None] + keys[:, None] + keys)
        incidence.append((rows, np.array(list(f.terms.values()))))
    return bases, incidence


def incidence_stack(incidence, row_pos, m: int, idx) -> np.ndarray:
    """The (m + 1, k, k) stack of the Gram block on basis indices ``idx`` of one incidence.

    Row monomial r goes to stack row ``row_pos[r]``, -1 drops it.  The last
    row stays zero: it is ``margin_sdp_data``'s normalization row.
    """
    rows, coeffs = incidence
    pos = row_pos[rows[:, idx[:, None], idx]]
    term, a, b = np.nonzero(pos >= 0)
    stack = np.zeros((m + 1, len(idx), len(idx)))
    stack[pos[term, a, b], a, b] = coeffs[term]
    return stack


def margin_sdp_data(stacks, margin, rhs):
    """Block sizes, objective, stacks and rhs of a max-margin SDP over Gram stacks.

    Blocks 0 and 1 are the 1x1 blocks w and u, block 2 + i takes ``stacks[i]``.
    Row k reads <stacks[i][k], X_i> summed over i, plus ``margin[k]`` times the
    margin t = w - u, equal to ``rhs[k]``.  The stacks' zero last row pins w = 1,
    so the objective t is capped at 1.  Returns the arguments of ``SdpProblem``.
    """
    block_sizes = (1, 1) + tuple(st.shape[1] for st in stacks)
    w = np.append(margin, 1.0).reshape(-1, 1, 1)
    u = np.append(np.negative(margin), 0.0).reshape(-1, 1, 1)
    objective = [np.ones((1, 1)), -np.ones((1, 1))] + [None] * len(stacks)
    return block_sizes, objective, [w, u] + list(stacks), np.append(rhs, 1.0)


def margin_sdp_solution(sol: SdpSolution):
    """(t, Gram blocks) of a solved ``margin_sdp_data`` SDP: t = w - u, then blocks 2, 3, ..."""
    return float(sol.X[0][0, 0] - sol.X[1][0, 0]), list(sol.X[2:])


def reconstruct_residual(cert: QmCertificate, target: Polynomial) -> float:
    """Coefficient-wise max-norm of target - (s_0 + sum_i s_i f_i)."""
    return target.max_coeff_diff(cert.polynomial())
