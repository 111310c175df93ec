import functools
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CIRCLE, LEMNISCATE
from polysep import sdp
from polysep.cli import _certificate_from_json, _certificate_to_json, _poly_from_json
from polysep.poly import Polynomial, parse
from polysep.separator import _assemble_separation, _full_grams
from polysep.sos import (
    MonomialBasis,
    QmCertificate,
    basis,
    expand_gram,
    gram_incidence,
    incidence_stack,
    monomials_up_to_degree,
    parity_classes,
    reconstruct_residual,
    sign_flips,
)

DATA_DIR = Path(__file__).parent / "data"
# a disk off the x1 axis: no coordinate sign flip fixes it, so the SDP is unreduced
SHIFTED_CIRCLE = "1/16 - (x1 - 1/2)^2 - (x2 - 1/5)^2"


def reference_contribution_rows(multipliers, bases_list):
    """Per-monomial constraint matrices of sum_i z_i^T G_i z_i * f_i, by loops.

    Returns dict: monomial -> {multiplier index -> symmetric matrix}; entry
    (a, b) of matrix i is the coefficient with which G_i[a, b] feeds the
    monomial's coefficient.  Monomials no Gram entry reaches are absent.
    """
    rows: dict = {}
    for i, (f, bas) in enumerate(zip(multipliers, bases_list)):
        elems = bas.elements
        k = len(elems)
        for a in range(k):
            for b2 in range(a, k):
                pair_mono = tuple(x + y for x, y in zip(elems[a], elems[b2]))
                for beta, coeff in f.terms.items():
                    alpha = tuple(x + y for x, y in zip(pair_mono, beta))
                    mat = rows.setdefault(alpha, {}).setdefault(i, np.zeros((k, k)))
                    mat[a, b2] += coeff
                    if a != b2:
                        mat[b2, a] += coeff
    return rows


def reference_block(contrib, alpha, i, size):
    return contrib.get(alpha, {}).get(i, np.zeros((size, size)))


def reference_separation_rows(gens_a, gens_b, bases_a, bases_b, parity, degree, level):
    """Row monomials of the reduced separation SDP, by the reference loops.

    ``parity(alpha)`` lists alpha's parity under each sign flip.  Returns the
    contributions of both sides, then the invariant monomials, the joint rows
    (invariant and reached by a Gram entry) and the elimination rows
    (invariant, above ``degree`` and reached on the A side), in row order.
    """
    n = bases_a[0].n
    one = Polynomial.constant(n, 1.0)
    contrib_a = reference_contribution_rows([one] + gens_a, bases_a)
    contrib_b = reference_contribution_rows([one] + gens_b, bases_b)
    invariant = [alpha for alpha in monomials_up_to_degree(n, level) if not any(parity(alpha))]
    joint = [alpha for alpha in invariant if alpha in contrib_a or alpha in contrib_b]
    eliminate = [alpha for alpha in invariant if sum(alpha) > degree and alpha in contrib_a]
    return contrib_a, contrib_b, invariant, joint, eliminate


def assert_normalization_row(row):
    """The last row pins the 1x1 block w (block 0) to 1 and reads nothing else."""
    mats, rhs = row
    assert rhs == 1.0
    assert mats[0][0, 0] == 1.0
    assert not any(np.any(m) for m in mats[1:])


# ---- monomial bases ----------------------------------------------------------


def test_basis_n2_d1():
    b = basis(2, 1)
    assert b.elements == ((0, 0), (1, 0), (0, 1))


def test_basis_n2_d2_size():
    assert len(basis(2, 2)) == 6


def test_basis_n3_d4_size():
    assert len(basis(3, 4)) == 35  # C(7, 3)


def test_basis_sizes_match_binomials():
    for n in range(1, 7):
        for d in range(0, 9):
            assert len(basis(n, d)) == math.comb(n + d, d)


def test_basis_graded_lex_order():
    b = basis(2, 2)
    assert b.elements == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


# ---- sign symmetries -----------------------------------------------------------


@st.composite
def exponent_sets(draw):
    n = draw(st.integers(1, 4))
    alphas = st.tuples(*[st.integers(0, 5)] * n)
    return n, draw(st.lists(alphas, max_size=8))


@settings(max_examples=200, deadline=None)
@given(exponent_sets())
def test_sign_flips_span_every_symmetry(case):
    n, alphas = case
    flips = sign_flips(n, alphas)
    assert flips.shape[1] == n
    for f in flips:
        assert all(np.dot(f, alpha) % 2 == 0 for alpha in alphas)
    # brute force over all 2^n flip sets against the span of the basis
    fixing = {
        s for s in itertools.product((0, 1), repeat=n)
        if all(np.dot(s, alpha) % 2 == 0 for alpha in alphas)
    }
    span = {
        tuple(int(v) for v in np.array(c, dtype=np.int64) @ flips % 2)
        for c in itertools.product((0, 1), repeat=len(flips))
    }
    assert span == fixing
    assert len(span) == 2 ** len(flips)  # the basis is independent
    # two monomials share a parity class iff every fixing flip treats them alike
    monos = list(itertools.product(range(2), repeat=n))
    classes = parity_classes(flips, monos)
    for a, b in itertools.combinations(range(len(monos)), 2):
        alike = all(np.dot(s, monos[a]) % 2 == np.dot(s, monos[b]) % 2 for s in fixing)
        assert (classes[a] == classes[b]) == alike


def test_sign_flips_of_the_shipped_problems():
    lemniscate, circle = parse(LEMNISCATE, 2), parse(CIRCLE, 2)
    ball2, ball3 = Polynomial.ball_generator(2), Polynomial.ball_generator(3)
    balls3 = parse("1/16 - (x1 + 0.55)^2 - x2^2 - x3^2", 3)

    def flips(n, *gens):
        basis = sign_flips(n, [alpha for g in gens for alpha in g.terms])
        return [(np.flatnonzero(f) + 1).tolist() for f in basis]

    assert flips(2, lemniscate, ball2) == [[1], [2]]
    assert flips(2, lemniscate, circle, ball2) == [[2]]
    assert flips(3, balls3, ball3) == [[2], [3]]
    assert flips(2, lemniscate, parse(SHIFTED_CIRCLE, 2)) == []


def test_parity_classes_stay_exact_past_62_flips():
    n = 70
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    flips = sign_flips(n, [unit[0]])  # every flip that leaves x1 alone
    assert len(flips) == n - 1
    pair = tuple(a + b for a, b in zip(unit[n - 2], unit[n - 1]))
    classes = parity_classes(flips, [(0,) * n, unit[0], unit[n - 1], pair])
    assert classes[0] == classes[1] == 0
    assert len({classes[2], classes[3], 0}) == 3


# ---- assembly ----------------------------------------------------------------


# n, generators (several terms, odd degrees among them), level
INCIDENCE_CASES = [
    (1, ["1 - x1^2", "x1^3 - 0.5*x1 + 0.25"], 4),
    (1, ["1 - x1^2", "x1^3 - 0.5*x1 + 0.25"], 5),
    (2, [LEMNISCATE, "0.3*x1 - 2*x2^3 + x1*x2 - 1/3"], 6),
    (2, [LEMNISCATE, "0.3*x1 - 2*x2^3 + x1*x2 - 1/3"], 7),
    (3, ["1 - x1^2 - x2^2 - x3^2", "x1*x2*x3 - 0.7*x3 + 0.1"], 4),
    (3, ["1 - x1^2 - x2^2 - x3^2", "x1*x2*x3 - 0.7*x3 + 0.1"], 5),
    # 3^41 > 2^63: the monomial keys leave int64
    (40, [" - ".join(["40"] + [f"x{i}^2" for i in range(1, 41)])], 2),
]


@pytest.mark.parametrize("n, generators, level", INCIDENCE_CASES)
def test_gram_incidence_matches_reference_loop(n, generators, level):
    gens = [parse(g, n) for g in generators]
    bases, incidence = gram_incidence(n, gens, level)
    mults = [Polynomial.constant(n, 1.0)] + gens
    contrib = reference_contribution_rows(mults, bases)
    rows = monomials_up_to_degree(n, level)
    assert set(contrib) <= set(rows)
    every = np.arange(len(rows))
    for i, (f, bas, inc) in enumerate(zip(mults, bases, incidence)):
        assert bas == basis(n, (level - f.total_degree()) // 2)
        # every row and the whole basis, then the zero normalization row
        stack = incidence_stack(inc, every, len(rows), np.arange(len(bas)))
        assert stack.shape == (len(rows) + 1, len(bas), len(bas))
        assert not stack[-1].any()
        for k, alpha in enumerate(rows):
            np.testing.assert_array_equal(stack[k], reference_block(contrib, alpha, i, len(bas)))



@pytest.mark.parametrize("level", [4, 5])
def test_separation_rows_match_reference_layout(level):
    n, degree = 2, 2
    ball = Polynomial.ball_generator(n)
    monomials = monomials_up_to_degree(n, level)
    # the shifted pair has no symmetry; the golden pair is fixed by x2 -> -x2,
    # which splits every basis by the parity of the x2 exponent
    for circle, flips in ((SHIFTED_CIRCLE, []), (CIRCLE, [[2]])):
        gens_a, gens_b = [parse(LEMNISCATE, n), ball], [parse(circle, n), ball]
        problem, bases_a, bases_b, parts, flip_basis = _assemble_separation(
            n, gens_a, gens_b, degree, level
        )
        assert [(np.flatnonzero(f) + 1).tolist() for f in flip_basis] == flips

        def parity(alpha):
            return tuple(sum(alpha[i - 1] for i in flip) % 2 for flip in flips)

        for bas, part in zip(bases_a + bases_b, parts):
            # each block covers exactly one parity class, in basis order
            classes = {parity(alpha) for alpha in bas.elements}
            assert len(part) == len(classes)
            for idx in part:
                assert list(idx) == [
                    k for k, alpha in enumerate(bas.elements)
                    if parity(alpha) == parity(bas.elements[idx[0]])
                ]
        blocks_a = [(i, idx) for i, part in enumerate(parts[: len(bases_a)]) for idx in part]
        blocks_b = [(i, idx) for i, part in enumerate(parts[len(bases_a) :]) for idx in part]
        assert problem.block_sizes == (1, 1) + tuple(len(idx) for _, idx in blocks_a + blocks_b)
        contrib_a, contrib_b, invariant, joint, eliminate = reference_separation_rows(
            gens_a, gens_b, bases_a, bases_b, parity, degree, level
        )
        if not flips:
            # the unreduced SDP: whole bases, and at level 5 no Gram entry
            # reaches degree 5, so only those rows are dropped
            assert all(len(part) == 1 for part in parts)
            assert (len(joint) < len(monomials)) == (level == 5)
        else:
            # a non-invariant row reads only entries between different classes
            for alpha in set(monomials) - set(invariant):
                for contrib, blocks in ((contrib_a, blocks_a), (contrib_b, blocks_b)):
                    for i, idx in blocks:
                        mat = contrib.get(alpha, {}).get(i)
                        assert mat is None or not np.any(mat[np.ix_(idx, idx)])
        assert problem.num_constraints == len(joint) + len(eliminate) + 1
        expected_rows = [(alpha, contrib_b) for alpha in joint]
        expected_rows += [(alpha, {}) for alpha in eliminate]
        for (alpha, b_side), (mats, rhs) in zip(expected_rows, problem.constraints):
            is_constant = not any(alpha)
            assert rhs == (-1.0 if is_constant else 0.0)
            assert (mats[0][0, 0], mats[1][0, 0]) == ((2.0, -2.0) if is_constant else (0.0, 0.0))
            # blocks w and u, then the A side's parity blocks, then the B side's
            sides = [(contrib_a, bases_a, i, idx) for i, idx in blocks_a]
            sides += [(b_side, bases_b, i, idx) for i, idx in blocks_b]
            for mat, (contrib, bases, i, idx) in zip(mats[2:], sides, strict=True):
                expected = reference_block(contrib, alpha, i, len(bases[i]))
                np.testing.assert_array_equal(mat, expected[np.ix_(idx, idx)])
        assert_normalization_row(problem.constraints[-1])


# problems (n, A generators, B generators) and (degree, level) pairs: golden
# (fixed by x2 -> -x2), the shifted pair (no symmetry), the 3-D CI balls
# (fixed by x2 -> -x2 and x3 -> -x3)
SEPARATION_CASES = [
    (2, [LEMNISCATE], [CIRCLE], 2, 4),
    (2, [LEMNISCATE], [CIRCLE], 3, 6),
    (2, [LEMNISCATE], [SHIFTED_CIRCLE], 1, 4),
    (2, [LEMNISCATE], [SHIFTED_CIRCLE], 2, 5),
    (3, ["1/16 - (x1 + 0.55)^2 - x2^2 - x3^2"], ["0.0484 - (x1 - 0.57)^2 - x2^2 - x3^2"], 2, 4),
    (3, ["1/16 - (x1 + 0.55)^2 - x2^2 - x3^2"], ["0.0484 - (x1 - 0.57)^2 - x2^2 - x3^2"], 1, 6),
]


@functools.cache
def assembled_separation(case):
    """The case's assembled SDP, its Gram layout and its reference row monomials."""
    n, a, b, degree, level = SEPARATION_CASES[case]
    ball = Polynomial.ball_generator(n)
    gens_a, gens_b = [parse(g, n) for g in a] + [ball], [parse(g, n) for g in b] + [ball]
    problem, bases_a, bases_b, parts, flips = _assemble_separation(n, gens_a, gens_b, degree, level)

    def parity(alpha):
        return tuple(int(np.dot(f, alpha)) % 2 for f in flips)

    _, _, _, joint, eliminate = reference_separation_rows(
        gens_a, gens_b, bases_a, bases_b, parity, degree, level
    )
    return problem, gens_a, gens_b, bases_a, bases_b, parts, joint, eliminate


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, len(SEPARATION_CASES) - 1), st.integers(0, 2**32 - 1))
def test_assembled_rows_read_the_certificate_polynomials(case, seed):
    # any symmetric Gram blocks, written back as certificates: each joint row
    # reads the coefficient of S_A + S_B, each elimination row that of S_A,
    # and the normalization row reads no Gram entry
    problem, gens_a, gens_b, bases_a, bases_b, parts, joint, eliminate = assembled_separation(case)
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((s, s)) for s in problem.block_sizes[2:]]
    blocks = [(x + x.T) / 2 for x in blocks]
    grams = _full_grams(blocks, bases_a + bases_b, parts)
    level = SEPARATION_CASES[case][4]
    s_a = QmCertificate(tuple(gens_a), tuple(grams[: len(bases_a)]), tuple(bases_a), level).polynomial()
    s_b = QmCertificate(tuple(gens_b), tuple(grams[len(bases_a) :]), tuple(bases_b), level).polynomial()
    total = s_a + s_b
    # no coefficient on a non-invariant monomial, nor on a row the assembler dropped
    assert set(s_a.terms) | set(s_b.terms) <= set(joint)
    expected = [total.terms.get(alpha, 0.0) for alpha in joint]
    expected += [s_a.terms.get(alpha, 0.0) for alpha in eliminate]
    expected = np.array(expected + [0.0])
    got = np.array([sum(np.sum(m * x) for m, x in zip(mats[2:], blocks)) for mats, _ in problem.constraints])
    assert got.shape == expected.shape
    # the two sides sum the same products in different orders
    assert np.max(np.abs(got - expected)) <= 1e-12 * (1.0 + np.max(np.abs(expected)))
    assert got[-1] == 0.0


def test_level_too_small_raises():
    # x1^4 at level 2 leaves its multiplier the half degree (2 - 4) // 2 = -1
    with pytest.raises(ValueError, match="half degree must be non-negative, got -1"):
        gram_incidence(1, [parse("1 - x1^4", 1)], 2)


def test_zero_multiplier_leaves_the_others_to_decide():
    # an empty basis with an empty Gram is the zero SOS multiplier: it adds no
    # eigenvalue and no term
    s0 = basis(1, 1)
    gram = np.array([[2.0, 0.5], [0.5, 1.0]])
    grams, bases = (gram, np.zeros((0, 0))), (s0, MonomialBasis(1, ()))
    cert = QmCertificate((parse("1 - x1^2", 1),), grams, bases, 2)
    assert cert.min_gram_eigenvalue() == sdp.min_eigenvalue(gram)
    assert cert.polynomial().max_coeff_diff(expand_gram(gram, s0)) == 0.0


# ---- certificate semantics ----------------------------------------------------


def test_expand_gram_identity_is_sum_of_squared_monomials():
    b = basis(2, 1)
    p = expand_gram(np.eye(3), b)
    assert p == parse("1 + x1^2 + x2^2", 2)


def golden_certificate(side):
    """One side's certificate of the golden result and its target: p - 1 - t on A, -p - t on B."""
    data = json.loads((DATA_DIR / "golden_result.json").read_text())
    p, t = _poly_from_json(data["p"], 2), data["slack"]
    cert = _certificate_from_json(data["certificates"][side], 2, data["level"])
    return cert, (p - (1.0 + t) if side == "A" else -p - t)


def test_perturbed_gram_residual_is_linear():
    for side in "AB":
        cert, target = golden_certificate(side)
        grams = [g.copy() for g in cert.grams]
        grams[0][0, 0] += 1e-3
        bumped = QmCertificate(cert.generators, tuple(grams), cert.bases, cert.level)
        assert reconstruct_residual(bumped, target) == pytest.approx(1e-3, rel=1e-6)


def test_certificate_matches_target_at_random_points():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1.0, 1.0, size=(100, 2))
    for side in "AB":
        cert, target = golden_certificate(side)
        residual = reconstruct_residual(cert, target)
        n_monomials = len(monomials_up_to_degree(2, cert.level))
        total = np.zeros(100)
        mults = [Polynomial.constant(2, 1.0)] + list(cert.generators)
        for f, gram, bas in zip(mults, cert.grams, cert.bases):
            total += expand_gram(gram, bas).evaluate_many(pts) * f.evaluate_many(pts)
        assert np.max(np.abs(target.evaluate_many(pts) - total)) <= residual * n_monomials + 1e-12


def test_multipliers_are_pointwise_nonnegative():
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1.0, 1.0, size=(100, 2))
    for side in "AB":
        cert, _ = golden_certificate(side)
        for s in cert.multipliers():
            assert np.all(s.evaluate_many(pts) >= -1e-9)


@pytest.mark.parametrize("side", ["A", "B"])
def test_certificate_polynomial_matches_expand_and_sum_loop(side):
    cert, _ = golden_certificate(side)
    # reference: expand each Gram, multiply by its generator, sum in order
    total = Polynomial.zero(2)
    mults = [Polynomial.constant(2, 1.0)] + list(cert.generators)
    for f, gram, bas in zip(mults, cert.grams, cert.bases):
        total = total + expand_gram(gram, bas) * f
    assert len(cert.generators) == 2  # the set's generator and the ball
    assert cert.polynomial().max_coeff_diff(total) == 0.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def certificates(draw):
    n = draw(st.integers(1, 3))
    monomials = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    generators = draw(
        st.lists(st.dictionaries(monomials, _FINITE, max_size=4).map(lambda t: Polynomial(n, t)), max_size=2)
    )
    bases = [basis(n, draw(st.integers(0, 2))) for _ in range(len(generators) + 1)]
    grams = [
        np.array(draw(st.lists(_FINITE, min_size=len(b) ** 2, max_size=len(b) ** 2))).reshape(len(b), len(b))
        for b in bases
    ]
    return QmCertificate(tuple(generators), tuple(grams), tuple(bases), draw(st.integers(0, 8)))


@settings(max_examples=50, deadline=None)
@given(certificates())
def test_certificate_json_round_trip_is_bit_exact(cert):
    # the result file's text gives back every Gram entry, basis and generator
    # coefficient to the bit, -0.0 and subnormals included
    text = json.dumps(_certificate_to_json(cert))
    back = _certificate_from_json(json.loads(text), cert.bases[0].n, 0)
    assert back.level == cert.level and back.bases == cert.bases
    assert [g.shape for g in back.grams] == [g.shape for g in cert.grams]
    assert all(got.tobytes() == want.tobytes() for got, want in zip(back.grams, cert.grams))
    bits = [{m: np.float64(c).tobytes() for m, c in g.terms.items()} for g in cert.generators]
    assert [{m: np.float64(c).tobytes() for m, c in g.terms.items()} for g in back.generators] == bits


# ---- the array read-back against dict arithmetic ---------------------------------


def dict_module_element(cert):
    """``cert.polynomial()`` by dict arithmetic: expand each Gram, multiply by its generator, add in turn.

    Each step is a ``Polynomial`` built by the public constructor, which
    drops exact zeros and refuses a non-finite coefficient.
    """
    n = cert.bases[0].n

    def expand(gram, bas):
        terms = {}
        for a, za in enumerate(bas.elements):
            for b, zb in enumerate(bas.elements):
                if gram[a, b] != 0.0:
                    mono = tuple(x + y for x, y in zip(za, zb))
                    terms[mono] = terms.get(mono, 0.0) + float(gram[a, b])
        return Polynomial(n, terms)

    def times(s, f):
        out = {}
        for m1, c1 in s.terms.items():
            for m2, c2 in f.terms.items():
                key = tuple(x + y for x, y in zip(m1, m2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial(n, out)

    def plus(p, q):
        out = dict(p.terms)
        for mono, c in q.terms.items():
            out[mono] = out.get(mono, 0.0) + c
        return Polynomial(n, out)

    squares = [expand(np.asarray(g, dtype=float), b) for g, b in zip(cert.grams, cert.bases)]
    total = Polynomial.zero(n)
    for s, f in zip(squares, [Polynomial.constant(n, 1.0)] + list(cert.generators)):
        total = plus(total, times(s, f))
    return total


def outcome(fn, *args):
    """The terms in order with their bits, or the ValueError's message."""
    try:
        return [(mono, c.hex()) for mono, c in fn(*args).terms.items()]
    except ValueError as err:
        return str(err)


# exact zeros of both signs, values that cancel exactly, subnormals, values whose
# products or sums leave the float range, and non-finite Gram entries
_ENTRIES = st.sampled_from(
    [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 5e-324, 1e200, -1e200, 1e308, -1e308, math.inf, math.nan]
) | st.floats(-4.0, 4.0)
# exponents past int64, and ones whose keys pass int64 only in several variables
_EXPONENTS = st.integers(0, 3) | st.sampled_from([2**31, 2**62, 2**63, 10**20])


@st.composite
def raw_certificates(draw):
    n = draw(st.integers(1, 3))
    monomial = st.tuples(*[_EXPONENTS] * n)
    coeff = _ENTRIES.filter(math.isfinite)
    generators = [
        Polynomial(n, draw(st.dictionaries(monomial, coeff, max_size=4)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    bases, grams = [], []
    for _ in range(len(generators) + 1):
        elements = draw(st.lists(monomial, unique=True, max_size=4))
        k = len(elements)
        if draw(st.booleans()):
            gram = np.array(draw(st.lists(_ENTRIES, min_size=k * k, max_size=k * k))).reshape(k, k)
        else:
            gram = np.zeros((k, k))
        bases.append(MonomialBasis(n, tuple(elements)))
        grams.append(gram)
    return QmCertificate(tuple(generators), tuple(grams), tuple(bases), 0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw_certificates())
def test_certificate_polynomial_is_the_dict_arithmetic_bit_for_bit(cert):
    # the same coefficients to the bit, in the same term order, or the same error
    want = outcome(dict_module_element, cert)
    assert outcome(QmCertificate.polynomial, cert) == want
    for gram, bas in zip(cert.grams, cert.bases):
        single = QmCertificate((), (gram,), (bas,), 0)
        assert outcome(expand_gram, gram, bas) == outcome(dict_module_element, single)


def test_certificate_polynomial_keeps_the_order_of_a_sum_that_cancels_and_returns():
    # s_0 = x1^2 + 1, s_1 = -x1^2 cancels its x1^2 and s_2 = 2 x1^2 brings it back:
    # the dict sum drops the key and inserts it again, now after the constant
    one = Polynomial.constant(1, 1.0)
    cert = QmCertificate(
        (one, one),
        (np.eye(2), np.diag([0.0, -1.0]), np.array([[2.0]])),
        (MonomialBasis(1, ((1,), (0,))), basis(1, 1), MonomialBasis(1, ((1,),))),
        0,
    )
    assert list(cert.polynomial().terms.items()) == [((0,), 1.0), ((2,), 2.0)]
    assert outcome(QmCertificate.polynomial, cert) == outcome(dict_module_element, cert)


def one_term_gram(value):
    return np.array([[value]]), MonomialBasis(1, ((0,),))


@pytest.mark.parametrize(
    "generators, message",
    [
        # the product 1e200 * (1e200 x1 + 1e200 x1^2) is refused at its first term x1,
        # before it is added after the x1^2 that s_0 put first
        ([{(1,): 1e200, (2,): 1e200}], "non-finite coefficient inf for monomial (1,)"),
        # the running sum overflows at x1^2 before the last product overflows at x1^5
        ([{(2,): 1e308 / 1e200}, {(5,): 1e200}], "non-finite coefficient inf for monomial (2,)"),
    ],
)
def test_certificate_polynomial_overflow_raises_where_the_dict_code_raises(generators, message):
    grams, bases = zip(
        (np.array([[1e308]]), MonomialBasis(1, ((1,),))),
        *[one_term_gram(1e200) for _ in generators],
    )
    gens = tuple(Polynomial(1, g) for g in generators)
    cert = QmCertificate(gens, grams, bases, 0)
    assert outcome(QmCertificate.polynomial, cert) == outcome(dict_module_element, cert) == message


@pytest.mark.parametrize(
    "elements, message",
    [
        (((0, 0), (1, 0, 0)), "basis monomial (1, 0, 0) is not 2 non-negative exponents"),
        (((0, 0), (-1, 2)), "basis monomial (-1, 2) is not 2 non-negative exponents"),
    ],
)
def test_basis_refuses_what_is_not_an_exponent_tuple(elements, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MonomialBasis(2, elements)
