import contextlib
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.linalg as la

from conftest import CIRCLE, DISK_LEFT, DISK_RIGHT, LEMNISCATE, incidence_stacks
from polysep import sdp, separator, sos
from polysep.poly import Polynomial, parse
from polysep.semialg import EmptySampleError, SemialgebraicSet, sample_blocks, sample_grid
from polysep.separator import (
    HierarchyExhaustedError,
    InfeasibleAtLevelError,
    SeparatorOptions,
    SeparatorProblem,
    SeparatorResult,
    certificate_residuals,
    margin_sdp_solution,
    run_hierarchy,
    solve_fixed_level,
    verify_certificate,
    verify_separation,
)
from polysep.sos import monomials_up_to_degree, parity_classes, sign_flips


def fixed(a, b, degree, level, **opts):
    return solve_fixed_level(
        SeparatorProblem(A=a, B=b, p_degree=degree, level=level, options=SeparatorOptions(**opts))
    )


# ---- fixed-level solves ------------------------------------------------------


def test_box_faces_affine_separator():
    a = SemialgebraicSet(2, (parse("x1 - 1", 2),))
    b = SemialgebraicSet(2, (parse("-x1 - 1", 2),))
    result = fixed(a, b, 1, 2)
    assert result.slack > 0.5
    assert result.p.total_degree() == 1
    report = verify_separation(result.p, a, b, 201, 1e-3)
    assert report.passed


def test_disks_separate_at_degree_one(disk_sets):
    a, b = disk_sets
    result = fixed(a, b, 1, 4)
    assert result.slack > 1e-3
    report = verify_separation(result.p, a, b, 201, 1e-3)
    assert report.passed
    # p decreases left to right: an analytic separator like 1/2 - 2 x1 exists
    assert result.p.terms.get((1, 0), 0.0) < 0.0


def test_identical_sets_are_never_separated(disk_sets):
    a, _ = disk_sets
    for level in (2, 4, 6):
        with pytest.raises(InfeasibleAtLevelError) as info:
            fixed(a, a, 1, level)
        assert info.value.slack <= 1e-6


def reduced_optimum(a, b, degree, level, opts=SeparatorOptions()):
    """The untargeted optimal margin of the reduced SDP, and the problem solved for it.

    ``solve_fixed_level`` stops at a certified iterate and reports slack 1,
    so only the optimum can be compared across levels and problems.
    """
    gens_a, gens_b = separator._augmented_generators(a, b, opts)
    problem = separator._assemble_separation(a.n, gens_a, gens_b, degree, level)[0]
    sol = sdp.solve(problem, tol=opts.solver_tol)
    assert sol.status is sdp.SdpStatus.OPTIMAL
    return margin_sdp_solution(sol)[0], problem


def test_level_monotonicity_on_disks(disk_sets):
    a, b = disk_sets
    margins = [reduced_optimum(a, b, 1, level)[0] for level in (2, 4, 6)]
    for value in margins:
        assert value > 1e-6
    for lo, hi in zip(margins, margins[1:]):
        assert hi >= lo - 1e-6


def test_generator_scaling_preserves_feasibility(disk_sets):
    # the scaled generators have the disks' monomials, so the second assembly
    # is a hit on the first one's plan, and gives the SDP a fresh build gives
    a, b = disk_sets
    scaled_a = SemialgebraicSet(2, tuple(g.scale(2.0) for g in a.generators))
    scaled_b = SemialgebraicSet(2, tuple(g.scale(2.0) for g in b.generators))
    separator._separation_plan.cache_clear()
    base, _ = reduced_optimum(a, b, 1, 2)
    scaled, cached = reduced_optimum(scaled_a, scaled_b, 1, 2)
    assert separator._separation_plan.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert scaled == pytest.approx(base, abs=1e-5)
    separator._separation_plan.cache_clear()
    gens_a, gens_b = separator._augmented_generators(scaled_a, scaled_b, SeparatorOptions())
    fresh = separator._assemble_separation(2, gens_a, gens_b, 1, 2)[0]
    assert_same_sdp(cached, fresh)


def test_problem_validation(disk_sets):
    a, b = disk_sets
    with pytest.raises(ValueError):
        SeparatorProblem(A=a, B=b, p_degree=1, level=1)  # below generator degree
    with pytest.raises(ValueError):
        SeparatorProblem(A=a, B=SemialgebraicSet(3, (parse("x1", 3),)), p_degree=1, level=4)


# ---- sign-symmetry reduction ----------------------------------------------------


def reference_margin_sdp(n, gens_a, gens_b, degree, level, reduced=True):
    """The joint margin SDP through per-block stacks and ``SdpProblem``'s packing.

    Reduced, it keeps the rows and parity blocks of the sign flips that fix
    every generator, as ``_assemble_separation`` does; otherwise whole Grams
    and every reached row.
    """
    monomials = monomials_up_to_degree(n, level)
    row_degrees = np.array([sum(alpha) for alpha in monomials])
    m = len(row_degrees)
    (bases_a, stacks_a), (bases_b, stacks_b) = (incidence_stacks(n, g, level) for g in (gens_a, gens_b))
    flips = sign_flips(n, [alpha for g in gens_a + gens_b for alpha in g.terms])
    flips = flips if reduced else flips[:0]
    invariant = parity_classes(flips, monomials) == 0
    touched_a = np.any([st[:m].any(axis=(1, 2)) for st in stacks_a], axis=0)
    touched_b = np.any([st[:m].any(axis=(1, 2)) for st in stacks_b], axis=0)
    joint = np.flatnonzero((touched_a | touched_b) & invariant)
    eliminate = np.flatnonzero(touched_a & invariant & (row_degrees > degree))
    rows = np.concatenate([joint, eliminate])

    def blocks(bases, stacks):
        for bas, st in zip(bases, stacks):
            classes = parity_classes(flips, bas.elements)
            for c in np.unique(classes):
                idx = np.flatnonzero(classes == c)
                yield st[:, idx[:, None], idx]

    # row m is the zero normalization row; the B side's elimination rows stay zero
    stacks = [st[np.append(rows, m)] for st in blocks(bases_a, stacks_a)] + [
        np.concatenate([st[joint], np.zeros((len(eliminate) + 1,) + st.shape[1:])])
        for st in blocks(bases_b, stacks_b)
    ]
    # blocks w and u carry the margin t = w - u, and the last row pins w = 1
    margin = np.where(rows == 0, 2.0, 0.0)
    w = np.append(margin, 1.0).reshape(-1, 1, 1)
    u = np.append(np.negative(margin), 0.0).reshape(-1, 1, 1)
    sizes = (1, 1) + tuple(st.shape[1] for st in stacks)
    objective = [np.ones((1, 1)), -np.ones((1, 1))] + [None] * len(stacks)
    rhs = np.append(np.where(rows == 0, -1.0, 0.0), 1.0)
    return sdp.SdpProblem(sizes, objective, [w, u] + stacks, rhs)


def full_margin_sdp(n, gens_a, gens_b, degree, level):
    """The joint margin SDP without the reduction: whole Grams, every reached row."""
    return reference_margin_sdp(n, gens_a, gens_b, degree, level, reduced=False)


def assert_same_sdp(got, expected):
    """The same SDP, bit for bit: signed zeros, layout and size groups included."""
    for name in ("matrix", "c", "rhs"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    assert (got.block_sizes, got.groups) == (expected.block_sizes, expected.groups)


BALLS3 = ("1/16 - (x1 + 0.55)^2 - x2^2 - x3^2", "0.0484 - (x1 - 0.57)^2 - x2^2 - x3^2")
BALLS4 = ("0.04 - (x1 + 0.5)^2 - x2^2 - x3^2 - x4^2", "0.04 - (x1 - 0.5)^2 - x2^2 - x3^2 - x4^2")
CUBIC_A = "0.05 - (x1 + 0.4)^2 - (x2 - 0.1)^3 - x2^2"
CUBIC_B = "0.04 - (x1 - 0.5)^2 - (x2 + 0.2)^2 + 1/10*x1^3"


def assembly_peak(n, gens_a, gens_b, degree, level):
    """The assembled problem and the peak of the memory its assembly allocates."""
    tracemalloc.start()
    try:
        problem = separator._assemble_separation(n, gens_a, gens_b, degree, level)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return problem, peak


def test_separation_assembly_allocates_only_the_reduced_sdp():
    n = 4
    a, b = (SemialgebraicSet(n, (parse(g, n),)) for g in BALLS4)
    gens_a, gens_b = separator._augmented_generators(a, b, SeparatorOptions())
    separator._separation_plan.cache_clear()
    problem, peak = assembly_peak(n, gens_a, gens_b, 2, 8)
    # the plan's index arrays and the matrix scattered from them; stacks over
    # every row monomial and whole bases would take about 15 times the packed
    # matrix here
    assert peak <= 1.5 * problem.matrix.nbytes


def test_a_cached_assembly_allocates_the_matrix_and_little_else():
    n = 4
    a, b = (SemialgebraicSet(n, (parse(g, n),)) for g in BALLS4)
    gens_a, gens_b = separator._augmented_generators(a, b, SeparatorOptions())
    separator._assemble_separation(n, gens_a, gens_b, 2, 8)
    problem, peak = assembly_peak(n, gens_a, gens_b, 2, 8)
    assert separator._separation_plan.cache_info().hits >= 1
    assert peak <= 1.1 * problem.matrix.nbytes


@pytest.mark.parametrize(
    "n, generators, degree, level, ball",
    [
        (2, (LEMNISCATE, CIRCLE), 2, 4, True),
        (2, (LEMNISCATE, "1/16 - (x1 - 1/2)^2 - (x2 - 1/5)^2"), 2, 5, True),  # no symmetry
        (2, (CUBIC_A, CUBIC_B), 1, 5, False),
        (3, BALLS3, 2, 6, True),
        (4, BALLS4, 1, 4, True),
    ],
)
def test_planned_assembly_matches_the_stacks_path_bit_for_bit(n, generators, degree, level, ball):
    # two calls on the same monomials with other coefficients: the second
    # reuses the first one's plan, and each gives what a fresh plan and the
    # stacks path give
    a, b = (SemialgebraicSet(n, (parse(g, n),)) for g in generators)
    opts = SeparatorOptions(ball_constraint=ball)
    separator._separation_plan.cache_clear()
    for factor in (1.0, -3.0):
        scaled_a, scaled_b = (
            SemialgebraicSet(n, tuple(g.scale(factor) for g in s.generators)) for s in (a, b)
        )
        gens_a, gens_b = separator._augmented_generators(scaled_a, scaled_b, opts)
        problem = separator._assemble_separation(n, gens_a, gens_b, degree, level)[0]
        assert_same_sdp(problem, reference_margin_sdp(n, gens_a, gens_b, degree, level))
        cached = separator._separation_plan.cache_info()
        separator._separation_plan.cache_clear()
        assert_same_sdp(problem, separator._assemble_separation(n, gens_a, gens_b, degree, level)[0])
    assert cached[:2] == (1, 1)  # (hits, misses) before the last fresh build


@pytest.mark.parametrize(
    "n, generators, degree, level, flips",
    [
        (2, (LEMNISCATE, CIRCLE), 2, 4, [[2]]),
        (2, (LEMNISCATE, CIRCLE), 1, 4, [[2]]),  # no margin at degree 1
        (3, BALLS3, 2, 8, [[2], [3]]),
        (4, BALLS4, 2, 6, [[2], [3], [4]]),
    ],
)
def test_sign_symmetry_reduction_matches_the_full_sdp(n, generators, degree, level, flips):
    a, b = (SemialgebraicSet(n, (parse(g, n),)) for g in generators)
    opts = SeparatorOptions()
    gens_a, gens_b = separator._augmented_generators(a, b, opts)
    full_problem = full_margin_sdp(n, gens_a, gens_b, degree, level)
    full = sdp.solve(full_problem, tol=opts.solver_tol)
    assert full.status is sdp.SdpStatus.OPTIMAL
    full_t = margin_sdp_solution(full)[0]
    # the reduced SDP solved to optimality too: the same optimum in about as many iterations
    reduced = sdp.solve(separator._assemble_separation(n, gens_a, gens_b, degree, level)[0],
                        tol=opts.solver_tol)
    assert reduced.status is sdp.SdpStatus.OPTIMAL
    assert abs(margin_sdp_solution(reduced)[0] - full_t) <= 1e-9
    assert abs(reduced.iterations - full.iterations) <= 1
    problem = SeparatorProblem(A=a, B=b, p_degree=degree, level=level, options=opts)
    if full_t <= opts.margin_tol:
        with pytest.raises(InfeasibleAtLevelError) as info:
            solve_fixed_level(problem)
        assert abs(info.value.slack - full_t) <= 1e-9
        return
    result = solve_fixed_level(problem)
    diag = result.diagnostics
    assert result.slack == 1.0
    assert diag["sign_flips"] == flips
    assert diag["num_constraints"] < full_problem.num_constraints
    assert max(diag["block_sizes"]) < max(full_problem.block_sizes)

    def parity(alpha):
        return tuple(sum(alpha[i - 1] for i in flip) % 2 for flip in flips)

    for cert in (result.cert_A, result.cert_B):
        for gram, bas in zip(cert.grams, cert.bases):
            classes = [parity(alpha) for alpha in bas.elements]
            cross = np.array([[ca != cb for cb in classes] for ca in classes])
            assert np.all(gram[cross] == 0.0)
    assert verify_certificate(result, 1e-6).passed


@pytest.mark.parametrize(
    "n, generators, degree, level, drops_rows",
    [
        (2, (LEMNISCATE, CIRCLE), 1, 4, False),  # no margin
        (2, (LEMNISCATE, CIRCLE), 2, 4, False),
        (2, (DISK_LEFT, DISK_RIGHT), 1, 2, False),
        (3, BALLS3, 2, 4, False),
        (2, (CUBIC_A, CUBIC_B), 1, 5, True),
    ],
    ids=["golden-1-4", "golden-2-4", "disks", "balls3", "cubic-odd-level"],
)
def test_a_certified_iterate_ends_the_solve_rescaled_to_margin_one(
    n, generators, degree, level, drops_rows
):
    # the same reduced SDP solved to optimality decides: a margin above
    # margin_tol separates, any other is reported as it is
    a, b = (SemialgebraicSet(n, (parse(g, n),)) for g in generators)
    opts = SeparatorOptions()
    gens_a, gens_b = separator._augmented_generators(a, b, opts)
    problem = SeparatorProblem(A=a, B=b, p_degree=degree, level=level, options=opts)
    warns = pytest.warns(sdp.DependentConstraintWarning) if drops_rows else contextlib.nullcontext()
    with warns:
        reduced = separator._assemble_separation(n, gens_a, gens_b, degree, level)[0]
        optimum = sdp.solve(reduced, tol=opts.solver_tol)
        assert optimum.status is sdp.SdpStatus.OPTIMAL
        t = margin_sdp_solution(optimum)[0]
        if t <= opts.margin_tol:
            with pytest.raises(InfeasibleAtLevelError) as info:
                solve_fixed_level(problem)
            assert info.value.slack == t
            return
        result = solve_fixed_level(problem)
    assert result.slack == 1.0
    assert max(certificate_residuals(result)) <= 2e-8
    assert min(c.min_gram_eigenvalue() for c in (result.cert_A, result.cert_B)) > 0.0
    assert result.diagnostics["sdp_iterations"] <= optimum.iterations
    assert verify_certificate(result, 2e-8).passed


RANK_FAMILIES = pytest.mark.parametrize(
    "n, generators, levels, dependent_levels",
    [
        (2, (LEMNISCATE, CIRCLE), (4, 6), ()),
        (2, (LEMNISCATE, "1/16 - (x1 - 0.55)^2 - x2^2"), range(4, 11), ()),
        (3, BALLS3, range(2, 9), ()),
        (4, BALLS4, range(2, 9), ()),
        (2, (CUBIC_A, CUBIC_B), range(4, 9), (5, 7)),
    ],
    ids=["golden", "lemniscate-disk", "balls3", "balls4", "cubic"],
)


@RANK_FAMILIES
def test_rank_filter_drops_rows_only_at_odd_levels_of_odd_degree_generators(
    n, generators, levels, dependent_levels
):
    # each joint row owns B-side s_0 entries and each elimination row A-side
    # ones, so even levels are independent by construction; the cubic pair
    # repeats three rows, consistently, at its odd levels
    a, b = (SemialgebraicSet(n, (parse(g, n),)) for g in generators)
    for ball in (True, False):
        opts = SeparatorOptions(ball_constraint=ball)
        gens_a, gens_b = separator._augmented_generators(a, b, opts)
        for level in levels:
            for degree in range(1, min(3, level) + 1):
                problem = separator._assemble_separation(n, gens_a, gens_b, degree, level)[0]
                _, dropped, inconsistent = sdp._rank_filter(problem)
                expected = 3 if level in dependent_levels else 0
                assert (len(dropped), inconsistent) == (expected, False), (ball, level, degree)


@RANK_FAMILIES
def test_rank_filter_forms_no_row_gram_at_even_levels(
    monkeypatch, n, generators, levels, dependent_levels
):
    # the peel proves every row independent, so the numeric Gram test never runs
    monkeypatch.setattr(sdp, "_gram_rank", None)
    a, b = (SemialgebraicSet(n, (parse(g, n),)) for g in generators)
    for ball in (True, False):
        gens_a, gens_b = separator._augmented_generators(a, b, SeparatorOptions(ball_constraint=ball))
        for level in (level for level in levels if level % 2 == 0):
            for degree in range(1, min(3, level) + 1):
                problem = separator._assemble_separation(n, gens_a, gens_b, degree, level)[0]
                kept, dropped, inconsistent = sdp._rank_filter(problem)
                assert (len(kept), dropped, inconsistent) == (problem.num_constraints, [], False)


def normalized_gram(problem):
    """The rank filter's row-normalized Gram and tolerance, computed as it does."""
    gram = problem.matrix @ problem.matrix.T
    norms = np.sqrt(np.diag(gram))
    norms[norms == 0.0] = 1.0
    gram /= norms[:, None]
    gram /= norms[None, :]
    return gram, max(problem.matrix.shape) * np.finfo(float).eps


def dpstrf_rank(problem) -> int:
    """The reference: LAPACK's pivoted Cholesky rank of the normalized Gram."""
    gram, tol = normalized_gram(problem)
    return la.lapack.dpstrf(gram, tol=tol, lower=1)[2]


def assert_dropped_rows_are_consistent_combinations(problem, kept, dropped):
    # independent of the filter's own test: least squares over the kept rows
    # reproduces every dropped row and its right-hand side
    mat, b = problem.matrix, problem.rhs
    coeff = np.linalg.lstsq(mat[kept].T, mat[dropped].T, rcond=None)[0]
    scale = np.abs(mat).max()
    np.testing.assert_allclose(mat[kept].T @ coeff, mat[dropped].T, atol=1e-10 * scale)
    np.testing.assert_allclose(b[kept] @ coeff, b[dropped], atol=1e-8 * (1.0 + np.abs(b).max()))


@pytest.mark.parametrize("level", range(3, 9))
@pytest.mark.parametrize("degree", (1, 2, 3))
def test_rank_filter_keeps_lapack_pivoted_rank_on_the_cubic_pair(monkeypatch, degree, level):
    # the cubic pair repeats up to three rows, consistently, at odd levels; at
    # even levels the unpivoted Cholesky keeps every row and the pivoted one never runs
    a, b = (SemialgebraicSet(2, (parse(g, 2),)) for g in (CUBIC_A, CUBIC_B))
    gens_a, gens_b = separator._augmented_generators(a, b, SeparatorOptions())
    problem = separator._assemble_separation(2, gens_a, gens_b, degree, level)[0]
    if level % 2 == 0:
        monkeypatch.setattr(sdp, "_pivoted_cholesky", None)
    kept, dropped, inconsistent = sdp._rank_filter(problem)
    rank = dpstrf_rank(problem)
    assert (len(kept), len(dropped), inconsistent) == (rank, problem.num_constraints - rank, False)
    assert_dropped_rows_are_consistent_combinations(problem, kept, dropped)


@pytest.mark.parametrize("seed", range(8))
def test_rank_filter_keeps_lapack_pivoted_rank_on_random_rank_deficient_rows(seed):
    # rows of random rank r on 4 x 4 symmetric blocks, scaled over six decades;
    # odd seeds add a zero row
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(2, 9))
    m = rank + int(rng.integers(1, 8))
    base = rng.standard_normal((rank, 4, 4))
    base += np.swapaxes(base, 1, 2)
    coeff = rng.standard_normal((m, rank)) * 10.0 ** rng.uniform(-3, 3, (m, 1))
    if seed % 2:
        coeff[rng.integers(m)] = 0.0
    rhs = coeff @ rng.standard_normal(rank)
    problem = sdp.SdpProblem((4,), [None], [np.einsum("mr,rij->mij", coeff, base)], rhs)

    kept, dropped, inconsistent = sdp._rank_filter(problem)
    assert (len(kept), len(dropped), inconsistent) == (rank, m - rank, False)
    assert dpstrf_rank(problem) == rank
    assert_dropped_rows_are_consistent_combinations(problem, kept, dropped)
    # the numpy pivoted Cholesky takes LAPACK's pivots and reproduces the kept rows' Gram
    gram, tol = normalized_gram(problem)
    fac, piv, found = sdp._pivoted_cholesky(gram, tol)
    ref_piv = la.lapack.dpstrf(gram, tol=tol, lower=1)[1] - 1
    assert found == rank and piv[:rank].tolist() == ref_piv[:rank].tolist()
    l11 = fac[:rank, :rank]
    np.testing.assert_allclose(l11 @ l11.T, gram[np.ix_(piv[:rank], piv[:rank])], atol=1e-12)
    # an inconsistent right-hand side on a dropped row is caught
    problem.rhs[dropped[0]] += 1.0 + abs(problem.rhs[dropped[0]])
    assert sdp._rank_filter(problem)[2]


# ---- certificates --------------------------------------------------------------


def test_result_certificates_reconstruct(disk_sets):
    a, b = disk_sets
    result = fixed(a, b, 1, 4)
    res_a, res_b = certificate_residuals(result)
    assert res_a <= 1e-6
    assert res_b <= 1e-6
    assert verify_certificate(result, 1e-6).passed


def test_a_solve_and_its_residuals_expand_each_certificate_once(disk_sets, monkeypatch):
    # p comes from the A side's module element, and the residuals reuse it
    expanded = []
    expand = sos._module_element
    monkeypatch.setattr(sos, "_module_element", lambda *args: expanded.append(args) or expand(*args))
    result = fixed(*disk_sets, 1, 4)
    certificate_residuals(result)
    verify_certificate(result, 1e-6)
    assert [args[2] for args in expanded] == [result.cert_A.bases, result.cert_B.bases]
    assert result.cert_A.polynomial() is result.cert_A.polynomial()


def test_verify_certificate_reports_residuals_eigenvalue_and_slack(disk_sets):
    a, b = disk_sets
    result = fixed(a, b, 1, 4)
    report = verify_certificate(result, 1e-6)
    assert (report.residual_A, report.residual_B) == certificate_residuals(result)
    assert report.min_gram_eigenvalue == min(
        result.cert_A.min_gram_eigenvalue(), result.cert_B.min_gram_eigenvalue()
    )
    assert report.slack == result.slack
    assert list(asdict(report)) == [
        "residual_A", "residual_B", "min_gram_eigenvalue", "slack", "passed"
    ]


def test_verify_certificate_rejects_corruption(disk_sets):
    a, b = disk_sets
    result = fixed(a, b, 1, 4)
    grams = [g.copy() for g in result.cert_A.grams]
    grams[0][0, 0] += 0.1
    broken = SeparatorResult(
        p=result.p,
        cert_A=type(result.cert_A)(
            result.cert_A.generators, tuple(grams), result.cert_A.bases, result.cert_A.level
        ),
        cert_B=result.cert_B,
        slack=result.slack,
        level=result.level,
        p_degree=result.p_degree,
    )
    assert not verify_certificate(broken, 1e-6).passed


def test_verify_certificate_rejects_zero_slack(disk_sets):
    a, b = disk_sets
    result = fixed(a, b, 1, 4)
    flat = SeparatorResult(
        p=result.p,
        cert_A=result.cert_A,
        cert_B=result.cert_B,
        slack=0.0,
        level=result.level,
        p_degree=result.p_degree,
    )
    assert not verify_certificate(flat, 1e-6).passed


def _with_gram(cert, index, update):
    grams = [g.copy() for g in cert.grams]
    update(grams[index], cert.bases[index].elements)
    return replace(cert, grams=tuple(grams))


def _absorb_margin(result):
    """Slack 0, with the margin moved into each s_0's constant Gram entry.

    Both identities still hold and the Grams stay PSD, so only the slack
    rule can reject.
    """

    def bump(gram, elements):
        assert elements[0] == (0, 0)  # the constant monomial
        gram[0, 0] += result.slack

    return replace(
        result,
        cert_A=_with_gram(result.cert_A, 0, bump),
        cert_B=_with_gram(result.cert_B, 0, bump),
        slack=0.0,
    )


def _break_residual_b(result):
    def bump(gram, elements):
        gram[0, 0] += 0.1

    return replace(result, cert_B=_with_gram(result.cert_B, 0, bump))


def _break_psd(result):
    """s_0's Gram with a -1 at x1*x1, offset through 1*x1^2: same polynomial, not PSD."""

    def swap(gram, elements):
        i, j, k = (elements.index(m) for m in ((1, 0), (0, 0), (2, 0)))
        delta = gram[i, i] + 1.0
        gram[i, i] -= delta
        gram[j, k] += delta / 2
        gram[k, j] += delta / 2

    return replace(result, cert_A=_with_gram(result.cert_A, 0, swap))


@pytest.mark.parametrize(
    "breaks, rule",
    [(_absorb_margin, "slack"), (_break_residual_b, "residual_B"), (_break_psd, "eigenvalue")],
    ids=["slack", "residual_B", "eigenvalue"],
)
def test_verify_certificate_rejects_on_each_rule_alone(disk_sets, breaks, rule):
    a, b = disk_sets
    report = verify_certificate(breaks(fixed(a, b, 1, 4)), 1e-6)
    holds = {
        "slack": report.slack > 0.0,
        "residual_A": report.residual_A <= 1e-6,
        "residual_B": report.residual_B <= 1e-6,
        "eigenvalue": report.min_gram_eigenvalue >= -1e-6,
    }
    assert [name for name, ok in holds.items() if not ok] == [rule]
    assert not report.passed


def test_certificate_soundness_implies_grid_separation(disk_sets, lemniscate_set, circle_set):
    problems = [
        (disk_sets[0], disk_sets[1], 1, 4),
        (lemniscate_set, circle_set, 2, 4),
    ]
    for a, b, degree, level in problems:
        result = fixed(a, b, degree, level)
        assert verify_certificate(result, 1e-6).passed
        report = verify_separation(result.p, a, b, 201, 1e-3)
        assert report.passed


# ---- hierarchy ------------------------------------------------------------------


def test_hierarchy_on_lemniscate_and_circle(lemniscate_set, circle_set):
    result = run_hierarchy(lemniscate_set, circle_set, d_max=3, l_max=8)
    assert result.p_degree == 2
    assert result.level == 4
    assert result.slack > 1e-6
    # same shape as the published degree-2 separator: even in x2, decreasing in x1
    assert result.p.terms.get((1, 0), 0.0) < 0.0
    assert result.p.terms.get((0, 2), 0.0) > 0.0
    assert result.p.terms.get((0, 1), 0.0) == pytest.approx(0.0, abs=1e-6)
    trace = result.diagnostics["trace"]
    assert [t["outcome"] for t in trace][-1] == "separated"
    assert all(t["outcome"] == "no_margin" for t in trace if t["degree"] == 1)


def test_hierarchy_on_disks(disk_sets):
    a, b = disk_sets
    result = run_hierarchy(a, b, d_max=2, l_max=6)
    assert result.p_degree == 1


def test_hierarchy_exhausts_on_identical_sets(disk_sets):
    a, _ = disk_sets
    with pytest.raises(HierarchyExhaustedError) as info:
        run_hierarchy(a, a, d_max=2, l_max=4)
    assert len(info.value.trace) == 4
    assert all(t["outcome"] == "no_margin" for t in info.value.trace)


def test_hierarchy_records_a_failed_solve_and_goes_on(disk_sets, troubled_solver):
    a, b = disk_sets
    with pytest.raises(HierarchyExhaustedError) as info:
        run_hierarchy(a, b, d_max=2, l_max=4)
    assert info.value.trace == [
        {"degree": d, "level": level, "outcome": "solver_error", "detail": troubled_solver}
        for level, d in ((2, 1), (2, 2), (4, 1), (4, 2))
    ]


def test_hierarchy_exhausts_level_major_over_the_degree_major_pairs(disk_sets):
    a, _ = disk_sets
    d_max, l_max = 3, 6
    # the pairs of the degree-major sweep: each degree from its own first even level
    degree_major = []
    for d in range(1, d_max + 1):
        level = max(d, 2)  # the disk and the ball generator have degree 2
        level += level % 2
        degree_major += [(d, lv) for lv in range(level, l_max + 1, 2)]
    with pytest.raises(HierarchyExhaustedError) as info:
        run_hierarchy(a, a, d_max=d_max, l_max=l_max)
    tried = [(t["degree"], t["level"]) for t in info.value.trace]
    assert sorted(tried) == sorted(degree_major)
    assert tried == sorted(degree_major, key=lambda dl: (dl[1], dl[0]))
    assert all(t["outcome"] == "no_margin" for t in info.value.trace)


def test_hierarchy_argument_validation(disk_sets):
    a, b = disk_sets
    with pytest.raises(ValueError):
        run_hierarchy(a, b, d_max=0, l_max=4)
    # a level cap below the degree cap clips the degrees at each level
    result = run_hierarchy(a, b, d_max=3, l_max=2)
    assert (result.p_degree, result.level) == (1, 2)


def test_hierarchy_refuses_a_level_cap_below_its_first_level(disk_sets, monkeypatch):
    # x2^10 puts the first even level at 10: a cap of 8 or 9 leaves no attempt,
    # which is an argument error, not an exhausted sweep
    _, b = disk_sets
    a = SemialgebraicSet(2, (parse("1/16 - (x1 + 1/2)^2 - x2^10", 2),))

    def no_solve(problem):
        raise AssertionError("no attempt should be solved")

    monkeypatch.setattr(separator, "solve_fixed_level", no_solve)
    for l_max in (8, 9):
        with pytest.raises(ValueError, match=f"l_max {l_max} is below the sweep's first level 10,"):
            run_hierarchy(a, b, d_max=3, l_max=l_max)


# ---- grid verification -----------------------------------------------------------


def test_reference_separator_passes_on_circle_reading(
    reference_p, lemniscate_set, circle_set
):
    report = verify_separation(reference_p, lemniscate_set, circle_set, 201, 1e-2)
    assert report.passed
    assert report.min_on_A >= 1.0 - 1e-2
    assert report.max_on_B <= 1e-2


def test_reference_separator_fails_on_two_lobe_reading(
    reference_p, lemniscate_set, two_lobe_set
):
    report = verify_separation(reference_p, lemniscate_set, two_lobe_set, 201, 1e-2)
    assert not report.passed
    # the left lobe is the witness: its points have x1 < 0 and large p
    assert report.witness_B[0] < 0.0
    assert report.max_on_B > 1.0
    assert reference_p.evaluate([-0.5, 0.0]) == pytest.approx(5.786, abs=1e-3)


@pytest.mark.parametrize("p", ["1 - 2*x1 + x2^2 - x3^3", "7/4", "0"])
def test_verify_separation_finds_the_cloud_extremes_block_by_block(p):
    # the first extreme in the cloud's x1-major order; a constant p ties
    # everywhere, so its witnesses are each cloud's first point
    n, resolution = 3, 201
    a, b = (SemialgebraicSet(n, (parse(g, n),)) for g in BALLS3)
    poly = parse(p, n)
    report = verify_separation(poly, a, b, resolution, 1e-3)
    for cloud, pick, value, witness, count in (
        (sample_grid(a, resolution), np.argmin, report.min_on_A, report.witness_A, report.count_A),
        (sample_grid(b, resolution), np.argmax, report.max_on_B, report.witness_B, report.count_B),
    ):
        vals = poly.evaluate_many(cloud)
        i = int(pick(vals))
        assert (value, witness, count) == (float(vals[i]), tuple(cloud[i]), len(cloud))
    # the sample points span several blocks
    assert sum(bool(mask.any()) for _, mask in sample_blocks(a, resolution)) > 1


def test_verify_separation_empty_sample(lemniscate_set):
    empty = SemialgebraicSet(2, (parse("-1 - x1^2", 2),))
    with pytest.raises(EmptySampleError):
        verify_separation(Polynomial.constant(2, 1.0), lemniscate_set, empty, 51, 1e-3)


def test_verify_separation_empty_first_set_skips_the_second_sweep(lemniscate_set, monkeypatch):
    empty = SemialgebraicSet(2, (parse("-1 - x1^2", 2),))
    sampled = []

    def counting(s, resolution):
        sampled.append(s)
        return sample_blocks(s, resolution)

    monkeypatch.setattr(separator, "sample_blocks", counting)
    with pytest.raises(EmptySampleError, match="first set has no sample points at resolution 51"):
        verify_separation(Polynomial.constant(2, 1.0), empty, lemniscate_set, 51, 1e-3)
    assert sampled == [empty]


@pytest.mark.parametrize("margin", [-1.0, float("nan"), float("inf")])
def test_options_refuse_a_margin_floor_that_certifies_nothing(margin):
    with pytest.raises(ValueError, match="margin_tol must be finite and at least 0"):
        SeparatorOptions(margin_tol=margin)
    assert SeparatorOptions(margin_tol=0.0).margin_tol == 0.0


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_verification_refuses_a_tolerance_that_decides_nothing(disk_sets, tol):
    a, b = disk_sets
    result = fixed(a, b, 1, 4)
    with pytest.raises(ValueError, match="tol must be finite and at least 0"):
        verify_separation(result.p, a, b, 51, tol)
    with pytest.raises(ValueError, match="tol must be finite and at least 0"):
        verify_certificate(result, tol)
    assert verify_separation(result.p, a, b, 51, 0.0).tol == 0.0  # zero stays a strict tol


def test_ball_constraint_switch_off_still_separates(disk_sets):
    a, b = disk_sets
    result = fixed(a, b, 1, 2, ball_constraint=False)
    assert result.slack > 1e-6
    assert all(len(c.generators) == 1 for c in (result.cert_A, result.cert_B))
