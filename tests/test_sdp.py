import warnings

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from polysep import sdp
from polysep.sdp import (
    SdpProblem,
    SdpStatus,
    _cholesky_factors,
    _max_step,
    _schur,
    _unbatch,
    _views,
    min_eigenvalue,
    solve,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])
E12 = np.array([[0.0, 0.5], [0.5, 0.0]])


def trace_problem():
    return SdpProblem((2,), [np.zeros((2, 2))], [np.eye(2)[None]], [1.0])


def completion_problem():
    # maximize -x11 over [[x11, 0.3], [0.3, 1]] >= 0; optimum x11 = 0.09
    return SdpProblem((2,), [-E11], [np.array([E22, E12])], [1.0, 0.3])


def infeasible_problem():
    # x11 = -1 contradicts the non-negative diagonal of a PSD matrix
    return SdpProblem((2,), [np.zeros((2, 2))], [E11[None]], [-1.0])


# ---- solve -----------------------------------------------------------------


def test_feasibility_trace_one():
    sol = solve(trace_problem(), tol=1e-8)
    assert sol.status is SdpStatus.OPTIMAL
    assert np.trace(sol.X[0]) == pytest.approx(1.0, abs=1e-7)
    assert min_eigenvalue(sol.X[0]) >= -1e-7


def test_psd_completion_optimum():
    sol = solve(completion_problem(), tol=1e-8)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.X[0][0, 0] == pytest.approx(0.09, abs=1e-6)
    assert sol.X[0][1, 1] == pytest.approx(1.0, abs=1e-7)
    assert sol.X[0][0, 1] == pytest.approx(0.3, abs=1e-7)


def test_forced_negative_diagonal_is_infeasible():
    sol = solve(infeasible_problem(), tol=1e-8)
    assert sol.status is SdpStatus.INFEASIBLE
    ray = sol.diagnostics["infeasibility_ray"]
    assert ray["objective"] < 0.0
    assert ray["min_eigenvalue"] >= -1e-8


def test_weak_duality_and_psd_iterates():
    tol = 1e-8
    sol = solve(completion_problem(), tol=tol)
    assert sol.objective <= sol.dual_objective + tol * (1 + abs(sol.objective))
    for xb, sb in zip(sol.X, sol.S):
        assert min_eigenvalue(xb) >= -10 * tol
        assert min_eigenvalue(sb) >= -10 * tol


def test_constraints_satisfied_at_tolerance():
    tol = 1e-8
    prob = completion_problem()
    sol = solve(prob, tol=tol)
    for mats, rhs in prob.constraints:
        value = sum(np.vdot(m, xb) for m, xb in zip(mats, sol.X) if m is not None)
        assert abs(value - rhs) <= 10 * tol


def test_deterministic_resolve():
    tol = 1e-8
    a = solve(completion_problem(), tol=tol)
    b = solve(completion_problem(), tol=tol)
    assert a.iterations == b.iterations
    assert abs(a.objective - b.objective) <= 10 * tol
    assert np.array_equal(a.X[0], b.X[0])


def test_iteration_limit_status():
    sol = solve(completion_problem(), tol=1e-8, max_iter=2)
    assert sol.status is SdpStatus.ITERATION_LIMIT
    assert sol.iterations == 2


def test_a_target_stops_at_the_first_primal_feasible_iterate_above_it():
    tol, target = 1e-8, -0.095
    prob = completion_problem()
    full = solve(prob, tol=tol)
    # the reference: iterate k is the one k iterations leave, with its own
    # objective and relative primal residual
    for k in range(1, full.iterations + 1):
        x = solve(prob, tol=tol, max_iter=k).X[0]
        residual = np.linalg.norm([1.0 - x[1, 1], 0.3 - x[0, 1]]) / (1.0 + np.hypot(1.0, 0.3))
        if residual <= tol and -x[0, 0] > target:
            break
    sol = solve(prob, tol=tol, target=target)
    assert sol.status is SdpStatus.TARGET_REACHED
    assert 1 < k < full.iterations
    assert sol.iterations == k
    assert np.array_equal(sol.X[0], x)
    assert sol.objective == -x[0, 0] > target and sol.primal_residual <= tol


def test_an_unreached_target_changes_nothing():
    prob = completion_problem()
    plain = solve(prob, tol=1e-8)
    # every iterate has x11 > 0, so no objective -x11 exceeds the target 0
    for sol in (solve(prob, tol=1e-8, target=None), solve(prob, tol=1e-8, target=0.0)):
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.iterations == plain.iterations
        assert np.array_equal(sol.X[0], plain.X[0]) and np.array_equal(sol.y, plain.y)


def dependent_rows_message(rows):
    return f"constraint rows {rows} are linearly dependent or zero, or too nearly so to solve"


def test_dependent_rows_are_refused_by_name():
    # E22 owns its column; E12 and 2 E12 share theirs and are left to the Cholesky
    prob = SdpProblem((2,), [-E11], [np.array([E22, E12, 2 * E12])], [1.0, 0.3, 0.6])
    with pytest.raises(ValueError) as info:
        solve(prob, tol=1e-8)
    assert str(info.value) == dependent_rows_message([1, 2])


def test_inconsistent_dependent_rows_are_refused_by_name():
    prob = SdpProblem((2,), [np.zeros((2, 2))], [np.array([E12, 2 * E12])], [0.3, 0.9])
    with pytest.raises(ValueError) as info:
        solve(prob, tol=1e-8)
    assert str(info.value) == dependent_rows_message([0, 1])


def all_zero_rows_problem(b):
    return SdpProblem((2,), [np.eye(2)], [np.zeros((1, 2, 2))], [b])


def test_all_zero_rows_with_zero_rhs_are_no_proper_sdp():
    with pytest.raises(ValueError) as info:
        solve(all_zero_rows_problem(0.0))
    assert str(info.value) == dependent_rows_message([0])


def test_all_zero_rows_with_a_nonzero_rhs_are_refused_by_name():
    with pytest.raises(ValueError) as info:
        solve(all_zero_rows_problem(1.0))
    assert str(info.value) == dependent_rows_message([0])


@pytest.mark.parametrize(
    "delta, status, objective",
    [(1e-2, SdpStatus.OPTIMAL, -4.0), (1e-10, SdpStatus.NUMERICAL_TROUBLE, None)],
    ids=["1e-2", "1e-10"],
)
def test_nearly_dependent_row_is_judged_at_the_newton_resolution(delta, status, objective):
    # rows E11, E11 + delta E22, E33 with b = (1, 1 + 2 delta, 1): each owns a
    # column once the peel has set aside the one before, so every row is kept and
    # the middle one sets X22 = 2; at delta = 1e-10 the Newton system cannot
    # resolve it, and the solve says so rather than drop the row
    e = np.eye(3)
    rows = np.array([np.diag(e[0]), np.diag(e[0] + delta * e[1]), np.diag(e[2])])
    prob = SdpProblem((3,), [-e], [rows], [1.0, 1.0 + 2 * delta, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(prob, tol=1e-8)
    assert sol.status is status
    assert len(sol.y) == 3
    if objective is not None:
        assert sol.objective == pytest.approx(objective, abs=1e-6)


def failing_after(calls, function, error):
    """``function`` for its first ``calls`` calls, then a raiser of ``error``."""
    count = [0]

    def wrapped(*args, **kwargs):
        count[0] += 1
        if count[0] > calls:
            raise error
        return function(*args, **kwargs)

    return wrapped


def test_failed_iterate_factorization_is_numerical_trouble(monkeypatch):
    # X and Z are factored together, one Cholesky of a (2, k, s, s) stack per size
    # group and iteration; with two groups the fourth stacked Cholesky is the second
    # iteration's second group.  The rank check and the Newton system's
    # positive-definiteness test factor 2-D matrices and pass through.
    error = np.linalg.LinAlgError("Matrix is not positive definite")
    real = np.linalg.cholesky
    stacked = failing_after(3, real, error)
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: real(a) if np.ndim(a) == 2 else stacked(a))
    sol = solve(interleaved_problem(), tol=1e-8)
    assert sol.status is SdpStatus.NUMERICAL_TROUBLE
    assert sol.iterations == 1
    assert "iterate factorization failed" in sol.diagnostics["message"]


def test_failed_step_length_eigensolve_is_numerical_trouble(monkeypatch):
    def failing(inv_factors, directions):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(sdp, "_max_step", failing)
    sol = solve(completion_problem(), tol=1e-8)
    assert sol.status is SdpStatus.NUMERICAL_TROUBLE
    assert sol.diagnostics["message"] == "step-length eigensolve failed"
    assert sol.iterations == 0


def test_stalled_steps_on_an_ill_conditioned_newton_system_are_numerical_trouble(monkeypatch):
    # steps of 1e-6, under 1e-5, on a Newton system of condition 1e15, over 1e14
    monkeypatch.setattr(sdp, "_max_step", lambda inv_factors, directions: np.array([1e-6, 1e-6]))
    monkeypatch.setattr(np.linalg, "cond", lambda a: 1e15)
    sol = solve(completion_problem(), tol=1e-8)
    assert sol.status is SdpStatus.NUMERICAL_TROUBLE
    assert sol.diagnostics["message"] == (
        "Newton system condition 1.00e+15 exceeds 1e14 and progress stalled"
    )
    assert sol.iterations == 0


def test_newton_factorization_jitters_then_gives_up(monkeypatch):
    shifts = []

    def never_positive_definite(a):
        shifts.append(float(np.mean(np.diag(a))))
        return False

    monkeypatch.setattr(sdp, "_positive_definite", never_positive_definite)
    sol = solve(completion_problem(), tol=1e-8)
    assert sol.status is SdpStatus.NUMERICAL_TROUBLE
    assert sol.diagnostics["message"] == "Newton system factorization failed"
    assert sol.iterations == 0
    # jitter 1e-14 (1 + tr M / m) first, times 10 per retry while it stays at most 1e-2
    expected = [1e-14 * (1.0 + shifts[0])]
    while 10.0 * expected[-1] <= 1e-2:
        expected.append(10.0 * expected[-1])
    np.testing.assert_allclose(np.array(shifts[1:]) - shifts[0], expected, rtol=1e-6, atol=1e-14)


def test_newton_factorization_recovers_with_jitter(monkeypatch):
    calls, real = [], sdp._positive_definite

    def fails_first(a):
        calls.append(a)
        return len(calls) > 1 and real(a)

    monkeypatch.setattr(sdp, "_positive_definite", fails_first)
    sol = solve(completion_problem(), tol=1e-8)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.X[0][0, 0] == pytest.approx(0.09, abs=1e-6)
    assert np.all(np.diag(calls[1] - calls[0]) > 0.0)  # the retry carried a diagonal shift


def test_right_hand_side_past_the_float_range_diverges_without_warnings():
    # eta = 1 + 1e300 starts X and Z past where x @ z, the norms and pinf stay finite;
    # an objective of 1e308 overflows the first Newton right-hand side instead.
    # Any numpy RuntimeWarning on the way fails the test (filterwarnings = error)
    for objective, rhs, iterations in ((np.eye(2), 1e300, 0), (1e308 * np.eye(2), 1.0, 1)):
        sol = solve(SdpProblem((2,), [objective], [np.eye(2)[None]], [rhs]), tol=1e-8)
        assert sol.status is SdpStatus.NUMERICAL_TROUBLE
        assert sol.diagnostics["message"] == "complementarity diverged"
        assert sol.iterations == iterations


def test_multiblock_problem():
    # independent trace constraints on two blocks, maximize a corner entry
    c = [np.zeros((2, 2)), np.zeros((1, 1))]
    c[0][0, 1] = c[0][1, 0] = 0.5
    stacks = [np.array([np.eye(2), np.zeros((2, 2))]), np.array([np.zeros((1, 1)), np.eye(1)])]
    prob = SdpProblem((2, 1), c, stacks, [1.0, 2.0])
    sol = solve(prob, tol=1e-8)
    assert sol.status is SdpStatus.OPTIMAL
    # max x12 with trace 1 and x11*x22 >= x12^2 gives x12 = 1/2
    assert sol.objective == pytest.approx(0.5, abs=1e-6)
    assert sol.X[1][0, 0] == pytest.approx(2.0, abs=1e-6)


def interleaved_problem():
    """Blocks of sizes 2, 3, 2, 3; block i has trace i + 1 and maximizes one diagonal entry.

    Block i's optimum is X_i = (i + 1) e_j e_j^T with j = i // 2, and its dual
    slack is S_i = I - e_j e_j^T (the trace row's multiplier is 1).
    """
    sizes = (2, 3, 2, 3)
    objective, stacks = [], []
    for i, s in enumerate(sizes):
        c = np.zeros((s, s))
        c[i // 2, i // 2] = 1.0
        objective.append(c)
        stack = np.zeros((4, s, s))
        stack[i] = np.eye(s)
        stacks.append(stack)
    return SdpProblem(sizes, objective, stacks, [1.0, 2.0, 3.0, 4.0])


def test_interleaved_block_sizes_come_back_in_block_order():
    prob = interleaved_problem()
    assert prob.groups == [[0, 2], [1, 3]]
    sol = solve(prob, tol=1e-8)
    assert sol.status is SdpStatus.OPTIMAL
    assert [xb.shape[0] for xb in sol.X] == [2, 3, 2, 3]
    assert [sb.shape[0] for sb in sol.S] == [2, 3, 2, 3]
    for i, (xb, sb) in enumerate(zip(sol.X, sol.S)):
        s, j = prob.block_sizes[i], i // 2
        x_opt, s_opt = np.zeros((s, s)), np.eye(s)
        x_opt[j, j], s_opt[j, j] = i + 1.0, 0.0
        np.testing.assert_allclose(xb, x_opt, atol=1e-6)
        np.testing.assert_allclose(sb, s_opt, atol=1e-6)


def test_infeasibility_ray_reports_every_block_in_block_order():
    # sum_i (i + 1) tr(X_i) = -1 has no PSD solution; y = 1 is an improving ray
    sizes = (2, 3, 2, 3)
    row = [(i + 1.0) * np.eye(s) for i, s in enumerate(sizes)]
    prob = SdpProblem(sizes, [None] * 4, [mat[None] for mat in row], [-1.0])
    sol = solve(prob, tol=1e-8)
    assert sol.status is SdpStatus.INFEASIBLE
    ray = sol.diagnostics["infeasibility_ray"]
    y = np.array(ray["y"])
    expected = [np.linalg.eigvalsh(y[0] * mat)[0] for mat in row]
    np.testing.assert_allclose(ray["block_min_eigenvalues"], expected, rtol=1e-12)
    assert expected == sorted(expected) and expected[0] > 0.0  # the blocks are told apart
    assert ray["min_eigenvalue"] == min(ray["block_min_eigenvalues"])


# ---- validation ------------------------------------------------------------


def test_rejects_nonsymmetric_matrices():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SdpProblem((2,), [bad], [np.eye(2)[None]], [1.0])


def test_symmetry_is_judged_per_block_within_a_size_group():
    # both blocks are 2x2, so they share one group; each is judged against its own largest entry
    big, small = np.array([[1e4, 1.0], [1.0, 1e4]]), np.eye(2)
    skew = np.array([[0.0, 1e-11], [0.0, 0.0]])
    prob = SdpProblem((2, 2), [None, None], [(big + skew)[None], small[None]], [1.0])
    (blocks, _), = prob.constraints
    assert np.array_equal(blocks[0], blocks[0].T) and np.array_equal(blocks[1], small)
    assert blocks[0][0, 1] == pytest.approx(1.0 + 0.5e-11, abs=1e-15)
    with pytest.raises(ValueError, match="constraint block is not symmetric: max asymmetry 1e-11"):
        SdpProblem((2, 2), [None, None], [big[None], (small + skew)[None]], [1.0])


def test_rejects_bad_tolerance_and_empty_problems():
    with pytest.raises(ValueError):
        solve(trace_problem(), tol=0.5)
    with pytest.raises(ValueError):
        SdpProblem((2,), [np.zeros((2, 2))], [np.zeros((0, 2, 2))], [])
    with pytest.raises(ValueError):
        SdpProblem((), [], [], [0.0])


def test_rejects_oversized_blocks():
    with pytest.raises(ValueError):
        SdpProblem((401,), [None], [None], [0.0])


def test_stacks_must_match_block_sizes_and_rhs():
    with pytest.raises(ValueError, match=r"shape \(1, 3, 3\), expected \(1, 2, 2\)"):
        SdpProblem((2,), [None], [np.eye(3)[None]], [1.0])
    with pytest.raises(ValueError, match=r"shape \(2, 2, 2\), expected \(1, 2, 2\)"):
        SdpProblem((2,), [None], [np.array([E11, E22])], [1.0])  # two rows, one rhs
    with pytest.raises(ValueError, match="rhs is a vector"):
        SdpProblem((2,), [None], [np.eye(2)[None]], 1.0)
    with pytest.raises(ValueError, match="constraint must have one stack"):
        SdpProblem((2, 1), [None, None], [np.eye(2)[None]], [1.0])
    with pytest.raises(ValueError, match="objective must have one"):
        SdpProblem((2, 1), [None], [np.eye(2)[None], None], [1.0])
    # a None stack packs as an all-zero block
    prob = SdpProblem((2, 1), [None, None], [np.eye(2)[None], None], [1.0])
    ((mats, rhs),) = prob.constraints
    assert rhs == 1.0 and np.array_equal(mats[0], np.eye(2)) and np.array_equal(mats[1], [[0.0]])


# ---- per-iteration kernels ------------------------------------------------

# rounding bound for the well-conditioned (cond < 1e2) blocks drawn below
KERNEL_RTOL = 1e-12


def random_symmetric(rng, s):
    a = rng.standard_normal((s, s))
    return 0.5 * (a + a.T)


def random_pd(rng, s):
    a = rng.standard_normal((s, s))
    return a @ a.T / s + np.eye(s)


def three_block_problem(rng):
    """Random constraints on blocks of sizes 3, 1 and 4; some blocks zero in some rows."""
    sizes = (3, 1, 4)
    stacks = [np.zeros((6, s, s)) for s in sizes]
    for k in range(6):
        for bi, s in enumerate(sizes):
            if (k + bi) % 3:
                stacks[bi][k] = random_symmetric(rng, s)
    return SdpProblem(sizes, [None] * 3, stacks, np.arange(6.0))


def reference_max_step(blocks, directions):
    """Step length from the generalized eigensolver, one call per block."""
    alpha = 1e6
    for mat, d in zip(blocks, directions):
        lam = la.eigh(d, mat, eigvals_only=True, subset_by_index=(0, 0))[0]
        if lam < 0.0:
            alpha = min(alpha, -1.0 / lam)
    return alpha


def packed(prob, blocks):
    """Per-block matrices as one flat vector in the column layout of ``prob.matrix``."""
    return np.concatenate([blocks[i].ravel() for idx in prob.groups for i in idx])


def fused(prob, x_blocks, z_blocks):
    """Per-group (2, k, s, s) stacks of the X and Z blocks, as the solver factors them."""
    return [np.stack([[x_blocks[i] for i in idx], [z_blocks[i] for i in idx]]) for idx in prob.groups]


def packed_schur(prob, x, zinv):
    """The Schur kernel on the packed layout, from per-block X and Z^-1.

    It takes the Cholesky factor of X and the inverse Cholesky factor of Z.
    """
    low_x = [np.linalg.cholesky(xb) for xb in x]
    inv_low_z = [np.linalg.inv(np.linalg.cholesky(np.linalg.inv(zib))) for zib in zinv]
    views = [_views(packed(prob, blocks), prob.groups, prob.block_sizes) for blocks in (low_x, inv_low_z)]
    return _schur(_views(prob.matrix, prob.groups, prob.block_sizes), *views)


def test_schur_matches_explicit_traces():
    rng = np.random.default_rng(11)
    prob = three_block_problem(rng)
    x = [random_pd(rng, s) for s in prob.block_sizes]
    z = [random_pd(rng, s) for s in prob.block_sizes]
    zinv = [np.linalg.inv(zb) for zb in z]
    expected = np.zeros((6, 6))
    for j, (mats_j, _) in enumerate(prob.constraints):
        for k, (mats_k, _) in enumerate(prob.constraints):
            for aj, ak, xb, zib in zip(mats_j, mats_k, x, zinv):
                if aj is not None and ak is not None:
                    expected[j, k] += np.trace(aj @ xb @ ak @ zib)
    got = packed_schur(prob, x, zinv)
    np.testing.assert_allclose(got, expected, rtol=KERNEL_RTOL, atol=1e-12)
    # each group's share is one B B^T, so no symmetrization is needed
    assert np.array_equal(got, got.T)


def test_adjoint_matches_explicit_sum():
    rng = np.random.default_rng(14)
    prob = three_block_problem(rng)
    y = rng.standard_normal(prob.num_constraints)
    expected = [np.zeros((s, s)) for s in prob.block_sizes]
    for yk, (mats, _) in zip(y, prob.constraints):
        for out, ak in zip(expected, mats):
            if ak is not None:
                out += yk * ak
    members = prob.groups
    got = _unbatch(members, _views(y @ prob.matrix, prob.groups, prob.block_sizes))
    for g, e in zip(got, expected):
        np.testing.assert_allclose(g, e, rtol=KERNEL_RTOL, atol=1e-12)


def assert_fused_step_matches_reference(prob, x, z, dx, dz):
    """The fused (primal, dual) step equals the per-block reference on each side."""
    want = (reference_max_step(x, dx), reference_max_step(z, dz))
    got = _max_step(_cholesky_factors(fused(prob, x, z))[1], fused(prob, dx, dz))
    assert got.shape == (2,)
    assert got == pytest.approx(want, rel=KERNEL_RTOL)
    return want


def test_max_step_matches_generalized_eigensolver():
    rng = np.random.default_rng(12)
    sizes = (3, 1, 4)
    prob = SdpProblem(sizes, [None] * 3, [None] * 3, [0.0])
    for _ in range(20):
        x, z = ([random_pd(rng, s) for s in sizes] for _ in "xz")
        dx, dz = ([random_symmetric(rng, s) for s in sizes] for _ in "xz")
        want = assert_fused_step_matches_reference(prob, x, z, dx, dz)
        assert max(want) < 1e6  # some block direction is indefinite or negative on each side


def test_grouped_kernels_match_per_block_kernels():
    rng = np.random.default_rng(15)
    sizes = (3, 1, 3, 4, 1)
    rows = [[random_symmetric(rng, s) for s in sizes] for _ in range(7)]
    prob = SdpProblem(sizes, [None] * 5, [np.array(blk) for blk in zip(*rows)], np.arange(7.0))
    members = prob.groups
    assert members == [[1, 4], [0, 2], [3]]

    x = [random_pd(rng, s) for s in sizes]
    z = [random_pd(rng, s) for s in sizes]
    zinv = [np.linalg.inv(zb) for zb in z]
    y = rng.standard_normal(prob.num_constraints)
    # A(X) is one product with the packed matrix
    want = [sum(np.vdot(a, xb) for a, xb in zip(row, x)) for row in rows]
    np.testing.assert_allclose(prob.matrix @ packed(prob, x), want, rtol=KERNEL_RTOL)
    # A*(y) is one product the other way, read back per block
    got = _unbatch(members, _views(y @ prob.matrix, prob.groups, prob.block_sizes))
    for g, row_sum in zip(got, [sum(yk * row[b] for yk, row in zip(y, rows)) for b in range(5)]):
        np.testing.assert_allclose(g, row_sum, rtol=KERNEL_RTOL, atol=1e-12)
    expected = np.array(
        [[sum(np.trace(aj @ xb @ ak @ zib) for aj, ak, xb, zib in zip(rj, rk, x, zinv))
          for rk in rows] for rj in rows]
    )
    np.testing.assert_allclose(packed_schur(prob, x, zinv), expected, rtol=KERNEL_RTOL, atol=1e-12)
    for _ in range(20):
        dx, dz = ([random_symmetric(rng, s) for s in sizes] for _ in "xz")
        assert_fused_step_matches_reference(prob, x, z, dx, dz)


def test_max_step_caps_psd_directions():
    rng = np.random.default_rng(13)
    sizes = (3, 1, 4)
    prob = SdpProblem(sizes, [None] * 3, [None] * 3, [0.0])
    x, z = ([random_pd(rng, s) for s in sizes] for _ in "xz")
    psd = [random_pd(rng, s) - np.eye(s) for s in sizes]
    indefinite = [random_symmetric(rng, s) for s in sizes]
    assert reference_max_step(x, psd) == 1e6
    assert_fused_step_matches_reference(prob, x, z, psd, psd)
    assert tuple(_max_step(_cholesky_factors(fused(prob, x, z))[1], fused(prob, psd, psd))) == (1e6, 1e6)
    # each side is capped on its own
    primal, dual = assert_fused_step_matches_reference(prob, x, z, psd, indefinite)
    assert primal == 1e6 and dual < 1e6
    primal, dual = assert_fused_step_matches_reference(prob, x, z, indefinite, psd)
    assert primal < 1e6 and dual == 1e6
    # a barely negative direction would allow a step of 1e8; the cap holds it at 1e6
    barely = [-1e-8 * zb for zb in z]
    primal, dual = assert_fused_step_matches_reference(prob, x, z, indefinite, barely)
    assert primal < 1e6 and dual == 1e6


@st.composite
def packed_kernel_cases(draw):
    """Block-size mixes with repeated sizes and 1x1 blocks, and a seed for the data."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    sizes += draw(st.sampled_from([[1], [sizes[0]], [1, sizes[-1]]]))
    return tuple(sizes), draw(st.integers(1, 5)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(packed_kernel_cases())
def test_packed_kernels_are_adjoint_and_fused_steps_match_each_side(case):
    sizes, m, seed = case
    rng = np.random.default_rng(seed)
    stacks = [np.array([random_symmetric(rng, s) for _ in range(m)]) for s in sizes]
    prob = SdpProblem(sizes, [None] * len(sizes), stacks, np.zeros(m))
    members = prob.groups
    assert sorted(i for idx in members for i in idx) == list(range(len(sizes)))
    x = [random_symmetric(rng, s) for s in sizes]
    y = rng.standard_normal(m)
    # <A(X), y> on the packed layout equals <X, A*(y)> summed block by block
    adjoint = _unbatch(members, _views(y @ prob.matrix, prob.groups, prob.block_sizes))
    lhs = (prob.matrix @ packed(prob, x)) @ y
    rhs = sum(np.vdot(xb, ab) for xb, ab in zip(x, adjoint))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
    for b, st_b in enumerate(stacks):
        np.testing.assert_allclose(adjoint[b], np.tensordot(y, st_b, 1), rtol=1e-12, atol=1e-12)
    xs, zs = ([random_pd(rng, s) for s in sizes] for _ in "xz")
    dx, dz = ([random_symmetric(rng, s) for s in sizes] for _ in "xz")
    assert_fused_step_matches_reference(prob, xs, zs, dx, dz)


def test_inverse_factors_reject_indefinite_blocks():
    with pytest.raises(la.LinAlgError):
        _cholesky_factors([np.eye(2), np.diag([1.0, -1.0])])


# ---- minimum eigenvalue ----------------------------------------------------


def test_min_eigenvalue_identity():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, rel=1e-10)


def test_min_eigenvalue_off_diagonal():
    assert min_eigenvalue([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(-1.0, rel=1e-10)


def test_min_eigenvalue_shifted():
    assert min_eigenvalue([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0, rel=1e-10)


def test_min_eigenvalue_of_an_empty_matrix_is_inf():
    # a 0 x 0 Gram, the zero SOS multiplier, has no eigenvalue to violate PSD
    assert min_eigenvalue(np.zeros((0, 0))) == np.inf


def test_min_eigenvalue_rejects_asymmetric():
    with pytest.raises(ValueError):
        min_eigenvalue([[0.0, 1.0], [0.0, 0.0]])
