import numpy as np
import pytest
import scipy.linalg as la

from polysep.sdp import (
    DependentConstraintWarning,
    SdpProblem,
    SdpStatus,
    _BlockOps,
    _inverse_factors,
    _max_step,
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


def test_dependent_rows_dropped_with_warning():
    prob = SdpProblem((2,), [-E11], [np.array([E22, E12, 2 * E12])], [1.0, 0.3, 0.6])
    with pytest.warns(DependentConstraintWarning):
        sol = solve(prob, tol=1e-8)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.X[0][0, 0] == pytest.approx(0.09, abs=1e-6)


def test_inconsistent_dependent_rows_are_infeasible():
    prob = SdpProblem((2,), [np.zeros((2, 2))], [np.array([E12, 2 * E12])], [0.3, 0.9])
    with pytest.warns(DependentConstraintWarning):
        sol = solve(prob, tol=1e-8)
    assert sol.status is SdpStatus.INFEASIBLE


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
    assert [idx for idx, _ in prob.groups] == [[0, 2], [1, 3]]
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


def test_dump_round_trips_basic_structure():
    text = completion_problem().dump()
    assert text.startswith("blocks 2\n")
    assert "constraint 0 rhs 1.0" in text
    assert "constraint 1 rhs 0.3" in text


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


def test_schur_matches_explicit_traces():
    rng = np.random.default_rng(11)
    prob = three_block_problem(rng)
    x = [random_pd(rng, s) for s in prob.block_sizes]
    z = [random_pd(rng, s) for s in prob.block_sizes]
    zinv = [np.linalg.inv(zb) for zb in z]
    ops = _BlockOps(prob.stacks)
    expected = np.zeros((6, 6))
    for j, (mats_j, _) in enumerate(prob.constraints):
        for k, (mats_k, _) in enumerate(prob.constraints):
            for aj, ak, xb, zib in zip(mats_j, mats_k, x, zinv):
                if aj is not None and ak is not None:
                    expected[j, k] += np.trace(aj @ xb @ ak @ zib)
    np.testing.assert_allclose(ops.schur(x, zinv), expected, rtol=KERNEL_RTOL, atol=1e-12)


def test_adjoint_matches_explicit_sum():
    rng = np.random.default_rng(14)
    prob = three_block_problem(rng)
    y = rng.standard_normal(prob.num_constraints)
    expected = [np.zeros((s, s)) for s in prob.block_sizes]
    for yk, (mats, _) in zip(y, prob.constraints):
        for out, ak in zip(expected, mats):
            if ak is not None:
                out += yk * ak
    got = _BlockOps(prob.stacks).adjoint(y)
    for g, e in zip(got, expected):
        np.testing.assert_allclose(g, e, rtol=KERNEL_RTOL, atol=1e-12)


def test_max_step_matches_generalized_eigensolver():
    rng = np.random.default_rng(12)
    sizes = (3, 1, 4)
    for _ in range(20):
        blocks = [random_pd(rng, s) for s in sizes]
        directions = [random_symmetric(rng, s) for s in sizes]
        expected = reference_max_step(blocks, directions)
        assert expected < 1e6  # some block direction is indefinite or negative
        assert _max_step(_inverse_factors(blocks), directions) == pytest.approx(
            expected, rel=KERNEL_RTOL
        )


def test_grouped_kernels_match_per_block_kernels():
    rng = np.random.default_rng(15)
    sizes = (3, 1, 3, 4, 1)
    rows = [[random_symmetric(rng, s) for s in sizes] for _ in range(7)]
    prob = SdpProblem(sizes, [None] * 5, [np.array(blk) for blk in zip(*rows)], np.arange(7.0))
    members = [idx for idx, _ in prob.groups]
    assert members == [[1, 4], [0, 2], [3]]

    def grouped(blocks):
        return [np.stack([blocks[i] for i in idx]) for idx in members]

    x = [random_pd(rng, s) for s in sizes]
    z = [random_pd(rng, s) for s in sizes]
    y = rng.standard_normal(prob.num_constraints)
    per_block, per_group = _BlockOps(prob.stacks), _BlockOps([st for _, st in prob.groups])
    np.testing.assert_allclose(per_group.apply(grouped(x)), per_block.apply(x), rtol=KERNEL_RTOL)
    np.testing.assert_allclose(
        per_group.schur(grouped(x), grouped(z)), per_block.schur(x, z), rtol=KERNEL_RTOL
    )
    for got, want in zip(per_group.adjoint(y), grouped(per_block.adjoint(y))):
        np.testing.assert_allclose(got, want, rtol=KERNEL_RTOL, atol=1e-12)
    for _ in range(20):
        blocks = [random_pd(rng, s) for s in sizes]
        directions = [random_symmetric(rng, s) for s in sizes]
        assert _max_step(_inverse_factors(grouped(blocks)), grouped(directions)) == pytest.approx(
            _max_step(_inverse_factors(blocks), directions), rel=KERNEL_RTOL
        )


def test_max_step_caps_psd_directions():
    rng = np.random.default_rng(13)
    sizes = (3, 1, 4)
    blocks = [random_pd(rng, s) for s in sizes]
    directions = [random_pd(rng, s) - np.eye(s) for s in sizes]
    assert reference_max_step(blocks, directions) == 1e6
    assert _max_step(_inverse_factors(blocks), directions) == 1e6


def test_inverse_factors_reject_indefinite_blocks():
    with pytest.raises(la.LinAlgError):
        _inverse_factors([np.eye(2), np.diag([1.0, -1.0])])


# ---- minimum eigenvalue ----------------------------------------------------


def test_min_eigenvalue_identity():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, rel=1e-10)


def test_min_eigenvalue_off_diagonal():
    assert min_eigenvalue([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(-1.0, rel=1e-10)


def test_min_eigenvalue_shifted():
    assert min_eigenvalue([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0, rel=1e-10)


def test_min_eigenvalue_rejects_asymmetric():
    with pytest.raises(ValueError):
        min_eigenvalue([[0.0, 1.0], [0.0, 0.0]])
