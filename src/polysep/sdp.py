"""Dense block-diagonal semidefinite programming.

Standard primal form solved here:

    maximize    <C, X>
    subject to  <A_k, X> = b_k   for k = 1..m,
                X >= 0           (block-diagonal, positive semidefinite)

with the Lagrange dual

    minimize    b^T y
    subject to  S = sum_k y_k A_k - C >= 0.

The solver is an infeasible-start primal-dual path-following method with a
Mehrotra predictor-corrector, using the XZ (HKM) search direction and dense
linear algebra throughout.  Constraints come as one (m, s, s) stack per
block, the form the quadratic-module assembler writes, and an m-vector of
right-hand sides.  ``SdpProblem`` copies the stacks once into one matrix
whose columns hold the blocks grouped by size, so each group of k
equal-size blocks has one (m, k, s, s) constraint stack.  The iterates
are kept per group as (k, s, s) arrays: A(X), A*(y), the Schur product,
the Cholesky and inverse factors and the step-length eigensolves each make
one batched call per group, not one per block.  ``SdpSolution.X`` and
``SdpSolution.S`` are per-block lists in block order.  It targets
desk-scale problems: robustness over speed, no sparsity exploitation,
blocks capped at a configured size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg as la

MAX_BLOCK_SIZE = 400
SYMMETRY_TOL = 1e-14


class SdpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    NUMERICAL_TROUBLE = "NumericalTrouble"
    ITERATION_LIMIT = "IterationLimit"


class DependentConstraintWarning(UserWarning):
    """Linearly dependent constraint rows were dropped before solving."""


def _pack(stacks, sizes, num: int, what: str):
    """Pack per-block (num, s_b, s_b) stacks (None for an all-zero block) into one matrix.

    Returns the (num, sum s_b^2) matrix whose row k holds each ``stacks[b][k]``
    flattened row-major, the (num, s_b, s_b) view of each block's columns in
    block order, and one (indices, (num, k, s, s) view) pair per group of the
    k blocks of size s, in ascending size: the columns are laid out group by
    group, so a group's blocks sit side by side.  Each block is checked for
    symmetry relative to its largest entry, then symmetrized.
    """
    if len(stacks) != len(sizes):
        raise ValueError(f"{what} must have one stack (or None) per block")
    matrix = np.zeros((num, sum(s * s for s in sizes)))
    views, groups, start = [None] * len(sizes), [], 0
    for s in sorted(set(sizes)):
        idx = [i for i, t in enumerate(sizes) if t == s]
        end = start + len(idx) * s * s
        group = matrix[:, start:end].reshape(num, len(idx), s, s)
        groups.append((idx, group))
        for j, i in enumerate(idx):
            views[i] = group[:, j]
        start = end
    for s, stack, view in zip(sizes, stacks, views):
        if stack is None:
            continue
        if np.shape(stack) != (num, s, s):
            raise ValueError(f"{what} block has shape {np.shape(stack)}, expected {(num, s, s)}")
        view[...] = stack
        trans = np.swapaxes(view, 1, 2)
        asym = np.max(np.abs(view - trans))
        if asym > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(view)))):
            raise ValueError(f"{what} block is not symmetric: max asymmetry {asym:g}")
        if asym:  # an exactly symmetric stack stays as it is, without temporaries
            view[...] = 0.5 * (view + trans)
    return matrix, views, groups


class SdpProblem:
    """Block-diagonal SDP data, sense: maximize.

    ``objective`` holds one symmetric matrix per block (C); ``stacks[b]`` is
    block b's (m, s_b, s_b) constraint stack, whose entry k is A_k's block b,
    or None for a block no constraint touches; ``rhs`` holds the m values b_k.

    The constructor packs the stacks once (``_pack``) into the m x sum(s_b^2)
    ``matrix``, its (m, s_b, s_b) block views ``stacks`` and its per-size
    (block indices, (m, k, s, s) view) ``groups``.  The rank filter reads
    ``matrix``, the interior-point kernels read ``groups``.
    """

    def __init__(self, block_sizes, objective, stacks, rhs):
        sizes = tuple(int(s) for s in block_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive")
        if any(s > MAX_BLOCK_SIZE for s in sizes):
            raise ValueError(f"block size exceeds the configured limit of {MAX_BLOCK_SIZE}")
        self.block_sizes = sizes
        objective = [None if c is None else np.asarray(c, dtype=float)[None] for c in objective]
        self.objective = [st[0] for st in _pack(objective, sizes, 1, "objective")[1]]
        self.rhs = np.array(rhs, dtype=float)
        if self.rhs.ndim != 1 or not self.rhs.size:
            raise ValueError("problem needs at least one constraint; rhs is a vector of b_k")
        self.matrix, self.stacks, self.groups = _pack(stacks, sizes, len(self.rhs), "constraint")

    @property
    def constraints(self) -> list:
        """Per-row (per-block views, b_k) pairs, derived from ``stacks`` and ``rhs``."""
        return [([st[k] for st in self.stacks], float(b)) for k, b in enumerate(self.rhs)]

    @property
    def num_constraints(self) -> int:
        return len(self.rhs)

    def dump(self) -> str:
        """Plain-text dump for cross-checking against external solvers.

        Line 1: block sizes.  Then the objective blocks and, per constraint,
        its right-hand side followed by its non-zero blocks, all row-major.
        """
        lines = [f"blocks {' '.join(str(s) for s in self.block_sizes)}", "objective"]
        for bi, mat in enumerate(self.objective):
            lines.append(f"  block {bi}")
            for row in mat:
                lines.append("    " + " ".join(repr(float(v)) for v in row))
        for k, (mats, rhs) in enumerate(self.constraints):
            lines.append(f"constraint {k} rhs {rhs!r}")
            for bi, mat in enumerate(mats):
                if not np.any(mat):
                    continue
                lines.append(f"  block {bi}")
                for row in mat:
                    lines.append("    " + " ".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


@dataclass
class SdpSolution:
    status: SdpStatus
    X: list
    y: np.ndarray
    S: list
    objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def min_eigenvalue(mat) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:g}")
    return float(la.eigvalsh(0.5 * (m + m.T))[0])


class _BlockOps:
    """Vectorized constraint algebra over constraint stacks and matching blocks.

    A stack is (m, s, s) for one block or (m, k, s, s) for a group of k
    blocks of size s; its block argument is then (s, s) or (k, s, s).  Every
    kernel makes one call per stack.
    """

    def __init__(self, stacks):
        self.stacks = stacks
        self.m = len(stacks[0])

    def apply(self, blocks) -> np.ndarray:
        """A(X): the m-vector of <A_k, X>."""
        out = np.zeros(self.m)
        for st, xb in zip(self.stacks, blocks):
            out += st.reshape(self.m, -1) @ xb.reshape(-1)
        return out

    def adjoint(self, y) -> list:
        """A*(y): per stack sum_k y_k A_k, one vector-matrix product each."""
        return [(y @ st.reshape(self.m, -1)).reshape(st.shape[1:]) for st in self.stacks]

    def schur(self, xblocks, zinv_blocks) -> np.ndarray:
        """M[j, k] = sum_b <A_j, X A_k Zinv> (symmetric positive definite).

        Per stack, X A_k Zinv for every k is one batched matmul.
        """
        m_mat = np.zeros((self.m, self.m))
        for st, xb, zib in zip(self.stacks, xblocks, zinv_blocks):
            m_mat += st.reshape(self.m, -1) @ (xb @ st @ zib).reshape(self.m, -1).T
        return 0.5 * (m_mat + m_mat.T)


def _rank_filter(problem: SdpProblem):
    """Drop linearly dependent constraint rows; detect inconsistent duplicates.

    Returns (kept indices, dropped indices, inconsistent flag).
    """
    m = problem.num_constraints
    b = problem.rhs

    _, r, piv = la.qr(problem.matrix.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return [], list(range(m)), bool(np.any(np.abs(b) > 1e-12))
    rank = int(np.sum(diag > diag[0] * max(problem.matrix.shape) * np.finfo(float).eps))
    kept = sorted(piv[:rank].tolist())
    dropped = sorted(set(range(m)) - set(kept))
    inconsistent = False
    if dropped:
        basis = problem.matrix[kept].T
        for j in dropped:
            coeff, *_ = la.lstsq(basis, problem.matrix[j], lapack_driver="gelsd")
            if abs(b[j] - coeff @ b[kept]) > 1e-8 * (1.0 + abs(b[j])):
                inconsistent = True
                break
    return kept, dropped, inconsistent


def _transpose(blocks):
    return np.swapaxes(blocks, -1, -2)


def _symmetrize(blocks):
    return 0.5 * (blocks + _transpose(blocks))


def _unbatch(members, groups) -> list:
    """Per-block entries in block order from per-group arrays; members[g] are group g's blocks."""
    out = [None] * sum(len(idx) for idx in members)
    for idx, group in zip(members, groups):
        for j, i in enumerate(idx):
            out[i] = group[j]
    return out


def _inverse_factors(blocks) -> list:
    """L^-1 for each block, or stack of blocks, L L^T.

    Raises LinAlgError unless every block is positive definite.  A Cholesky
    factor has a positive diagonal, so its inverse cannot fail.
    """
    return [np.linalg.inv(np.linalg.cholesky(mb)) for mb in blocks]


def _max_step(inv_factors, directions) -> float:
    """Largest alpha with M + alpha*D >= 0 on every block, capped at 1e6.

    M = L L^T comes as its inverse Cholesky factor L^-1, factored once per
    iteration: the pencil (D, M) has the eigenvalues of L^-1 D L^-T.  Each
    entry may be one block or a stack of equal-size blocks.
    """
    alpha = 1e6
    for li, d in zip(inv_factors, directions):
        lam = np.linalg.eigvalsh(li @ d @ _transpose(li))[..., 0].min()
        if lam < 0.0:
            alpha = min(alpha, -1.0 / lam)
    return alpha


def solve(problem: SdpProblem, tol: float = 1e-8, max_iter: int = 100) -> SdpSolution:
    """Solve the block SDP by a Mehrotra predictor-corrector interior-point method.

    Status Optimal guarantees relative primal/dual residuals and duality gap
    at most ``tol``; Infeasible comes with a dual improving-ray certificate in
    the diagnostics.  The iteration schedule is deterministic.
    """
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must lie in (0, 1e-2], got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")

    sizes = problem.block_sizes
    kept, dropped, inconsistent = _rank_filter(problem)
    diagnostics: dict = {"dropped_rows": dropped, "trace": []}
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} linearly dependent constraint row(s): {dropped}",
            DependentConstraintWarning,
            stacklevel=2,
        )
    zeros = [np.zeros((s, s)) for s in sizes]
    if inconsistent:
        diagnostics["message"] = "inconsistent dependent constraint rows"
        return SdpSolution(
            status=SdpStatus.INFEASIBLE,
            X=zeros,
            y=np.zeros(problem.num_constraints),
            S=zeros,
            objective=float("nan"),
            dual_objective=float("nan"),
            gap=float("inf"),
            primal_residual=float("inf"),
            dual_residual=float("inf"),
            iterations=0,
            diagnostics=diagnostics,
        )
    if not kept:
        raise ValueError("all constraint rows are zero; the problem is not a proper SDP")

    # the iterates live per group of equal-size blocks, as (k, s, s) arrays
    members = [idx for idx, _ in problem.groups]
    stacks, b = [st for _, st in problem.groups], problem.rhs
    if dropped:
        stacks, b = [st[kept] for st in stacks], b[kept]
    c_blocks = [np.stack([problem.objective[i] for i in idx]) for idx in members]
    ops = _BlockOps(stacks)
    m = len(b)
    n_total = sum(sizes)

    eta = 1.0 + float(np.max(np.abs(b)))
    x = [np.tile(eta * np.eye(st.shape[-1]), (st.shape[1], 1, 1)) for st in stacks]
    z = [xb.copy() for xb in x]
    y = np.zeros(m)

    b_scale = 1.0 + la.norm(b)
    c_scale = 1.0 + np.sqrt(sum(la.norm(cb) ** 2 for cb in c_blocks))

    status = SdpStatus.ITERATION_LIMIT
    iterations = 0
    pobj = dobj = 0.0
    pinf = dinf = relgap = float("inf")

    def frob(blocks):
        return np.sqrt(sum(la.norm(bk) ** 2 for bk in blocks))

    for it in range(max_iter):
        iterations = it
        fp = b - ops.apply(x)
        rd = [cb - ab + zb for cb, ab, zb in zip(c_blocks, ops.adjoint(y), z)]
        mu = sum(np.vdot(xb, zb) for xb, zb in zip(x, z)) / n_total
        pobj = sum(np.vdot(cb, xb) for cb, xb in zip(c_blocks, x))
        dobj = float(b @ y)
        pinf = la.norm(fp) / b_scale
        dinf = frob(rd) / c_scale
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        diagnostics["trace"].append(
            {"iter": it, "mu": mu, "pinf": pinf, "dinf": dinf, "relgap": relgap}
        )

        if pinf <= tol and dinf <= tol and relgap <= tol:
            status = SdpStatus.OPTIMAL
            break

        # Farkas-style certificate of primal infeasibility: a normalized dual
        # ray with A*(y) almost PSD and b^T y decidedly negative.
        ynorm = la.norm(y)
        if pinf > 10.0 * tol and ynorm > 1e2 * b_scale:
            yhat = y / ynorm
            ray = ops.adjoint(yhat)
            ray_scale = max(1.0, max(float(np.max(np.abs(rb))) for rb in ray))
            block_min = _unbatch(members, [np.linalg.eigvalsh(rb)[:, 0] for rb in ray])
            lam_min = min(block_min)
            if b @ yhat < -1e-4 * b_scale and lam_min >= -1e-9 * ray_scale:
                status = SdpStatus.INFEASIBLE
                diagnostics["infeasibility_ray"] = {
                    "y": yhat.tolist(),
                    "objective": float(b @ yhat),
                    "min_eigenvalue": float(lam_min),
                    "block_min_eigenvalues": [float(lam) for lam in block_min],
                }
                break

        if not np.isfinite(mu) or mu > 1e18:
            status = SdpStatus.NUMERICAL_TROUBLE
            diagnostics["message"] = "complementarity diverged"
            break

        try:
            lz_inv = _inverse_factors(z)
            zinv = [_transpose(li) @ li for li in lz_inv]
            m_mat = ops.schur(x, zinv)
            jitter = 0.0
            while True:
                try:
                    m_fac = la.cho_factor(
                        m_mat + jitter * np.eye(m), lower=True, check_finite=False
                    )
                    break
                except la.LinAlgError:
                    jitter = max(10.0 * jitter, 1e-14 * (1.0 + np.trace(m_mat) / m))
                    if jitter > 1e-2:
                        raise
        except la.LinAlgError:
            status = SdpStatus.NUMERICAL_TROUBLE
            diagnostics["message"] = "Newton system factorization failed"
            break

        tr_a_zinv = ops.apply(zinv)
        base_rhs = ops.apply([xb @ rb @ zib for xb, rb, zib in zip(x, rd, zinv)]) - b

        # predictor: pure Newton step toward the boundary (sigma = 0)
        dy_p = la.cho_solve(m_fac, base_rhs, check_finite=False)
        dz_p = [ab - rb for ab, rb in zip(ops.adjoint(dy_p), rd)]
        dx_p = [_symmetrize(-xb - xb @ dzb @ zib) for xb, dzb, zib in zip(x, dz_p, zinv)]

        try:
            lx_inv = _inverse_factors(x)
            ap = min(1.0, _max_step(lx_inv, dx_p))
            ad = min(1.0, _max_step(lz_inv, dz_p))
        except la.LinAlgError:
            status = SdpStatus.NUMERICAL_TROUBLE
            diagnostics["message"] = "step-length eigensolve failed"
            break
        mu_aff = sum(
            np.vdot(xb + ap * dxb, zb + ad * dzb)
            for xb, dxb, zb, dzb in zip(x, dx_p, z, dz_p)
        ) / n_total
        sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector: recentred step with Mehrotra's second-order term
        corr = [dxb @ dzb @ zib for dxb, dzb, zib in zip(dx_p, dz_p, zinv)]
        corr_rhs = base_rhs + sigma * mu * tr_a_zinv - ops.apply(corr)
        dy = la.cho_solve(m_fac, corr_rhs, check_finite=False)
        dz = [ab - rb for ab, rb in zip(ops.adjoint(dy), rd)]
        dx = [
            _symmetrize(sigma * mu * zib - xb - xb @ dzb @ zib - cb2)
            for xb, dzb, zib, cb2 in zip(x, dz, zinv, corr)
        ]

        try:
            step_tau = 0.98
            ap = min(1.0, step_tau * _max_step(lx_inv, dx))
            ad = min(1.0, step_tau * _max_step(lz_inv, dz))
        except la.LinAlgError:
            status = SdpStatus.NUMERICAL_TROUBLE
            diagnostics["message"] = "step-length eigensolve failed"
            break

        # cond (a full SVD) feeds only the stall test, so only a stall pays for it
        if max(ap, ad) < 1e-5 and (cond := np.linalg.cond(m_mat)) > 1e14:
            status = SdpStatus.NUMERICAL_TROUBLE
            diagnostics["message"] = f"Newton system condition {cond:.2e} exceeds 1e14 and progress stalled"
            break

        x = [xb + ap * dxb for xb, dxb in zip(x, dx)]
        y = y + ad * dy
        z = [zb + ad * dzb for zb, dzb in zip(z, dz)]
        diagnostics["trace"][-1].update({"sigma": sigma, "alpha_p": ap, "alpha_d": ad})
        iterations = it + 1
    else:
        iterations = max_iter

    y_full = np.zeros(problem.num_constraints)
    y_full[kept] = y

    return SdpSolution(
        status=status,
        X=_unbatch(members, x),
        y=y_full,
        S=_unbatch(members, z),
        objective=float(pobj),
        dual_objective=float(dobj),
        gap=float(abs(pobj - dobj)),
        primal_residual=float(pinf),
        dual_residual=float(dinf),
        iterations=iterations,
        diagnostics=diagnostics,
    )
