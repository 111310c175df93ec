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
linear algebra throughout: the HKM predictor-corrector of SDPT3 (Toh, Todd
and Tutuncu 1999) on SDPA-style block storage (Fujisawa, Kojima and Nakata
1997).  The predictor and the corrector share one Newton-direction routine.
A Cholesky of the row Gram first drops dependent rows: unpivoted when every
pivot clears the rank tolerance, pivoted otherwise.  Constraints
come as one (m, s, s) stack per block, the form the quadratic-module
assembler writes, and an m-vector of right-hand sides.  ``SdpProblem``
packs C and the stacks once into columns that hold the blocks flattened and
grouped by size, and the interior-point loop runs on that column layout.
X, Z, Z^-1 and the search directions are flat vectors of length sum(s_b^2),
so A(X) is one matrix-vector product, A*(y) one vector-matrix product, and
the residuals, inner products and updates are one call each.  Per group of
k equal-size blocks, X and Z are viewed together as one (2, k, s, s) array:
one Cholesky and inverse per iteration factors both, and one eigensolve per
step-length phase gives the primal and the dual step.  The Schur complement
is B B^T summed over the groups, B_k = Lz^-1 A_k Lx from those factors: one
batched product and one SYRK per group; a Cholesky tests the Newton system
for positive definiteness and ``numpy.linalg.solve`` solves it.  All linear
algebra is ``numpy.linalg``.
``SdpSolution.X`` and ``SdpSolution.S`` are per-block lists in block order.
It targets desk-scale problems: robustness over speed, no sparsity
exploitation, blocks capped at a configured size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

MAX_BLOCK_SIZE = 400
SYMMETRY_TOL = 1e-14


class SdpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    NUMERICAL_TROUBLE = "NumericalTrouble"
    ITERATION_LIMIT = "IterationLimit"


class DependentConstraintWarning(UserWarning):
    """Linearly dependent constraint rows were dropped before solving."""


def _views(flat, groups, block_sizes) -> list:
    """Per-group (..., k, s, s) views of ``flat``; the one function that knows the column layout.

    ``flat`` is (..., sum s_b^2): one iterate, a stack of them or the
    constraint matrix.  ``groups`` lists per block size, ascending, the
    indices of the k blocks of that size s (``SdpProblem.groups``); the
    columns hold group after group, a group's blocks side by side, each
    flattened row-major.  Writing into a view writes into ``flat``.
    """
    out, start = [], 0
    for idx in groups:
        k, s = len(idx), block_sizes[idx[0]]
        end = start + k * s * s
        out.append(flat[..., start:end].reshape(flat.shape[:-1] + (k, s, s)))
        start = end
    return out


def _unbatch(members, groups) -> list:
    """Per-block entries in block order from per-group arrays; members[g] are group g's blocks."""
    out = [None] * sum(len(idx) for idx in members)
    for idx, group in zip(members, groups):
        for j, i in enumerate(idx):
            out[i] = group[j]
    return out


def _pack(stacks, groups, sizes, num: int, what: str) -> np.ndarray:
    """Pack per-block (num, s_b, s_b) stacks (None for an all-zero block) into one matrix.

    Returns the (num, sum s_b^2) matrix whose row k holds each ``stacks[b][k]``
    in the column layout of ``_views``.  Group by group, the blocks are
    written, checked for symmetry in one batched reduction, every block
    relative to its own largest entry, and symmetrized.
    """
    if len(stacks) != len(sizes):
        raise ValueError(f"{what} must have one stack (or None) per block")
    matrix = np.zeros((num, sum(s * s for s in sizes)))
    for idx, group in zip(groups, _views(matrix, groups, sizes)):
        s = group.shape[-1]
        for j, stack in enumerate(stacks[i] for i in idx):
            if stack is None:
                continue
            if np.shape(stack) != (num, s, s):
                raise ValueError(f"{what} block has shape {np.shape(stack)}, expected {(num, s, s)}")
            group[:, j] = stack
        trans = np.swapaxes(group, 2, 3)
        if np.array_equal(group, trans):  # exactly symmetric: no float temporaries
            continue
        asym = np.subtract(group, trans)
        asym = np.abs(asym, out=asym).max(axis=(0, 2, 3))
        largest = np.maximum(group.max(axis=(0, 2, 3)), -group.min(axis=(0, 2, 3)))
        bad = asym > SYMMETRY_TOL * np.maximum(1.0, largest)
        if bad.any():
            raise ValueError(f"{what} block is not symmetric: max asymmetry {asym[bad].max():g}")
        group[...] = 0.5 * (group + trans)
    return matrix


class SdpProblem:
    """Block-diagonal SDP data, sense: maximize.

    The constructor takes one symmetric matrix per block for the objective C,
    or None for a zero block; ``stacks[b]``, block b's (m, s_b, s_b)
    constraint stack, whose entry k is A_k's block b, or None for a block no
    constraint touches; and ``rhs``, the m values b_k.

    ``groups`` lists the block indices of each block size, ascending by
    size.  The constructor packs C once (``_pack``) into the flat vector
    ``c``, and the stacks into the m x sum(s_b^2) ``matrix``, both in the
    column layout of ``_views``.  The rank filter factors the row Gram of
    ``matrix``; the interior-point loop keeps its iterates in that layout
    and takes the per-group blocks of the Schur complement, the
    factorizations and the eigensolves through ``_views``.
    """

    def __init__(self, block_sizes, objective, stacks, rhs):
        sizes = tuple(int(s) for s in block_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive")
        if any(s > MAX_BLOCK_SIZE for s in sizes):
            raise ValueError(f"block size exceeds the configured limit of {MAX_BLOCK_SIZE}")
        self.block_sizes = sizes
        self.groups = [[i for i, t in enumerate(sizes) if t == s] for s in sorted(set(sizes))]
        objective = [None if c is None else np.asarray(c, dtype=float)[None] for c in objective]
        self.c = _pack(objective, self.groups, sizes, 1, "objective")[0]
        self.rhs = np.array(rhs, dtype=float)
        if self.rhs.ndim != 1 or not self.rhs.size:
            raise ValueError("problem needs at least one constraint; rhs is a vector of b_k")
        self.matrix = _pack(stacks, self.groups, sizes, len(self.rhs), "constraint")

    @property
    def constraints(self) -> list:
        """Per-row (per-block views of ``matrix`` in block order, b_k) pairs."""
        views = _views(self.matrix, self.groups, self.block_sizes)
        return [(_unbatch(self.groups, [v[k] for v in views]), float(b)) for k, b in enumerate(self.rhs)]

    @property
    def num_constraints(self) -> int:
        return len(self.rhs)


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
    """Smallest eigenvalue of a symmetric matrix; +inf for a 0 x 0 one, which has none."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    asym = np.max(np.abs(m - m.T), initial=0.0)
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(m), initial=0.0))):
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:g}")
    return float(np.min(np.linalg.eigvalsh(0.5 * (m + m.T)), initial=np.inf))


def _pivoted_cholesky(gram, tol):
    """Pivoted Cholesky of a positive semidefinite matrix, stopped at its numerical rank.

    LAPACK's dpstf2 in numpy: step k takes the largest remaining pivot, the
    diagonal less the squares of the row's columns so far, and stops once it
    is at most ``tol``; one matrix-vector product gives column k.  Returns
    (fac, piv, rank): in the symmetric permutation ``piv``, the first rank
    columns of the lower triangle ``fac`` hold L11 over L21.
    """
    a = np.array(gram, dtype=float)
    n = len(a)
    piv, squares = np.arange(n), np.zeros(n)
    for k in range(n):
        remaining = np.diagonal(a)[k:] - squares[k:]
        j = k + int(np.argmax(remaining))
        if not remaining[j - k] > tol:
            return np.tril(a), piv, k
        for v in (piv, squares):
            v[[k, j]] = v[[j, k]]
        a[[k, j]] = a[[j, k]]
        a[:, [k, j]] = a[:, [j, k]]
        a[k, k] = np.sqrt(remaining[j - k])
        a[k + 1 :, k] -= a[k + 1 :, :k] @ a[k, :k]
        a[k + 1 :, k] *= 1.0 / a[k, k]
        squares[k + 1 :] += a[k + 1 :, k] ** 2
    return np.tril(a), piv, n


def _rank_filter(problem: SdpProblem):
    """Drop linearly dependent constraint rows; detect inconsistent duplicates.

    Rank is judged on the row-normalized Gram D^-1/2 A A^T D^-1/2, D the
    diagonal of A A^T, with tolerance max(shape)·eps, so rescaling a row or
    the whole problem changes nothing.  When an unpivoted Cholesky of it has
    every pivot above the tolerance, every row is kept.  Otherwise a pivoted
    Cholesky keeps the rows of its first ``rank`` pivots.  Each dropped row
    is c^T (kept rows) with c = L11^-T L21^T: one solve tests them all, on
    the same normalized rows, b scaled by D^-1/2 as well.

    Returns (kept indices, dropped indices, inconsistent flag).  Raises
    ValueError when a row's squared norm is past the float range.
    """
    m, b = problem.num_constraints, problem.rhs
    # a row whose squared norm passes the float range shows as an inf diagonal
    with np.errstate(over="ignore", invalid="ignore"):
        gram = problem.matrix @ problem.matrix.T
    norms = np.sqrt(np.diag(gram))
    if not np.all(np.isfinite(norms)):
        raise ValueError(
            "the SDP's constraint data overflow double precision in the row Gram A A^T;"
            " rescale the generators"
        )
    if not norms.any():
        return [], list(range(m)), bool(np.any(np.abs(b) > 1e-12))
    # a zero row stays zero, and falls below the tolerance
    norms[norms == 0.0] = 1.0
    gram /= norms[:, None]
    gram /= norms[None, :]
    b = b / norms
    tol = max(problem.matrix.shape) * np.finfo(float).eps
    try:
        if np.all(np.diagonal(np.linalg.cholesky(gram)) ** 2 > tol):
            return list(range(m)), [], False
    except np.linalg.LinAlgError:
        pass
    fac, piv, rank = _pivoted_cholesky(gram, tol)
    kept, dropped = piv[:rank], piv[rank:]
    coeff = np.linalg.solve(fac[:rank, :rank].T, fac[rank:, :rank].T)
    excess = np.abs(b[dropped] - b[kept] @ coeff)
    inconsistent = bool(np.any(excess > 1e-8 * (1.0 + np.abs(b[dropped]))))
    return sorted(kept.tolist()), sorted(dropped.tolist()), inconsistent


def _transpose(blocks):
    return np.swapaxes(blocks, -1, -2)


def _cholesky_factors(blocks):
    """(L, L^-1) lists for each block, or stack of blocks, L L^T.

    Raises LinAlgError unless every block is positive definite.  A Cholesky
    factor has a positive diagonal, so its inverse cannot fail.
    """
    lows = [np.linalg.cholesky(mb) for mb in blocks]
    return lows, [np.linalg.inv(low) for low in lows]


def _positive_definite(mat) -> bool:
    """Whether a Cholesky factorization of the symmetric ``mat`` succeeds."""
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _schur(stacks, low_x, inv_low_z) -> np.ndarray:
    """M[j, k] = sum_b <A_j, X A_k Zinv> (symmetric positive definite).

    ``stacks`` are the per-group (m, k, s, s) constraint views, ``low_x`` and
    ``inv_low_z`` the matching (k, s, s) Cholesky factors of X and inverse
    Cholesky factors of Z.  With B_j = Lz^-1 A_j Lx, <A_j, X A_k Zinv> is
    <B_j, B_k>, so per group B is one batched matmul and its share B B^T one
    SYRK, whose result is exactly symmetric.  A group's B is freed before the
    next group's is made.
    """
    m = len(stacks[0])
    m_mat = np.zeros((m, m))
    for st, lx, lzi in zip(stacks, low_x, inv_low_z):
        b = (lzi @ st @ lx).reshape(m, -1)
        m_mat += b @ b.T
        del b
    return m_mat


def _max_step(inv_factors, directions) -> np.ndarray:
    """Largest (alpha_p, alpha_d) with X + alpha_p dX >= 0 and Z + alpha_d dZ >= 0, each capped at 1e6.

    Per group, X and Z (M = L L^T) come stacked as the (2, k, s, s) inverse
    Cholesky factors L^-1, factored once per iteration, and the directions as
    the matching (2, k, s, s) stack: the pencil (D, M) has the eigenvalues of
    L^-1 D L^-T, so one eigensolve per group serves both sides.
    """
    lam = np.min(
        [
            np.linalg.eigvalsh(li @ d @ _transpose(li))[..., 0].min(axis=-1)
            for li, d in zip(inv_factors, directions)
        ],
        axis=0,
    )
    return np.array([min(1e6, -1.0 / side) if side < 0.0 else 1e6 for side in lam])


def solve(problem: SdpProblem, tol: float = 1e-8, max_iter: int = 200) -> SdpSolution:
    """Solve the block SDP by a Mehrotra predictor-corrector interior-point method.

    Status Optimal guarantees relative primal/dual residuals and duality gap
    at most ``tol``; Infeasible comes with a dual improving-ray certificate in
    the diagnostics.  The iteration schedule is deterministic; after
    ``max_iter`` iterations, 200 by default and the cap of every separation
    SDP, the status is IterationLimit.
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
    if inconsistent:
        zeros = [np.zeros((s, s)) for s in sizes]
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

    # Every iterate is a flat vector in the column layout of ``matrix``, so
    # A(X) = mat @ x and A*(y) = y @ mat; ``_views`` gives its per-group blocks.
    # X and Z share one (2, sum s_b^2) buffer, and so do their directions: per group a
    # (2, k, s, s) view factors, eigensolves and updates both sides at once.
    groups = problem.groups
    mat, b, c = problem.matrix, problem.rhs, problem.c
    if dropped:
        mat, b = mat[kept], b[kept]
    stacks = _views(mat, groups, sizes)
    # flat[transpose] transposes every block of a flat iterate
    transpose = np.concatenate(
        [_transpose(v).ravel() for v in _views(np.arange(c.size), groups, sizes)]
    )
    m = len(b)
    n_total = sum(sizes)

    xz, dxz = np.zeros((2, c.size)), np.zeros((2, c.size))
    x, z, dx, dz = xz[0], xz[1], dxz[0], dxz[1]
    xz_g, dxz_g = _views(xz, groups, sizes), _views(dxz, groups, sizes)
    x_g, z_g, dx_g, dz_g = ([v[i] for v in vs] for vs in (xz_g, dxz_g) for i in (0, 1))
    eta = 1.0 + float(np.max(np.abs(b)))
    for v in xz_g:
        v[...] = eta * np.eye(v.shape[-1])
    y = np.zeros(m)
    rd, zinv, work, corr = (np.zeros(c.size) for _ in range(4))
    rd_g, zinv_g, work_g, corr_g = (_views(v, groups, sizes) for v in (rd, zinv, work, corr))

    def symmetrized(flat, out):
        np.add(flat, flat[transpose], out=out)
        out *= 0.5

    def times_zinv(left_g, mid_g, out_g):
        for lb, mb, zib, ob in zip(left_g, mid_g, zinv_g, out_g):
            np.matmul(lb @ mb, zib, out=ob)

    def direction(rhs, dx_base, fraction):
        """Solve the Newton system, fill dZ and dX; return dy and the capped steps."""
        dy = np.linalg.solve(m_sys, rhs)
        np.subtract(dy @ mat, rd, out=dz)
        times_zinv(x_g, dz_g, work_g)
        symmetrized(dx_base - work, dx)
        return dy, np.minimum(1.0, fraction * _max_step(inv_factors, dxz_g))

    # data past the float range show as inf or nan measures and end the loop
    # in "complementarity diverged", not in numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        b_scale = 1.0 + np.linalg.norm(b)
        c_scale = 1.0 + np.linalg.norm(c)

    status = SdpStatus.ITERATION_LIMIT
    iterations = 0
    pobj = dobj = 0.0
    pinf = dinf = relgap = float("inf")

    for it in range(max_iter):
        iterations = it
        with np.errstate(over="ignore", invalid="ignore"):
            fp = b - mat @ x
            np.subtract(c, y @ mat, out=rd)
            rd += z
            mu = float(x @ z) / n_total
            pobj = float(c @ x)
            dobj = float(b @ y)
            pinf = float(np.linalg.norm(fp)) / b_scale
            dinf = float(np.linalg.norm(rd)) / c_scale
            relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        diagnostics["trace"].append(
            {"iter": it, "mu": mu, "pinf": pinf, "dinf": dinf, "relgap": relgap}
        )

        if pinf <= tol and dinf <= tol and relgap <= tol:
            status = SdpStatus.OPTIMAL
            break

        # Farkas-style certificate of primal infeasibility: a normalized dual
        # ray with A*(y) almost PSD and b^T y decidedly negative.
        ynorm = np.linalg.norm(y)
        if pinf > 10.0 * tol and ynorm > 1e2 * b_scale:
            yhat = y / ynorm
            ray = yhat @ mat
            ray_scale = max(1.0, float(np.max(np.abs(ray))))
            block_min = _unbatch(
                groups, [np.linalg.eigvalsh(rb)[:, 0] for rb in _views(ray, groups, sizes)]
            )
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

        # one Cholesky and inverse per group factors X and Z together
        try:
            factors, inv_factors = _cholesky_factors(xz_g)
        except np.linalg.LinAlgError:
            status = SdpStatus.NUMERICAL_TROUBLE
            diagnostics["message"] = "iterate factorization failed: X or Z is not positive definite"
            break
        for li, zib in zip(inv_factors, zinv_g):
            np.matmul(_transpose(li[1]), li[1], out=zib)
        m_mat = _schur(stacks, [f[0] for f in factors], [li[1] for li in inv_factors])
        m_sys, jitter = m_mat, 0.0
        while not _positive_definite(m_sys):
            jitter = max(10.0 * jitter, 1e-14 * (1.0 + np.trace(m_mat) / m))
            if jitter > 1e-2:
                break
            m_sys = m_mat + jitter * np.eye(m)
        if jitter > 1e-2:
            status = SdpStatus.NUMERICAL_TROUBLE
            diagnostics["message"] = "Newton system factorization failed"
            break

        with np.errstate(over="ignore", invalid="ignore"):
            times_zinv(x_g, rd_g, work_g)
            base_rhs = mat @ work - b

        try:
            # predictor: pure Newton step toward the boundary (sigma = 0)
            _, (ap, ad) = direction(base_rhs, -x, 1.0)
            mu_aff = float((x + ap * dx) @ (z + ad * dz)) / n_total
            sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))
            # corrector: recentred step with Mehrotra's second-order term
            times_zinv(dx_g, dz_g, corr_g)
            shift = sigma * mu * zinv - corr
            dy, steps = direction(base_rhs + mat @ shift, shift - x, 0.98)
        except np.linalg.LinAlgError:
            status = SdpStatus.NUMERICAL_TROUBLE
            diagnostics["message"] = "step-length eigensolve failed"
            break
        ap, ad = steps

        # cond (a full SVD) feeds only the stall test, so only a stall pays for it
        if max(ap, ad) < 1e-5 and (cond := np.linalg.cond(m_mat)) > 1e14:
            status = SdpStatus.NUMERICAL_TROUBLE
            diagnostics["message"] = f"Newton system condition {cond:.2e} exceeds 1e14 and progress stalled"
            break

        xz += steps[:, None] * dxz
        y = y + ad * dy
        diagnostics["trace"][-1].update({"sigma": sigma, "alpha_p": float(ap), "alpha_d": float(ad)})
        iterations = it + 1
    else:
        iterations = max_iter

    y_full = np.zeros(problem.num_constraints)
    y_full[kept] = y

    return SdpSolution(
        status=status,
        X=_unbatch(groups, x_g),
        y=y_full,
        S=_unbatch(groups, z_g),
        objective=pobj,
        dual_objective=dobj,
        gap=abs(pobj - dobj),
        primal_residual=pinf,
        dual_residual=dinf,
        iterations=iterations,
        diagnostics=diagnostics,
    )
