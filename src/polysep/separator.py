"""Search for a certified separating polynomial between two semialgebraic sets.

The contract: find p with p >= 1 on A = S(g) and p <= 0 on B = S(h),
witnessed by quadratic-module memberships of p - 1 over g and of -p over h.
At a fixed level l the search is one joint SDP: maximize a margin t subject
to p - 1 - t in Q_l(g) and -p - t in Q_l(h), with the coefficients of p tied
into both membership systems and eliminated against the g-side expansion.
A certified positive margin, rescaled to the cap of 1, yields the
polynomial and both certificates.

The joint SDP is reduced by the coordinate sign flips that fix every
generator of both sets, ball included: each Gram splits into one block per
parity class of its basis monomials and only the rows of flip-invariant
monomials are kept, which leaves the optimal margin unchanged.  The Grams
are written back as full matrices, exactly zero off the parity blocks, so
certificates and result files keep their form.  ``_assemble_separation`` is
the package's one quadratic-module SDP assembler.  Which entry of the packed
constraint matrix takes which generator coefficient depends only on the
generators' exponents, the degree and the level; ``_separation_plan`` works
it out once per such shape, and each assembly scatters the coefficients of
the generators at hand into a zero matrix.

The hierarchy sweeps (degree, level) pairs cheapest first: level-major, with
the degrees rising at each even level, and the first pair that separates
wins.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial, on_grid
from .sdp import SdpProblem, SdpStatus, block_offsets, solve as sdp_solve
from .semialg import (
    EmptySampleError,
    SemialgebraicSet,
    block_points,
    sample_blocks,
    sample_grid,  # read by perfbench/tracing.py
)
from .sos import (
    QmCertificate,
    expand_gram,  # read by perfbench/tracing.py
    gram_incidence,
    incidence_entries,
    monomials_up_to_degree,
    parity_classes,
    reconstruct_residual,
    sign_flips,
)

# separation SDP shapes whose plans are kept; a plan holds index arrays only,
# 16 bytes per constraint nonzero (1.6 MB for the 4-D balls at level 12)
PLAN_CACHE_SIZE = 16


class InfeasibleAtLevelError(RuntimeError):
    """The margin SDP found no strict separator at this (degree, level)."""

    def __init__(self, degree: int, level: int, slack: float):
        super().__init__(
            f"no separator of degree {degree} at level {level}: margin {slack:.6g}"
        )
        self.degree = degree
        self.level = level
        self.slack = slack


class HierarchyExhaustedError(RuntimeError):
    """Every attempted (degree, level) pair failed; carries the attempt trace."""

    def __init__(self, trace: list):
        super().__init__(
            f"hierarchy exhausted after {len(trace)} attempts; "
            "the sets may intersect or the degree/level caps are too small"
        )
        self.trace = trace


class SeparatorSolverError(RuntimeError):
    """The underlying SDP solve ended in a non-optimal status."""

    def __init__(self, status: SdpStatus, detail: str = ""):
        super().__init__(f"SDP solver failed with status {status.value}. {detail}".strip())
        self.status = status


def _check_tolerance(name: str, value: float) -> None:
    # a NaN, negative or infinite tolerance decides nothing: it fails every result or passes any
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and at least 0, got {value}")


@dataclass(frozen=True)
class SeparatorOptions:
    margin_tol: float = 1e-6
    solver_tol: float = 1e-8
    ball_constraint: bool = True

    def __post_init__(self):
        _check_tolerance("margin_tol", self.margin_tol)


@dataclass(frozen=True)
class SeparatorProblem:
    A: SemialgebraicSet
    B: SemialgebraicSet
    p_degree: int
    level: int
    options: SeparatorOptions = field(default_factory=SeparatorOptions)

    def __post_init__(self):
        if self.A.n != self.B.n:
            raise ValueError("sets must share the ambient dimension")
        if self.p_degree < 0:
            raise ValueError("p_degree must be non-negative")
        gens_a, gens_b = _augmented_generators(self.A, self.B, self.options)
        min_level = max([self.p_degree] + [g.total_degree() for g in gens_a + gens_b])
        if self.level < min_level:
            raise ValueError(f"level {self.level} is below the minimum {min_level}")


@dataclass
class SeparatorResult:
    p: Polynomial
    cert_A: QmCertificate
    cert_B: QmCertificate
    slack: float
    level: int
    p_degree: int
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CertificateReport:
    """Residuals, Gram eigenvalue and margin of the two certified identities."""

    residual_A: float
    residual_B: float
    min_gram_eigenvalue: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class SeparationReport:
    """Grid check of the pointwise separation contract."""

    min_on_A: float
    max_on_B: float
    witness_A: tuple
    witness_B: tuple
    count_A: int
    count_B: int
    resolution: int
    tol: float
    passed: bool


def _augmented_generators(a, b, options):
    gens_a = list(a.generators)
    gens_b = list(b.generators)
    if options.ball_constraint:
        ball = Polynomial.ball_generator(a.n)
        gens_a.append(ball)
        gens_b.append(ball)
    return gens_a, gens_b


@dataclass(frozen=True)
class _SeparationPlan:
    """What a separation SDP's shape fixes: its layout, as read-only index arrays.

    ``entries`` are flat positions in the (m, sum s_b^2) constraint matrix,
    and ``sources`` the positions in the coefficient vector
    [1, coefficients of gens_a, then of gens_b, in term order] of the
    values they take.  ``margin`` holds the w and u columns and ``rhs`` the
    right-hand sides.  ``parts[i]`` lists, per block of multiplier i (A side
    first), the basis indices it covers, and ``gram_entries[i]`` the flat
    positions in multiplier i's full Gram of those blocks' entries, block
    after block, each row-major.
    """

    bases_a: tuple
    bases_b: tuple
    parts: tuple
    flips: np.ndarray
    block_sizes: tuple
    entries: np.ndarray
    sources: np.ndarray
    margin: np.ndarray
    rhs: np.ndarray
    gram_entries: tuple


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _separation_plan(n, supports_a, supports_b, degree, level) -> _SeparationPlan:
    """The plan of the joint margin SDP over generators with these exponent tuples.

    ``supports_a`` and ``supports_b`` hold each augmented generator's
    exponent tuples in term order; the rows and blocks are those
    ``_assemble_separation`` describes.  The plan is shared between calls,
    so every array in it is read-only.
    """
    bases_a, rows_a = gram_incidence(n, supports_a, level)
    bases_b, rows_b = gram_incidence(n, supports_b, level)
    flips = sign_flips(n, [alpha for s in supports_a + supports_b for alpha in s])
    # each multiplier's Gram splits into one block per parity class of its basis
    labels, parts = [], []
    for bas in bases_a + bases_b:
        label = np.unique(parity_classes(flips, bas.elements), return_inverse=True)[1]
        labels.append(label)
        parts.append(tuple(np.flatnonzero(label == c) for c in range(label.max() + 1)))
    monomials = monomials_up_to_degree(n, level)
    row_degrees = np.array([sum(alpha) for alpha in monomials])
    invariant = parity_classes(flips, monomials) == 0
    touched_a, touched_b = np.zeros((2, len(monomials)), dtype=bool)
    for touched, side in ((touched_a, rows_a), (touched_b, rows_b)):
        for rows in side:
            touched[rows] = True
    # rows no Gram entry reaches (odd top degrees) are dropped, never row 0 (the
    # constant, reached by s_0)
    joint = np.flatnonzero((touched_a | touched_b) & invariant)
    eliminate = np.flatnonzero(touched_a & invariant & (row_degrees > degree))
    m = len(joint) + len(eliminate) + 1
    row_pos = np.full(len(monomials), -1)
    row_pos[joint] = np.arange(len(joint))
    # the A side's elimination rows repeat their joint rows, the B side's stay zero
    repeat = np.full(len(joint), -1)
    repeat[row_pos[eliminate]] = np.arange(len(joint), m - 1)
    # the coefficient vector starts with s_0's multiplier 1, which both sides share
    starts, start = [], 1
    for side in (supports_a, supports_b):
        starts.append(0)
        for support in side:
            starts.append(start)
            start += len(support)
    block_sizes = (1, 1) + tuple(len(idx) for part in parts for idx in part)
    sizes, offsets = np.array(block_sizes), np.array(block_offsets(block_sizes))
    width = sum(s * s for s in block_sizes)
    entries, sources, first = [], [], 2  # first: the multiplier's first block
    for i, (rows, label, part) in enumerate(zip(rows_a + rows_b, labels, parts)):
        local = np.empty(len(label), dtype=np.intp)  # basis index within its block
        for idx in part:
            local[idx] = np.arange(len(idx))
        # an invariant row reads Gram entries within one parity class only: the
        # flips fix every term, so the two basis monomials of such an entry agree
        row, a, b, term = incidence_entries(rows, row_pos)
        if i < len(bases_a):
            copy = repeat[row] >= 0
            row, a, b, term = (np.concatenate([v, v[copy]]) for v in (row, a, b, term))
            row[len(copy) :] = repeat[row[len(copy) :]]
        block = first + label[a]
        entries.append(row * width + offsets[block] + local[a] * sizes[block] + local[b])
        sources.append(starts[i] + term)
        first += len(part)
    # blocks w and u are the first two of the 1x1 group: columns 0 and 1; the
    # margin t = w - u enters the constant monomial's row twice, and the last
    # row pins w = 1
    constant = np.concatenate([joint, eliminate]) == 0
    margin = np.where(constant, 2.0, 0.0)
    margin = np.stack([np.append(margin, 1.0), np.append(np.negative(margin), 0.0)], axis=1)
    gram_entries = tuple(
        np.concatenate([(idx[:, None] * len(bas) + idx).ravel() for idx in part])
        for bas, part in zip(bases_a + bases_b, parts)
    )
    plan = _SeparationPlan(
        bases_a=tuple(bases_a),
        bases_b=tuple(bases_b),
        parts=tuple(parts),
        flips=flips,
        block_sizes=block_sizes,
        entries=np.concatenate(entries),
        sources=np.concatenate(sources),
        margin=margin,
        rhs=np.append(np.where(constant, -1.0, 0.0), 1.0),
        gram_entries=gram_entries,
    )
    for arr in (plan.flips, plan.entries, plan.sources, plan.margin, plan.rhs, *plan.gram_entries,
                *(idx for part in plan.parts for idx in part)):
        arr.setflags(write=False)
    return plan


def _assemble_separation(n, gens_a, gens_b, degree, level):
    """Joint margin SDP for the two memberships with p eliminated.

    Writing S_g = s_0 + sum s_i g_i and S_h likewise, the two memberships
    p - 1 - t = S_g and -p - t = S_h are equivalent to the rows

        [S_g + S_h]_alpha + (1 + 2t) [alpha = 0] = 0     for deg(alpha) <= l,
        [S_g]_alpha = 0                                  for d < deg(alpha) <= l,

    after which p is recovered as 1 + t + S_g truncated to degree d.  The
    margin is encoded as t = w - u with two 1x1 blocks w and u, blocks 0
    and 1 (objective w - u), and a last row w = 1, which caps t at 1 (a
    separator certified with any margin rescales to margin 1) and keeps the
    problem bounded.  The Gram blocks follow, the A side's first.

    The SDP is reduced by the coordinate sign flips that fix every generator
    (``sign_flips``): averaging a solution over them keeps its margin, and an
    averaged Gram is zero between basis monomials of different parity
    classes and feeds only flip-invariant monomials.  So each multiplier's
    Gram becomes one block per parity class of its basis, and only the rows
    of invariant monomials are kept.  Without a symmetry there is one class
    and the SDP is the unreduced one.

    All of that is the shape's plan (``_separation_plan``, cached); this
    call writes the generators' coefficients into one zero matrix at the
    plan's entries.  Returns (problem, plan).
    """
    plan = _separation_plan(
        n, tuple(tuple(g.terms) for g in gens_a), tuple(tuple(g.terms) for g in gens_b), degree, level
    )
    coeffs = np.fromiter(itertools.chain([1.0], *(g.terms.values() for g in gens_a + gens_b)), float)
    matrix = np.zeros((len(plan.rhs), sum(s * s for s in plan.block_sizes)))
    matrix[:, :2] = plan.margin
    np.put(matrix, plan.entries, coeffs[plan.sources])
    c = np.zeros(matrix.shape[1])
    c[:2] = (1.0, -1.0)
    return SdpProblem(plan.block_sizes, c, matrix, plan.rhs, packed=True), plan


def margin_sdp_solution(sol) -> tuple:
    """(t, Gram blocks) of a solved separation SDP: t = w - u from blocks 0 and 1, then blocks 2, 3, ..."""
    return float(sol.X[0][0, 0] - sol.X[1][0, 0]), list(sol.X[2:])


def _full_grams(blocks, bases, gram_entries) -> list:
    """Each multiplier's full Gram from its parity blocks, exactly zero off them: one scatter each."""
    values = np.concatenate([block.ravel() for block in blocks])
    grams, start = [], 0
    for bas, entries in zip(bases, gram_entries):
        gram = np.zeros((len(bas), len(bas)))
        np.put(gram, entries, values[start : start + len(entries)])
        start += len(entries)
        grams.append(gram)
    return grams


def solve_fixed_level(prob: SeparatorProblem) -> SeparatorResult:
    """Solve the joint margin SDP at the problem's fixed degree and level.

    The solve stops at its first iterate that certifies a margin t above
    ``margin_tol`` with a primal residual within ``solver_tol``, or else runs
    to optimality, where t at most ``margin_tol`` raises
    InfeasibleAtLevelError.  A certified iterate is rescaled to the cap: its
    Grams are multiplied by 3 / (1 + 2t) and t is set to 1, so a separator's
    slack is always 1.0.
    """
    opts = prob.options
    n = prob.A.n
    gens_a, gens_b = _augmented_generators(prob.A, prob.B, opts)
    sdp_problem, plan = _assemble_separation(n, gens_a, gens_b, prob.p_degree, prob.level)
    sol = sdp_solve(sdp_problem, tol=opts.solver_tol, target=opts.margin_tol)
    if sol.status not in (SdpStatus.OPTIMAL, SdpStatus.TARGET_REACHED):
        raise SeparatorSolverError(sol.status, sol.diagnostics.get("message", ""))
    t, blocks = margin_sdp_solution(sol)
    if t <= opts.margin_tol:
        raise InfeasibleAtLevelError(prob.p_degree, prob.level, t)
    # rescaled to the cap: Grams times 3 / (1 + 2t) turn the constant row's
    # 1 + 2t into 3, so t = 1 with w = 1 and u = 0, and leave the other rows,
    # which are homogeneous in the Grams; t = 1 is the optimum
    scale = 3.0 / (1.0 + 2.0 * t)
    t = 1.0

    # the A side's Gram blocks come first
    grams = _full_grams(
        [scale * block for block in blocks], plan.bases_a + plan.bases_b, plan.gram_entries
    )
    grams_a, grams_b = tuple(grams[: len(plan.bases_a)]), tuple(grams[len(plan.bases_a) :])
    cert_a = QmCertificate(tuple(gens_a), grams_a, plan.bases_a, prob.level)
    cert_b = QmCertificate(tuple(gens_b), grams_b, plan.bases_b, prob.level)
    return SeparatorResult(
        p=(cert_a.polynomial() + (1.0 + t)).truncate(prob.p_degree),
        cert_A=cert_a,
        cert_B=cert_b,
        slack=t,
        level=prob.level,
        p_degree=prob.p_degree,
        diagnostics={
            "sdp_iterations": sol.iterations,
            "sign_flips": [(np.flatnonzero(f) + 1).tolist() for f in plan.flips],
            "block_sizes": list(sdp_problem.block_sizes),
            "num_constraints": sdp_problem.num_constraints,
        },
    )


def run_hierarchy(
    a: SemialgebraicSet,
    b: SemialgebraicSet,
    d_max: int,
    l_max: int,
    options: SeparatorOptions = SeparatorOptions(),
) -> SeparatorResult:
    """Sweep even levels up to l_max, and degrees 1..min(d_max, level) at each.

    The sweep is level-major, cheapest attempt first: levels start at the
    largest generator degree rounded up to even and step by 2, as each basis
    at level 2k+1 lies inside the one at 2k+2 (so Q_{2k+1} is in Q_{2k+2});
    at each level the degrees run upwards.  The first attempt that certifies
    a margin wins, so when degree d fails at level l but a higher degree d'
    separates there, the answer is (d', l) even if d would have separated at
    a higher level.  Raises HierarchyExhaustedError with the full attempt
    trace if nothing separates: the sets intersect or the caps are too small.
    Raises ValueError if d_max < 1 or l_max is below the first level, where
    the sweep would make no attempt.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    gens_a, gens_b = _augmented_generators(a, b, options)
    gen_degree = max(g.total_degree() for g in gens_a + gens_b)
    first = gen_degree + gen_degree % 2
    if l_max < first:
        raise ValueError(
            f"l_max {l_max} is below the sweep's first level {first}, the largest "
            "generator degree (ball generator included) rounded up to even"
        )

    trace = []
    for level in range(first, l_max + 1, 2):
        for d in range(1, min(d_max, level) + 1):
            attempt = {"degree": d, "level": level}
            try:
                result = solve_fixed_level(
                    SeparatorProblem(A=a, B=b, p_degree=d, level=level, options=options)
                )
            except InfeasibleAtLevelError as err:
                attempt.update(outcome="no_margin", slack=err.slack)
                trace.append(attempt)
            except SeparatorSolverError as err:
                attempt.update(outcome="solver_error", detail=str(err))
                trace.append(attempt)
            else:
                attempt.update(outcome="separated", slack=result.slack)
                trace.append(attempt)
                result.diagnostics["trace"] = trace
                return result
    raise HierarchyExhaustedError(trace)


def verify_separation(
    p: Polynomial, a: SemialgebraicSet, b: SemialgebraicSet, resolution: int, tol: float
) -> SeparationReport:
    """Grid check: p >= 1 - tol on samples of A and p <= tol on samples of B.

    Each set's samples are swept block by block, A's before B's, and none
    is kept: memory is one grid block whatever the resolution.
    """
    _check_tolerance("tol", tol)
    count_a, min_a, witness_a = _sweep(p, a, resolution, np.argmin, "first")
    count_b, max_b, witness_b = _sweep(p, b, resolution, np.argmax, "second")
    return SeparationReport(
        min_on_A=min_a,
        max_on_B=max_b,
        witness_A=witness_a,
        witness_B=witness_b,
        count_A=count_a,
        count_B=count_b,
        resolution=resolution,
        tol=tol,
        passed=bool(min_a >= 1.0 - tol and max_b <= tol),
    )


def _sweep(p: Polynomial, s: SemialgebraicSet, resolution: int, pick, which: str):
    """(count, value, point) of ``sample_grid(s, resolution)``'s p-extreme, without the cloud.

    ``pick`` is ``np.argmin`` or ``np.argmax``.  Per ``sample_blocks``
    block, p comes from ``evaluate_axes`` on the block's grid, at each
    sample point the float ``evaluate_many`` gives there, and ``pick`` takes
    the block's first extreme; ``pick`` over those takes the first of the
    cloud in its x1-major order, the point ``pick`` over the whole cloud
    finds.  No sample point raises EmptySampleError naming the ``which`` set.
    """
    count, values, points = 0, [], []
    for axes, mask in sample_blocks(s, resolution):
        flat = np.flatnonzero(mask)
        if len(flat):
            count += len(flat)
            vals = on_grid(p.evaluate_axes(axes), axes)[mask]
            i = int(pick(vals))
            values.append(vals[i])
            points.append(block_points(axes, mask.shape, flat[i : i + 1])[0])
    if not count:
        raise EmptySampleError(f"{which} set has no sample points at resolution {resolution}")
    k = int(pick(values))
    return count, float(values[k]), tuple(float(v) for v in points[k])


def certificate_residuals(result: SeparatorResult) -> tuple:
    """Reconstruction residuals of the two certified identities."""
    target_a = result.p - (1.0 + result.slack)
    target_b = -result.p - result.slack
    return (
        reconstruct_residual(result.cert_A, target_a),
        reconstruct_residual(result.cert_B, target_b),
    )


def verify_certificate(result: SeparatorResult, tol: float) -> CertificateReport:
    """Check the two certified identities of ``result`` without the solver.

    Accept rule: margin t = ``result.slack`` > 0, both reconstruction
    residuals <= tol and every Gram eigenvalue >= -tol; a NaN fails.  The
    verdict is ``passed``: the report itself is always truthy.
    """
    _check_tolerance("tol", tol)
    res_a, res_b = certificate_residuals(result)
    min_eig = min(result.cert_A.min_gram_eigenvalue(), result.cert_B.min_gram_eigenvalue())
    passed = result.slack > 0.0 and res_a <= tol and res_b <= tol and min_eig >= -tol
    return CertificateReport(res_a, res_b, min_eig, result.slack, bool(passed))
