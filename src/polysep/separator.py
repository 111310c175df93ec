"""Search for a certified separating polynomial between two semialgebraic sets.

The contract: find p with p >= 1 on A = S(g) and p <= 0 on B = S(h),
witnessed by quadratic-module memberships of p - 1 over g and of -p over h.
At a fixed level l the search is one joint SDP: maximize a margin t subject
to p - 1 - t in Q_l(g) and -p - t in Q_l(h), with the coefficients of p tied
into both membership systems and eliminated against the g-side expansion.
A positive optimal margin yields the polynomial and both certificates.

The joint SDP is reduced by the coordinate sign flips that fix every
generator of both sets, ball included: each Gram splits into one block per
parity class of its basis monomials and only the rows of flip-invariant
monomials are kept, which leaves the optimal margin unchanged.  The Grams
are written back as full matrices, exactly zero off the parity blocks, so
certificates and result files keep their form.  ``_assemble_separation`` is
the package's one quadratic-module SDP assembler.

The hierarchy sweeps (degree, level) pairs cheapest first: level-major, with
the degrees rising at each even level, and the first pair that separates
wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial
from .sdp import SdpProblem, SdpStatus, solve as sdp_solve
from .semialg import EmptySampleError, SemialgebraicSet, sample_grid
from .sos import (
    QmCertificate,
    expand_gram,  # read by perfbench/tracing.py
    gram_incidence,
    incidence_stack,
    margin_sdp_data,
    margin_sdp_solution,
    monomials_up_to_degree,
    parity_classes,
    reconstruct_residual,
    sign_flips,
)

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


def _assemble_separation(n, gens_a, gens_b, degree, level):
    """Joint margin SDP for the two memberships with p eliminated.

    Writing S_g = s_0 + sum s_i g_i and S_h likewise, the two memberships
    p - 1 - t = S_g and -p - t = S_h are equivalent to the rows

        [S_g + S_h]_alpha + (1 + 2t) [alpha = 0] = 0     for deg(alpha) <= l,
        [S_g]_alpha = 0                                  for d < deg(alpha) <= l,

    after which p is recovered as 1 + t + S_g truncated to degree d.  The
    margin is encoded as t = w - u with two 1x1 blocks and the row w = 1,
    which caps t at 1 (a separator certified with any margin rescales to
    margin 1) and keeps the problem bounded.

    The SDP is reduced by the coordinate sign flips that fix every generator
    (``sign_flips``): averaging a solution over them keeps its margin, and an
    averaged Gram is zero between basis monomials of different parity
    classes and feeds only flip-invariant monomials.  So each multiplier's
    Gram becomes one block per parity class of its basis, and only the rows
    of invariant monomials are kept.  Without a symmetry there is one class
    and the SDP is the unreduced one.

    Returns (problem, bases_a, bases_b, parts, flips): ``parts[i]`` lists,
    per block of multiplier i (A side first), the basis indices it covers.
    """
    bases_a, incidence_a = gram_incidence(n, gens_a, level)
    bases_b, incidence_b = gram_incidence(n, gens_b, level)
    flips = sign_flips(n, [alpha for g in gens_a + gens_b for alpha in g.terms])
    parts = []
    for bas in bases_a + bases_b:
        classes = parity_classes(flips, bas.elements)
        parts.append([np.flatnonzero(classes == c) for c in np.unique(classes)])
    monomials = monomials_up_to_degree(n, level)
    row_degrees = np.array([sum(alpha) for alpha in monomials])
    invariant = parity_classes(flips, monomials) == 0
    reached = [np.concatenate([r.ravel() for r, _ in inc]) for inc in (incidence_a, incidence_b)]
    touched_a, touched_b = (np.isin(np.arange(len(monomials)), r) for r in reached)
    # rows no Gram entry reaches (odd top degrees) are dropped, never row 0 (the
    # constant, reached by s_0)
    joint = np.flatnonzero((touched_a | touched_b) & invariant)
    eliminate = np.flatnonzero(touched_a & invariant & (row_degrees > degree))
    rows = np.concatenate([joint, eliminate])
    row_pos = np.full(len(monomials), -1)
    row_pos[joint] = np.arange(len(joint))
    # an invariant row reads Gram entries within one parity class only
    stacks = [
        incidence_stack(inc, row_pos, len(rows), idx)
        for inc, part in zip(incidence_a + incidence_b, parts)
        for idx in part
    ]
    # the A side's elimination rows repeat their joint rows, the B side's stay zero
    for st in stacks[: sum(map(len, parts[: len(bases_a)]))]:
        st[len(joint) : -1] = st[row_pos[eliminate]]
    constant = rows == 0  # the row of the constant monomial
    margin, rhs = np.where(constant, 2.0, 0.0), np.where(constant, -1.0, 0.0)
    problem = SdpProblem(*margin_sdp_data(stacks, margin, rhs))
    return problem, bases_a, bases_b, parts, flips


def _full_grams(blocks, bases, parts) -> list:
    """Each multiplier's full Gram from its parity blocks, exactly zero off them."""
    blocks = iter(blocks)
    grams = []
    for bas, part in zip(bases, parts):
        gram = np.zeros((len(bas), len(bas)))
        for idx in part:
            gram[np.ix_(idx, idx)] = next(blocks)
        grams.append(gram)
    return grams


def solve_fixed_level(prob: SeparatorProblem) -> SeparatorResult:
    """Solve the joint margin SDP at the problem's fixed degree and level."""
    opts = prob.options
    n = prob.A.n
    gens_a, gens_b = _augmented_generators(prob.A, prob.B, opts)
    sdp_problem, bases_a, bases_b, parts, flips = _assemble_separation(
        n, gens_a, gens_b, prob.p_degree, prob.level
    )
    sol = sdp_solve(sdp_problem, tol=opts.solver_tol)
    if sol.status is not SdpStatus.OPTIMAL:
        raise SeparatorSolverError(sol.status, sol.diagnostics.get("message", ""))
    t, blocks = margin_sdp_solution(sol)
    if t <= opts.margin_tol:
        raise InfeasibleAtLevelError(prob.p_degree, prob.level, t)

    # the A side's Gram blocks come first
    grams = _full_grams(blocks, bases_a + bases_b, parts)
    grams_a, grams_b = tuple(grams[: len(bases_a)]), tuple(grams[len(bases_a) :])
    cert_a = QmCertificate(tuple(gens_a), grams_a, tuple(bases_a), prob.level)
    cert_b = QmCertificate(tuple(gens_b), grams_b, tuple(bases_b), prob.level)
    return SeparatorResult(
        p=(cert_a.polynomial() + (1.0 + t)).truncate(prob.p_degree),
        cert_A=cert_a,
        cert_B=cert_b,
        slack=t,
        level=prob.level,
        p_degree=prob.p_degree,
        diagnostics={
            "sdp_iterations": sol.iterations,
            "sign_flips": [(np.flatnonzero(f) + 1).tolist() for f in flips],
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
    """Grid check: p >= 1 - tol on samples of A and p <= tol on samples of B."""
    _check_tolerance("tol", tol)
    cloud_a = sample_grid(a, resolution)
    if len(cloud_a) == 0:
        raise EmptySampleError(f"first set has no sample points at resolution {resolution}")
    cloud_b = sample_grid(b, resolution)
    if len(cloud_b) == 0:
        raise EmptySampleError(f"second set has no sample points at resolution {resolution}")
    vals_a = p.evaluate_many(cloud_a)
    vals_b = p.evaluate_many(cloud_b)
    i_min = int(np.argmin(vals_a))
    i_max = int(np.argmax(vals_b))
    min_a = float(vals_a[i_min])
    max_b = float(vals_b[i_max])
    return SeparationReport(
        min_on_A=min_a,
        max_on_B=max_b,
        witness_A=tuple(float(v) for v in cloud_a[i_min]),
        witness_B=tuple(float(v) for v in cloud_b[i_max]),
        count_A=len(cloud_a),
        count_B=len(cloud_b),
        resolution=resolution,
        tol=tol,
        passed=bool(min_a >= 1.0 - tol and max_b <= tol),
    )


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
