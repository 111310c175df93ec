"""Certified polynomial separation of compact semialgebraic sets.

Given two disjoint basic closed semialgebraic sets inside the box [-1, 1]^n,
the package searches a hierarchy of sum-of-squares semidefinite programs for
a polynomial p with p >= 1 on the first set and p <= 0 on the second, and
returns p together with explicit quadratic-module certificates of both
inequalities.  Companion calculators evaluate the closed-form degree bounds
that guarantee such a separator exists.
"""

__version__ = "0.1.0"

from .poly import ParseError, Polynomial, SampleBudgetError, parse, sup_norm_grid
from .semialg import (
    EmptySampleError,
    SemialgebraicSet,
    dist_estimate,
    eps_estimate,
    sample_grid,
    u_eval,
)
from .sdp import SdpProblem, SdpSolution, SdpStatus, min_eigenvalue
from .sos import (
    MonomialBasis,
    NegativeSlackError,
    QmCertificate,
    assemble_membership,
    basis,
    expand_gram,
    extract_certificate,
    reconstruct_residual,
)
from .separator import (
    CertificateReport,
    HierarchyExhaustedError,
    InfeasibleAtLevelError,
    SeparationReport,
    SeparatorOptions,
    SeparatorProblem,
    SeparatorResult,
    run_hierarchy,
    solve_fixed_level,
    verify_certificate,
    verify_separation,
)
from .bounds import (
    BoundParams,
    LogScaleValue,
    jackson_degree,
    lipschitz_constant,
    positivity_certificate_level,
    quadratic_module_complexity,
    separation_degree_bound,
)

__all__ = [
    "__version__",
    "ParseError",
    "Polynomial",
    "SampleBudgetError",
    "parse",
    "sup_norm_grid",
    "EmptySampleError",
    "SemialgebraicSet",
    "dist_estimate",
    "eps_estimate",
    "sample_grid",
    "u_eval",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "min_eigenvalue",
    "MonomialBasis",
    "NegativeSlackError",
    "QmCertificate",
    "assemble_membership",
    "basis",
    "expand_gram",
    "extract_certificate",
    "reconstruct_residual",
    "CertificateReport",
    "HierarchyExhaustedError",
    "InfeasibleAtLevelError",
    "SeparationReport",
    "SeparatorOptions",
    "SeparatorProblem",
    "SeparatorResult",
    "run_hierarchy",
    "solve_fixed_level",
    "verify_certificate",
    "verify_separation",
    "BoundParams",
    "LogScaleValue",
    "jackson_degree",
    "lipschitz_constant",
    "positivity_certificate_level",
    "quadratic_module_complexity",
    "separation_degree_bound",
]
