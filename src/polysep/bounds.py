"""Closed-form degree bounds for the separation pipeline, carried in log10.

These calculators evaluate how large a certificate level is guaranteed to
suffice: the Jackson degree for uniform approximation of the Lipschitz
separator u, the quadratic-module complexity factor of a generator system,
the level bound for certifying a positive polynomial, and the resulting
separation-degree bound.  The values overflow double precision for modest
dimensions, so every bound is computed and reported in base-10 logarithm.

The Lojasiewicz data (coefficient and exponent) of a generator system is not
computable here and enters as user input; exponent 1 corresponds to systems
whose active constraint gradients are linearly independent on the sets.  The
Jackson constant is an absolute constant whose numeric value is unspecified;
it defaults to 1 and is reported alongside results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import sup_norm_grid

LOG10_2 = math.log10(2.0)


@dataclass(frozen=True)
class LogScaleValue:
    """A positive quantity stored as its base-10 logarithm."""

    log10_value: float

    def __post_init__(self):
        if not math.isfinite(self.log10_value):
            raise ValueError(f"log10 value must be finite, got {self.log10_value}")

    def pow10_string(self) -> str:
        return f"10^{self.log10_value:.4f}"


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the separation-degree bound.

    loj_exponent is the Lojasiewicz exponent of the generator systems (user
    supplied); jackson_constant is the absolute constant of the
    uniform-approximation theorem; dist is (an estimate of) the distance
    between the two sets.  The per-set complexities enter the bound as its
    own arguments.
    """

    n: int
    dist: float
    loj_exponent: float = 1.0
    jackson_constant: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("bounds require dimension n >= 2")
        if self.loj_exponent < 1.0:
            raise ValueError("the Lojasiewicz exponent is at least 1")
        for name in ("dist", "jackson_constant"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


def lipschitz_constant(dist: float) -> float:
    """Lipschitz constant 3/dist of the explicit continuous separator."""
    if dist <= 0.0:
        raise ValueError(f"dist must be positive, got {dist}")
    return 3.0 / dist


def jackson_degree(lipschitz: float, n: int, target_err: float, jackson_constant: float) -> int:
    """Smallest m with C * L * n^(3/2) / m <= target_err.

    The degree at which a polynomial uniformly approximates an L-Lipschitz
    function on the box to within target_err.  A quotient past the float
    range has no integer degree and raises ValueError.
    """
    if lipschitz <= 0.0 or target_err <= 0.0 or jackson_constant <= 0.0 or n < 1:
        raise ValueError("all arguments must be positive")
    quotient = jackson_constant * lipschitz * n**1.5 / target_err
    if quotient == math.inf:
        raise ValueError(
            f"the Jackson degree C * L * n^1.5 / err overflows double precision at C = "
            f"{jackson_constant:g}, L = {lipschitz:g}, n = {n}, err = {target_err:g}"
        )
    return max(1, math.ceil(quotient))


def quadratic_module_complexity(
    n: int, loj_exponent: float, loj_coeff: float, n_generators: int, max_generator_degree: int
) -> LogScaleValue:
    """log10 of n^3 * 2^(5nT) * r^n * c^(2n) * deg(f)^n for a generator system."""
    if n < 2:
        raise ValueError("bounds require dimension n >= 2")
    value = (
        3.0 * math.log10(n)
        + 5.0 * n * loj_exponent * LOG10_2
        + n * math.log10(n_generators)
        + 2.0 * n * math.log10(loj_coeff)
        + n * math.log10(max_generator_degree)
    )
    return LogScaleValue(value)


def positivity_certificate_level(
    n: int,
    loj_exponent: float,
    loj_coeff: float,
    n_generators: int,
    max_generator_degree: int,
    poly_degree: int,
    eps: float,
) -> LogScaleValue:
    """Level guaranteeing a quadratic-module certificate for a positive polynomial.

    log10 of complexity * deg(p)^(3.5nT) * eps(p)^(-2.5nT), where eps(p) is
    the normalized minimum of p on the set.  Requires eps in (0, 1]; a
    non-positive eps means p is not positive on the set and no level helps.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    base = quadratic_module_complexity(
        n, loj_exponent, loj_coeff, n_generators, max_generator_degree
    )
    nt = n * loj_exponent
    value = base.log10_value + 3.5 * nt * math.log10(poly_degree) - 2.5 * nt * math.log10(eps)
    return LogScaleValue(value)


def separation_degree_bound(
    params: BoundParams, complexity_a: LogScaleValue, complexity_b: LogScaleValue
) -> LogScaleValue:
    """Degree at which a certified separator is guaranteed to exist.

    log10 of max(complexities) * C^(3.5nT) * n^(3nT) * (6/dist)^(6nT); with
    Lojasiewicz exponent 1 this is the constraint-qualification form of the
    bound.
    """
    nt = params.n * params.loj_exponent
    value = (
        max(complexity_a.log10_value, complexity_b.log10_value)
        + 3.5 * nt * math.log10(params.jackson_constant)
        + 3.0 * nt * math.log10(params.n)
        + 6.0 * nt * math.log10(6.0 / params.dist)
    )
    return LogScaleValue(value)


def generator_norm_warnings(generators, resolution: int) -> list:
    """Normalization warnings: the level bounds assume every ||f_i|| <= 1/2.

    Returns one message per generator whose sup-norm on the ``resolution``^n
    grid exceeds 1/2; the bound report passes its distance resolution, so it
    sweeps one grid.  Rescaling such a generator by a positive constant
    restores the assumption without changing the set.  A sup-norm past the
    float range gives no factor: the message says the values overflow.
    """
    messages = []
    for i, g in enumerate(generators):
        norm = sup_norm_grid(g, resolution)
        if norm == math.inf:
            messages.append(
                f"generator {i + 1} has box values that overflow double precision; "
                "rescale it to meet the bound's normalization"
            )
        elif norm > 0.5:
            messages.append(
                f"generator {i + 1} has box sup-norm about {norm:.4g} > 1/2; "
                f"rescale it by {0.5 / norm:.4g} to meet the bound's normalization"
            )
    return messages
