"""Evaluate the guaranteed-degree calculators on a concrete problem.

The bound pipeline: estimate dist(A, B), form the Lipschitz constant of the
explicit continuous separator, the degree at which a polynomial approximates
it uniformly, and the level at which a certified separator is guaranteed to
exist.  The last value overflows double precision even for easy problems,
which is why it is carried in base-10 logarithm; it is a guarantee, not the
level the hierarchy actually needs (two disks succeed at level 2).
"""

from polysep import (
    BoundParams,
    SemialgebraicSet,
    dist_estimate,
    eps_estimate,
    jackson_degree,
    lipschitz_constant,
    parse,
    positivity_certificate_level,
    quadratic_module_complexity,
    run_hierarchy,
    separation_degree_bound,
)
from polysep.bounds import generator_norm_warnings

a = SemialgebraicSet(2, (parse("1/16 - (x1 + 1/2)^2 - x2^2", 2),))
b = SemialgebraicSet(2, (parse("1/16 - (x1 - 1/2)^2 - x2^2", 2),))

dist = dist_estimate(a, b, resolution=201)
lipschitz = lipschitz_constant(dist)
print(f"dist(A, B) ~ {dist:.4f}  ->  Lipschitz constant L = 3/dist = {lipschitz:.4f}")

for err in (1.0, 0.5, 0.1):
    m = jackson_degree(lipschitz, n=2, target_err=err, jackson_constant=1.0)
    print(f"degree for uniform error {err}: m = {m}")

# complexity of each generator system (Lojasiewicz data defaulted to 1;
# exponent 1 is the constraint-qualification case)
comp_a = quadratic_module_complexity(
    n=2, loj_exponent=1.0, loj_coeff=1.0, n_generators=1, max_generator_degree=2
)
comp_b = quadratic_module_complexity(
    n=2, loj_exponent=1.0, loj_coeff=1.0, n_generators=1, max_generator_degree=2
)
print(f"\ncomplexity factors: {comp_a.pow10_string()} and {comp_b.pow10_string()}")

params = BoundParams(n=2, dist=dist, loj_exponent=1.0, jackson_constant=1.0)
bound = separation_degree_bound(params, comp_a, comp_b)
print(f"guaranteed separation degree: {bound.pow10_string()}")
print("(the hierarchy succeeds at level 2 here; the guarantee is astronomically loose)")

for message in generator_norm_warnings(list(a.generators) + list(b.generators), 201):
    print("warning:", message)

# the level bound for one membership: take the separator the hierarchy
# actually finds, measure the normalized minimum eps of p - 1/2 on A, and
# ask at which level a certificate of its positivity is guaranteed
result = run_hierarchy(a, b, d_max=1, l_max=4)
witness = result.p - 0.5
eps = eps_estimate(witness, a, resolution=201)
level = positivity_certificate_level(
    n=2, loj_exponent=1.0, loj_coeff=1.0, n_generators=1,
    max_generator_degree=2, poly_degree=max(witness.total_degree(), 1), eps=eps,
)
print(f"\nfound separator p = {result.p}")
print(f"eps(p - 1/2) on A ~ {eps:.4f}  ->  guaranteed certificate level {level.pow10_string()}")
print(f"(the certificate in hand lives at level {result.level})")
