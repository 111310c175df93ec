"""Separate two disjoint disks and inspect the certificate.

The sets are radius-1/4 disks centered at (-1/2, 0) and (1/2, 0).  An affine
separator exists (any steep enough line between them), so the hierarchy
succeeds at degree 1, and the result carries explicit sum-of-squares
certificates for both inequalities.
"""

import numpy as np

from polysep import (
    SemialgebraicSet,
    parse,
    run_hierarchy,
    verify_certificate,
    verify_separation,
)

a = SemialgebraicSet(2, (parse("1/16 - (x1 + 1/2)^2 - x2^2", 2),))
b = SemialgebraicSet(2, (parse("1/16 - (x1 - 1/2)^2 - x2^2", 2),))

result = run_hierarchy(a, b, d_max=2, l_max=6)
print(f"separator found at degree {result.p_degree}, level {result.level}")
print(f"  p(x) = {result.p}")
print(f"  margin: p >= 1 + {result.slack:.4f} on A and p <= -{result.slack:.4f} on B")

# the certificate states p - 1 - margin = s_0 + sum_i s_i g_i with SOS s_i;
# its quality is the coefficient residual of that identity plus the PSD-ness
# of the Gram matrices
cert = verify_certificate(result, 1e-6)
print(f"  reconstruction residuals: {cert.residual_A:.2e} (side A), "
      f"{cert.residual_B:.2e} (side B)")
print(f"  smallest Gram eigenvalue: {cert.min_gram_eigenvalue:.2e}")
print(f"  certificate valid at 1e-6: {cert.passed}")

report = verify_separation(result.p, a, b, resolution=201, tol=1e-3)
print(f"grid check on 201^2 samples: min over A = {report.min_on_A:.4f}, "
      f"max over B = {report.max_on_B:.4f} -> passed = {report.passed}")

# the multipliers are polynomials; evaluate one to see it is non-negative
s0 = result.cert_A.multipliers()[0]
pts = np.random.default_rng(1).uniform(-1, 1, size=(5, 2))
print("sample values of the leading SOS multiplier:", np.round(s0.evaluate_many(pts), 4))
