"""Certify quadratic-module membership of a polynomial.

Two classics: a plain sum-of-squares decomposition of a quartic, and a
membership statement over a generator, 2 - |x|^2 = 1 + 1 * (1 - |x|^2) on the
unit disk.  Both reduce to one semidefinite feasibility program solved with a
margin; the extracted Gram matrices reproduce the target up to solver noise.
"""

import numpy as np

from polysep import assemble_membership, extract_certificate, parse, reconstruct_residual
from polysep.sdp import solve
from polysep.sos import margin_sdp_solution

# ---- a quartic that is a sum of squares ------------------------------------

target = parse("2*x1^4 + 2*x1^3*x2 - x1^2*x2^2 + 5*x2^4", 2)
problem, maps = assemble_membership(target, [], level=4)
print(f"membership SDP: blocks {problem.block_sizes}, {problem.num_constraints} constraints")

solution = solve(problem, tol=1e-8)
print(f"solved: {solution.status.value}, margin {margin_sdp_solution(solution)[0]:+.3e}")

cert = extract_certificate(solution, maps)
print(f"reconstruction residual: {reconstruct_residual(cert, target):.2e}")
gram = cert.grams[0]
print("Gram matrix over the degree-2 basis:")
print(np.array_str(gram, precision=4, suppress_small=True))

# eigen-decomposing the Gram gives an explicit sum of squared polynomials
eigvals, eigvecs = np.linalg.eigh(gram)
print("squared-term weights (eigenvalues):", np.round(eigvals, 6))

# ---- membership over a generator --------------------------------------------

disk = parse("1 - x1^2 - x2^2", 2)
shifted = parse("2 - x1^2 - x2^2", 2)
problem, maps = assemble_membership(shifted, [disk], level=2)
solution = solve(problem, tol=1e-8)
cert = extract_certificate(solution, maps)
s0, s1 = cert.multipliers()
print(f"\n2 - |x|^2 over the disk: margin {margin_sdp_solution(solution)[0]:+.4f}")
print(f"  s_0 = {s0}")
print(f"  s_1 = {s1}")
rebuilt = s0 + s1 * disk
print(f"  s_0 + s_1 * g = {rebuilt}")

# ---- a polynomial that is NOT a sum of squares -------------------------------

not_sos = parse("-1 - x1^2", 1)
problem, maps = assemble_membership(not_sos, [], level=2)
solution = solve(problem, tol=1e-8)
print(f"\n-1 - x1^2 as an SOS: margin {margin_sdp_solution(solution)[0]:+.4f} "
      "(negative: no certificate at this level, as it must be)")
