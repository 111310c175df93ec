"""Drive the interior-point SDP solver directly on small problems.

Problems are given in primal standard form: maximize <C, X> subject to
<A_k, X> = b_k with X block-diagonal PSD.  The constraints come as one
(m, s, s) stack per block, whose entry k is A_k's block, and the vector of
the m right-hand sides b_k.  The second example has the
analytic optimum x11 = 0.3^2 = 0.09 (a 2x2 PSD completion); the third is
infeasible and the solver returns a dual improving-ray certificate.
"""

import numpy as np

from polysep.sdp import SdpProblem, solve

# ---- pure feasibility: any X with trace 1 ------------------------------------

problem = SdpProblem(
    block_sizes=(2,),
    objective=[np.zeros((2, 2))],
    stacks=[np.eye(2)[None]],
    rhs=[1.0],
)
solution = solve(problem, tol=1e-8)
print("trace-one feasibility:", solution.status.value)
print(solution.X[0])

# ---- PSD completion ------------------------------------------------------------

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])
E12 = np.array([[0.0, 0.5], [0.5, 0.0]])
completion = SdpProblem(
    block_sizes=(2,),
    objective=[-E11],  # maximize -x11
    stacks=[np.array([E22, E12])],
    rhs=[1.0, 0.3],
)
solution = solve(completion, tol=1e-8)
print(f"\ncompletion: {solution.status.value} in {solution.iterations} iterations")
print(f"x11 = {solution.X[0][0, 0]:.9f}  (analytic optimum 0.09)")
print(f"duality gap {solution.gap:.2e}, primal residual {solution.primal_residual:.2e}")

# ---- infeasible: a PSD matrix cannot have a negative diagonal entry ------------

impossible = SdpProblem(
    block_sizes=(2,),
    objective=[np.zeros((2, 2))],
    stacks=[E11[None]],
    rhs=[-1.0],
)
solution = solve(impossible, tol=1e-8)
print(f"\nx11 = -1: {solution.status.value}")
print("improving ray:", solution.diagnostics["infeasibility_ray"])

# the plain-text dump is handy for cross-checking against another solver
print("\nproblem dump:")
print(completion.dump())
