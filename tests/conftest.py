import json

import numpy as np
import pytest

from polysep import poly, sdp, semialg, separator, sos

LEMNISCATE = "-16/9*(x1^2+x2^2)^2 + x2^2 - x1^2"
CIRCLE = "1/16 - (x1 - 1/2)^2 - x2^2"
TWO_LOBES = "1/16 - (x1^2 - 1/2)^2 - x2^2"
REFERENCE_P = "1.92876 - 7.71502*x1 + 10.96977*x2^2"

DISK_LEFT = "1/16 - (x1 + 1/2)^2 - x2^2"
DISK_RIGHT = "1/16 - (x1 - 1/2)^2 - x2^2"


@pytest.fixture
def lemniscate_set():
    return semialg.SemialgebraicSet(2, (poly.parse(LEMNISCATE, 2),))


@pytest.fixture
def circle_set():
    return semialg.SemialgebraicSet(2, (poly.parse(CIRCLE, 2),))


@pytest.fixture
def two_lobe_set():
    return semialg.SemialgebraicSet(2, (poly.parse(TWO_LOBES, 2),))


@pytest.fixture
def reference_p():
    return poly.parse(REFERENCE_P, 2)


@pytest.fixture
def disk_sets():
    a = semialg.SemialgebraicSet(2, (poly.parse(DISK_LEFT, 2),))
    b = semialg.SemialgebraicSet(2, (poly.parse(DISK_RIGHT, 2),))
    return a, b


def write_problem(path, n, a_generators, b_generators, options=None):
    data = {"n": n, "A_generators": a_generators, "B_generators": b_generators}
    if options:
        data["options"] = options
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def lemniscate_problem_file(tmp_path):
    return write_problem(tmp_path / "problem.json", 2, [LEMNISCATE], [CIRCLE])


@pytest.fixture
def two_lobe_problem_file(tmp_path):
    return write_problem(tmp_path / "lobes.json", 2, [LEMNISCATE], [TWO_LOBES])


@pytest.fixture
def disk_problem_file(tmp_path):
    return write_problem(tmp_path / "disks.json", 2, [DISK_LEFT], [DISK_RIGHT])


def evaluated_points(monkeypatch):
    """A list whose sum is the number of points ``evaluate_axes`` evaluates polynomials at from now on."""
    sizes = []
    evaluate_axes = poly.Polynomial.evaluate_axes

    def counting(p, axes):
        sizes.append(int(np.prod(np.broadcast_shapes(*(np.shape(x) for x in axes)))))
        return evaluate_axes(p, axes)

    monkeypatch.setattr(poly.Polynomial, "evaluate_axes", counting)
    return sizes


@pytest.fixture
def troubled_solver(monkeypatch):
    """Every separator SDP solve ends in NUMERICAL_TROUBLE; returns the detail each attempt records."""
    message = "step-length eigensolve failed"

    def troubled(problem, tol, target=None):
        nan = float("nan")
        return sdp.SdpSolution(
            status=sdp.SdpStatus.NUMERICAL_TROUBLE, X=[], y=np.zeros(problem.num_constraints),
            S=[], objective=nan, dual_objective=nan, gap=nan, primal_residual=nan,
            dual_residual=nan, iterations=0, diagnostics={"message": message},
        )

    monkeypatch.setattr(separator, "sdp_solve", troubled)
    return f"SDP solver failed with status NumericalTrouble. {message}"


def incidence_stacks(n, generators, level):
    """Bases and dense constraint stacks of the level-``level`` quadratic module, from its incidence.

    Per multiplier (1, then ``generators``), the (rows + 1, k, k) stack over
    every row monomial of degree <= ``level`` and the whole basis: entry
    [r, a, b] is the coefficient with which G[a, b] feeds row monomial r.
    The last row stays zero, for a margin SDP's normalization row.
    """
    bases, rows = sos.gram_incidence(n, [g.terms for g in generators], level)
    every = np.arange(len(sos.monomials_up_to_degree(n, level)))
    stacks = []
    for f, bas, inc in zip([poly.Polynomial.constant(n, 1.0)] + list(generators), bases, rows):
        row, a, b, term = sos.incidence_entries(inc, every)
        stack = np.zeros((len(every) + 1, len(bas), len(bas)))
        stack[row, a, b] = np.array(list(f.terms.values()))[term]
        stacks.append(stack)
    return bases, stacks
