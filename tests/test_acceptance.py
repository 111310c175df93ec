"""Acceptance suite: one test per acceptance criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines.  The guaranteed-degree value near 10^19.9 for the worked parameter set
is validated as a calculator output only; solving an SDP at such a level is
astronomically beyond desk scale and is intentionally not attempted.
"""

import json
import time

import mpmath
import numpy as np
import pytest

from polysep import sdp
from polysep.bounds import (
    BoundParams,
    jackson_degree,
    quadratic_module_complexity,
    separation_degree_bound,
)
from polysep.cli import main
from polysep.poly import parse
from polysep.semialg import SemialgebraicSet
from polysep.separator import (
    SeparatorOptions,
    SeparatorProblem,
    certificate_residuals,
    solve_fixed_level,
    verify_separation,
)


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_lemniscate_disk_reproduction(
    tmp_path, capsys, lemniscate_problem_file, reference_p
):
    start = time.perf_counter()
    out = tmp_path / "result.json"
    code = main(["separate", lemniscate_problem_file, "--degree-max", "2", "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["degree"] == 2

    code = main(
        ["verify", lemniscate_problem_file, str(out), "--resolution", "201", "--tol", "1e-3"]
    )
    assert code == 0

    # the published degree-2 separator verifies on the disk reading at 1e-2;
    # coefficient equality is not expected (separators are not unique)
    ref = tmp_path / "reference.json"
    ref.write_text(
        json.dumps(
            {
                "p": {
                    "string": "1.92876 - 7.71502*x1 + 10.96977*x2^2",
                    "coefficients": [
                        {"exponents": [0, 0], "coefficient": 1.92876},
                        {"exponents": [1, 0], "coefficient": -7.71502},
                        {"exponents": [0, 2], "coefficient": 10.96977},
                    ],
                }
            }
        )
    )
    code = main(
        ["verify", lemniscate_problem_file, str(ref), "--resolution", "201", "--tol", "1e-2"]
    )
    assert code == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    capsys.readouterr()
    ok(f"lemniscate/disk reproduction ({elapsed:.1f}s)")


def test_criterion_2_literal_two_lobe_falsification(
    tmp_path, capsys, two_lobe_problem_file, reference_p
):
    ref = tmp_path / "reference.json"
    ref.write_text(
        json.dumps(
            {
                "p": {
                    "string": "1.92876 - 7.71502*x1 + 10.96977*x2^2",
                    "coefficients": [
                        {"exponents": [0, 0], "coefficient": 1.92876},
                        {"exponents": [1, 0], "coefficient": -7.71502},
                        {"exponents": [0, 2], "coefficient": 10.96977},
                    ],
                }
            }
        )
    )
    code = main(
        ["verify", two_lobe_problem_file, str(ref), "--resolution", "201", "--tol", "1e-2"]
    )
    captured = capsys.readouterr()
    assert code == 3
    report = json.loads(captured.out)
    assert report["separation"]["witness_B"][0] < 0.0
    assert reference_p.evaluate([-0.5, 0.0]) == pytest.approx(5.786, abs=1e-3)
    ok("two-lobe reading falsified with witness x1 < 0")


def test_criterion_3_certificate_soundness_suite(
    disk_sets, lemniscate_set, circle_set
):
    faces = (
        SemialgebraicSet(2, (parse("x1 - 1", 2),)),
        SemialgebraicSet(2, (parse("-x1 - 1", 2),)),
    )
    problems = [
        (disk_sets[0], disk_sets[1], 1, 2),
        (disk_sets[0], disk_sets[1], 1, 4),
        (lemniscate_set, circle_set, 2, 4),
        (faces[0], faces[1], 1, 2),
    ]
    opts = SeparatorOptions(solver_tol=1e-8)
    for a, b, degree, level in problems:
        result = solve_fixed_level(SeparatorProblem(a, b, degree, level, opts))
        res_a, res_b = certificate_residuals(result)
        assert res_a <= 1e-6 and res_b <= 1e-6
        assert result.cert_A.min_gram_eigenvalue() >= -1e-8
        assert result.cert_B.min_gram_eigenvalue() >= -1e-8
    ok("certificate soundness across the problem suite")


def test_criterion_4_sdp_analytic_checks():
    E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    E22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    E12 = np.array([[0.0, 0.5], [0.5, 0.0]])
    completion = sdp.SdpProblem((2,), [-E11], [np.array([E22, E12])], [1.0, 0.3])
    sol = sdp.solve(completion, tol=1e-8)
    assert sol.status is sdp.SdpStatus.OPTIMAL
    assert sol.X[0][0, 0] == pytest.approx(0.09, abs=1e-6)

    impossible = sdp.SdpProblem((2,), [np.zeros((2, 2))], [E11[None]], [-1.0])
    assert sdp.solve(impossible, tol=1e-8).status is sdp.SdpStatus.INFEASIBLE
    ok("SDP completion optimum 0.09 and infeasible diagonal")


def test_criterion_5_disk_separation_and_scaling(disk_sets):
    a, b = disk_sets
    result = solve_fixed_level(SeparatorProblem(a, b, 1, 2))
    assert result.p_degree == 1
    assert verify_separation(result.p, a, b, 201, 1e-3).passed

    scaled_a = SemialgebraicSet(2, tuple(g.scale(2.0) for g in a.generators))
    scaled_b = SemialgebraicSet(2, tuple(g.scale(2.0) for g in b.generators))
    scaled = solve_fixed_level(SeparatorProblem(scaled_a, scaled_b, 1, 2))
    assert scaled.slack > 1e-6
    ok("disks separated at degree 1, invariant under generator scaling")


def test_criterion_6_bound_calculators_vs_oracle():
    def oracle(n, t, c, r, deg, jackson_c, dist):
        with mpmath.workdps(60):
            gamma = (
                mpmath.mpf(n) ** 3
                * mpmath.mpf(2) ** (5 * n * mpmath.mpf(t))
                * mpmath.mpf(r) ** n
                * mpmath.mpf(c) ** (2 * n)
                * mpmath.mpf(deg) ** n
            )
            total = (
                gamma
                * mpmath.mpf(jackson_c) ** (3.5 * n * mpmath.mpf(t))
                * mpmath.mpf(n) ** (3 * n * mpmath.mpf(t))
                * (6 / mpmath.mpf(dist)) ** (6 * n * mpmath.mpf(t))
            )
            return float(mpmath.log10(gamma)), float(mpmath.log10(total))

    rng = np.random.default_rng(20250810)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        t = float(rng.uniform(1.0, 3.0))
        c = float(rng.uniform(0.1, 10.0))
        r = int(rng.integers(1, 6))
        deg = int(rng.integers(1, 9))
        jackson_c = float(rng.uniform(0.2, 5.0))
        dist = float(rng.uniform(0.01, 2.0))
        comp = quadratic_module_complexity(n, t, c, r, deg)
        params = BoundParams(n=n, dist=dist, loj_exponent=t, jackson_constant=jackson_c)
        bound = separation_degree_bound(params, comp, comp)
        gamma_ref, total_ref = oracle(n, t, c, r, deg, jackson_c, dist)
        assert comp.log10_value == pytest.approx(gamma_ref, abs=1e-9)
        assert bound.log10_value == pytest.approx(total_ref, abs=1e-9)

    comp = quadratic_module_complexity(2, 1.0, 1.0, 1, 4)
    worked = separation_degree_bound(
        BoundParams(n=2, dist=0.5, loj_exponent=1.0, jackson_constant=1.0),
        comp,
        comp,
    )
    assert worked.log10_value == pytest.approx(19.874, abs=5e-4)
    ok("degree-bound calculators match the high-precision oracle")


def test_criterion_7_jackson_degree_is_minimal():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        lip = float(rng.uniform(0.01, 100.0))
        n = int(rng.integers(1, 8))
        err = float(rng.uniform(0.005, 4.0))
        c = float(rng.uniform(0.05, 10.0))
        m = jackson_degree(lip, n, err, c)
        assert c * lip * n**1.5 / m <= err
        if m >= 2:
            assert c * lip * n**1.5 / (m - 1) > err
    ok("approximation degree minimal")


def test_criterion_8_hierarchy_level_monotonicity(disk_sets):
    a, b = disk_sets
    slacks = []
    for level in (2, 4, 6):
        result = solve_fixed_level(SeparatorProblem(a, b, 1, level))
        assert result.slack > 1e-6
        slacks.append(result.slack)
    ok(f"success persists across levels 2, 4, 6 (margins {[round(s, 4) for s in slacks]})")
