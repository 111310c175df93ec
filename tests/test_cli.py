import contextlib
import hashlib
import io
import json
import os
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import DISK_LEFT, DISK_RIGHT, REFERENCE_P, write_problem
from polysep.cli import load_problem, main
from polysep.poly import box_grid_points, parse
from polysep.separator import SeparationReport

DATA_DIR = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_result_file(path):
    """A result file carrying only the published separator, no certificates."""
    p = {
        "string": REFERENCE_P,
        "coefficients": [
            {"exponents": [0, 0], "coefficient": 1.92876},
            {"exponents": [1, 0], "coefficient": -7.71502},
            {"exponents": [0, 2], "coefficient": 10.96977},
        ],
    }
    path.write_text(json.dumps({"version": "external", "p": p, "degree": 2}))
    return str(path)


# ---- separate -------------------------------------------------------------------


def test_separate_then_verify_round_trip(tmp_path, capsys, lemniscate_problem_file):
    out = tmp_path / "result.json"
    code, stdout, stderr = run(
        capsys, "separate", lemniscate_problem_file, "--degree-max", "2", "--out", str(out)
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result["degree"] == 2
    assert result["slack"] > 1e-6
    assert result["verification"]["separation"]["passed"]
    assert set(result["certificates"]) == {"A", "B"}

    code, stdout, _ = run(
        capsys, "verify", lemniscate_problem_file, str(out), "--resolution", "201", "--tol", "1e-3"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"]
    assert report["certificates"]["passed"]


def test_separate_golden_tries_the_cheapest_attempts_first(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, *_ = run(
        capsys, "separate", str(DATA_DIR / "golden_problem.json"), "--degree-max", "2",
        "--out", str(out),
    )
    assert code == 0
    result = json.loads(out.read_text())
    trace = [(t["degree"], t["level"], t["outcome"]) for t in result["diagnostics"]["trace"]]
    assert trace == [(1, 4, "no_margin"), (2, 4, "separated")]
    golden = json.loads((DATA_DIR / "golden_result.json").read_text())
    assert result["slack"] == pytest.approx(golden["slack"], abs=1e-12)


def test_separate_intersecting_sets_exits_two(tmp_path, capsys):
    problem = write_problem(tmp_path / "same.json", 2, [DISK_LEFT], [DISK_LEFT])
    code, _, stderr = run(capsys, "separate", problem, "--degree-max", "1", "--level-max", "4")
    assert code == 2
    assert "no separator" in stderr


def test_separate_malformed_polynomial_exits_one(tmp_path, capsys):
    problem = tmp_path / "bad.json"
    problem.write_text(json.dumps({"n": 2, "A_generators": ["x1 +"], "B_generators": ["x1"]}))
    code, _, stderr = run(capsys, "separate", str(problem))
    assert code == 1
    assert "position" in stderr


def test_bad_flag_values_exit_one(tmp_path, capsys, disk_problem_file):
    code, *_ = run(capsys, "separate", disk_problem_file, "--degree-max", "0")
    assert code == 1
    code, *_ = run(capsys, "separate", disk_problem_file, "--degree-max", "nope")
    assert code == 1
    code, *_ = run(capsys, "separate")  # missing problem path
    assert code == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_separate_respects_file_options(tmp_path, capsys):
    problem = write_problem(
        tmp_path / "p.json", 2, [DISK_LEFT], [DISK_RIGHT], options={"degree_max": 1, "level_max": 4}
    )
    out = tmp_path / "r.json"
    code, *_ = run(capsys, "separate", problem, "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["degree"] == 1


def test_separate_ball_switch_off(tmp_path, capsys, disk_problem_file):
    out = tmp_path / "r.json"
    code, *_ = run(
        capsys, "separate", disk_problem_file, "--degree-max", "1", "--ball", "off",
        "--out", str(out)
    )
    assert code == 0
    result = json.loads(out.read_text())
    # without the ball switch each certificate carries only the set's generator
    assert len(result["certificates"]["A"]["generators"]) == 1


@pytest.mark.parametrize("value", [True, 1, "yes"])
def test_separate_ball_option_other_than_on_or_off_exits_one(tmp_path, capsys, value):
    problem = write_problem(
        tmp_path / "p.json", 2, [DISK_LEFT], [DISK_RIGHT], options={"ball": value}
    )
    code, stdout, stderr = run(capsys, "separate", problem, "--degree-max", "1")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: option ball")


def test_separate_negative_margin_flag_exits_one(capsys):
    # a margin floor of -1 would accept the (1, 4) attempt's margin of -0.5
    code, stdout, stderr = run(
        capsys, "separate", str(DATA_DIR / "golden_problem.json"), "--degree-max", "2",
        "--margin", "-1",
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: margin_tol must be finite and at least 0, got -1.0")


@pytest.mark.parametrize("value", [True, 2.9])
def test_separate_integer_option_refuses_booleans_and_fractions(tmp_path, capsys, value):
    problem = write_problem(
        tmp_path / "p.json", 2, [DISK_LEFT], [DISK_RIGHT], options={"degree_max": value}
    )
    code, stdout, stderr = run(capsys, "separate", problem)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: option degree_max must be integer, got {value!r}")


def test_separate_is_deterministic(tmp_path, capsys, disk_problem_file):
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code, *_ = run(capsys, "separate", disk_problem_file, "--degree-max", "1",
                       "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        del data["timing"]
        outputs.append(data)
    assert outputs[0] == outputs[1]


def test_separate_4d_writes_result_when_grids_exceed_the_budget(tmp_path, capsys):
    # 201^4 check points and 101^4 bound points are both over the grid budget
    problem = write_problem(
        tmp_path / "balls4.json", 4,
        ["0.04 - (x1 + 0.5)^2 - x2^2 - x3^2 - x4^2"],
        ["0.04 - (x1 - 0.5)^2 - x2^2 - x3^2 - x4^2"],
    )
    out = tmp_path / "r.json"
    code, *_ = run(capsys, "separate", problem, "--degree-max", "1", "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert result["degree"] == 1
    assert result["slack"] > 1e-6
    separation = result["verification"]["separation"]
    assert set(separation) == {"resolution", "tol", "skipped", "passed"}
    assert separation["passed"] is None
    assert "exceeds the budget" in separation["skipped"]
    assert any("exceeds the budget" in w for w in result["bounds"]["warnings"])


def test_separate_keeps_result_when_a_set_has_no_grid_point(tmp_path, capsys):
    # a disk of radius 1e-3 falls between the points of the 201-grid
    problem = write_problem(
        tmp_path / "speck.json", 2, ["1e-6 - (x1 + 0.503)^2 - (x2 - 0.003)^2"], [DISK_RIGHT]
    )
    out = tmp_path / "r.json"
    code, *_ = run(capsys, "separate", problem, "--degree-max", "1", "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert result["slack"] > 1e-6
    separation = result["verification"]["separation"]
    assert separation["passed"] is None
    assert "no sample points" in separation["skipped"]


ONE_D_SETS = (["1/16 - (x1 + 1/2)^2"], ["1/16 - (x1 - 1/2)^2"])


def test_separate_then_verify_1d_writes_result_without_a_bound_report(tmp_path, capsys):
    problem = write_problem(tmp_path / "segments.json", 1, *ONE_D_SETS)
    out = tmp_path / "r.json"
    code, *_ = run(capsys, "separate", problem, "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert result["degree"] == 1
    assert result["p"]["coefficients"]
    assert set(result["certificates"]) == {"A", "B"}
    assert result["verification"]["separation"]["passed"] is True
    # the degree bounds are stated for n >= 2; the separator is kept regardless
    assert result["bounds"] == {
        "warnings": ["bound report unavailable: bounds require dimension n >= 2"]
    }
    code, stdout, _ = run(capsys, "verify", problem, str(out))
    assert code == 0
    assert json.loads(stdout)["certificates"]["passed"] is True
    # the bounds command itself still refuses n = 1
    code, stdout, stderr = run(capsys, "bounds", problem)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: bounds require dimension n >= 2")


def test_separate_refuses_a_boolean_dimension(tmp_path, capsys):
    # JSON true would otherwise read as n = 1, a problem these generators parse in
    problem = write_problem(tmp_path / "bool.json", True, *ONE_D_SETS)
    code, stdout, stderr = run(capsys, "separate", problem)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: problem file needs integer n")


def test_separate_then_verify_4d_decides_on_the_certificates(tmp_path, capsys):
    problem = write_problem(
        tmp_path / "balls4.json", 4,
        ["0.04 - (x1 + 0.5)^2 - x2^2 - x3^2 - x4^2"],
        ["0.04 - (x1 - 0.5)^2 - x2^2 - x3^2 - x4^2"],
    )
    out = tmp_path / "r.json"
    code, *_ = run(capsys, "separate", problem, "--degree-max", "1", "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", problem, str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"] is True
    assert report["certificates"]["passed"] is True
    assert set(report["separation"]) == {"resolution", "tol", "skipped", "passed"}
    assert report["separation"]["passed"] is None
    assert "exceeds the budget" in report["separation"]["skipped"]

    # without certificates nothing is left to decide on
    data = json.loads(out.read_text())
    del data["certificates"]
    out.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", problem, str(out))
    assert code == 3
    assert json.loads(stdout)["passed"] is False


MALFORMED_PROBLEMS = {
    "generator is a number": lambda d: d.update(A_generators=[1]),
    "degree_max is null": lambda d: d.update(options={"degree_max": None}),
    "degree_max is a list": lambda d: d.update(options={"degree_max": [1]}),
    "degree_max is true": lambda d: d.update(options={"degree_max": True}),
    "degree_max is 2.9": lambda d: d.update(options={"degree_max": 2.9}),
    "margin is -1": lambda d: d.update(options={"margin": -1}),
    "margin is nan": lambda d: d.update(options={"margin": float("nan")}),
    "margin is inf": lambda d: d.update(options={"margin": float("inf")}),
    "n is too large for a tuple": lambda d: d.update(n=1e300),
    "n is 2.9": lambda d: d.update(n=2.9),
}

MALFORMED_RESULTS = {
    "p.string is a number": lambda d: d["p"].update(string=5),
    "certificate generator is a number": lambda d: d["certificates"]["A"].update(generators=[5]),
    "certificates is a list": lambda d: d.update(certificates=[d["certificates"]["A"]]),
    "certificates has no A": lambda d: d["certificates"].pop("A"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROBLEMS))
def test_separate_malformed_problem_json_exits_one(tmp_path, capsys, case):
    data = json.loads((DATA_DIR / "golden_problem.json").read_text())
    MALFORMED_PROBLEMS[case](data)
    problem = tmp_path / "bad.json"
    problem.write_text(json.dumps(data))
    code, stdout, stderr = run(capsys, "separate", str(problem))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ")


@pytest.mark.parametrize("case", sorted(MALFORMED_RESULTS))
def test_verify_malformed_result_json_exits_one(tmp_path, capsys, case):
    data = json.loads((DATA_DIR / "golden_result.json").read_text())
    MALFORMED_RESULTS[case](data)
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(data))
    code, stdout, stderr = run(capsys, "verify", str(DATA_DIR / "golden_problem.json"), str(result))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ")


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_verify_certificate_with_wrong_multiplier_count_exits_one(tmp_path, capsys, change):
    # one Gram per multiplier of [1] + generators: an extra s_0 copy used to be dropped
    # silently (exit 0, passed), a missing one failed the residual check (exit 3)
    data = json.loads((DATA_DIR / "golden_result.json").read_text())
    multipliers = data["certificates"]["A"]["multipliers"]
    if change == "extra":
        multipliers.append(multipliers[0])
    else:
        multipliers.pop()
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(data))
    code, stdout, stderr = run(capsys, "verify", str(DATA_DIR / "golden_problem.json"), str(result))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: malformed certificate entry: certificate needs one Gram")


# ---- verify ----------------------------------------------------------------------


def test_verify_reference_separator_on_circle_reading(
    tmp_path, capsys, lemniscate_problem_file
):
    result = reference_result_file(tmp_path / "reference.json")
    code, stdout, _ = run(
        capsys, "verify", lemniscate_problem_file, result, "--resolution", "201", "--tol", "1e-2"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["separation"]["passed"]
    assert report["certificates"]["passed"] is None


def test_verify_reference_separator_fails_on_literal_reading(
    tmp_path, capsys, two_lobe_problem_file
):
    result = reference_result_file(tmp_path / "reference.json")
    code, stdout, _ = run(
        capsys, "verify", two_lobe_problem_file, result, "--resolution", "201", "--tol", "1e-2"
    )
    assert code == 3
    report = json.loads(stdout)
    assert not report["separation"]["passed"]
    assert report["separation"]["witness_B"][0] < 0.0


def test_verify_truncated_result_exits_one(tmp_path, capsys, lemniscate_problem_file):
    broken = tmp_path / "broken.json"
    broken.write_text('{"p": {"string": "x1"')
    code, _, stderr = run(capsys, "verify", lemniscate_problem_file, str(broken))
    assert code == 1


def test_verify_rejects_disagreeing_coefficient_list(tmp_path, capsys, lemniscate_problem_file):
    result = tmp_path / "mismatch.json"
    result.write_text(
        json.dumps(
            {
                "p": {
                    "string": "x1",
                    "coefficients": [{"exponents": [1, 0], "coefficient": 2.0}],
                }
            }
        )
    )
    code, _, stderr = run(capsys, "verify", lemniscate_problem_file, str(result))
    assert code == 1
    assert "disagree" in stderr


def test_verify_corrupted_certificate_exits_three(
    tmp_path, capsys, disk_problem_file
):
    out = tmp_path / "result.json"
    code, *_ = run(capsys, "separate", disk_problem_file, "--degree-max", "1", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    data["certificates"]["A"]["multipliers"][0]["gram_row_major"][0] += 0.25
    out.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", disk_problem_file, str(out))
    assert code == 3
    assert not json.loads(stdout)["certificates"]["passed"]


def test_verify_certificate_over_foreign_generators_exits_three(
    tmp_path, capsys, disk_problem_file
):
    out = tmp_path / "result.json"
    code, *_ = run(capsys, "separate", disk_problem_file, "--degree-max", "1", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    data["certificates"]["A"]["generators"][0] = "1 - x1^2"  # not a problem generator
    out.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", disk_problem_file, str(out))
    assert code == 3
    report = json.loads(stdout)
    assert report["certificates"]["passed"] is False
    assert report["certificates"]["foreign_generators"]


def test_verify_golden_result_file(capsys):
    """Schema stability: a stored result from a previous run still verifies."""
    code, stdout, _ = run(
        capsys,
        "verify",
        str(DATA_DIR / "golden_problem.json"),
        str(DATA_DIR / "golden_result.json"),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"]
    assert list(report["separation"]) == [f.name for f in fields(SeparationReport)]
    assert list(report["certificates"]) == [
        "residual_A", "residual_B", "min_gram_eigenvalue", "slack", "passed"
    ]


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_refuses_a_tolerance_that_decides_nothing(tmp_path, capsys, tol):
    # at --tol inf even a golden result whose s_0 Gram is scaled by -100 passed;
    # at nan or -1 the valid golden result failed with exit code 3
    data = json.loads((DATA_DIR / "golden_result.json").read_text())
    s0 = data["certificates"]["A"]["multipliers"][0]
    s0["gram_row_major"] = [-100.0 * v for v in s0["gram_row_major"]]
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(data))
    for result in (DATA_DIR / "golden_result.json", corrupted):
        code, stdout, stderr = run(
            capsys, "verify", str(DATA_DIR / "golden_problem.json"), str(result), "--tol", tol
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: tol must be finite and at least 0")


def test_verify_accepts_a_zero_tolerance(capsys):
    code, stdout, _ = run(
        capsys, "verify", str(DATA_DIR / "golden_problem.json"),
        str(DATA_DIR / "golden_result.json"), "--tol", "0",
    )
    # a zero tol is strict, not malformed: the grid passes, the residuals of about 1e-12 do not
    report = json.loads(stdout)
    assert code == 3
    assert (report["separation"]["passed"], report["certificates"]["passed"]) == (True, False)


# ---- bounds ----------------------------------------------------------------------


def test_bounds_disk_problem(capsys, disk_problem_file):
    code, stdout, _ = run(capsys, "bounds", disk_problem_file)
    assert code == 0
    report = json.loads(stdout)
    assert report["dist_estimate"] == pytest.approx(0.5, abs=1e-9)
    assert report["lipschitz_constant"] == pytest.approx(6.0, abs=1e-9)
    assert report["jackson_degree_err1"] == 17
    assert report["separation_degree_log10"] > 0
    assert report["warnings"]
    assert report["ball_rescaled"]["separation_degree_log10"] > report["separation_degree_log10"]


def test_bounds_lemniscate_problem(capsys, lemniscate_problem_file):
    code, stdout, _ = run(capsys, "bounds", lemniscate_problem_file)
    assert code == 0
    report = json.loads(stdout)
    # the Lipschitz constant is 3/dist by construction; at resolution 201 the
    # closest grid pair gives dist = 0.3/sqrt(5), hence L = 10*sqrt(5)
    assert report["lipschitz_constant"] == pytest.approx(
        3.0 / report["dist_estimate"], rel=1e-12
    )
    assert report["lipschitz_constant"] == pytest.approx(22.3606797749979, abs=1e-9)
    assert report["separation_degree_log10"] > 20.0
    assert report["separation_degree"].startswith("10^")
    assert any("Lojasiewicz" in w for w in report["warnings"])


def test_bounds_t1_variant_matches_a_run_at_t1(capsys, disk_problem_file):
    code, stdout, _ = run(capsys, "bounds", disk_problem_file, "--T", "2")
    assert code == 0
    at_t2 = json.loads(stdout)
    code, stdout, _ = run(capsys, "bounds", disk_problem_file, "--T", "1")
    assert code == 0
    assert at_t2["separation_degree_T1_log10"] == json.loads(stdout)["separation_degree_log10"]
    assert at_t2["separation_degree_log10"] > at_t2["separation_degree_T1_log10"]


def test_bounds_empty_set_exits_four(tmp_path, capsys):
    problem = write_problem(tmp_path / "empty.json", 2, [DISK_LEFT], ["-1 - x1^2"])
    code, _, stderr = run(capsys, "bounds", problem)
    assert code == 4


def test_bounds_rejects_bad_flags(capsys, disk_problem_file):
    code, _, stderr = run(capsys, "bounds", disk_problem_file, "--c", "-1")
    assert code == 1
    code, _, stderr = run(capsys, "bounds", disk_problem_file, "--T", "0.5")
    assert code == 1


# ---- grid ------------------------------------------------------------------------


def test_grid_row_count(tmp_path, capsys, lemniscate_problem_file):
    result = reference_result_file(tmp_path / "reference.json")
    out = tmp_path / "grid.csv"
    code, *_ = run(
        capsys, "grid", lemniscate_problem_file, result, "--resolution", "16", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,p,inA,inB"
    assert len(lines) == 16 * 16 + 1


def test_grid_minimal_resolution(tmp_path, capsys, lemniscate_problem_file):
    result = reference_result_file(tmp_path / "reference.json")
    code, stdout, _ = run(capsys, "grid", lemniscate_problem_file, result, "--resolution", "2")
    assert code == 0
    assert len(stdout.strip().splitlines()) == 5


def test_grid_over_the_point_budget_exits_one(tmp_path, capsys, lemniscate_problem_file):
    # 3163^2 > 10^7: the budget check raises before any point is allocated
    result = reference_result_file(tmp_path / "reference.json")
    code, stdout, stderr = run(capsys, "grid", lemniscate_problem_file, result, "--resolution", "3163")
    assert code == 1
    assert stdout == ""
    assert "exceeds the budget" in stderr


def test_grid_into_a_missing_directory_exits_one(tmp_path, capsys, lemniscate_problem_file):
    result = reference_result_file(tmp_path / "reference.json")
    out = tmp_path / "missing" / "grid.csv"
    code, _, stderr = run(capsys, "grid", lemniscate_problem_file, result, "--out", str(out))
    assert code == 1
    assert stderr.startswith("error: ")


def test_grid_rejects_non_planar_problems(tmp_path, capsys):
    problem = write_problem(tmp_path / "p3.json", 3, ["1 - x1^2"], ["x2 - 2"])
    result = tmp_path / "r.json"
    result.write_text(json.dumps({"p": {"string": "x1", "coefficients": [
        {"exponents": [1, 0, 0], "coefficient": 1.0}]}}))
    code, _, stderr = run(capsys, "grid", str(problem), str(result))
    assert code == 1
    assert "2-D" in stderr


def test_grid_marks_membership(tmp_path, capsys, lemniscate_problem_file):
    result = reference_result_file(tmp_path / "reference.json")
    code, stdout, _ = run(
        capsys, "grid", lemniscate_problem_file, result, "--resolution", "41"
    )
    assert code == 0
    rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
    in_a = [r for r in rows if r[3] == "1"]
    in_b = [r for r in rows if r[4] == "1"]
    assert in_a and in_b
    # members of A sit near the x2 axis, members of B near (1/2, 0)
    assert all(abs(float(r[0])) <= 0.3 for r in in_a)
    assert all(0.25 <= float(r[0]) <= 0.75 for r in in_b)


def reference_grid_csv(problem, result, resolution):
    """The CSV as one formatted line per row, the way grid wrote it unstreamed."""
    a, b, _ = load_problem(problem)
    p = parse(json.loads(Path(result).read_text())["p"]["string"], 2)
    pts = box_grid_points(2, resolution)
    columns = zip(
        pts[:, 0], pts[:, 1], p.evaluate_many(pts), a.contains_many(pts), b.contains_many(pts)
    )
    lines = ["x1,x2,p,inA,inB"] + [
        f"{float(x1)!r},{float(x2)!r},{float(v)!r},{int(in_a)},{int(in_b)}"
        for x1, x2, v, in_a, in_b in columns
    ]
    return "\n".join(lines) + "\n"


def test_grid_golden_csv_is_pinned(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, *_ = run(
        capsys, "grid", str(DATA_DIR / "golden_problem.json"), str(DATA_DIR / "golden_result.json"),
        "--out", str(out),
    )
    assert code == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "3727079cb039179a17211aa84f3f063b"


@pytest.mark.parametrize("resolution", [3, 257])  # 257^2 rows span two blocks
def test_grid_matches_the_per_row_formatter(tmp_path, capsys, resolution):
    problem = str(DATA_DIR / "golden_problem.json")
    result = str(DATA_DIR / "golden_result.json")
    out = tmp_path / "g.csv"
    code, *_ = run(capsys, "grid", problem, result, "--resolution", str(resolution), "--out", str(out))
    assert code == 0
    assert out.read_text() == reference_grid_csv(problem, result, resolution)


def test_grid_memory_does_not_grow_with_the_resolution(capsys):
    problem = str(DATA_DIR / "golden_problem.json")
    result = str(DATA_DIR / "golden_result.json")
    peaks = {}
    for resolution in (256, 1000):
        tracemalloc.start()
        try:
            code = main(["grid", problem, result, "--resolution", str(resolution), "--out", os.devnull])
            peaks[resolution] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    # the whole 1000^2 CSV is about 62 MB; a slab-streamed grid holds a block
    assert peaks[1000] <= 2 * peaks[256]


def polynomial_result_file(path, string):
    """A result file carrying only the separator p given as text."""
    p = parse(string, 2)
    coefficients = [{"exponents": list(m), "coefficient": c} for m, c in p.terms.items()]
    path.write_text(json.dumps({"p": {"string": string, "coefficients": coefficients}, "degree": 2}))
    return str(path)


def test_grid_writes_zeros_through_the_repr_fallback(tmp_path, capsys, lemniscate_problem_file):
    # x1 * x2 on the 3-grid is 0 on every row through the axes' 0.0.  The
    # products there are 0.0 or -0.0, but p sums its terms onto 0.0, so the
    # column holds 0.0 only; -0.0 is in the formatter's own tests
    result = polynomial_result_file(tmp_path / "r.json", "x1*x2")
    out = tmp_path / "g.csv"
    code, *_ = run(capsys, "grid", lemniscate_problem_file, result, "--resolution", "3", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "0.0" in {line.split(",")[2] for line in text.splitlines()[1:]}
    assert text == reference_grid_csv(lemniscate_problem_file, result, 3)


def test_grid_writes_infinities_through_the_repr_fallback(tmp_path, capsys, lemniscate_problem_file):
    # the sum overflows to inf at (1, 1) and to -inf at (-1, -1).  A nan cannot
    # come out: every term is at most its coefficient on the box and the terms
    # are summed in order, so a sum that reached an infinity keeps it
    # grid writes inf as a value, so no overflow warning escapes it; the
    # reference evaluation still warns
    result = polynomial_result_file(tmp_path / "r.json", "1.7e308*x1 + 1.7e308*x2^3")
    out = tmp_path / "g.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "grid", lemniscate_problem_file, result, "--resolution", "5", "--out", str(out))
    assert code == 0 and err == "" and caught == []
    with pytest.warns(RuntimeWarning, match="overflow"):
        expected = reference_grid_csv(lemniscate_problem_file, result, 5)
    text = out.read_text()
    assert {"inf", "-inf"} <= {line.split(",")[2] for line in text.splitlines()[1:]}
    assert text == expected


def test_grid_on_stdout_is_the_text_of_out(tmp_path):
    # 257^2 rows span two blocks; stdout may be a StringIO, which takes str only
    problem = str(DATA_DIR / "golden_problem.json")
    result = str(DATA_DIR / "golden_result.json")
    out = tmp_path / "g.csv"
    assert main(["grid", problem, result, "--resolution", "257", "--out", str(out)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["grid", problem, result, "--resolution", "257"]) == 0
    assert stdout.getvalue() == out.read_text()
