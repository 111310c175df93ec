import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import DISK_LEFT, DISK_RIGHT, REFERENCE_P, write_problem
import polysep
from polysep import cli, poly
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


def test_package_import_loads_no_scipy():
    # the solver's linear algebra is numpy.linalg; scipy.linalg alone is about
    # 0.2 s and 28 MB of every CLI process.  A fresh interpreter shows what an
    # import of the package loads
    code = (
        "import sys, polysep, polysep.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join([str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_exports_resolve():
    # a stale __all__ entry would fail only at "from polysep import *"
    assert [name for name in polysep.__all__ if not hasattr(polysep, name)] == []
    assert len(set(polysep.__all__)) == len(polysep.__all__)


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
    # a certified margin is rescaled to the cap of 1
    assert result["slack"] == 1.0
    code, stdout, _ = run(capsys, "verify", str(DATA_DIR / "golden_problem.json"), str(out))
    assert code == 0 and json.loads(stdout)["passed"] is True


def test_separate_level_cap_below_the_default_degree_cap(tmp_path, capsys, disk_problem_file):
    out = tmp_path / "r.json"
    code, *_ = run(capsys, "separate", disk_problem_file, "--level-max", "2", "--out", str(out))
    assert code == 0
    trace = json.loads(out.read_text())["diagnostics"]["trace"]
    assert [(t["degree"], t["level"]) for t in trace] == [(1, 2)]


def test_separate_level_cap_below_the_first_level_exits_one(tmp_path, capsys):
    # x2^10 starts the sweep at level 10, past the default level cap of 8
    problem = write_problem(
        tmp_path / "p.json", 2, ["1/16 - (x1 + 1/2)^2 - x2^10"], [DISK_RIGHT]
    )
    out = tmp_path / "r.json"
    code, stdout, stderr = run(capsys, "separate", problem, "--out", str(out))
    assert code == 1
    assert stdout == "" and not out.exists()
    assert "l_max 8 is below the sweep's first level 10" in stderr


def test_separate_refuses_an_unwritable_out_before_the_search(tmp_path, capsys, monkeypatch):
    def search(*args):
        raise ValueError("the search ran")

    monkeypatch.setattr(cli, "run_hierarchy", search)
    problem = str(DATA_DIR / "golden_problem.json")
    # a missing folder and a folder as the file: neither is created or replaced
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        code, stdout, stderr = run(capsys, "separate", problem, "--out", str(out))
        assert code == 1 and stdout == ""
        assert stderr == f"error: cannot write the result file {out}\n"
    assert not (tmp_path / "missing").exists()
    # a writable file passes the check untouched, and the search runs
    out = tmp_path / "old.json"
    out.write_text("kept")
    code, _, stderr = run(capsys, "separate", problem, "--out", str(out))
    assert code == 1 and stderr == "error: the search ran\n"
    assert out.read_text() == "kept"


def test_separate_intersecting_sets_exits_two(tmp_path, capsys):
    problem = write_problem(tmp_path / "same.json", 2, [DISK_LEFT], [DISK_LEFT])
    code, _, stderr = run(capsys, "separate", problem, "--degree-max", "1", "--level-max", "4")
    assert code == 2
    assert "no separator" in stderr


def test_separate_records_failed_solves_and_exits_two(
    tmp_path, capsys, disk_problem_file, troubled_solver
):
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "separate", disk_problem_file, "--degree-max", "2", "--level-max", "4",
        "--out", str(out),
    )
    assert (code, stdout) == (2, "") and "no separator" in stderr
    trace = json.loads(out.read_text())["trace"]
    assert [(t["degree"], t["level"]) for t in trace] == [(1, 2), (2, 2), (1, 4), (2, 4)]
    assert all(t["outcome"] == "solver_error" and t["detail"] == troubled_solver for t in trace)


def test_separate_scaled_generators_drop_no_row(tmp_path, capsys):
    # the pair scaled by 1e8 has the unscaled pair's quadratic modules: the rank
    # test judges the row-normalized Gram, so no row is dropped as dependent
    problem = write_problem(tmp_path / "scaled.json", 1, ["1e8*(-x1-0.5)"], ["1e8*(x1-0.5)"])
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, *_ = run(
            capsys, "separate", problem, "--degree-max", "1", "--level-max", "4", "--out", str(out)
        )
    assert code == 0
    result = json.loads(out.read_text())
    assert (result["degree"], result["level"]) == (1, 2)
    assert result["slack"] == pytest.approx(1.0, abs=1e-6)


def test_separate_without_a_separator_writes_out_as_a_separated_result_does(tmp_path, capsys):
    problem = write_problem(tmp_path / "same.json", 2, [DISK_LEFT], [DISK_LEFT])
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "separate", problem, "--degree-max", "1", "--level-max", "4", "--out", str(out)
    )
    assert code == 2
    assert "no separator" in stderr
    # the payload goes into the file only, as indented JSON with a trailing newline
    assert stdout == ""
    text = out.read_text()
    payload = json.loads(text)
    assert payload["separated"] is False and payload["trace"]
    assert text == json.dumps(payload, indent=2) + "\n"


def test_separate_malformed_polynomial_exits_one(tmp_path, capsys):
    problem = tmp_path / "bad.json"
    problem.write_text(json.dumps({"n": 2, "A_generators": ["x1 +"], "B_generators": ["x1"]}))
    code, _, stderr = run(capsys, "separate", str(problem))
    assert code == 1
    assert "position" in stderr


def test_separate_sdp_data_past_the_float_range_exits_one(tmp_path, capsys):
    # the rows carry 1e300 coefficients, whose squares overflow in the row Gram
    problem = write_problem(tmp_path / "huge.json", 1, ["1e300*(x1+0.5)"], ["1e300*(0.5-x1)"])
    code, stdout, stderr = run(
        capsys, "separate", problem, "--degree-max", "1", "--level-max", "4"
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: the SDP's constraint data overflow double precision")
    assert "rescale the generators" in stderr


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
    # 201^4 check points are over the grid budget; the bound report sweeps 55^4
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
    assert result["bounds"]["params"]["dist_resolution"] == 55
    assert result["bounds"]["dist_estimate"] == 0.6666666666666666


@pytest.mark.parametrize("budget, resolution", [(2500, 49), (49, 7), (8, None)])
def test_separate_bound_report_sweeps_the_largest_odd_grid_within_the_budget(
    tmp_path, capsys, monkeypatch, disk_problem_file, budget, resolution
):
    # the budget is read at call time; where not even 3^n fits, the report is a warning
    monkeypatch.setattr(poly, "GRID_BUDGET", budget)
    out = tmp_path / "r.json"
    code, *_ = run(capsys, "separate", disk_problem_file, "--degree-max", "1", "--out", str(out))
    assert code == 0
    bounds = json.loads(out.read_text())["bounds"]
    if resolution is None:
        assert bounds == {"warnings": [
            f"bound report unavailable: grid of 101^2 = 10201 points exceeds the budget of {budget}"
        ]}
    else:
        assert bounds["params"]["dist_resolution"] == resolution


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
    # verify skips that grid check the same way, and the certificates decide
    code, stdout, _ = run(capsys, "verify", problem, str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"] is True and report["certificates"]["passed"] is True
    assert set(report["separation"]) == {"resolution", "tol", "skipped", "passed"}
    assert report["separation"]["passed"] is None
    assert "no sample points" in report["separation"]["skipped"]
    # without certificates nothing is left to decide on, as where the grid is over budget
    del result["certificates"]
    out.write_text(json.dumps(result))
    code, stdout, _ = run(capsys, "verify", problem, str(out))
    assert code == 3
    assert json.loads(stdout)["passed"] is False


BALLS3 = (["1/16 - (x1 + 0.55)^2 - x2^2 - x3^2"], ["0.0484 - (x1 - 0.57)^2 - x2^2 - x3^2"])


@pytest.mark.parametrize("case", ["golden", "balls3"])
def test_separate_records_the_report_verify_gives_on_its_file(tmp_path, capsys, case):
    # separate checks the result as written, so verify on the file agrees bit for bit;
    # on golden the p parsed back sums its terms in another order than the p solved for
    if case == "golden":
        problem = str(DATA_DIR / "golden_problem.json")
    else:
        problem = write_problem(tmp_path / "balls3.json", 3, *BALLS3)
    out = tmp_path / "r.json"
    code, *_ = run(capsys, "separate", problem, "--degree-max", "2", "--out", str(out))
    assert code == 0
    recorded = json.loads(out.read_text())["verification"]
    assert list(recorded) == ["separation", "certificate_residual_A", "certificate_residual_B"]
    assert list(recorded["separation"]) == ["min_on_A", "max_on_B", "resolution", "tol", "passed"]
    code, stdout, _ = run(capsys, "verify", problem, str(out))
    assert code == 0
    report = json.loads(stdout)
    assert {k: report["separation"][k] for k in recorded["separation"]} == recorded["separation"]
    assert [recorded["certificate_residual_A"], recorded["certificate_residual_B"]] == [
        report["certificates"]["residual_A"], report["certificates"]["residual_B"]
    ]


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
    # read as float(True) and int(4.9), these verified as margin 1.0 and level 4
    "slack is true": lambda d: d.update(slack=True),
    "level is 4.9": lambda d: d.update(level=4.9),
    "certificate level is 4.9": lambda d: d["certificates"]["A"].update(level=4.9),
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


def first_exponents(data, exponents):
    data["p"]["coefficients"][0]["exponents"] = exponents


# (command, file changed, change or None for a missing file, message): cases the
# malformed-file tests above leave out
NAMED_INPUT_ERRORS = {
    "A_generators is empty": (
        "verify", "problem", lambda d: d.update(A_generators=[]), "invalid set description"
    ),
    "options is a list": (
        "verify", "problem", lambda d: d.update(options=[1]), "options must be a JSON object"
    ),
    "coefficient is past the float range": (
        "separate", "problem", lambda d: d.update(A_generators=["1e999 - x1^2"]),
        "bad polynomial in problem file: non-finite coefficient inf for monomial (0, 0)",
    ),
    "result has no p": (
        "verify", "result", lambda d: d.pop("p"), "result file has no polynomial entry"
    ),
    "problem file is missing": ("separate", "problem", None, "cannot read problem file"),
    "result file is missing": ("verify", "result", None, "cannot read result file"),
    "monomial is too long": (
        "verify", "result", lambda d: first_exponents(d, [1, 0, 0]),
        "malformed polynomial entry: monomial (1, 0, 0) has length 3, expected 2",
    ),
    "exponent is negative": (
        "verify", "result", lambda d: first_exponents(d, [-1, 2]),
        "malformed polynomial entry: negative exponent in monomial (-1, 2)",
    ),
}


@pytest.mark.parametrize("case", sorted(NAMED_INPUT_ERRORS))
def test_input_error_exits_one_with_its_message(tmp_path, capsys, case):
    command, kind, change, message = NAMED_INPUT_ERRORS[case]
    paths = {"problem": DATA_DIR / "golden_problem.json", "result": DATA_DIR / "golden_result.json"}
    bad = tmp_path / "bad.json"
    if change is not None:
        data = json.loads(paths[kind].read_text())
        change(data)
        bad.write_text(json.dumps(data))
    paths[kind] = bad
    files = [paths["problem"], paths["result"]][: 2 if command == "verify" else 1]
    code, stdout, stderr = run(capsys, command, *map(str, files))
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"error: {message}")


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


def test_verify_zero_multiplier_is_decided_by_the_residual(tmp_path, capsys):
    # an empty basis and Gram is the zero SOS multiplier: it has no eigenvalue,
    # and without the golden generator multiplier the A identity leaves a residual
    data = json.loads((DATA_DIR / "golden_result.json").read_text())
    data["certificates"]["A"]["multipliers"][1].update(basis=[], gram_row_major=[])
    result = tmp_path / "zero.json"
    result.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", str(DATA_DIR / "golden_problem.json"), str(result))
    assert code == 3
    report = json.loads(stdout)["certificates"]
    assert report["passed"] is False and report["residual_A"] > 1.0
    assert report["min_gram_eigenvalue"] > 0.0


HUGE_EXPONENT = "1/16 - (x1 + 1/2)^2 - x2^2 - x1^99999999999999999999"


@pytest.mark.parametrize("command, code", [("bounds", 0), ("verify", 3)])
def test_exponent_past_int64_ends_in_an_exit_code(tmp_path, capsys, command, code):
    # no int64 holds the exponent, so the generator gets no prefix bound and the
    # sweeps evaluate every line; verify fails on the golden certificates'
    # generators, which are not this problem's
    problem = write_problem(tmp_path / "huge.json", 2, [HUGE_EXPONENT], [DISK_RIGHT])
    args = {"bounds": ["--dist-resolution", "21"], "verify": [str(DATA_DIR / "golden_result.json")]}
    assert run(capsys, command, problem, *args[command])[0] == code


# ---- bounds ----------------------------------------------------------------------


def test_bounds_power_table_is_sized_by_the_exponents_used(tmp_path, capsys):
    # a table of x^0 .. x^100000 per prefix took 320 MB of traced memory here
    problem = write_problem(
        tmp_path / "tall.json", 2, ["0.01 - (x1+0.5)^2 - x2^2 + 1e-9*x1^100000"], [DISK_RIGHT]
    )
    tracemalloc.start()
    try:
        code, stdout, _ = run(capsys, "bounds", problem, "--dist-resolution", "201")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(stdout)["dist_estimate"] == 0.65
    assert peak < 20 * 2**20


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


def test_bounds_4d_sweeps_distance_and_sup_norms_on_the_dist_resolution_grid(tmp_path, capsys):
    problem = write_problem(
        tmp_path / "balls4.json", 4,
        ["0.04 - (x1 + 0.5)^2 - x2^2 - x3^2 - x4^2"],
        ["0.04 - (x1 - 0.5)^2 - x2^2 - x3^2 - x4^2"],
    )
    code, stdout, _ = run(capsys, "bounds", problem, "--dist-resolution", "31")
    assert code == 0
    report = json.loads(stdout)
    assert report["dist_estimate"] == 0.6666666666666666
    # each generator's max |f| sits at a box corner: 0.04 - 1.5^2 - 3
    assert ["sup-norm about 5.21 >" in w for w in report["warnings"][:2]] == [True, True]
    # the default 201 is over the point budget in 4-D, and the error names that grid
    code, stdout, stderr = run(capsys, "bounds", problem)
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: grid of 201^4 = ")


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


def test_bounds_jackson_degree_past_the_float_range_exits_one(capsys):
    code, stdout, stderr = run(
        capsys, "bounds", str(DATA_DIR / "golden_problem.json"), "--C", "1e308"
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: the Jackson degree") and "overflows" in stderr


def test_bounds_warns_of_a_generator_past_the_float_range_without_a_factor(tmp_path, capsys):
    problem = write_problem(
        tmp_path / "huge.json", 2, ["1e308*x1^2 + 1e308*x2^2 - 1e308*x1"], [DISK_RIGHT]
    )
    # the sup-norm is inf, so a factor 0.5 / inf would read "rescale it by 0";
    # the grid sweeps overflow to inf without a warning
    code, stdout, stderr = run(capsys, "bounds", problem)
    assert code == 0 and stderr == ""
    first, second = json.loads(stdout)["warnings"][:2]
    assert first.startswith("generator 1 has box values that overflow double precision")
    assert "rescale it by" not in first
    assert second.startswith("generator 2 has box sup-norm about 3.188 > 1/2; rescale it by 0.1569")


def test_bounds_rejects_bad_flags(capsys, disk_problem_file):
    code, _, stderr = run(capsys, "bounds", disk_problem_file, "--c", "-1")
    assert code == 1 and "--c must be positive" in stderr
    code, _, stderr = run(capsys, "bounds", disk_problem_file, "--T", "0.5")
    assert code == 1 and "--T must be at least 1" in stderr
    for flag in ("--c", "--T", "--C"):
        for value in ("nan", "inf", "-inf"):
            # "--c=-inf": argparse reads a lone "-inf" as an option, not a value
            code, _, stderr = run(capsys, "bounds", disk_problem_file, f"{flag}={value}")
            assert code == 1 and f"{flag} must be positive and finite" in stderr, (flag, value, stderr)
    # finite values that take a bound past double precision: the complexity and the
    # separation bound through T, the Jackson degree through C
    for flag, value in (("--T", "1e308"), ("--T", "3e307"), ("--C", "1e308")):
        code, _, stderr = run(capsys, "bounds", disk_problem_file, flag, value, "--dist-resolution", "5")
        assert code == 1 and f"{flag} {float(value):g}" in stderr, (flag, value, stderr)
        assert "overflows double precision" in stderr and "lower --T or --C" in stderr, stderr


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
    # the whole 1000^2 CSV is about 62 MB; a streamed grid holds a block
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
    # grid writes inf as a value, and no overflow warning escapes it
    result = polynomial_result_file(tmp_path / "r.json", "1.7e308*x1 + 1.7e308*x2^3")
    out = tmp_path / "g.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "grid", lemniscate_problem_file, result, "--resolution", "5", "--out", str(out))
    assert code == 0 and err == "" and caught == []
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


# ---- fuzzed input files ------------------------------------------------------------

# short strings over the polynomial alphabet: eight characters reach an exponent
# such as x1^99999, whose power table holds only the exponents used, but cannot
# expand a parenthesised power into many terms
FUZZ_TEXT = st.text(alphabet="x1234+-*/.()e ^9", max_size=8)
FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.floats() | FUZZ_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(FUZZ_TEXT, inner, max_size=3),
    max_leaves=6,
)
# n stays in 1..4, or is no integer at all: the grids and bases grow with it
FUZZ_N = st.integers(1, 4) | st.none() | st.booleans() | st.floats(0.5, 4.5) | FUZZ_TEXT | st.just([])


def json_paths(node, path=()):
    """(path, value) of every entry under ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from json_paths(value, path + (key,))


@st.composite
def mutated_inputs(draw):
    """The golden problem and result, one of them mutated: leaves replaced, keys dropped."""
    problem = json.loads((DATA_DIR / "golden_problem.json").read_text())
    result = json.loads((DATA_DIR / "golden_result.json").read_text())
    doc = draw(st.sampled_from([problem, result]))
    for _ in range(draw(st.integers(1, 3))):
        entries = list(json_paths(doc))
        keys = [path for path, _ in entries if isinstance(path[-1], str)]
        leaves = [path for path, value in entries if not isinstance(value, (dict, list))]
        drop = draw(st.booleans()) and keys
        path = draw(st.sampled_from(keys if drop else leaves))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(FUZZ_N if doc is problem and path == ("n",) else FUZZ_VALUES)
    return problem, result


def golden_with(problem_change=None, result_change=None):
    problem = json.loads((DATA_DIR / "golden_problem.json").read_text())
    result = json.loads((DATA_DIR / "golden_result.json").read_text())
    for doc, change in ((problem, problem_change), (result, result_change)):
        if change:
            change(doc)
    return problem, result


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_inputs())
# a generator exponent past int64 crashed the bound kernel
@example(golden_with(problem_change=lambda d: d["A_generators"].append("x1^99999999999999999999")))
# a power table up to the largest exponent took hundreds of MB per call
@example(golden_with(problem_change=lambda d: d["A_generators"].append("x1^99999")))
# an empty basis and Gram, the zero multiplier, has no eigenvalue to check
@example(golden_with(result_change=lambda d: d["certificates"]["A"]["multipliers"][1].update(
    basis=[], gram_row_major=[])))
def test_fuzzed_input_files_end_in_a_documented_exit_code(tmp_path, inputs):
    problem, result = (tmp_path / "problem.json", tmp_path / "result.json")
    for path, doc in zip((problem, result), inputs):
        path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [
            main(["verify", str(problem), str(result), "--resolution", "5"]),
            main(["grid", str(problem), str(result), "--resolution", "5"]),
            main(["bounds", str(problem), "--dist-resolution", "5"]),
        ]
    assert set(codes) <= {0, 1, 2, 3, 4}


# positive finite values from the subnormal 1e-320 up to 1e308, or no finite value at all
FUZZ_FLAG = st.floats(1e-320, 1e308) | st.sampled_from([math.inf, -math.inf, math.nan])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FUZZ_FLAG, FUZZ_FLAG, FUZZ_FLAG)
def test_fuzzed_bounds_flags_end_in_a_documented_exit_code(tmp_path, c, T, C):
    # the disks are 1 apart on the 5-point grid, so every run reaches the Jackson
    # degree, where C * 3 * 2^1.5 past the float range ended in an OverflowError
    problem = write_problem(tmp_path / "disks.json", 2, [DISK_LEFT], [DISK_RIGHT])
    flags = ["--c", repr(c), "--T", repr(T), "--C", repr(C), "--dist-resolution", "5"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["bounds", problem, *flags])
    assert code in {0, 1, 4}
