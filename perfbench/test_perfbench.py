"""Self-test of the benchmark: every declared metric is emitted, every check bites.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload for a single timed pass, so it takes about two minutes.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(workload, trace):
    result = run_bench(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_cli_4d_records_the_sample_budget_failure():
    result = run_bench("cli-4d", 0)
    assert not result["correct"] and result["failed"] == result["attempted"]
    report = json.loads((BENCH_DIR / "out" / "report-cli-4d-trace0.json").read_text())
    assert report["failed_frac"] == 1.0
    assert "exceeds the budget" in report["errors"][0]["error"]


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "golden", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_seed_fixes_data_and_never_shapes():
    def draw(seed):
        rng = random.Random(seed)
        return [workloads.ball_problem(rng, "b", 3), workloads.lemniscate_problem(rng, "l")]

    first, again, other = draw(1), draw(1), draw(2)
    assert [p.to_json() for p in first] == [p.to_json() for p in again]
    assert [p.to_json() for p in first] != [p.to_json() for p in other]
    for x, y in zip(first, other):
        assert (x.n, len(x.a_generators), len(x.b_generators)) == (
            y.n, len(y.a_generators), len(y.b_generators))
        a, b = x.sets()
        assert a.contains(x.a_point) and b.contains(x.b_point)
        assert not a.contains(x.b_point) and not b.contains(x.a_point)


def golden_certificate():
    data = json.loads((ROOT / workloads.GOLDEN_RESULT).read_text())
    certs = data["certificates"]
    p_terms = workloads._terms_from_json(data["p"])
    return (p_terms, float(data["slack"]), workloads._cert_from_json(certs["A"], 2),
            workloads._cert_from_json(certs["B"], 2))


def test_certificate_check_accepts_golden_and_rejects_a_perturbed_gram():
    p_terms, slack, cert_a, cert_b = golden_certificate()
    assert workloads.certificate_errors(2, p_terms, slack, cert_a, cert_b) == []
    grams = [g.copy() for g in cert_a[1]]
    grams[0][0, 0] += 1e-3
    errors = workloads.certificate_errors(2, p_terms, slack, (cert_a[0], grams, cert_a[2]),
                                          cert_b)
    assert any("residual" in e for e in errors)
    assert workloads.certificate_errors(2, p_terms, 0.0, cert_a, cert_b)


def test_witness_check_rejects_a_non_separator():
    golden = workloads.golden_problem(ROOT)
    p_terms = golden_certificate()[0]
    assert workloads.witness_errors(golden, p_terms) == []
    assert len(workloads.witness_errors(golden, {(0, 0): 0.5})) == 2


def test_grid_check_rejects_wrong_rows_values_and_flags(tmp_path):
    golden = workloads.golden_problem(ROOT)
    p_terms = golden_certificate()[0]
    axis = np.linspace(-1.0, 1.0, workloads.GRID_RESOLUTION)
    a, b = golden.sets()
    pts = [(float(x1), float(x2)) for x1 in axis for x2 in axis]
    values = workloads._evaluate(p_terms, pts)
    rows = ["x1,x2,p,inA,inB"] + [
        f"{x1!r},{x2!r},{float(v)!r},{int(a.contains(pt))},{int(b.contains(pt))}"
        for pt, (x1, x2), v in zip(pts, pts, values)
    ]
    path = tmp_path / "grid.csv"

    def check(lines):
        path.write_text("\n".join(lines) + "\n")
        return workloads.check_grid_csv(path, golden, p_terms)

    assert check(rows) == []
    assert check(rows[:-1])
    x1, x2, p, in_a, in_b = rows[1].split(",")
    assert check([rows[0], f"{x1},{x2},{float(p) + 1e-6!r},{in_a},{in_b}"] + rows[2:])
    assert check([rows[0], f"{x1},{x2},{p},{1 - int(in_a)},{in_b}"] + rows[2:])
