"""Seeded inputs, workload passes and output checks of the polysep benchmark.

The seed draws problem data (centres and radii) from fixed ranges, never
problem shapes, so the number of variables, the generator degrees and
therefore the SDP row counts and block sizes are the same for every seed.
A pass is one closed-loop round of the workload's operations; every
operation's output is checked after it is timed, and a failed check, a
nonzero exit or a traceback counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from polysep import cli, separator
from polysep.poly import parse
from polysep.semialg import SemialgebraicSet

GOLDEN_PROBLEM = "tests/data/golden_problem.json"
GOLDEN_RESULT = "tests/data/golden_result.json"
LEMNISCATE = "-16/9*(x1^2+x2^2)^2 + x2^2 - x1^2"
# (0, 1/2) lies inside the lemniscate: -16/9 * 1/16 + 1/4 > 0
LEMNISCATE_POINT = (0.0, 0.5)

RESIDUAL_TOL = 1e-6
SLACK_MIN = 1e-6
WITNESS_TOL = 1e-6
GRID_TOL = 1e-9
GRID_RESOLUTION = 256
# membership flags are compared only where the generator is clearly nonzero
FLAG_GUARD = 1e-9

LADDER_DEGREE = 2
# (rung, n, level); n = 2 rungs use the lemniscate, the others balls
RUNGS = (("n2l6", 2, 6), ("n2l8", 2, 8), ("n2l10", 2, 10), ("n3l6", 3, 6), ("n4l4", 4, 4))

WORKLOADS = ("golden", "ladder", "sampling", "cli-4d")


@dataclass
class Problem:
    """A separation problem with one point known to lie in each set."""

    name: str
    n: int
    a_generators: list
    b_generators: list
    a_point: tuple
    b_point: tuple

    def to_json(self) -> dict:
        return {"n": self.n, "A_generators": self.a_generators, "B_generators": self.b_generators}

    def sets(self):
        a = SemialgebraicSet(self.n, tuple(parse(s, self.n) for s in self.a_generators))
        b = SemialgebraicSet(self.n, tuple(parse(s, self.n) for s in self.b_generators))
        return a, b


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _ball(n: int, x1: float, radius: float) -> str:
    """radius^2 - |x - x1 e1|^2 as problem-file text."""
    shift = f"(x1 - {x1})^2" if x1 >= 0 else f"(x1 + {-x1})^2"
    rest = "".join(f" - x{i}^2" for i in range(2, n + 1))
    return f"{radius}^2 - {shift}{rest}"


def ball_problem(rng: random.Random, name: str, n: int) -> Problem:
    """Balls centred at -(0.5 + u) e1 and +(0.5 + u) e1, u in [0, 0.1].

    With radii in [0.2, 0.25] the balls are at least 0.5 apart and inside
    [-0.85, 0.85]^n, so they are disjoint and in the box for every seed.
    """
    ca, cb = -_draw(rng, 0.5, 0.6), _draw(rng, 0.5, 0.6)
    ra, rb = _draw(rng, 0.2, 0.25), _draw(rng, 0.2, 0.25)
    zeros = (0.0,) * (n - 1)
    return Problem(name, n, [_ball(n, ca, ra)], [_ball(n, cb, rb)], (ca,) + zeros, (cb,) + zeros)


def lemniscate_problem(rng: random.Random, name: str) -> Problem:
    """The lemniscate against a disk centred at (c, 0), c in [0.5, 0.6].

    With radius in [0.2, 0.25] every disk point has |x2| < x1, while the
    lemniscate needs |x2| > |x1|, so the sets are disjoint.
    """
    c, r = _draw(rng, 0.5, 0.6), _draw(rng, 0.2, 0.25)
    return Problem(name, 2, [LEMNISCATE], [_ball(2, c, r)], LEMNISCATE_POINT, (c, 0.0))


def golden_problem(root: Path) -> Problem:
    data = json.loads((root / GOLDEN_PROBLEM).read_text(encoding="utf-8"))
    return Problem("golden", data["n"], data["A_generators"], data["B_generators"],
                   LEMNISCATE_POINT, (0.5, 0.0))


# --- independent checks --------------------------------------------------------


def _evaluate(terms: dict, points: np.ndarray) -> np.ndarray:
    """sum_alpha c_alpha x^alpha at each row of ``points``, by numpy."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(pts))
    for mono, c in terms.items():
        out += c * np.prod(pts ** np.asarray(mono, dtype=float), axis=1)
    return out


def _gram_times(gram, basis, multiplier: dict, acc: dict) -> None:
    """acc += (z^T G z) * multiplier over the basis monomials z."""
    g = np.asarray(gram, dtype=float)
    for a, za in enumerate(basis):
        for b, zb in enumerate(basis):
            if g[a, b] == 0.0:
                continue
            for beta, c in multiplier.items():
                mono = tuple(x + y + w for x, y, w in zip(za, zb, beta))
                acc[mono] = acc.get(mono, 0.0) + g[a, b] * c


def certificate_errors(n, p_terms, slack, cert_a, cert_b) -> list:
    """Failed certificate conditions, recomputed from the Gram matrices.

    ``cert_a``/``cert_b`` are (generator term dicts, Gram matrices, bases) for
    the identities p - 1 - t = s_0 + sum s_i g_i and -p - t = s_0 + sum s_i h_i.
    """
    errors = []
    if not slack > SLACK_MIN:
        errors.append(f"slack {slack!r} is not above {SLACK_MIN}")
    zero = (0,) * n
    targets = (
        {**p_terms, zero: p_terms.get(zero, 0.0) - 1.0 - slack},
        {**{m: -c for m, c in p_terms.items()}, zero: -p_terms.get(zero, 0.0) - slack},
    )
    for label, (gens, grams, bases), target in zip("AB", (cert_a, cert_b), targets):
        total: dict = {}
        for mult, gram, basis in zip([{zero: 1.0}] + list(gens), grams, bases):
            _gram_times(gram, basis, mult, total)
        residual = max(abs(target.get(m, 0.0) - total.get(m, 0.0))
                       for m in set(target) | set(total))
        if not residual <= RESIDUAL_TOL:
            errors.append(f"certificate {label}: reconstruction residual {residual:.3g}")
        min_eig = min(float(np.linalg.eigvalsh(np.asarray(g, dtype=float))[0]) for g in grams)
        if not min_eig >= 0.0:
            errors.append(f"certificate {label}: minimum Gram eigenvalue {min_eig:.3g}")
    return errors


def witness_errors(problem: Problem, p_terms: dict) -> list:
    """p >= 1 at the point of A and p <= 0 at the point of B, up to WITNESS_TOL."""
    on_a, on_b = _evaluate(p_terms, [problem.a_point, problem.b_point])
    errors = []
    if on_a < 1.0 - WITNESS_TOL:
        errors.append(f"p = {on_a:.6g} < 1 at {problem.a_point} in A")
    if on_b > WITNESS_TOL:
        errors.append(f"p = {on_b:.6g} > 0 at {problem.b_point} in B")
    return errors


def _terms_from_json(entry: dict) -> dict:
    return {tuple(c["exponents"]): float(c["coefficient"]) for c in entry["coefficients"]}


def _cert_from_json(entry: dict, n: int):
    gens = [parse(s, n).terms for s in entry["generators"]]
    grams, bases = [], []
    for mult in entry["multipliers"]:
        basis = [tuple(m) for m in mult["basis"]]
        grams.append(np.asarray(mult["gram_row_major"], dtype=float).reshape(len(basis), -1))
        bases.append(basis)
    return gens, grams, bases


def check_result_file(path: Path, problem: Problem, expect=None) -> list:
    """Checks on a ``polysep separate`` result file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    errors = []
    if expect is not None and (data["degree"], data["level"]) != expect:
        errors.append(f"separated at (degree, level) = {(data['degree'], data['level'])}, "
                      f"expected {expect}")
    p_terms = _terms_from_json(data["p"])
    certs = data["certificates"]
    errors += certificate_errors(
        problem.n, p_terms, float(data["slack"]),
        _cert_from_json(certs["A"], problem.n), _cert_from_json(certs["B"], problem.n),
    )
    return errors + witness_errors(problem, p_terms)


def check_library_result(result, problem: Problem, residuals) -> list:
    """Checks on a ``solve_fixed_level`` result and its reported residuals."""
    def cert(c):
        return [g.terms for g in c.generators], c.grams, [b.elements for b in c.bases]

    errors = [f"reported residual {r:.3g} above {RESIDUAL_TOL}" for r in residuals
              if not r <= RESIDUAL_TOL]
    errors += certificate_errors(problem.n, result.p.terms, result.slack,
                                 cert(result.cert_A), cert(result.cert_B))
    return errors + witness_errors(problem, result.p.terms)


def check_verify_output(stdout: str) -> list:
    report = json.loads(stdout)
    return [] if report.get("passed") is True else ["verify reported passed = false"]


def check_grid_csv(path: Path, problem: Problem, p_terms: dict) -> list:
    """Row count, p values to GRID_TOL and membership flags of a grid CSV."""
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    expected_rows = GRID_RESOLUTION**2
    if rows[:1] != [["x1", "x2", "p", "inA", "inB"]] or len(rows) - 1 != expected_rows:
        return [f"grid has {len(rows) - 1} rows or a wrong header, expected {expected_rows}"]
    table = np.array(rows[1:], dtype=float)
    axis = np.linspace(-1.0, 1.0, GRID_RESOLUTION)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([x1.ravel(), x2.ravel()])
    errors = []
    if not np.array_equal(table[:, :2], pts):
        errors.append("grid points are not the 256 x 256 grid in x1-major order")
    p_own = _evaluate(p_terms, pts)
    p_err = np.abs(table[:, 2] - p_own) / np.maximum(1.0, np.abs(p_own))
    if not np.max(p_err) <= GRID_TOL:
        errors.append(f"p column differs from the reference by {np.max(p_err):.3g}")
    a, b = problem.sets()
    for col, s, label in ((3, a, "inA"), (4, b, "inB")):
        values = np.stack([_evaluate(g.terms, pts) for g in s.generators])
        inside = np.all(values >= 0.0, axis=0)
        clear = np.all(np.abs(values) > FLAG_GUARD, axis=0)
        bad = int(np.sum(clear & ((table[:, col] == 1.0) != inside)))
        if bad:
            errors.append(f"{label} flag wrong at {bad} points")
    return errors


# --- operations and workloads --------------------------------------------------


def sdp_shape(m: int, block_sizes) -> dict:
    """Row count and blocks of one SDP, with its dense size 8·m·Σs² as computed."""
    sizes = list(block_sizes)
    return {"rows_m": m, "block_max": max(sizes, default=0), "block_sizes": sizes,
            "dense_bytes": 8 * m * sum(s * s for s in sizes)}


@dataclass
class Outcome:
    """One timed operation: wall seconds, and why it failed (empty if it did not)."""

    op: str
    seconds: float
    errors: list = field(default_factory=list)


def _cli(argv: list, call):
    """Run ``polysep <argv>`` in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = call(f"cli.{argv[0]}", cli.main, argv)
        except Exception:  # noqa: BLE001 - a crash is recorded as a failed operation
            seconds = perf_counter() - t0
            return None, out.getvalue(), traceback.format_exc(), seconds
        seconds = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def _failure(code, err: str) -> str:
    """The error text of a command that crashed (no exit code) or exited nonzero."""
    return f"traceback: {err.strip()}" if code is None else f"exit {code}: {err.strip()}"


def _direct(name, fn, *args):
    return fn(*args)


class Workload:
    """A named workload: seeded problem instances and the operations of a pass.

    Pass i runs on instance i, drawn from (workload, seed, i), so a run's
    median covers as many draws of the problem data as it has passes and
    depends little on any single draw; the same seed gives the same inputs.
    """

    def __init__(self, name: str, seed: int, root: Path, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.golden = golden_problem(root)
        self.golden_p = _terms_from_json(
            json.loads((root / GOLDEN_RESULT).read_text(encoding="utf-8"))["p"]
        )
        self.used: dict = {}  # pass index -> the instance it ran on
        # rung shapes as the solver reported them (the same for every seed)
        self.shapes: dict = {}

    def instance(self, index: int) -> dict:
        """The problems of pass ``index``, keyed by their role in the pass."""
        if self.name == "golden":
            return {"golden": self.golden}
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        if self.name == "ladder":
            return {rung: lemniscate_problem(rng, rung) if n == 2 else ball_problem(rng, rung, n)
                    for rung, n, _ in RUNGS}
        if self.name == "sampling":
            return {"balls3": ball_problem(rng, "balls3", 3)}
        return {"balls4": ball_problem(rng, "balls4", 4)}

    def _prepare(self, index: int):
        """Write pass ``index``'s problem files; returns (problems, files)."""
        problems = self.instance(index)
        files = {}
        for key, problem in problems.items():
            files[key] = self.workdir / f"{key}.json"
            files[key].write_text(json.dumps(problem.to_json(), indent=2), encoding="utf-8")
        self.used[index] = problems
        return problems, files

    def problem_files(self) -> list:
        """Problem files a CLI call of this workload loads (used for set-up)."""
        _, files = self._prepare(0)
        paths = [str(path) for path in files.values()]
        if self.name == "sampling":
            paths.append(str(self.root / GOLDEN_PROBLEM))
        return paths

    def describe(self) -> dict:
        return {index: {key: {**p.to_json(), "a_point": p.a_point, "b_point": p.b_point}
                        for key, p in problems.items()}
                for index, problems in sorted(self.used.items())}

    def run_pass(self, index: int, begin_op, call=_direct) -> list:
        """Run a pass on instance ``index``; ``begin_op(name)`` is told before each op."""
        problems, files = self._prepare(index)
        if self.name == "golden":
            return self._separate_verify(begin_op, call, problems, files, "golden",
                                         ["--degree-max", "2"], (2, 4))
        if self.name == "ladder":
            return [self._rung(begin_op, call, index, problems[rung], n, level)
                    for rung, n, level in RUNGS]
        if self.name == "sampling":
            return (self._separate_verify(begin_op, call, problems, files, "balls3", [], None)
                    + [self._grid(begin_op, call)])
        return [self._separate(begin_op, call, problems, files, "balls4", [], None)]

    def _separate(self, begin_op, call, problems, files, key, extra, expect) -> Outcome:
        begin_op("separate")
        out = self.workdir / f"{key}.result.json"
        out.unlink(missing_ok=True)
        argv = ["separate", str(files[key]), *extra, "--out", str(out)]
        code, _, err, seconds = _cli(argv, call)
        outcome = Outcome("separate", seconds)
        if code != 0:
            outcome.errors.append(_failure(code, err))
        else:
            outcome.errors += check_result_file(out, problems[key], expect)
        return outcome

    def _separate_verify(self, begin_op, call, problems, files, key, extra, expect) -> list:
        first = self._separate(begin_op, call, problems, files, key, extra, expect)
        begin_op("verify")
        result = self.workdir / f"{key}.result.json"
        code, stdout, err, seconds = _cli(["verify", str(files[key]), str(result)], call)
        second = Outcome("verify", seconds)
        if code != 0:
            second.errors.append(_failure(code, err))
        else:
            second.errors += check_verify_output(stdout)
        return [first, second]

    def _grid(self, begin_op, call) -> Outcome:
        begin_op("grid")
        out = self.workdir / "grid.csv"
        out.unlink(missing_ok=True)
        argv = ["grid", str(self.root / GOLDEN_PROBLEM), str(self.root / GOLDEN_RESULT),
                "--out", str(out)]
        code, _, err, seconds = _cli(argv, call)
        outcome = Outcome("grid", seconds)
        if code != 0:
            outcome.errors.append(_failure(code, err))
        else:
            outcome.errors += check_grid_csv(out, self.golden, self.golden_p)
        return outcome

    def _rung(self, begin_op, call, index, problem, n, level) -> Outcome:
        rung = problem.name
        a, b = problem.sets()
        sep = separator.SeparatorProblem(A=a, B=b, p_degree=LADDER_DEGREE, level=level)
        begin_op(rung)

        def solve_and_check_residuals():
            # looked up at call time so that traced runs see the wrapped names
            result = separator.solve_fixed_level(sep)
            return result, separator.certificate_residuals(result)

        t0 = perf_counter()
        try:
            result, residuals = call("bench.rung", solve_and_check_residuals)
        except Exception:  # noqa: BLE001 - a crash is recorded as a failed operation
            return Outcome(rung, perf_counter() - t0, [traceback.format_exc()])
        outcome = Outcome(rung, perf_counter() - t0)
        diag = result.diagnostics
        shape = self.shapes.setdefault(rung, {
            "n": n, "level": level, "degree": LADDER_DEGREE,
            **sdp_shape(diag.get("num_constraints", 0), diag.get("block_sizes", [])),
            "sdp_iterations": {},
        })
        shape["sdp_iterations"][index] = diag.get("sdp_iterations")
        outcome.errors += check_library_result(result, problem, residuals)
        return outcome
