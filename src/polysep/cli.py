"""Command-line surface: problem/result file formats and the four commands.

Problem files are JSON: {"n": int, "A_generators": [str], "B_generators":
[str], "options": {...}}.  Result files carry the separator both as a
grammar string (authoritative for humans) and as an exponent/coefficient
list (authoritative for machines); the tool refuses files where the two
disagree beyond 1e-12.  Gram matrices are serialized row-major next to
their basis monomial lists so a result can be re-verified from the two
files alone.

Exit codes: 0 success, 1 input error, 2 no separator found, 3 verification
failure, 4 empty sample cloud (``bounds`` only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__, poly
from .bounds import (
    BoundOverflowError,
    BoundParams,
    generator_norm_warnings,
    jackson_degree,
    lipschitz_constant,
    quadratic_module_complexity,
    separation_degree_bound,
)
from .floattext import float_reprs
from .poly import ParseError, Polynomial, SampleBudgetError, grid_axis, grid_lines, on_grid, parse
from .semialg import EmptySampleError, SemialgebraicSet, dist_estimate
from .separator import (
    HierarchyExhaustedError,
    SeparatorOptions,
    SeparatorResult,
    certificate_residuals,  # read by perfbench/tracing.py
    run_hierarchy,
    verify_certificate,
    verify_separation,
)
from .sos import MonomialBasis, QmCertificate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_SEPARATOR = 2
EXIT_VERIFY_FAILED = 3
EXIT_EMPTY_SAMPLE = 4

COEFF_AGREEMENT_TOL = 1e-12
# the grid check of a result: verify's defaults, and what separate records
CHECK_RESOLUTION = 201
CHECK_TOL = 1e-3


class InputError(Exception):
    """Anything wrong with input files or flags; maps to exit code 1."""


def _read_json(path: str, kind: str):
    """The decoded JSON of a ``kind`` file; an unreadable or invalid file is an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {kind} file: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{kind} file is not valid JSON: {err}") from err


def load_problem(path: str):
    data = _read_json(path, "problem")
    try:
        n = integer(data["n"])
        a_strings = list(data["A_generators"])
        b_strings = list(data["B_generators"])
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"problem file needs integer n and both generator lists: {err}") from err
    try:
        a_gens = tuple(parse(s, n) for s in a_strings)
        b_gens = tuple(parse(s, n) for s in b_strings)
    except (ParseError, TypeError, OverflowError) as err:
        raise InputError(f"bad polynomial in problem file: {err}") from err
    try:
        a = SemialgebraicSet(n, a_gens)
        b = SemialgebraicSet(n, b_gens)
    except (TypeError, ValueError) as err:
        raise InputError(f"invalid set description: {err}") from err
    options = data.get("options") or {}
    if not isinstance(options, dict):
        raise InputError("options must be a JSON object")
    return a, b, options


def _poly_to_json(p: Polynomial) -> dict:
    coeffs = [
        {"exponents": list(mono), "coefficient": c}
        for mono, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    ]
    return {"string": p.to_string(), "coefficients": coeffs}


def _poly_from_json(data: dict, n: int) -> Polynomial:
    try:
        from_string = parse(data["string"], n)
        listed = Polynomial(
            n, {tuple(e["exponents"]): e["coefficient"] for e in data["coefficients"]}
        )
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed polynomial entry: {err}") from err
    if from_string.max_coeff_diff(listed) > COEFF_AGREEMENT_TOL:
        raise InputError("polynomial string and coefficient list disagree beyond 1e-12")
    return from_string


def _certificate_to_json(cert: QmCertificate) -> dict:
    return {
        "level": cert.level,
        "generators": [g.to_string() for g in cert.generators],
        "multipliers": [
            {
                "basis": [list(m) for m in bas.elements],
                "gram_row_major": [float(v) for v in np.asarray(g).reshape(-1)],
            }
            for g, bas in zip(cert.grams, cert.bases)
        ],
    }


def _certificate_from_json(data: dict, n: int, level: int) -> QmCertificate:
    try:
        gens = tuple(parse(s, n) for s in data["generators"])
        grams = []
        bases = []
        for entry in data["multipliers"]:
            elements = tuple(tuple(int(e) for e in m) for m in entry["basis"])
            k = len(elements)
            gram = np.asarray(entry["gram_row_major"], dtype=float).reshape(k, k)
            bases.append(MonomialBasis(n, elements))
            grams.append(gram)
        level = integer(data.get("level", level))
        return QmCertificate(gens, tuple(grams), tuple(bases), level)
    except (KeyError, TypeError, ValueError, OverflowError, ParseError) as err:
        raise InputError(f"malformed certificate entry: {err}") from err


def _bound_report(a, b, resolution, loj_coeff, loj_exponent, jackson_constant):
    """Distance, Lipschitz constant, approximation degree and level bounds.

    The distance and the generator sup-norms are swept on one grid, ``resolution``^n.
    """
    n = a.n
    dist = dist_estimate(a, b, resolution)
    lip = lipschitz_constant(dist)
    params = BoundParams(
        n=n, dist=dist, loj_exponent=loj_exponent, jackson_constant=jackson_constant
    )

    def complexities(exponent):
        return [
            quadratic_module_complexity(
                n, exponent, loj_coeff, len(s.generators), s.max_generator_degree()
            )
            for s in (a, b)
        ]

    comp_a, comp_b = complexities(loj_exponent)
    sep = separation_degree_bound(params, comp_a, comp_b)
    sep_t1 = separation_degree_bound(replace(params, loj_exponent=1.0), *complexities(1.0))
    # optional box-to-ball coordinate rescale x -> x/sqrt(n): shrinks the
    # distance by the same factor, which is how the unit-ball normalization
    # of the level bound can be matched
    dist_ball = dist / np.sqrt(n)
    sep_ball = separation_degree_bound(replace(params, dist=dist_ball), comp_a, comp_b)

    warnings = generator_norm_warnings(a.generators + b.generators, resolution)
    warnings.append(
        "Lojasiewicz data defaults (coefficient 1, exponent 1) are assumptions; "
        "exponent 1 needs linearly independent active-constraint gradients"
    )
    warnings.append(
        f"the Jackson constant C={jackson_constant:g} is an absolute constant with no "
        "published numeric value; bounds scale with C^(3.5 n T)"
    )
    nt = n * loj_exponent
    return {
        "dist_estimate": dist,
        "lipschitz_constant": lip,
        "jackson_degree_err1": jackson_degree(lip, n, 1.0, jackson_constant),
        "complexity_A_log10": comp_a.log10_value,
        "complexity_B_log10": comp_b.log10_value,
        "separation_degree_log10": sep.log10_value,
        "separation_degree": sep.pow10_string(),
        "separation_degree_symbolic": (
            f"max(complexity_A, complexity_B) * C^{3.5 * nt:g} * {n}^{3 * nt:g}"
            f" * (6/dist)^{6 * nt:g} evaluated at C={jackson_constant:g}"
        ),
        "separation_degree_T1_log10": sep_t1.log10_value,
        "ball_rescaled": {
            "dist_estimate": dist_ball,
            "separation_degree_log10": sep_ball.log10_value,
        },
        "params": {
            "loj_coeff": loj_coeff,
            "loj_exponent": loj_exponent,
            "jackson_constant": jackson_constant,
            "dist_resolution": resolution,
        },
        "warnings": warnings,
    }


def _setting(args, file_options: dict, name: str, default, cast):
    """The flag if given, else the problem file's option, else the default.

    Every cast refuses JSON true/false: it is no number and no "on"/"off".
    """
    value = getattr(args, name)
    if value is None:
        value = file_options.get(name, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise InputError(f"option {name} must be {cast.__name__}, got {value!r}") from err


def integer(value) -> int:
    """int(value), refusing true/false and a fraction such as 2.9 instead of converting it."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def real(value) -> float:
    """float(value), refusing true/false instead of reading them as 1.0 and 0.0."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def on_or_off(value) -> bool:
    """True for "on", False for "off"; any other value raises."""
    if value not in ("on", "off"):
        raise ValueError(value)
    return value == "on"


def cmd_separate(args) -> int:
    a, b, file_options = load_problem(args.problem)
    degree_max = _setting(args, file_options, "degree_max", 3, integer)
    level_max = _setting(args, file_options, "level_max", 8, integer)
    tol = _setting(args, file_options, "tol", SeparatorOptions.solver_tol, real)
    margin = _setting(args, file_options, "margin", SeparatorOptions.margin_tol, real)
    ball = _setting(args, file_options, "ball", "on", on_or_off)
    options = SeparatorOptions(margin_tol=margin, solver_tol=tol, ball_constraint=ball)
    if args.out:
        _check_writable(args.out)

    start = time.perf_counter()
    try:
        result = run_hierarchy(a, b, degree_max, level_max, options)
    except HierarchyExhaustedError as err:
        _write_json({"separated": False, "trace": err.trace}, args.out)
        print("no separator found within the degree/level caps", file=sys.stderr)
        return EXIT_NO_SEPARATOR
    elapsed = time.perf_counter() - start

    payload = {
        "version": __version__,
        "p": _poly_to_json(result.p),
        "degree": result.p_degree,
        "level": result.level,
        "slack": result.slack,
        "certificates": {
            "A": _certificate_to_json(result.cert_A),
            "B": _certificate_to_json(result.cert_B),
        },
    }
    # verify's own check of the payload as written; the file keeps the grid
    # extremes, not the witnesses and counts
    report = check_result(payload, a, b, CHECK_RESOLUTION, CHECK_TOL)
    omitted = ("witness_A", "witness_B", "count_A", "count_B")
    certified = report["certificates"]
    payload["verification"] = {
        "separation": {k: v for k, v in report["separation"].items() if k not in omitted},
        "certificate_residual_A": certified["residual_A"],
        "certificate_residual_B": certified["residual_B"],
    }
    # n = 1 or a grid that cannot be sampled leaves the bound report a warning;
    # the separator and certificates are still written.  The report's grid is the
    # largest odd resolution up to 101 within the budget, read now as grid_axis
    # does: 101 for n <= 3, 55 at n = 4; where none from 3 fits (n > 14), 101
    # gives the budget warning
    if a.n < 2:
        bound = {"warnings": ["bound report unavailable: bounds require dimension n >= 2"]}
    else:
        resolution = next((r for r in range(101, 1, -2) if r**a.n <= poly.GRID_BUDGET), 101)
        try:
            bound = _bound_report(a, b, resolution, 1.0, 1.0, 1.0)
        except (EmptySampleError, SampleBudgetError) as err:
            bound = {"warnings": [f"bound report unavailable: {err}"]}
    payload["bounds"] = bound
    payload["diagnostics"] = {
        "trace": result.diagnostics.get("trace", []),
        "sdp_iterations": result.diagnostics.get("sdp_iterations"),
    }
    payload["timing"] = {"seconds": elapsed}
    _write_json(payload, args.out)
    print(
        f"separator of degree {result.p_degree} found at level {result.level} "
        f"with margin {result.slack:.6g} in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be opened for writing; creates no file."""
    folder = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise InputError(f"cannot write the result file {path}")


def _write_json(payload: dict, out) -> None:
    """Indented JSON with a trailing newline, into the file ``out`` if given, else on stdout."""
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_result(path: str) -> dict:
    data = _read_json(path, "result")
    if not isinstance(data, dict) or "p" not in data:
        raise InputError("result file has no polynomial entry")
    return data


def check_result(data: dict, a, b, resolution: int, tol: float) -> dict:
    """The grid check of a result's p and the check of its certificates, as ``verify`` prints them.

    Both read the result as written: p through ``_poly_from_json`` and the
    certificates through ``_certificate_from_json``.  A grid over the point
    budget (n >= 4) or without a point of one set is recorded as skipped
    with ``passed`` None, and the certificates alone decide; a result
    without certificates then fails.
    """
    p = _poly_from_json(data["p"], a.n)
    try:
        separation = asdict(verify_separation(p, a, b, resolution=resolution, tol=tol))
    except (SampleBudgetError, EmptySampleError) as err:
        separation = {"resolution": resolution, "tol": tol, "skipped": str(err), "passed": None}
    output = {"separation": separation}

    cert_ok = True
    certs = data.get("certificates")
    if certs:
        if not isinstance(certs, dict) or not {"A", "B"} <= certs.keys():
            raise InputError("result certificates must be an object with entries A and B")
        try:
            level = integer(data.get("level", 0))
            slack = real(data.get("slack", 0.0))
        except (TypeError, ValueError, OverflowError) as err:
            raise InputError(f"malformed level or slack in result file: {err}") from err
        cert_a = _certificate_from_json(certs["A"], a.n, level)
        cert_b = _certificate_from_json(certs["B"], a.n, level)
        mismatches = _foreign_generators(cert_a, a) + _foreign_generators(cert_b, b)
        if mismatches:
            cert_ok = False
            output["certificates"] = {
                "passed": False,
                "note": "certificate generators do not belong to the problem",
                "foreign_generators": mismatches,
            }
        else:
            result = SeparatorResult(
                p=p,
                cert_A=cert_a,
                cert_B=cert_b,
                slack=slack,
                level=level,
                p_degree=p.total_degree(),
            )
            report = verify_certificate(result, tol)
            cert_ok = report.passed
            output["certificates"] = asdict(report)
    else:
        output["certificates"] = {"passed": None, "note": "result carries no certificates"}

    grid_ok = separation["passed"]
    output["passed"] = bool(cert_ok and (certs if grid_ok is None else grid_ok))
    return output


def cmd_verify(args) -> int:
    a, b, _ = load_problem(args.problem)
    output = check_result(_load_result(args.result), a, b, int(args.resolution), float(args.tol))
    print(json.dumps(output, indent=2))
    return EXIT_OK if output["passed"] else EXIT_VERIFY_FAILED


def _foreign_generators(cert: QmCertificate, s: SemialgebraicSet) -> list:
    """Certificate generators beyond the set's own plus the ball polynomial."""
    allowed = list(s.generators) + [Polynomial.ball_generator(s.n)]
    return [
        g.to_string()
        for g in cert.generators
        if not any(g.max_coeff_diff(h) <= COEFF_AGREEMENT_TOL for h in allowed)
    ]


def cmd_bounds(args) -> int:
    a, b, _ = load_problem(args.problem)
    for name, value in (("--c", args.c), ("--T", args.T), ("--C", args.C)):
        if not 0 < value < np.inf:
            raise InputError(f"{name} must be positive and finite")
    if args.T < 1.0:
        raise InputError("--T must be at least 1")
    try:
        report = _bound_report(
            a, b, int(args.dist_resolution), float(args.c), float(args.T), float(args.C)
        )
    except EmptySampleError as err:
        print(f"bounds unavailable: {err}", file=sys.stderr)
        return EXIT_EMPTY_SAMPLE
    except BoundOverflowError as err:
        # --c enters as 2n log10(c), finite for every finite c; --T and --C scale the bounds
        raise InputError(f"{err} (--T {args.T:g}, --C {args.C:g}); lower --T or --C") from err
    print(json.dumps(report, indent=2))
    return EXIT_OK


# the inA,inB columns and line end, indexed by 2 * inA + inB
_GRID_FLAGS = np.array([b",0,0\n", b",0,1\n", b",1,0\n", b",1,1\n"])


def cmd_grid(args) -> int:
    a, b, _ = load_problem(args.problem)
    if a.n != 2:
        raise InputError(f"grid emission is 2-D only, problem has n = {a.n}")
    p = _poly_from_json(_load_result(args.result)["p"], a.n)
    resolution = int(args.resolution)
    # x1-major blocks of whole x2 lines, every line kept; a resolution below 2
    # or over the point budget raises here, before the output is opened
    blocks = grid_lines(2, resolution, lambda heads: True, 1)
    # each axis value is formatted once; a line's rows share x1 and run over
    # the x2 axis, so a CSV line is x1 before each row's x2, p and flags text
    axis = np.char.add(float_reprs(grid_axis(2, resolution)), b",")
    heads = iter(axis.tolist())
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write("x1,x2,p,inA,inB\n")
        for axes in blocks:
            # a value past the float range is written as inf, a valid CSV value
            p_text = float_reprs(on_grid(p.evaluate_axes(axes), axes).ravel())
            flags = on_grid(2 * a.contains_axes(axes) + b.contains_axes(axes), axes).ravel()
            # one joined line per write, so no more than a line is ever a str
            for lo in range(0, len(p_text), resolution):
                hi = lo + resolution
                head = next(heads)
                tails = np.char.add(axis, np.char.add(p_text[lo:hi], _GRID_FLAGS[flags[lo:hi]]))
                out.write((head + head.join(tails.tolist())).decode())
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysep",
        description="Certified polynomial separation of compact semialgebraic sets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sep = sub.add_parser("separate", help="search for a certified separating polynomial")
    p_sep.add_argument("problem", help="problem JSON file")
    p_sep.add_argument("--degree-max", type=int, default=None, dest="degree_max")
    p_sep.add_argument("--level-max", type=int, default=None, dest="level_max")
    p_sep.add_argument("--tol", type=float, default=None, help="SDP solver tolerance")
    p_sep.add_argument("--margin", type=float, default=None, help="minimum accepted margin")
    p_sep.add_argument("--ball", choices=["on", "off"], default=None,
                       help="append the redundant ball generator n - |x|^2 (default on)")
    p_sep.add_argument("--out", default=None, help="write the result JSON here")
    p_sep.set_defaults(func=cmd_separate)

    p_ver = sub.add_parser("verify", help="re-check a result file against its problem")
    p_ver.add_argument("problem")
    p_ver.add_argument("result")
    p_ver.add_argument("--resolution", type=int, default=CHECK_RESOLUTION)
    p_ver.add_argument("--tol", type=float, default=CHECK_TOL)
    p_ver.set_defaults(func=cmd_verify)

    p_bnd = sub.add_parser("bounds", help="evaluate the guaranteed-degree calculators")
    p_bnd.add_argument("problem")
    p_bnd.add_argument("--c", type=float, default=1.0, help="Lojasiewicz coefficient")
    p_bnd.add_argument("--T", type=float, default=1.0, help="Lojasiewicz exponent")
    p_bnd.add_argument("--C", type=float, default=1.0, help="Jackson constant")
    p_bnd.add_argument("--dist-resolution", type=int, default=201, dest="dist_resolution")
    p_bnd.set_defaults(func=cmd_bounds)

    p_grd = sub.add_parser("grid", help="emit a CSV level-set grid for 2-D problems")
    p_grd.add_argument("problem")
    p_grd.add_argument("result")
    p_grd.add_argument("--resolution", type=int, default=256)
    p_grd.add_argument("--out", default=None)
    p_grd.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 0 for --help and 2 for usage errors; keep exit code 2
        # reserved for "no separator found"
        return EXIT_OK if err.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except (InputError, ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
