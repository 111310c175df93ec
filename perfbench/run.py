"""polysep benchmark: seeded workloads, end-to-end timings and a traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload golden --seed 1 --seconds 20 --trace 0

Load is one client in a closed loop: the next operation starts when the
previous one has finished, in this single process, with BLAS pinned to one
thread.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer split and the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it list
every metric by name and unit.  ``--workload all`` runs every workload, each
in its own process.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere, so the BLAS pool is created with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 120
# the end-to-end metrics the last line carries (BENCHMARK.json "end_to_end")
END_TO_END = {"setup_s": "s", "pass_s.p50": "s", "peak_rss_mb": "MB"}
# the per-layer metrics the last line carries in a traced run ("per_layer");
# each is measured, and nonzero or a count, on every gated workload
PER_LAYER = (
    "sdp.solve.s", "sdp.solve.calls", "sdp.iterations", "sdp.s_per_iter",
    "sdp.SdpProblem.s", "sdp.nonoptimal",
    "separator.solve_fixed_level.self_s", "separator.attempts", "separator.useful_ratio",
    "separator.certificate_residuals.s",
    "sos.expand_gram.s", "sos.reconstruct_residual.s", "sos.residual_max",
    "poly.parse.calls", "poly.evaluate.calls", "poly.evaluate_many.points",
    "semialg.sample_grid.points", "semialg.sample_grid.kept_ratio",
    "trace.overhead_s",
)
# which operation's times feed which reported end-to-end name
OP_METRIC = {"separate": "separate_s", "verify": "verify_s", "grid": "grid_s"}
ERRORS_KEPT = 5

SETUP_CODE = """
import sys
from polysep import cli
for path in sys.argv[1:]:
    cli.load_problem(path)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        help="golden, ladder, sampling, cli-4d or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time after one warm-up pass; the set-up "
                             "starts are spread through it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile_summary(samples: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it.

    The tail is left out (None) until it lies above the median, at 21 samples.
    """
    ordered = sorted(samples)
    count = len(ordered)
    out = {"p50": statistics.median(ordered), "samples": count, "values": samples}
    if count > 20:
        out["tail"] = ordered[count - 11]
        out["tail_percentile"] = round(100.0 * (count - 10) / count, 1)
    else:
        out["tail"] = None
        out["tail_percentile"] = None
    return out


def distinct_errors(failures: list) -> list:
    """Each distinct (operation, error text) once, with how often it occurred."""
    seen: dict = {}
    for o in failures:
        key = (o.op, "; ".join(o.errors))
        seen[key] = seen.get(key, 0) + 1
    return [{"op": op, "error": text, "count": count}
            for (op, text), count in list(seen.items())[:ERRORS_KEPT]]


def time_setup(cmd: list) -> float:
    """Wall seconds of one fresh interpreter running ``cmd`` (import and load).

    The wait is a plain blocking one, with a timer that kills a hung child:
    ``Popen.wait(timeout=...)`` polls in steps of up to 50 ms, which would
    quantize the times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up interpreter exited with {code}")
    return elapsed


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, read from the library itself."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(args, passes: int) -> dict:
    import numpy
    import scipy

    # the checkout may not be a git repository: never look above its root
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=30).stdout.split()
    except OSError:
        out = []
    commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "polysep").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "seed": args.seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_force": blas_threads(),
        "run_seconds": args.seconds,
        "setup_samples": SETUP_SAMPLES,
        "passes_measured": passes,
        "load": "closed loop, one client, one process",
    }


def run_workload(args) -> dict:
    from workloads import Workload

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        workload = Workload(args.workload, args.seed, ROOT, workdir)
        setup_cmd = [sys.executable, "-c", SETUP_CODE, *workload.problem_files()]
        # untimed: writes the bytecode caches a user's first call also writes once
        time_setup(setup_cmd)
        return measure(args, workload, setup_cmd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup_cmd: list) -> dict:
    from tracing import Recorder, layer_metrics, unit

    rec = Recorder() if args.trace else None
    outcomes = []  # (pass index, traced, Outcome)
    pass_seconds = {}
    traced_passes, untraced_passes = [], []

    def one_pass(index: int, traced: bool):
        # a traced pass reruns the instance of the untraced pass before it, so
        # the tracing overhead compares like with like
        instance = index // 2 if args.trace else index
        if traced:
            rec.install()
            try:
                result = workload.run_pass(instance, lambda op: rec.begin_op(index, op), rec.call)
            finally:
                rec.uninstall()
        else:
            result = workload.run_pass(instance, lambda op: None)
        outcomes.extend((index, traced, o) for o in result)
        return sum(o.seconds for o in result)

    one_pass(-1, False)  # warm-up: checked and counted, not timed
    # the set-up starts are spread over the measuring window, between passes,
    # so that they sample the same mix of host speeds as the passes do
    setup = []
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if len(setup) < min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * elapsed / args.seconds)):
            setup.append(time_setup(setup_cmd))
            continue
        if elapsed >= args.seconds and untraced_passes and (traced_passes or not args.trace):
            break
        traced = bool(args.trace) and index % 2 == 1
        pass_seconds[index] = one_pass(index, traced)
        (traced_passes if traced else untraced_passes).append(index)
        index += 1

    failures = [o for _, _, o in outcomes if o.errors]
    by_op: dict = {}
    for p, traced, o in outcomes:
        if p >= 0 and not traced:
            by_op.setdefault(o.op, []).append(o.seconds)
    untraced_times = [pass_seconds[p] for p in untraced_passes]

    report = {
        "workload": workload.name,
        "problems": workload.describe(),
        "environment": environment(args, len(untraced_passes)),
        "setup_s": {"p50": statistics.median(setup), "samples": setup},
        "pass_s": percentile_summary(untraced_times),
        "operations": {op: percentile_summary(times) for op, times in by_op.items()},
        "attempted": len(outcomes),
        "failed": len(failures),
        "failed_frac": len(failures) / len(outcomes),
        "errors": distinct_errors(failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if workload.shapes:
        report["rung_shapes"] = workload.shapes
    metrics = {
        "setup_s": report["setup_s"]["p50"],
        "pass_s.p50": report["pass_s"]["p50"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    named = {key: (value, END_TO_END[key]) for key, value in metrics.items()}
    named["failed_frac"] = (report["failed_frac"], "ratio")
    for op, summary in report["operations"].items():
        base = OP_METRIC.get(op, f"rung_s.{op}")
        named[f"{base}.p50"] = (summary["p50"], "s")
        if summary["tail"] is not None:
            named[f"{base}.tail"] = (summary["tail"], "s")
    if workload.name == "ladder":
        ladder = report["pass_s"]
        named["ladder_s.p50"] = (ladder["p50"], "s")
        if ladder["tail"] is not None:
            named["ladder_s.tail"] = (ladder["tail"], "s")
    report["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}

    if args.trace:
        layers = layer_metrics(rec, traced_passes, pass_seconds)
        traced_p50 = statistics.median(pass_seconds[p] for p in traced_passes)
        layers["trace.overhead_s"] = (traced_p50 - report["pass_s"]["p50"], "s")
        layers["trace.pass_s.p50"] = (traced_p50, "s")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["traced_passes"] = len(traced_passes)
        rec.save(OUT_DIR / f"spans-{workload.name}.npz")
        # a counter no span touched in this workload is a measured zero
        last = {k: layers.get(k, (0.0, unit(k))) for k in PER_LAYER}
    else:
        last = {k: named[k] for k in END_TO_END}
    report["result"] = {
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in last.items()},
    }
    return report


def print_report(report: dict, trace: bool) -> None:
    print(f"workload {report['workload']}: {report['attempted']} operations attempted, "
          f"{report['failed']} failed, {report['environment']['passes_measured']} passes timed")
    section = report["per_layer"] if trace else report["named_metrics"]
    for key, entry in section.items():
        print(f"  {key:<44} {entry['value']:>14.6g} {entry['unit']}")
    for err in report["errors"]:
        first = err["error"].strip().splitlines()[-1] if err["error"].strip() else ""
        print(f"  failed {err['op']} x{err['count']}: {first}")


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polysep" / "cli.py").is_file():
        print(f"error: no polysep sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS + ("all",):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args)
    name = f"report-{report['workload']}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2, default=str) + "\n",
                                encoding="utf-8")
    print_report(report, bool(args.trace))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
