"""In-memory span recorder and the per-layer split of a traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces the names
that polysep modules look up at call time (``polysep.separator.sdp_solve``,
``polysep.cli.run_hierarchy``, ``Polynomial.evaluate_many``, ...) with
wrappers that record (name, start, end, parent, op id) into flat arrays, and
``uninstall`` puts the originals back.  Counters (points evaluated, SDP
iterations, rows, ...) are taken in the same wrappers, so ratios are measured
where the work happens.

A span's self time is its duration minus the durations of its child spans;
calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import statistics
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from workloads import sdp_shape

# The first dotted component of a span name is its layer.
LAYERS = ("cli", "poly", "semialg", "bounds", "separator", "sos", "sdp", "bench")

BOUNDS_FUNCTIONS = (
    "generator_norm_warnings",
    "lipschitz_constant",
    "jackson_degree",
    "quadratic_module_complexity",
    "separation_degree_bound",
)


class Recorder:
    """Spans and counters of one traced run, grouped by operation."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.current_op = -1
        # per op: its pass index, its name, additive counters, maxima, notes
        self.op_pass: list = []
        self.op_name: list = []
        self.counts: list = []
        self.maxima: list = []
        self.notes: list = []
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self, pass_index: int, op_name: str) -> None:
        self.current_op = len(self.op_pass)
        self.op_pass.append(pass_index)
        self.op_name.append(op_name)
        self.counts.append(defaultdict(float))
        self.maxima.append({})
        self.notes.append({})

    def add(self, key: str, value: float) -> None:
        self.counts[self.current_op][key] += value

    def maximum(self, key: str, value: float) -> None:
        current = self.maxima[self.current_op]
        current[key] = max(value, current.get(key, value))

    def wrap(self, fn, name: str, after=None):
        """A stand-in for ``fn`` that records a span; ``after`` sees the result.

        ``after`` runs in a ``bench.counters`` span of its own, so the cost of
        taking counters is charged to the benchmark, not to the caller's layer.
        """
        nid = self._name_id(name)
        counters = self.wrap(after, "bench.counters") if after is not None else None
        start, end, names, parents, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack,
        )

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counters is not None:
                counters(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` under a span called ``name`` (an operation's root)."""
        return self.wrap(fn, name)(*args)

    def install(self) -> None:
        """Wrap the calls into every polysep layer; undone by ``uninstall``."""
        for owner, attr, name, after in _patch_table():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        """Write every span and the op table out as a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            op_pass=np.array(self.op_pass, dtype=np.int32),
            op_name=np.array(self.op_name),
        )


# --- after-hooks: counters taken where the work happens ----------------------


def _after_evaluate_many(rec, args, result):
    rec.add("poly.evaluate_many.points", len(args[1]))


def _after_sample_grid(rec, args, cloud):
    s, resolution = args[0], args[1]
    rec.add("semialg.sample_grid.generated", resolution**s.n)
    rec.add("semialg.sample_grid.points", len(cloud))


def _after_solve_fixed_level(rec, args, result):
    rec.add("separator.useful", 1)


def _after_sdp_problem(rec, args, problem):
    shape = sdp_shape(problem.num_constraints, problem.block_sizes)
    shape["constraint_nnz"] = sum(
        int(np.count_nonzero(mat)) for mats, _ in problem.constraints for mat in mats
        if mat is not None
    )
    # an op may build several SDPs (the hierarchy); keep its largest
    notes = rec.notes[rec.current_op]
    if shape["dense_bytes"] >= notes.get("shape", {}).get("dense_bytes", 0):
        notes["shape"] = shape


def _after_sdp_solve(rec, args, sol):
    rec.add("sdp.iterations", sol.iterations)
    if sol.status.value != "Optimal":
        rec.add("sdp.nonoptimal", 1)


def _after_reconstruct_residual(rec, args, residual):
    rec.maximum("sos.residual_max", float(residual))


def _patch_table():
    """(owner, attribute, span name, after-hook) for every wrapped call site."""
    from polysep import cli, semialg, separator, sos
    from polysep.poly import Polynomial
    from polysep.sos import QmCertificate

    table = [
        (cli, "load_problem", "cli.load_problem", None),
        (cli, "parse", "poly.parse", None),
        (cli, "run_hierarchy", "separator.run_hierarchy", None),
        (cli, "verify_separation", "separator.verify_separation", None),
        (cli, "certificate_residuals", "separator.certificate_residuals", None),
        (cli, "dist_estimate", "semialg.dist_estimate", None),
        (Polynomial, "evaluate", "poly.evaluate", None),
        (Polynomial, "evaluate_many", "poly.evaluate_many", _after_evaluate_many),
        (semialg, "sample_grid", "semialg.sample_grid", _after_sample_grid),
        (separator, "sample_grid", "semialg.sample_grid", _after_sample_grid),
        (separator, "solve_fixed_level", "separator.solve_fixed_level", _after_solve_fixed_level),
        (separator, "certificate_residuals", "separator.certificate_residuals", None),
        (separator, "SdpProblem", "sdp.SdpProblem", _after_sdp_problem),
        (separator, "sdp_solve", "sdp.solve", _after_sdp_solve),
        (separator, "expand_gram", "sos.expand_gram", None),
        (separator, "reconstruct_residual", "sos.reconstruct_residual",
         _after_reconstruct_residual),
        (sos, "expand_gram", "sos.expand_gram", None),
        (QmCertificate, "min_gram_eigenvalue", "sos.min_gram_eigenvalue", None),
    ]
    table += [(cli, fn, f"bounds.{fn}", None) for fn in BOUNDS_FUNCTIONS]
    return table


# --- analysis -----------------------------------------------------------------


def self_times(rec: Recorder) -> np.ndarray:
    """Per span: duration minus the durations of its direct children."""
    start = np.frombuffer(rec.start, dtype=float)
    end = np.frombuffer(rec.end, dtype=float)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(rec: Recorder, traced_passes: list, pass_seconds: dict) -> dict:
    """Per-pass medians of self times, counts and ratios over the traced passes.

    ``pass_seconds`` maps a traced pass index to its wall time.  Returns a
    flat {metric name: (value, unit)} dictionary.
    """
    self_t = self_times(rec)
    name = np.frombuffer(rec.name, dtype=np.int32)
    op = np.frombuffer(rec.op, dtype=np.int32)
    op_pass = np.array(rec.op_pass, dtype=np.int64)
    span_pass = op_pass[op] if len(op) else np.zeros(0, dtype=np.int64)

    per_pass = {p: defaultdict(float) for p in traced_passes}
    for nid, label in enumerate(rec.names):
        sel = name == nid
        if not sel.any():
            continue
        layer = label.split(".", 1)[0]
        for p in traced_passes:
            in_pass = sel & (span_pass == p)
            t = float(self_t[in_pass].sum())
            calls = float(in_pass.sum())
            row = per_pass[p]
            row[f"{label}.s"] += t
            row[f"{label}.calls"] += calls
            row[f"layer.{layer}.s"] += t
            # every cli.* span except load_problem is command glue
            if layer == "cli" and label != "cli.load_problem":
                row["cli.self_s"] += t
            if layer == "bounds":
                row["bounds.s"] += t
    for op_id, p in enumerate(rec.op_pass):
        if p not in per_pass:
            continue
        row = per_pass[p]
        for key, value in rec.counts[op_id].items():
            row[key] += value
        for key, value in rec.maxima[op_id].items():
            row[key] = max(row.get(key, value), value)
        # per-op splits for ops that built an SDP (per rung on the ladder);
        # the shape is that of the op's largest SDP
        shape = rec.notes[op_id].get("shape")
        if shape is None:
            continue
        op_label = rec.op_name[op_id]
        sel = (op == op_id) & (name == rec._name_ids.get("sdp.solve", -1))
        row[f"sdp.solve.s.{op_label}"] += float(self_t[sel].sum())
        row[f"sdp.iterations.{op_label}"] += rec.counts[op_id].get("sdp.iterations", 0.0)
        for key, value in shape.items():
            if key != "block_sizes":
                row[f"sdp.{key}.{op_label}"] = value

    out = {}
    keys = sorted({k for row in per_pass.values() for k in row})
    for key in keys:
        out[key] = _median([row.get(key, 0.0) for row in per_pass.values()])

    def ratio(num, den):
        return out.get(num, 0.0) / out[den] if out.get(den) else 0.0

    out["separator.attempts"] = out.get("separator.solve_fixed_level.calls", 0.0)
    out["separator.useful_ratio"] = ratio("separator.useful", "separator.attempts")
    out["separator.solve_fixed_level.self_s"] = out.get("separator.solve_fixed_level.s", 0.0)
    out["semialg.sample_grid.kept_ratio"] = ratio(
        "semialg.sample_grid.points", "semialg.sample_grid.generated"
    )
    out["sdp.s_per_iter"] = ratio("sdp.solve.s", "sdp.iterations")
    out.setdefault("sdp.nonoptimal", 0.0)
    out.setdefault("sos.residual_max", 0.0)
    traced_total = _median([pass_seconds[p] for p in traced_passes])
    for layer in LAYERS:
        share = out.get(f"layer.{layer}.s", 0.0) / traced_total if traced_total else 0.0
        out[f"layer.{layer}.share"] = share
    return {key: (value, unit(key)) for key, value in out.items()}


def unit(key: str) -> str:
    if key.endswith((".s", ".self_s", "_s", "s_per_iter")) or ".s." in key:
        return "s"
    if key.endswith(("_ratio", ".share")):
        return "ratio"
    if ".dense_bytes." in key:
        return "B"
    if key == "sos.residual_max":
        return "coef"
    return "count"
