"""Span recording around the public calls of each ultraext layer.

Tracing lives in the benchmark, not in the program: while a traced job
runs, each function in LAYERS is replaced at the module bindings listed
with it by a wrapper that records a span (name, start, end, parent) and
reads its counts from the arguments and the returned object.  Spans stay
in memory until the run writes them out.  A binding that no longer
exists raises MissingLayer, and so does a layer whose span never fires
in a job (check_fired), so a refactor that moves one cannot read as a
layer dropping to zero.

A span's self time is its duration minus the spans directly inside it,
so the self times of one job add up to the duration of its root span.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _count_certify(c, result, args, kwargs):
    n = len(args[0].base_points)
    c["certify_pairs"] += n * (n - 1)


def _count_cover(c, result, args, kwargs):
    c["intervals"] += len(result.centers)


def _count_bump(c, result, args, kwargs):
    c["bump_breakpoints"] += len(result.breakpoints)
    # A bump whose box convolutions all merged away is a bare indicator.
    c["collapsed_bumps"] += len(result.breakpoints) == 2


def _count_partition(c, result, args, kwargs):
    c["pieces"] += len(result.piece_active)
    c["live_bumps_max"] = max(c["live_bumps_max"], max(map(len, result.piece_active)))


def _count_verify(c, result, args, kwargs):
    c["audit_samples"] += result.sample_count
    c["audit_skipped"] += sum(check.skipped for check in result.checks)


def _count_boundary(c, result, args, kwargs):
    c["boundary_steps"] += len(result.steps)


def _count_write(c, result, args, kwargs):
    c["output_bytes"] += len(args[1].encode("utf-8"))


# (span name, [(module or class path, attribute)], counter).  Class
# paths name a method; module paths name the binding a caller looks up.
LAYERS = (
    ("weight_functions.young_conjugate_grid",
     [("ultraext.matrix_calculus", "young_conjugate_grid")], None),
    ("matrix_calculus.associated_matrix", [("ultraext.cli", "associated_matrix")], None),
    ("matrix_calculus.strong_regularization",
     [("ultraext.cli", "strong_regularization")], None),
    ("matrix_calculus.interleave_matrix",
     [("ultraext.cli", "interleave_matrix"),
      ("ultraext.extension_engine", "interleave_matrix")], None),
    ("ultrajets.certify", [("ultraext.cli", "certify")], _count_certify),
    ("extension_engine.make_plan", [("ultraext.cli", "make_plan")], None),
    ("extension_engine.assemble", [("ultraext.cli", "assemble")], None),
    ("whitney_geometry.build_cover",
     [("ultraext.extension_engine", "build_cover")], _count_cover),
    ("partition_of_unity.build_partition",
     [("ultraext.extension_engine", "build_partition")], None),
    ("partition_of_unity.build_bump",
     [("ultraext.partition_of_unity", "build_bump")], _count_bump),
    ("partition_of_unity.Partition.from_bumps",
     [("ultraext.partition_of_unity:Partition", "from_bumps")], _count_partition),
    ("seq_calculus.counting_index",
     [("ultraext.extension_engine", "counting_index")], None),
    ("ultrajets.taylor_poly", [("ultraext.extension_engine", "taylor_poly")], None),
    ("ultrajets.TaylorPolynomial.__call__",
     [("ultraext.ultrajets:TaylorPolynomial", "__call__")], None),
    ("extension_engine.verify_bounds", [("ultraext.cli", "verify_bounds")], _count_verify),
    ("partition_of_unity.Partition.derivatives",
     [("ultraext.partition_of_unity:Partition", "derivatives")], None),
    ("extension_engine.boundary_limits",
     [("ultraext.cli", "boundary_limits")], _count_boundary),
    ("extension_engine.eval_derivative",
     [("ultraext.cli", "eval_derivative"),
      ("ultraext.extension_engine", "eval_derivative")], None),
    ("cli.write", [("pathlib:Path", "write_text")], _count_write),
)


class Recorder:
    """In-memory spans [name, start_ns, end_ns, parent index] and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, opened, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, opened[-1] if opened else -1]
            spans.append(span)
            opened.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                opened.pop()
                span[2] = clock()
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def times(self) -> tuple[dict, dict, dict, Counter]:
        """Per name: total seconds, self seconds, totals by parent name, calls."""
        total: dict = defaultdict(float)
        inner: dict = defaultdict(float)
        by_parent: dict = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            dur = (end - start) * 1e-9
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                pname = self.spans[parent][0]
                inner[pname] += dur
                by_parent[(name, pname)] += dur
        own = {name: total[name] - inner[name] for name in total}
        return total, own, by_parent, calls

    def dump(self) -> dict:
        """Spans as [name index, start us, end us, parent index], from the first start."""
        t0 = self.spans[0][1] if self.spans else 0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "span_names": names,
            "spans": [[index[n], (s - t0) // 1000, (e - t0) // 1000, p]
                      for n, s, e, p in self.spans],
        }


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class MissingLayer(Exception):
    """A layer of LAYERS is no longer where the table says, or never ran."""


@contextmanager
def traced(recorder: Recorder):
    """Install the span wrappers of every layer; restore on exit."""
    saved = []
    try:
        for name, targets, count in LAYERS:
            for path, attr in targets:
                owner = _owner(path)
                if attr not in vars(owner):
                    raise MissingLayer(f"{name}: {path} has no attribute {attr!r}")
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(recorder.wrap(name, original.__func__, count))
                else:
                    wrapped = recorder.wrap(name, original, count)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def check_fired(rec: Recorder) -> None:
    """Every layer's span ran at least once in the recorded job."""
    fired = {span[0] for span in rec.spans}
    silent = [name for name, _, _ in LAYERS if name not in fired]
    if silent:
        raise MissingLayer(f"layers that recorded no call: {silent}")


def job_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced `cli.main` job (the root span)."""
    total, own, by_parent, calls = rec.times()
    c = rec.counts
    return {
        "cli.job_s": total["cli.main"],
        "cli.job_self_s": own["cli.main"],
        "cli.write_s": total.get("cli.write", 0.0),
        "cli.output_bytes": c["output_bytes"],
        "weight_functions.conjugate_s": total.get("weight_functions.young_conjugate_grid", 0.0),
        "matrix_calculus.associated_s": total.get("matrix_calculus.associated_matrix", 0.0),
        "matrix_calculus.regularize_s": total.get("matrix_calculus.strong_regularization", 0.0),
        "matrix_calculus.interleave_s": total.get("matrix_calculus.interleave_matrix", 0.0),
        "seq_calculus.degree_rule_s": total.get("seq_calculus.counting_index", 0.0),
        "seq_calculus.degree_rule_calls": calls["seq_calculus.counting_index"],
        "ultrajets.certify_s": total.get("ultrajets.certify", 0.0),
        "ultrajets.certify_pairs": c["certify_pairs"],
        "ultrajets.taylor_table_s": by_parent.get(
            ("ultrajets.taylor_poly", "extension_engine.assemble"), 0.0),
        "ultrajets.taylor_eval_s": total.get("ultrajets.TaylorPolynomial.__call__", 0.0),
        "ultrajets.taylor_eval_calls": calls["ultrajets.TaylorPolynomial.__call__"],
        "whitney_geometry.cover_s": total.get("whitney_geometry.build_cover", 0.0),
        "whitney_geometry.intervals": c["intervals"],
        "partition_of_unity.bumps_s": total.get("partition_of_unity.build_bump", 0.0),
        "partition_of_unity.partition_s": total.get(
            "partition_of_unity.Partition.from_bumps", 0.0),
        "partition_of_unity.coverage_check_s": own.get(
            "partition_of_unity.build_partition", 0.0),
        "partition_of_unity.pieces": c["pieces"],
        "partition_of_unity.bump_breakpoints": c["bump_breakpoints"],
        "partition_of_unity.live_bumps_max": c["live_bumps_max"],
        "partition_of_unity.collapsed_bumps": c["collapsed_bumps"],
        "partition_of_unity.derivatives_s": total.get(
            "partition_of_unity.Partition.derivatives", 0.0),
        "partition_of_unity.derivatives_calls": calls["partition_of_unity.Partition.derivatives"],
        "extension_engine.plan_s": total.get("extension_engine.make_plan", 0.0),
        "extension_engine.assemble_s": total.get("extension_engine.assemble", 0.0),
        "extension_engine.assemble_self_s": own.get("extension_engine.assemble", 0.0),
        "extension_engine.verify_s": total.get("extension_engine.verify_bounds", 0.0),
        "extension_engine.verify_self_s": own.get("extension_engine.verify_bounds", 0.0),
        "extension_engine.audit_samples": c["audit_samples"],
        "extension_engine.audit_skipped": c["audit_skipped"],
        "extension_engine.trace_s": by_parent.get(
            ("extension_engine.eval_derivative", "cli.main"), 0.0),
        "extension_engine.eval_calls": calls["extension_engine.eval_derivative"],
        "extension_engine.boundary_s": total.get("extension_engine.boundary_limits", 0.0),
        "extension_engine.boundary_steps": c["boundary_steps"],
    }


def medians(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}

