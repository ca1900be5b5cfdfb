"""Span tracer for the traced run, built from the benchmark's own files.

Each public layer function listed in ``WRAPPED`` is replaced, at every
module attribute and module-level dict entry of the ``acmlines`` package
that binds it, by a wrapper that records one span per call: name, start,
end and parent. The package imports functions by name (``is_acm`` is
also bound in ``experiment``, ``ferrers``, ``oracles``, ``sampling``,
``cli`` and the package namespace; the numeric criteria sit in a dict),
so patching only the defining module would miss most calls.

Spans are recorded only inside an op (a root span opened by the
benchmark loop), so input generation and output checks stay untraced.
Work counters are computed from call arguments and results at the same
boundaries, after the span has ended; the time that takes is kept as the
span's ``post`` and charged to no layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter

from acmlines.variety import compact as _compact

ROOT_SPAN = "op"


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, post_ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: set = set()

    def call(self, name, fn, count, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, 0, 0, parent, 0]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()
        if count is not None:
            count(self, args, result)
            span[4] = time.perf_counter_ns() - span[2]
        return result

    def op(self, fn):
        """Run one benchmark op under a root span."""
        return self.call(ROOT_SPAN, fn, None, (), {})

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            return self.call(name, fn, count, args, kwargs)

        return traced

    def write(self, path):
        """Write the spans as gzipped JSON lines, one object per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (name, start, end, parent, post) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "post_ns": post,
                }) + "\n")


def self_times(spans) -> tuple[Counter, Counter, int]:
    """(self ns per name, calls per name, total root duration ns).

    A span's self time is its duration minus the time its child spans
    cover, each child counted with its counter ``post`` time.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, post in spans:
        if parent >= 0:
            covered[parent] += end - start + post
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    root_ns = 0
    for index, (name, start, end, parent, post) in enumerate(spans):
        self_ns[name] += end - start - covered[index]
        calls[name] += 1
        if parent < 0:
            root_ns += end - start
    return self_ns, calls, root_ns


# ---------------------------------------------------------------------------
# work counters, computed from arguments and results
# ---------------------------------------------------------------------------

def _count_is_acm(tracer, args, verdict):
    X = args[0]
    counts = tracer.counts
    counts["is_acm.declared"] += sum(X.d)
    counts["is_acm.used"] += sum(len(X.used_indices(f)) for f in (1, 2, 3))
    counts["is_acm.acm"] += verdict.acm
    key = _compact(X)
    if key in tracer.seen:
        counts["is_acm.repeats"] += 1
    else:
        tracer.seen.add(key)


# The package passes lists to the three kernels, so counting after the
# call sees every row.
def _count_sparse_rank(tracer, args, rank):
    rows = args[0]
    tracer.counts["sparse_rank.rows"] += len(rows)
    tracer.counts["sparse_rank.nonzeros"] += sum(
        1 for row in rows for v in row.values() if v
    )
    tracer.counts["sparse_rank.rank"] += rank


def _count_nullspace(tracer, args, basis):
    rows, ncols = args[0], args[1]
    tracer.counts["nullspace.cells"] += len(rows) * ncols


def _count_bareiss_rank(tracer, args, rank):
    rows = args[0]
    tracer.counts["bareiss_rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_reisner(tracer, args, cm):
    tracer.counts["reisner.vertices"] += len(args[0].vertices)


def _count_experiment(tracer, args, report):
    tracer.counts["experiment.acm_found"] += report.acm_found


# (module, function, span name, counter). The route-3 functions share
# one span name, so their self times add up to criteria.numeric.
WRAPPED = (
    ("variety", "validate", "variety.validate", None),
    ("variety", "compact", "variety.compact", None),
    ("graphs", "build_graph", "graphs.build_graph", None),
    ("graphs", "complement", "graphs.complement", None),
    ("graphs", "is_chordal", "graphs.is_chordal", None),
    ("criteria", "is_acm", "criteria.is_acm", _count_is_acm),
    ("criteria", "has_hyp_star", "criteria.has_hyp_star", None),
    ("criteria", "multiplicity_tensor", "criteria.numeric", None),
    ("criteria", "criterion_hyp4_numeric", "criteria.numeric", None),
    ("criteria", "criterion_hyp5_numeric", "criteria.numeric", None),
    ("criteria", "criterion_hyp6_numeric", "criteria.numeric", None),
    ("ferrers", "ferrers_companion", "ferrers.ferrers_companion", None),
    ("ferrers", "degree_sets", "ferrers.degree_sets", None),
    ("ferrers", "hilbert_function", "ferrers.hilbert_function", None),
    ("oracles", "generator_degree_scan", "oracles.generator_degree_scan", None),
    ("oracles", "hilbert_oracle", "oracles.hilbert_oracle", None),
    ("oracles", "stanley_reisner_complex", "oracles.stanley_reisner_complex", None),
    ("oracles", "reisner_cm", "oracles.reisner_cm", _count_reisner),
    ("linalg", "sparse_rank", "linalg.sparse_rank", _count_sparse_rank),
    ("linalg", "nullspace", "linalg.nullspace", _count_nullspace),
    ("linalg", "bareiss_rank", "linalg.bareiss_rank", _count_bareiss_rank),
    ("sampling", "random_variety", "sampling.random_variety", None),
    ("experiment", "run_hf_experiment", "experiment.run_hf_experiment", _count_experiment),
    ("cli", "main", "cli.main", None),
)


def install(tracer):
    """Bind a traced wrapper wherever the package binds a wrapped function.

    Returns the patches made, as (namespace, key, original), for
    ``uninstall``.
    """
    wrappers = {}
    for module, fn_name, span_name, count in WRAPPED:
        fn = getattr(importlib.import_module(f"acmlines.{module}"), fn_name)
        wrappers[id(fn)] = (fn, tracer.wrap(span_name, fn, count))
    patches = []

    def patch(namespace, key, value):
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            patches.append((namespace, key, value))
            namespace[key] = hit[1]

    for name, module in list(sys.modules.items()):
        if name != "acmlines" and not name.startswith("acmlines."):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            if isinstance(value, dict):
                for inner_key, inner in list(value.items()):
                    patch(value, inner_key, inner)
            else:
                patch(namespace, key, value)
    return patches


def uninstall(patches):
    for namespace, key, original in reversed(patches):
        namespace[key] = original


# ---------------------------------------------------------------------------
# per-layer metrics and the predictions they serve
# ---------------------------------------------------------------------------

def _self_ms(span):
    return lambda t: t["self_ns"][span] * t["time_scale"] / 1e6 / t["ops"]


def _calls(span):
    return lambda t: t["calls"][span] / t["ops"]


def _per_op(counter):
    return lambda t: t["counts"][counter] / t["ops"]


def _ratio(numerator, denominator):
    def value(t):
        base = denominator(t)
        return numerator(t) / base if base else 0.0
    return value


def _count(counter):
    return lambda t: t["counts"][counter]


def _span_calls(span):
    return lambda t: t["calls"][span]


# (name, unit, better, value, should move, mostly on, predict no change on).
# Counts are per op unless the name says otherwise; ratios with a zero
# base (the layer never ran) read 0.
PER_LAYER = (
    ("criteria.has_hyp_star.self_ms", "ms", "lower", _self_ms("criteria.has_hyp_star"),
     "ops_per_s, op_tail_ms", "decide (a, c), experiment", "scan"),
    ("criteria.numeric.self_ms", "ms", "lower", _self_ms("criteria.numeric"),
     "ops_per_s", "decide, experiment, audit", "scan"),
    ("criteria.is_acm.self_ms", "ms", "lower", _self_ms("criteria.is_acm"),
     "ops_per_s", "decide, experiment, audit", "scan"),
    ("criteria.is_acm.calls", "count", "lower", _calls("criteria.is_acm"),
     "ops_per_s", "decide, experiment, audit", "scan"),
    ("graphs.build_graph.self_ms", "ms", "lower", _self_ms("graphs.build_graph"),
     "op_tail_ms, peak_rss_mb", "decide (c)", "audit, experiment"),
    ("graphs.complement.self_ms", "ms", "lower", _self_ms("graphs.complement"),
     "op_tail_ms, peak_rss_mb", "decide (c)", "audit, experiment"),
    ("graphs.is_chordal.self_ms", "ms", "lower", _self_ms("graphs.is_chordal"),
     "op_tail_ms, peak_rss_mb", "decide (c)", "audit, experiment"),
    ("criteria.declared_per_used", "ratio", "lower",
     _ratio(_count("is_acm.declared"), _count("is_acm.used")),
     "op_tail_ms, peak_rss_mb", "decide (c)", "audit, experiment"),
    ("criteria.acm_share", "ratio", "higher",
     _ratio(_count("is_acm.acm"), _span_calls("criteria.is_acm")),
     "ops_per_s", "audit", "decide"),
    ("criteria.repeat_share", "ratio", "higher",
     _ratio(_count("is_acm.repeats"), _span_calls("criteria.is_acm")),
     "ops_per_s", "audit", "decide"),
    ("linalg.sparse_rank.self_ms", "ms", "lower", _self_ms("linalg.sparse_rank"),
     "ops_per_s, op_p50_ms", "scan", "decide"),
    ("linalg.sparse_rank.calls", "count", "lower", _calls("linalg.sparse_rank"),
     "ops_per_s, op_p50_ms", "scan", "decide"),
    ("linalg.sparse_rank.rows", "count", "lower", _per_op("sparse_rank.rows"),
     "ops_per_s, op_p50_ms", "scan", "decide"),
    ("linalg.sparse_rank.nonzeros", "count", "lower", _per_op("sparse_rank.nonzeros"),
     "ops_per_s, op_p50_ms", "scan", "decide"),
    ("linalg.sparse_rank.useful_rows_ratio", "ratio", "higher",
     _ratio(_count("sparse_rank.rank"), _count("sparse_rank.rows")),
     "ops_per_s, op_p50_ms", "scan", "decide"),
    ("linalg.nullspace.self_ms", "ms", "lower", _self_ms("linalg.nullspace"),
     "ops_per_s", "scan", "decide"),
    ("linalg.nullspace.calls", "count", "lower", _calls("linalg.nullspace"),
     "ops_per_s", "scan", "decide"),
    ("linalg.nullspace.cells", "count", "lower", _per_op("nullspace.cells"),
     "ops_per_s", "scan", "decide"),
    ("linalg.bareiss_rank.self_ms", "ms", "lower", _self_ms("linalg.bareiss_rank"),
     "op_tail_ms, ops_per_s", "audit, experiment", "decide"),
    ("linalg.bareiss_rank.calls", "count", "lower", _calls("linalg.bareiss_rank"),
     "op_tail_ms, ops_per_s", "audit, experiment", "decide"),
    ("linalg.bareiss_rank.cells", "count", "lower", _per_op("bareiss_rank.cells"),
     "op_tail_ms, ops_per_s", "audit, experiment", "decide"),
    ("oracles.generator_degree_scan.self_ms", "ms", "lower",
     _self_ms("oracles.generator_degree_scan"), "ops_per_s", "scan", "decide"),
    ("oracles.hilbert_oracle.self_ms", "ms", "lower", _self_ms("oracles.hilbert_oracle"),
     "ops_per_s", "experiment", "decide"),
    ("oracles.reisner_cm.self_ms", "ms", "lower", _self_ms("oracles.reisner_cm"),
     "op_tail_ms", "audit", "scan"),
    ("oracles.stanley_reisner_complex.self_ms", "ms", "lower",
     _self_ms("oracles.stanley_reisner_complex"), "op_tail_ms", "audit", "scan"),
    ("oracles.reisner.vertices", "count", "lower",
     _ratio(_count("reisner.vertices"), _span_calls("oracles.reisner_cm")),
     "op_tail_ms", "audit (mean per reisner_cm call)", "scan"),
    ("ferrers.ferrers_companion.self_ms", "ms", "lower",
     _self_ms("ferrers.ferrers_companion"), "ops_per_s", "experiment, scan", "decide"),
    ("ferrers.degree_sets.self_ms", "ms", "lower", _self_ms("ferrers.degree_sets"),
     "ops_per_s", "experiment, scan", "decide"),
    ("ferrers.hilbert_function.self_ms", "ms", "lower", _self_ms("ferrers.hilbert_function"),
     "ops_per_s", "experiment, scan", "decide"),
    ("sampling.random_variety.self_ms", "ms", "lower", _self_ms("sampling.random_variety"),
     "ops_per_s", "experiment", "decide"),
    ("sampling.random_variety.calls", "count", "lower", _calls("sampling.random_variety"),
     "ops_per_s", "experiment", "decide"),
    ("sampling.acceptance_ratio", "ratio", "higher",
     _ratio(_count("experiment.acm_found"), _span_calls("sampling.random_variety")),
     "ops_per_s", "experiment", "decide"),
    ("experiment.run_hf_experiment.self_ms", "ms", "lower",
     _self_ms("experiment.run_hf_experiment"), "ops_per_s", "experiment", "-"),
    ("variety.validate.self_ms", "ms", "lower", _self_ms("variety.validate"),
     "op_p50_ms, setup_s", "audit (CLI ops)", "scan"),
    ("variety.compact.self_ms", "ms", "lower", _self_ms("variety.compact"),
     "op_p50_ms, setup_s", "audit (CLI ops)", "scan"),
    ("cli.main.self_ms", "ms", "lower", _self_ms("cli.main"),
     "op_p50_ms, setup_s", "audit (CLI ops)", "scan"),
    ("untraced_share", "ratio", "lower",
     lambda t: t["self_ns"][ROOT_SPAN] / t["root_ns"] if t["root_ns"] else 0.0,
     "- (accounting check)", "all", "-"),
    ("tracing_overhead", "ratio", "lower", lambda t: t["overhead"],
     "- (untraced ops_per_s / traced ops_per_s - 1)", "all", "-"),
)


def layer_metrics(tracer, ops: int, time_scale: float, overhead: float) -> dict:
    """Every per-layer metric from one traced pass of ``ops`` ops, self
    times multiplied by the run's ``time_scale``."""
    self_ns, calls, root_ns = self_times(tracer.spans)
    totals = {
        "self_ns": self_ns,
        "calls": calls,
        "root_ns": root_ns,
        "counts": tracer.counts,
        "ops": max(ops, 1),
        "time_scale": time_scale,
        "overhead": overhead,
    }
    return {
        name: {"value": value(totals), "unit": unit}
        for name, unit, _better, value, *_ in PER_LAYER
    }
