"""acmlines benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run it from the repository root; the package is imported from ./src.
Workloads are closed loops with one caller in one process: the next op
starts when the previous one has returned and been checked.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` (whole
rounds, so a run may end up to one round late). ``--trace 1`` first runs
the untraced benchmark in a subprocess, then runs the same workload under
the span tracer for a fixed number of rounds, so that its counts repeat
exactly for a seed, and reports the per-layer metrics and the tracing
overhead. Spans are written to perfbench/out/.

Times are scaled to a fixed machine speed: see REFERENCE_NS. The
report prints the scale applied.

The last line of stdout is the result, one JSON object; the lines before
it are a readable report and the run's provenance.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_SAMPLES = 11
# Nominal time of reference_loop(). On a shared 2-CPU host the speed of
# the same code drifts by up to +-40% between runs, far more than the
# changes the benchmark must resolve. Every time the benchmark reports is
# therefore scaled by REFERENCE_NS over the reference loop's median time
# around it, i.e. to the speed at which the loop takes REFERENCE_NS. The
# loop uses no acmlines code, so a change to the package cannot move it.
REFERENCE_NS = 1_200_000
REFERENCE_EVERY_S = 0.05
TAIL_BEYOND = 10
SHOWN_FAILURES = 3
TINY_VARIETY = '{"d": [1, 2, 1], "U3": [[1, 1]], "U2": [[1, 1]], "U1": [[2, 1]]}'


def load_package():
    """Import acmlines from this checkout's src/, or exit without a result."""
    if not (SRC / "acmlines" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'acmlines'}")
    sys.path.insert(0, str(SRC))
    import acmlines

    if Path(acmlines.__file__).resolve().parent != SRC / "acmlines":
        sys.exit(f"error: imported acmlines from {acmlines.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Run:
    """What one pass over a workload's rounds recorded."""

    def __init__(self):
        self.rounds: list[list[int]] = []  # op times in ns, per round
        self.round_ok: list[int] = []
        self.references: list[list[int]] = []  # reference times, per round
        self.kind_ops: Counter = Counter()
        self.kind_ns: Counter = Counter()
        self.failed = 0
        self.failures: list[str] = []
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.rounds)

    def scales(self) -> list[float]:
        """Per round, REFERENCE_NS over the median reference time in it."""
        return [REFERENCE_NS / statistics.median(ref) for ref in self.references]

    def latencies_ms(self) -> list[float]:
        return [
            ns * scale / 1e6
            for times, scale in zip(self.rounds, self.scales())
            for ns in times
        ]

    def time_scale(self) -> float:
        """Scaled op time over measured op time, for the whole run."""
        raw = [sum(times) for times in self.rounds]
        return sum(t * s for t, s in zip(raw, self.scales())) / sum(raw)

    def ops_per_s(self) -> float:
        """Median over rounds of correct ops per second of scaled op time.

        Every round has the same composition, so rounds are comparable,
        and the median is not moved by a few odd rounds.
        """
        return statistics.median(
            ok * 1e9 / (sum(times) * scale)
            for ok, times, scale in zip(self.round_ok, self.rounds, self.scales())
        )


def _reference_graph():
    rng = random.Random(1)
    vertices = [(family, i) for family in "ABC" for i in range(8)]
    adjacent = {v: set() for v in vertices}
    for u in vertices:
        for v in vertices:
            if u < v and rng.random() < 0.4:
                adjacent[u].add(v)
                adjacent[v].add(u)
    return vertices, adjacent


_REFERENCE_GRAPH = _reference_graph()


def reference_loop():
    """Fixed pure-Python work of the kinds the package does: a maximum
    cardinality search over a fixed 24-vertex graph, frozensets of edges
    and a few Fractions. It uses no acmlines code."""
    vertices, adjacent = _REFERENCE_GRAPH
    total = Fraction(0)
    for n in range(5):
        weight = {v: 0 for v in vertices}
        unvisited = set(vertices)
        while unvisited:
            v = max(unvisited, key=lambda u: (weight[u], u))
            unvisited.discard(v)
            for w in adjacent[v]:
                if w in unvisited:
                    weight[w] += 1
        edges = frozenset(frozenset((u, v)) for u in vertices for v in adjacent[u] if u < v)
        total += Fraction(len(edges), 7 + n)
    return total


def reference_ns() -> int:
    """One timing of reference_loop(), with the cyclic collector off so
    that only the machine's speed moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference_loop()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def measure(workload, seed, workdir, seconds=None, rounds=None, tracer=None) -> Run:
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are done.

    Only the op's call is timed. An op that raises or fails its check
    counts as failed and the run goes on. Between ops, at most every
    REFERENCE_EVERY_S, and at each round boundary the reference loop is
    timed; a round's scale uses the samples taken in it and at both ends.
    """
    run = Run()
    started = time.perf_counter()
    references = [reference_ns()]
    sampled = time.perf_counter()
    for ops in workload.rounds(random.Random(seed), workdir):
        # The inputs and the harness's own records are long-lived; frozen,
        # they are not rescanned by every full collection inside an op.
        # Collecting first keeps garbage out of the frozen set.
        gc.collect()
        gc.freeze()
        times = []
        ok = 0
        for op in ops:
            if time.perf_counter() - sampled >= REFERENCE_EVERY_S:
                references.append(reference_ns())
                sampled = time.perf_counter()
            run.inputs.update(op.key.encode() + b"\n")
            error = None
            t0 = time.perf_counter_ns()
            try:
                result = op.run() if tracer is None else tracer.op(op.run)
            except Exception:  # counted below; one bad op must not end the run
                error = traceback.format_exc()
            elapsed = time.perf_counter_ns() - t0
            if error is None:
                try:
                    run.outputs.update(op.check(result).encode() + b"\n")
                except Exception:  # a wrong output, counted like a raise
                    error = traceback.format_exc()
            times.append(elapsed)
            run.kind_ops[op.kind] += 1
            run.kind_ns[op.kind] += elapsed
            if error is None:
                ok += 1
            else:
                run.failed += 1
                run.outputs.update(b"failed\n")
                if len(run.failures) < SHOWN_FAILURES:
                    run.failures.append(error)
        boundary = reference_ns()
        sampled = time.perf_counter()
        run.rounds.append(times)
        run.round_ok.append(ok)
        run.references.append(references + [boundary])
        references = [boundary]
        if rounds is not None and len(run.rounds) >= rounds:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
    return run


def tail(samples):
    """(value, percentile, samples above it) for the highest percentile
    that has at least TAIL_BEYOND samples above it; the maximum when
    there are too few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def setup_seconds(first_op: str, tiny: str) -> float:
    """Median scaled wall time, over fresh interpreters, of ``import
    acmlines`` plus the workload's first op on a tiny input (any lazy
    set-up)."""
    probe = "\n".join([
        "import sys, time",
        "t0 = time.perf_counter()",
        f"sys.path.insert(0, {str(SRC)!r})",
        "import acmlines",
        f"X = acmlines.variety_from_json({TINY_VARIETY!r})",
        f"tiny = {tiny!r}",
        first_op,
        "print(time.perf_counter() - t0)",
    ])
    samples = []
    before = statistics.median(reference_ns() for _ in range(3))
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", probe],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = statistics.median(reference_ns() for _ in range(3))
        samples.append(float(done.stdout.split()[-1]) * 2 * REFERENCE_NS / (before + after))
        before = after
    return statistics.median(samples)


def end_to_end(run: Run, setup_s: float) -> dict:
    latencies_ms = run.latencies_ms()
    values = {
        "ops_per_s": run.ops_per_s(),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail(latencies_ms)[0],
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def untraced_ops_per_s(args) -> float:
    """ops_per_s of an untraced run of the same workload and seed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["metrics"]["ops_per_s"]["value"]


# ---------------------------------------------------------------------------
# provenance and report
# ---------------------------------------------------------------------------

def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "acmlines").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
    }


def print_run(run: Run):
    total = sum(run.kind_ns.values())
    for kind in sorted(run.kind_ops):
        print(
            f"  class {kind}: {run.kind_ops[kind]} ops "
            f"({100 * run.kind_ops[kind] / run.attempted:.1f}% of ops, "
            f"{100 * run.kind_ns[kind] / total:.1f}% of op time)"
        )
    references = [ns for ref in run.references for ns in ref]
    print(f"  reference loop: median {statistics.median(references) / 1e6:.4g} ms "
          f"(nominal {REFERENCE_NS / 1e6:.4g} ms), op times scaled by "
          f"{run.time_scale():.4g} overall")
    print(f"  rounds {len(run.rounds)}, inputs sha256 {run.inputs.hexdigest()}, "
          f"outputs sha256 {run.outputs.hexdigest()}")
    for error in run.failures:
        print(error, file=sys.stderr)


def print_end_to_end(run: Run, metrics: dict):
    _, percentile, beyond = tail(run.latencies_ms())
    notes = {
        "op_tail_ms": f"p{percentile:.2f}, {beyond} of {run.attempted} samples above it",
        "ok_ratio": f"failed_ratio {run.failed / run.attempted}: "
                    f"{run.failed} failed of {run.attempted} attempted",
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters, import + first op",
    }
    for name, unit in END_TO_END:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<12} {metrics[name]['value']:.6g} {unit}{note}")


def print_per_layer(metrics: dict, per_layer):
    for name, unit, _better, _value, moves, mostly_on, no_change_on in per_layer:
        print(f"  {name:<40} {metrics[name]['value']:<12.6g} {unit:<6} "
              f"moves {moves}; mostly on {mostly_on}; no change on {no_change_on}")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    load_package()
    import workloads
    from tracing import PER_LAYER, Tracer, install, layer_metrics, uninstall

    import acmlines

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = workloads.WORKLOADS[args.workload]
    warnings.simplefilter("ignore", acmlines.BoxTooSmallWarning)

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        print(f"acmlines benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds} s, trace {args.trace}")
        if args.trace == 0:
            tiny = os.path.join(workdir, "tiny.json")
            with open(tiny, "w", encoding="utf-8") as fh:
                fh.write(TINY_VARIETY)
            setup_s = setup_seconds(workload.first_op, tiny)
            run = measure(workload, args.seed, workdir, seconds=args.seconds)
            metrics = end_to_end(run, setup_s)
            print_end_to_end(run, metrics)
        else:
            untraced = untraced_ops_per_s(args)
            tracer = Tracer()
            patches = install(tracer)
            try:
                run = measure(workload, args.seed, workdir,
                              rounds=max(1, round(args.seconds / workload.round_s)),
                              tracer=tracer)
            finally:
                uninstall(patches)
            traced = run.ops_per_s()
            overhead = untraced / traced - 1 if traced else 0.0
            metrics = layer_metrics(tracer, run.attempted, run.time_scale(), overhead)
            print(f"  ops_per_s untraced {untraced:.6g}, traced {traced:.6g}")
            print_per_layer(metrics, PER_LAYER)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans)
            print(f"  {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    print_run(run)
    print("provenance " + json.dumps(provenance(args, workload), sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
