"""The four workloads: seeded input streams, the timed call, the check.

A workload is a stream of rounds. A round is a list of ops with a fixed
composition, drawn fresh from the seeded generator; the runner always
finishes the round it is in, so every run measures the same mix. An op
is one timed call into the public ``acmlines`` API. Its check runs
untimed after the call, computes any expected value independently, and
returns the op's output as canonical text, for the output digest, or
raises ``WrongOutput``; so a package bug fails ops instead of the run.

Rounds are stratified: each takes a fixed number of inputs per
hyperplane-count shape, size bucket or line count, and only the rest is
random. Cost grows steeply with size, so drawing sizes freely would let
a few inputs decide a run's figures.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import os
from typing import Callable, NamedTuple

import acmlines
import acmlines.cli


class WrongOutput(Exception):
    """An op returned, but its output fails the workload's check."""


class Op(NamedTuple):
    kind: str  # input class, for the per-class shares
    key: str  # canonical input text, for the input digest
    run: Callable[[], object]
    check: Callable[[object], str]


class Workload(NamedTuple):
    rounds: Callable  # rounds(rng, workdir) -> iterator of lists of Op
    params: dict
    round_s: float  # wall seconds of one traced round on 2 CPUs, Python 3.11
    first_op: str  # probe source run right after `import acmlines`


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def _cells(parts):
    return {(r, c) for r, size in enumerate(parts, 1) for c in range(1, size + 1)}


def _partition(rng, rows, first):
    """Weakly decreasing parts: exactly ``rows`` of them, the first ``first``."""
    return [first] + sorted((rng.randint(1, first) for _ in range(rows - 1)), reverse=True)


def ferrers_with_d(rng, d):
    """A literal Ferrers variety whose hyperplane counts are exactly ``d``.

    The A x B staircase has d1 rows and a first row of d2, the A x C
    staircase a first row of d3; the other sizes are random.
    """
    d1, d2, d3 = d
    return acmlines.make_variety(
        d,
        _cells(_partition(rng, d1, d2)),
        _cells(_partition(rng, rng.randint(1, d1), d3)),
        _cells(_partition(rng, rng.randint(1, d2), rng.randint(1, d3))),
    )


def random_lines(rng, d, m):
    """m lines drawn uniformly from the box ``d``, redrawn until every
    hyperplane is used, so the variety is compact with shape d."""
    d1, d2, d3 = d
    cells = [(3, (i, j)) for i in range(1, d1 + 1) for j in range(1, d2 + 1)]
    cells += [(2, (i, k)) for i in range(1, d1 + 1) for k in range(1, d3 + 1)]
    cells += [(1, (j, k)) for j in range(1, d2 + 1) for k in range(1, d3 + 1)]
    while True:
        X = _from_cells(d, rng.sample(cells, m))
        if X.is_compact():
            return X


def _from_cells(d, chosen):
    return acmlines.make_variety(
        d,
        [c for h, c in chosen if h == 3],
        [c for h, c in chosen if h == 2],
        [c for h, c in chosen if h == 1],
    )


def half_box(d):
    """Half the lines of the box d, rounded down."""
    d1, d2, d3 = d
    return (d1 * d2 + d1 * d3 + d2 * d3) // 2


def stratified(rng, draw, bucket, quotas):
    """Inputs from ``draw(rng)`` until bucket b holds quotas[b] of them.

    Draws that land in a full bucket are dropped, so each round has the
    same composition while the inputs keep the sampler's distribution
    within each bucket.
    """
    need = list(quotas)
    out = []
    while any(need):
        X = draw(rng)
        b = bucket(X)
        if need[b]:
            need[b] -= 1
            out.append(X)
    return out


def pad(rng, X, extra):
    """Re-declare a compact X with ``extra`` unused hyperplanes per family.

    Used indices move to a random increasing subset of 1..d+extra, so
    compaction gives X back exactly.
    """
    maps = []
    for n in X.d:
        new = sorted(rng.sample(range(1, n + extra + 1), n))
        maps.append(dict(zip(range(1, n + 1), new)))
    a, b, c = maps
    return acmlines.make_variety(
        tuple(n + extra for n in X.d),
        {(a[i], b[j]) for i, j in X.U3},
        {(a[i], c[k]) for i, k in X.U2},
        {(b[j], c[k]) for j, k in X.U1},
    )


def all_small_varieties():
    """Every nonempty variety on the (2, 2, 2) box, compacted (4,095)."""
    cells = [(3, (i, j)) for i in (1, 2) for j in (1, 2)]
    cells += [(2, (i, k)) for i in (1, 2) for k in (1, 2)]
    cells += [(1, (j, k)) for j in (1, 2) for k in (1, 2)]
    return [
        acmlines.compact(_from_cells(
            (2, 2, 2), [cells[b] for b in range(len(cells)) if bits >> b & 1]
        ))
        for bits in range(1, 1 << len(cells))
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _routes(verdict):
    return verdict.acm, verdict.chordal, verdict.hyp, verdict.numeric


def _verdict_text(X, verdict):
    """Check the witness of an ACM verdict and return the verdict as text."""
    witness = verdict.cycle_witness
    if verdict.acm != (witness is None):
        raise WrongOutput(f"acm={verdict.acm} with witness {witness}")
    if witness is not None:
        G = acmlines.complement(acmlines.build_graph(X))
        if not acmlines.is_induced_cycle(G, witness):
            raise WrongOutput(f"witness {witness} is not an induced cycle")
    return json.dumps(verdict.to_dict(), sort_keys=True)


def _decide_op(kind, X, compact=None):
    def check(verdict):
        text = _verdict_text(X, verdict)
        if kind == "a" and not verdict.acm:
            raise WrongOutput("a Ferrers variety judged not ACM")
        if compact is not None and _routes(verdict) != _routes(acmlines.is_acm(compact)):
            raise WrongOutput("verdict differs from the compact form's")
        return text

    return Op(kind, acmlines.variety_to_json(X), lambda: acmlines.is_acm(X), check)


# ---------------------------------------------------------------------------
# decide: the three-route ACM decision, no linear algebra
# ---------------------------------------------------------------------------

# (a) ACM Ferrers varieties, one per shape, dmax 6-12: route 2 must
# search exhaustively. The largest shape comes twice, so the run's tail
# rests on some 40 inputs of one shape. (c) compact inputs, a Ferrers one and one with
# half the lines of the box, re-declared with unused hyperplanes.
# (b) random_variety(8, p=0.5), mostly non-ACM and cheap, in buckets of
# total hyperplanes (<= 8, 9-12, 13-15, 16-18, >= 19) with quotas near
# the sampler's own shares; 88 of 99 ops, so op_p50_ms falls in class b.
DECIDE = dict(
    a_shapes=((6, 6, 6), (6, 8, 7), (8, 8, 8), (10, 12, 12), (10, 12, 12)),
    c_shape=(4, 4, 4),
    c_pads=(4, 6, 8),
    b_dmax=8,
    b_p=0.5,
    b_bucket_edges=(9, 13, 16, 19),
    b_quotas=(12, 24, 24, 20, 8),
)


def decide_rounds(rng, workdir):
    c_shape = DECIDE["c_shape"]
    while True:
        ops = [_decide_op("a", ferrers_with_d(rng, d)) for d in DECIDE["a_shapes"]]
        for k in DECIDE["c_pads"]:
            for X in (ferrers_with_d(rng, c_shape), random_lines(rng, c_shape, half_box(c_shape))):
                ops.append(_decide_op("c", pad(rng, X, k), X))
        ops += [
            _decide_op("b", X)
            for X in stratified(
                rng,
                lambda rng: acmlines.random_variety(rng, DECIDE["b_dmax"], DECIDE["b_p"]),
                lambda X: bisect.bisect_right(DECIDE["b_bucket_edges"], sum(X.d)),
                DECIDE["b_quotas"],
            )
        ]
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# scan: generator scan plus rank Hilbert oracle, mostly linalg
# ---------------------------------------------------------------------------

# The scan's work is almost a linear function of the line count (about
# 140k nonzeros through sparse_rank at 5 lines, 115k at 9, 95k at 13),
# so every input has the sampler's median line count and a run's figures
# do not hang on how many small or large staircases it drew.
SCAN = dict(dmax=3, box=(6, 6, 6), lines=9, ops_per_round=3)


def _scan_op(X):
    box = SCAN["box"]

    def run():
        return acmlines.generator_degree_scan(X, box), acmlines.hilbert_oracle(X, box)

    def check(result):
        scan, oracle = result
        generators = {deg: 1 for deg in acmlines.degree_sets(X).minimal}
        if {deg: n for deg, n in scan.items() if n} != generators:
            raise WrongOutput("generator scan differs from degree_sets")
        if oracle != acmlines.hilbert_function(X, box):
            raise WrongOutput("hilbert_oracle differs from hilbert_function")
        return json.dumps([sorted(scan.items()), oracle])

    return Op("scan", acmlines.variety_to_json(X), run, check)


def scan_rounds(rng, workdir):
    while True:
        ops = []
        while len(ops) < SCAN["ops_per_round"]:
            X = acmlines.random_ferrers_variety(rng, SCAN["dmax"])
            if X.line_count == SCAN["lines"]:
                ops.append(_scan_op(X))
        yield ops


# ---------------------------------------------------------------------------
# experiment: one companion trial per op, callers need only .acm
# ---------------------------------------------------------------------------

EXPERIMENT = dict(trials=1, dmax=6, p=0.4, box=(4, 4, 4))
EXPERIMENT_OPS_PER_ROUND = 20


def _experiment_op(seed):
    def run():
        return acmlines.run_hf_experiment(seed=seed, **EXPERIMENT)

    def check(report):
        if report.trials != 1 or (
            report.successes + report.failures != report.companions_built
        ):
            raise WrongOutput(f"inconsistent report {report.to_dict()}")
        return json.dumps(report.to_dict(), sort_keys=True)

    return Op("trial", str(seed), run, check)


def experiment_rounds(rng, workdir):
    while True:
        yield [_experiment_op(rng.getrandbits(63)) for _ in range(EXPERIMENT_OPS_PER_ROUND)]


# ---------------------------------------------------------------------------
# audit: tiny repeated inputs plus the CLI face-ring check
# ---------------------------------------------------------------------------

# CLI inputs have half the lines of their box. Reisner's test costs
# about four times more per extra vertex (on 2 CPUs, Python 3.11: 7
# vertices ~6 ms, 8 ~25 ms with a wide spread, 11 ~5 s), so the shapes
# stop at 7 vertices and the run's tail is not decided by a handful of
# inputs. Each pass over the shuffled population is split into rounds;
# each round carries cli_per_shape CLI ops per shape, spread evenly
# among the is_acm ops.
AUDIT = dict(
    cli_shapes=((2, 2, 2), (1, 2, 4), (2, 2, 3), (1, 3, 3)),
    cli_per_shape=3,
    rounds_per_pass=4,
)


def _audit_small_op(X):
    return Op("small", acmlines.variety_to_json(X), lambda: acmlines.is_acm(X),
              lambda verdict: _verdict_text(X, verdict))


def _audit_cli_op(X, path):
    argv = ["check", "--oracle", "--witness", path]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = acmlines.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code not in (0, 1):
            raise WrongOutput(f"exit code {code}")
        cm = acmlines.reisner_cm(acmlines.stanley_reisner_complex(X))
        if (code == 0) != cm:
            raise WrongOutput(f"exit code {code} but reisner_cm says {cm}")
        return f"{code}\n{text}"

    return Op("cli", acmlines.variety_to_json(X), run, check)


def _audit_cli_ops(rng, workdir):
    ops = []
    for slot, d in enumerate(AUDIT["cli_shapes"] * AUDIT["cli_per_shape"]):
        X = random_lines(rng, d, half_box(d))
        path = os.path.join(workdir, f"cli-{slot}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(acmlines.variety_to_json(X))
        ops.append(_audit_cli_op(X, path))
    return ops


def audit_rounds(rng, workdir):
    population = all_small_varieties()
    parts = AUDIT["rounds_per_pass"]
    while True:
        shuffled = rng.sample(population, len(population))
        for part in range(parts):
            small = [_audit_small_op(X) for X in shuffled[part::parts]]
            cli_ops = _audit_cli_ops(rng, workdir)
            step = len(small) // len(cli_ops)
            ops = []
            for n, op in enumerate(cli_ops):
                ops += small[n * step:(n + 1) * step]
                ops.append(op)
            ops += small[len(cli_ops) * step:]
            yield ops


_CLI_FIRST_OP = """
import contextlib, io
import acmlines.cli
with contextlib.redirect_stdout(io.StringIO()):
    acmlines.cli.main(["check", "--oracle", "--witness", tiny])
"""

WORKLOADS = {
    "decide": Workload(decide_rounds, DECIDE, 1.75, "acmlines.is_acm(X)"),
    "scan": Workload(
        scan_rounds, SCAN, 3.3,
        "acmlines.generator_degree_scan(X, (1, 1, 1)); acmlines.hilbert_oracle(X, (1, 1, 1))",
    ),
    "experiment": Workload(
        experiment_rounds, dict(EXPERIMENT, ops_per_round=EXPERIMENT_OPS_PER_ROUND), 0.34,
        "acmlines.run_hf_experiment(trials=1, dmax=2, box=(1, 1, 1), seed=0)",
    ),
    "audit": Workload(audit_rounds, AUDIT, 0.9, _CLI_FIRST_OP),
}
