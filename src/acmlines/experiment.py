"""Seeded experiment: does the staircase companion preserve the
Hilbert function of an ACM variety?

Each trial rejection-samples a random ACM variety, builds its
companion, and compares the oracle Hilbert function of the variety
against the combinatorial Hilbert function of the companion over a
box. Disagreements are never raised; they are recorded (and optionally
written to JSON artifact files) as counterexample candidates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .criteria import acm_decision, is_acm
from .ferrers import ferrers_companion, hilbert_function
from .errors import BadParameter, CriteriaDisagreement
from .oracles import _boxrange, hilbert_oracle
from .sampling import check_sampling, random_variety
from .variety import (
    _is_int,
    check_table_box,
    variety_to_dict,
    variety_to_json,
)

ATTEMPTS_PER_TRIAL = 1000


@dataclass(frozen=True)
class HfCounterexample:
    variety: dict
    companion: dict
    degree: tuple[int, int, int]
    variety_value: int
    companion_value: int

    def to_dict(self) -> dict:
        return {
            "variety": self.variety,
            "companion": self.companion,
            "degree": list(self.degree),
            "variety_value": self.variety_value,
            "companion_value": self.companion_value,
        }


@dataclass
class ExperimentReport:
    trials: int
    box: tuple[int, int, int]
    seed: int | None
    acm_found: int = 0
    companions_built: int = 0
    successes: int = 0
    failures: int = 0
    counterexamples: list = field(default_factory=list)
    artifact_paths: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "box": list(self.box),
            "seed": self.seed,
            "acm_found": self.acm_found,
            "companions_built": self.companions_built,
            "successes": self.successes,
            "failures": self.failures,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "artifacts": [str(p) for p in self.artifact_paths],
        }


def _first_difference(ha, hb, box):
    for i, j, k in _boxrange(box):
        if ha[i][j][k] != hb[i][j][k]:
            return (i, j, k), ha[i][j][k], hb[i][j][k]
    return None


def run_hf_experiment(
    trials: int,
    dmax: int = 3,
    box=(4, 4, 4),
    seed: int | None = None,
    p: float = 0.4,
    out_dir=None,
) -> ExperimentReport:
    """Run the companion Hilbert-function comparison.

    Deterministic for a fixed seed. Sampled candidates are screened by
    acm_decision (route 1 alone); a trial that finds no ACM candidate
    in ATTEMPTS_PER_TRIAL draws is skipped. Every accepted variety then
    goes through is_acm once, so all three routes agree on each variety
    the report counts; a disagreement raises CriteriaDisagreement.
    """
    if not (_is_int(trials) and trials >= 0):
        raise BadParameter(f"trials must be a non-negative integer, got {trials!r}")
    box = check_table_box(box)
    check_sampling(dmax, p)
    rng = random.Random(seed)
    report = ExperimentReport(trials=trials, box=box, seed=seed)
    for trial in range(trials):
        for _ in range(ATTEMPTS_PER_TRIAL):
            X = random_variety(rng, dmax, p)
            if acm_decision(X):
                break
        else:
            continue
        if not is_acm(X).acm:
            raise CriteriaDisagreement(
                f"acm_decision accepts {variety_to_json(X)}, is_acm rejects it"
            )
        report.acm_found += 1
        companion = ferrers_companion(X)
        report.companions_built += 1
        h_variety = hilbert_oracle(X, box)
        h_companion = hilbert_function(companion, box)
        diff = _first_difference(h_variety, h_companion, box)
        if diff is None:
            report.successes += 1
            continue
        report.failures += 1
        degree, va, vc = diff
        counterexample = HfCounterexample(
            variety=variety_to_dict(X),
            companion=variety_to_dict(companion),
            degree=degree,
            variety_value=va,
            companion_value=vc,
        )
        report.counterexamples.append(counterexample)
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"hf_counterexample_{trial:05d}.json"
            path.write_text(
                json.dumps(counterexample.to_dict(), indent=2, sort_keys=True)
            )
            report.artifact_paths.append(path)
    return report
