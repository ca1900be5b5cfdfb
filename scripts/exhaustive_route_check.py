#!/usr/bin/env python3
"""Exhaustively cross-check the three ACM routes on a small box, or on
seeded random draws with many hyperplanes per family.

Enumerates every subset of the possible lines over a box of hyperplanes
(2x2x2 by default, 12 lines; --box 2 2 3 gives 16 lines and 65,535
varieties), or, with --random N --dmax D --seed S, draws N varieties
with random_variety and N with random_ferrers_variety (sides up to D)
from one generator seeded with S; the draws reach boxes that no
exhaustive sweep can, where route 2's search prunes the most.  On each
variety it runs the chordality route, the hyperplane-subset route, and
the numeric multiplicity route, and reports any variety where the
routes disagree, or where acm_decision (route 1 alone, on bitmasks)
differs from their verdict.  Every route 2 pattern (lengths 4, 5, 6) is
also checked to be a chordless cycle of the complement graph.
Optionally also compares against the face-ring depth oracle (at most 14
used hyperplanes), and, on every ACM variety X, compares the two
linear-algebra oracles with the closed forms of X's Ferrers companion
C: the generator scan up to X.d against C's minimal degrees (one
generator each), and the Hilbert oracle against C's Hilbert function on
the box max(d_X, d_C) + 1.
"""

import argparse
import random
import sys
import time

from acmlines import (
    BadParameter,
    CriteriaDisagreement,
    SizeLimit,
    acm_decision,
    all_varieties,
    build_graph,
    complement,
    degree_sets,
    ferrers_companion,
    generator_degree_scan,
    has_hyp_star,
    hilbert_function,
    hilbert_oracle,
    is_acm,
    is_induced_cycle,
    random_ferrers_variety,
    random_variety,
    reisner_cm,
    stanley_reisner_complex,
    variety_to_dict,
)


def companion_split(X):
    """What differs between ACM X's two linear-algebra oracles and the
    closed forms of its Ferrers companion, or None when nothing does."""
    C = ferrers_companion(X)
    if generator_degree_scan(X, X.d) != {m: 1 for m in degree_sets(C).minimal}:
        return "generator degrees"
    box = tuple(max(a, b) + 1 for a, b in zip(X.d, C.d))
    if hilbert_oracle(X, box) != hilbert_function(C, box):
        return f"Hilbert function on {box}"
    return None


def random_draws(n, dmax, seed):
    """n random_variety draws, then n random_ferrers_variety draws, from
    one generator seeded with seed; raises BadParameter, before any
    draw, unless n >= 1 and dmax is a valid sampler side."""
    if n < 1:
        raise BadParameter(f"--random needs at least one draw, got {n}")
    rng = random.Random(seed)
    draws = [random_variety(rng, dmax) for _ in range(n)]
    return draws + [random_ferrers_variety(rng, dmax) for _ in range(n)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--with-oracle", action="store_true",
                        help="also compare against the face-ring depth oracle")
    parser.add_argument("--with-companion", action="store_true",
                        help="also compare the generator scan and the Hilbert "
                             "oracle with the Ferrers companion on ACM varieties")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--box", nargs=3, type=int, default=(2, 2, 2),
                        metavar=("I", "J", "K"),
                        help="hyperplanes per family (default 2 2 2)")
    source.add_argument("--random", type=int, metavar="N",
                        help="check N random_variety and N "
                             "random_ferrers_variety draws instead of a box")
    parser.add_argument("--dmax", type=int, default=12,
                        help="largest box side of the --random draws (default 12)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the --random draws (default 0)")
    args = parser.parse_args(argv)
    try:
        if args.random is None:
            population = all_varieties(args.box)
            label = f"of the {tuple(args.box)} box"
        else:
            population = random_draws(args.random, args.dmax, args.seed)
            label = (f"drawn at random ({args.random} + {args.random}, "
                     f"dmax {args.dmax}, seed {args.seed})")
    except (BadParameter, SizeLimit) as exc:
        parser.error(str(exc))

    started = time.monotonic()
    total = acm = disagreements = oracle_splits = 0
    witnesses = bad_witnesses = decision_splits = companion_splits = 0
    for X in population:
        total += 1
        try:
            verdict = is_acm(X)
        except CriteriaDisagreement as exc:
            disagreements += 1
            print("ROUTE DISAGREEMENT:", variety_to_dict(X), exc)
            continue
        if verdict.acm:
            acm += 1
        if acm_decision(X) != verdict.acm:
            decision_splits += 1
            print("DECISION DISAGREEMENT:", variety_to_dict(X),
                  "routes say", verdict.acm)
        Gc = complement(build_graph(X))
        for n in (4, 5, 6):
            _, witness = has_hyp_star(X, n)
            if witness is not None:
                witnesses += 1
                if not is_induced_cycle(Gc, witness):
                    bad_witnesses += 1
                    print("BAD PATTERN:", variety_to_dict(X), n, witness)
        if args.with_oracle:
            cm = reisner_cm(stanley_reisner_complex(X))
            if cm != verdict.acm:
                oracle_splits += 1
                print("ORACLE DISAGREEMENT:", variety_to_dict(X),
                      "routes say", verdict.acm, "oracle says", cm)
        if args.with_companion and verdict.acm:
            split = companion_split(X)
            if split:
                companion_splits += 1
                print("COMPANION DISAGREEMENT:", variety_to_dict(X), split)

    elapsed = time.monotonic() - started
    print(f"checked {total} varieties {label} "
          f"in {elapsed:.1f}s: "
          f"{acm} ACM, {disagreements} route disagreements, "
          f"{decision_splits} acm_decision splits, "
          f"{witnesses} patterns checked ({bad_witnesses} not chordless cycles)"
          + (f", {oracle_splits} oracle splits" if args.with_oracle else "")
          + (f", {companion_splits} companion splits" if args.with_companion else ""))
    failed = (disagreements or decision_splits or oracle_splits or bad_witnesses
              or companion_splits)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
