#!/usr/bin/env python3
"""Exhaustively cross-check the three ACM routes on a small box.

Enumerates every subset of the possible lines over a box of hyperplanes
(2x2x2 by default, 12 lines; --box 2 2 3 gives 16 lines and 65,535
varieties), runs the chordality route, the hyperplane-subset route,
and the numeric multiplicity route on each, and reports any variety
where the routes disagree, or where acm_decision (route 1 alone, on
bitmasks) differs from their verdict.  Every route 2 pattern (lengths 4,
5, 6) is also checked to be a chordless cycle of the complement graph.
Optionally also compares against the face-ring depth oracle.
"""

import argparse
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
    has_hyp_star,
    is_acm,
    is_induced_cycle,
    reisner_cm,
    stanley_reisner_complex,
    variety_to_dict,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--with-oracle", action="store_true",
                        help="also compare against the face-ring depth oracle")
    parser.add_argument("--box", nargs=3, type=int, default=(2, 2, 2),
                        metavar=("I", "J", "K"),
                        help="hyperplanes per family (default 2 2 2)")
    args = parser.parse_args(argv)
    try:
        population = all_varieties(args.box)
    except (BadParameter, SizeLimit) as exc:
        parser.error(str(exc))

    started = time.monotonic()
    total = acm = disagreements = oracle_splits = 0
    witnesses = bad_witnesses = decision_splits = 0
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

    elapsed = time.monotonic() - started
    print(f"checked {total} varieties of the {tuple(args.box)} box "
          f"in {elapsed:.1f}s: "
          f"{acm} ACM, {disagreements} route disagreements, "
          f"{decision_splits} acm_decision splits, "
          f"{witnesses} patterns checked ({bad_witnesses} not chordless cycles)"
          + (f", {oracle_splits} oracle splits" if args.with_oracle else ""))
    failed = disagreements or decision_splits or oracle_splits or bad_witnesses
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
