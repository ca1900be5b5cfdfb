#!/usr/bin/env python3
"""Exhaustively cross-check the three ACM routes on a small box.

Enumerates every subset of the 12 possible lines over a 2x2x2 box of
hyperplanes, runs the chordality route, the hyperplane-subset route,
and the numeric multiplicity route on each, and reports any variety
where the routes disagree.  Optionally also compares against the
face-ring depth oracle.
"""

import argparse
import sys
import time

from acmlines import (
    CriteriaDisagreement,
    all_varieties,
    is_acm,
    reisner_cm,
    stanley_reisner_complex,
    variety_to_dict,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--with-oracle", action="store_true",
                        help="also compare against the face-ring depth oracle")
    args = parser.parse_args(argv)

    started = time.monotonic()
    total = acm = disagreements = oracle_splits = 0
    for X in all_varieties():
        total += 1
        try:
            verdict = is_acm(X)
        except CriteriaDisagreement as exc:
            disagreements += 1
            print("ROUTE DISAGREEMENT:", variety_to_dict(X), exc)
            continue
        if verdict.acm:
            acm += 1
        if args.with_oracle:
            cm = reisner_cm(stanley_reisner_complex(X))
            if cm != verdict.acm:
                oracle_splits += 1
                print("ORACLE DISAGREEMENT:", variety_to_dict(X),
                      "routes say", verdict.acm, "oracle says", cm)

    elapsed = time.monotonic() - started
    print(f"checked {total} varieties in {elapsed:.1f}s: "
          f"{acm} ACM, {disagreements} route disagreements"
          + (f", {oracle_splits} oracle splits" if args.with_oracle else ""))
    return 1 if disagreements or oracle_splits else 0


if __name__ == "__main__":
    sys.exit(main())
