"""Command-line interface.

Subcommands:

* ``check``: ACM verdict by all three criteria (exit 0 = ACM, 1 = not
  ACM, 2 = input error, 3 = criteria disagreement). ``--oracle`` also
  runs the face-ring test; ``--witness`` prints the certificate;
  ``--dot PATH`` writes the complement graph in DOT format ('-' for
  stdout).
* ``ferrers``: per-direction staircase resemblance, partitions, and
  the consistent relabeling if one exists.
* ``hilbert``: CSV table ``i,j,k,deltaH,H`` over a box, by the
  staircase formula (``--method corollary``) or the linear-algebra
  oracle (``--method oracle``).
* ``gens``: minimal generator degrees and explicit products.
* ``grid``: variety JSON of the grid of lines through a point set.
* ``ci``: complete-intersection detection (two minimal generators).
* ``render``: dot diagrams of the three direction index sets.
* ``hf-experiment``: seeded companion Hilbert-function experiment.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from functools import cache

from .criteria import is_acm
from .errors import AcmLinesError, CriteriaDisagreement
from .experiment import run_hf_experiment
from .ferrers import (
    detect_complete_intersection,
    hilbert_difference,
    hilbert_function,
    is_ferrers_variety,
    is_literal_ferrers,
    minimal_generators,
    resembles_ferrers,
)
from .graphs import build_graph, complement, graph_to_dot
from .oracles import _boxrange, hilbert_oracle, reisner_cm, stanley_reisner_complex
from .variety import (
    grid_from_points,
    points_from_json,
    render,
    variety_from_json,
    variety_to_dict,
)


def _load_variety(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return variety_from_json(fh.read())


def cmd_check(args) -> int:
    X = _load_variety(args.variety)
    verdict = is_acm(X)
    payload = verdict.to_dict()
    if not args.witness:
        payload.pop("witness")
    print(json.dumps(payload, sort_keys=True))
    if args.witness and verdict.cycle_witness is not None:
        cycle = " ".join(str(v) for v in verdict.cycle_witness)
        print(f"chordless cycle in complement: {cycle}")
    if args.oracle:
        cx = stanley_reisner_complex(X)
        oracle_verdict = reisner_cm(cx)
        print(f"face-ring oracle: {'CM' if oracle_verdict else 'not CM'}")
        if oracle_verdict != verdict.acm:
            raise CriteriaDisagreement(
                f"face-ring oracle says {oracle_verdict}, criteria say "
                f"{verdict.acm}"
            )
    if args.dot:
        dot = graph_to_dot(complement(build_graph(X)), name="complement")
        if args.dot == "-":
            print(dot)
        else:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot + "\n")
    return 0 if verdict.acm else 1


def cmd_ferrers(args) -> int:
    X = _load_variety(args.variety)
    out = {"directions": {}}
    for h in (3, 2, 1):
        ok, partition = resembles_ferrers(X, h)
        out["directions"][str(h)] = {
            "resembles": ok,
            "literal": is_literal_ferrers(X, h),
            "partition": list(partition),
        }
    check = is_ferrers_variety(X)
    out["ferrers_variety"] = check.ok
    out["relabeling"] = (
        [list(p) for p in check.perms] if check.ok else None
    )
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_hilbert(args) -> int:
    X = _load_variety(args.variety)
    box = tuple(args.box)
    H = (hilbert_function if args.method == "corollary" else hilbert_oracle)(X, box)
    delta = hilbert_difference(H)
    if args.format == "json":
        print(json.dumps({"box": list(box), "deltaH": delta, "H": H}, sort_keys=True))
        return 0
    print("i,j,k,deltaH,H")
    for i, j, k in _boxrange(box):
        print(f"{i},{j},{k},{delta[i][j][k]},{H[i][j][k]}")
    return 0


def cmd_gens(args) -> int:
    X = _load_variety(args.variety)
    gens = minimal_generators(X)
    out = {
        "degrees": [list(d) for d in gens.degrees],
        "products": list(gens.products),
        "relabeling": (
            [list(p) for p in gens.relabeling] if gens.relabeling else None
        ),
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_grid(args) -> int:
    with open(args.points, "r", encoding="utf-8") as fh:
        points = points_from_json(fh.read())
    X = grid_from_points(points)
    print(json.dumps(variety_to_dict(X), sort_keys=True))
    return 0


def cmd_ci(args) -> int:
    X = _load_variety(args.variety)
    ci = detect_complete_intersection(X)
    payload = {"complete_intersection": ci is not None}
    if ci is not None:
        payload["degrees"] = [list(d) for d in ci.degrees]
        payload["products"] = list(ci.products)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_render(args) -> int:
    X = _load_variety(args.variety)
    directions = (3, 2, 1) if args.direction == "all" else (int(args.direction),)
    for h in directions:
        print(f"direction {h}:")
        diagram = render(X, h)
        print(diagram if diagram else "(empty)")
    return 0


def cmd_hf_experiment(args) -> int:
    report = run_hf_experiment(
        trials=args.trials,
        dmax=args.dmax,
        box=tuple(args.box),
        seed=args.seed,
        p=args.p,
        out_dir=args.out_dir,
    )
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acmlines",
        description="ACM tests and Hilbert functions for unions of "
        "coordinate lines in a product of three projective lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="ACM verdict by all three criteria")
    p.add_argument("variety", help="variety JSON file")
    p.add_argument("--oracle", action="store_true", help="also run the face-ring test")
    p.add_argument("--witness", action="store_true", help="print the certificate")
    p.add_argument("--dot", metavar="PATH", help="write complement graph DOT ('-' = stdout)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ferrers", help="staircase resemblance per direction")
    p.add_argument("variety")
    p.set_defaults(func=cmd_ferrers)

    p = sub.add_parser("hilbert", help="Hilbert function table as CSV or JSON")
    p.add_argument("variety")
    p.add_argument("--box", nargs=3, type=int, default=[6, 6, 6], metavar=("I", "J", "K"))
    p.add_argument("--method", choices=("corollary", "oracle"), default="corollary")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("gens", help="minimal generators of the line ideal")
    p.add_argument("variety")
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("grid", help="grid of lines through a point set")
    p.add_argument("points", help="points JSON file")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ci", help="complete-intersection detection")
    p.add_argument("variety")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("render", help="dot diagrams of the index sets")
    p.add_argument("variety")
    p.add_argument("--direction", choices=("1", "2", "3", "all"), default="all")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("hf-experiment", help="companion Hilbert-function experiment")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--box", nargs=3, type=int, default=[4, 4, 4], metavar=("I", "J", "K"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--p", type=float, default=0.4, help="line probability")
    p.add_argument("--out-dir", default=None, help="directory for counterexample artifacts")
    p.set_defaults(func=cmd_hf_experiment)

    return parser


def _warn_one_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it as it
    was, so every main call can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warn_one_line
        try:
            return args.func(args)
        except CriteriaDisagreement as exc:
            print(f"criteria disagreement: {exc}", file=sys.stderr)
            return 3
        except (AcmLinesError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
