#!/usr/bin/env python3
"""Derive the generator degrees of a staircase of points from the
generator scan, independently of the closed-form corner rule.

The corner rule (points_generator_degrees) is the one-direction case of
the Ferrers degree rule: the minimal (a, b) with b >= p[a], rows past
the partition's end read as 0. For the partition given on the command
line, this script builds the staircase variety of points in two factors
(a one-hyperplane third family makes every row a line through the same
third coordinate), scans it for minimal generators with the
linear-algebra generator scan (generator_degree_scan), and prints the
degree pairs where new generators appear next to the rule's. It exits 1
when they differ. These scans are what froze the expected values in the
test suite: the corners of the staircase, read as (column gaps, row
lengths).
"""

import argparse
import sys

from acmlines import generator_degree_scan, make_variety, points_generator_degrees


def staircase_points_variety(partition):
    d1 = len(partition)
    d2 = partition[0] if partition else 0
    u3 = {(i + 1, j + 1) for i, row in enumerate(partition) for j in range(row)}
    return make_variety((max(d1, 1), max(d2, 1), 1), u3=u3 or {(1, 1)})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("partition", nargs="*", type=int, default=[5, 4, 3, 1],
                        help="weakly decreasing row sizes, e.g. 5 4 3 1")
    args = parser.parse_args(argv)

    partition = tuple(args.partition)
    if any(a < b for a, b in zip(partition, partition[1:])):
        parser.error("row sizes must be weakly decreasing")

    print("closed form:   ", sorted(points_generator_degrees(partition)))

    X = staircase_points_variety(partition)
    box = (len(partition) + 2, (partition[0] if partition else 0) + 2, 1)
    scan = generator_degree_scan(X, box)
    jumps = sorted((i, j) for (i, j, k), n in scan.items() if n and k == 0)
    print("generator scan:", jumps)
    return 0 if jumps == sorted(points_generator_degrees(partition)) else 1


if __name__ == "__main__":
    sys.exit(main())
