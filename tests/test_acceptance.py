"""Acceptance gate: one test per shipped criterion.

Each test prints a single PASS line on success; pytest -v shows one
verdict line per criterion either way.  Time budgets are asserted
where the criterion states one.
"""

import time
import warnings

import pytest

from acmlines import (
    BoxTooSmallWarning,
    EMPTY_VARIETY,
    UnusedHyperplaneWarning,
    build_graph,
    complement,
    criterion_hyp6_numeric,
    degree_sets,
    delta_hilbert,
    detect_complete_intersection,
    ferrers_companion,
    generator_degree_scan,
    grid_from_points,
    grid_resolution,
    has_hyp_star,
    hilbert_function,
    hilbert_oracle,
    is_acm,
    is_induced_cycle,
    minimal_generators,
    multiplicity_tensor,
    remove_hyperplane,
    resembles_ferrers,
    run_hf_experiment,
    validate,
)
from acmlines.sampling import random_ferrers_variety
from conftest import (
    CI_EXAMPLE,
    CORNER,
    FIFTEEN_LINES,
    FULL_BOX_432,
    REPAIRED_TRIPLE_POINTS,
    SKEW_CORNER,
    TWO_TRIPLE_POINTS,
)

import random


def test_criterion_01_worked_examples():
    started = time.monotonic()

    # (a) fifteen lines: the A x B slice is a relabeled staircase of
    # shape (5, 4, 3, 1), the B x C slice is not; the variety is not ACM.
    ok3, parts3 = resembles_ferrers(FIFTEEN_LINES, 3)
    assert ok3 and parts3 == (5, 4, 3, 1)
    ok1, _ = resembles_ferrers(FIFTEEN_LINES, 1)
    assert not ok1
    assert not is_acm(FIFTEEN_LINES).acm

    # (b) diagonal pair plus one skew line, given with a gap in the
    # C-labels.  The B x C and A x C slices are staircases, the A x B
    # slice is a diagonal pair and is not; the variety is not ACM and
    # the verdict carries a chordless-cycle certificate.
    raw = {"d": [2, 3, 3], "U3": [[1, 1], [2, 2]], "U2": [], "U1": [[3, 3]]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnusedHyperplaneWarning)
        X = validate(raw)
    assert resembles_ferrers(X, 1)[0]
    assert resembles_ferrers(X, 2)[0]
    assert not resembles_ferrers(X, 3)[0]
    verdict = is_acm(X)
    assert not verdict.acm
    assert verdict.cycle_witness is not None
    assert is_induced_cycle(complement(build_graph(X)), verdict.cycle_witness)

    # (c) two triple points on disjoint coordinates: tensor entries,
    # slice matrices, failure of the six-hyperplane condition.
    M = multiplicity_tensor(TWO_TRIPLE_POINTS)
    assert M.mu(1, 1, 1) == 3 and M.mu(2, 2, 2) == 3
    assert all(
        M.mu(i, j, k) == 2
        for (i, j, k) in [
            (1, 1, 2), (1, 2, 1), (2, 1, 1),
            (1, 2, 2), (2, 1, 2), (2, 2, 1),
        ]
    )
    assert M.slice_matrix(3) == ((1, 1), (0, 1))
    assert M.slice_matrix(2) == ((1, 0), (1, 1))
    assert M.slice_matrix(1) == ((1, 1), (0, 1))
    assert not criterion_hyp6_numeric(M)[0]
    assert not has_hyp_star(TWO_TRIPLE_POINTS, 6)[0]
    assert not is_acm(TWO_TRIPLE_POINTS).acm

    # (d) adding the line L(A2, B1) repairs it: every criterion passes.
    W = REPAIRED_TRIPLE_POINTS
    MW = multiplicity_tensor(W)
    assert all(MW.mu(*t) == 3 for t in [(1, 1, 1), (2, 2, 2), (2, 1, 1), (2, 1, 2)])
    assert all(MW.mu(*t) == 2 for t in [(1, 2, 1), (2, 2, 1), (1, 1, 2), (1, 2, 2)])
    verdict = is_acm(W)
    assert verdict.acm
    assert all(verdict.hyp.values()) and all(verdict.numeric.values())

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: worked examples exact ({elapsed:.3f}s)")


def test_criterion_02_staircase_generators_and_hilbert():
    started = time.monotonic()

    ds = degree_sets(FULL_BOX_432)
    assert set(ds.minimal) == {(4, 3, 0), (4, 0, 2), (0, 3, 2)}
    gens = minimal_generators(FULL_BOX_432)
    assert set(gens.products) == {
        "A1*A2*A3*A4*B1*B2*B3",
        "A1*A2*A3*A4*C1*C2",
        "B1*B2*B3*C1*C2",
    }

    box = (5, 4, 3)
    delta = delta_hilbert(FULL_BOX_432, box)
    for i in range(box[0] + 1):
        for j in range(box[1] + 1):
            for k in range(box[2] + 1):
                dominated = (
                    (i >= 4 and j >= 3)
                    or (i >= 4 and k >= 2)
                    or (j >= 3 and k >= 2)
                )
                assert delta[i][j][k] == (0 if dominated else 1)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"PASS criterion 2: generator set and first difference ({elapsed:.3f}s)")


def test_criterion_03_complete_intersections_and_grids():
    started = time.monotonic()

    ci = detect_complete_intersection(CI_EXAMPLE)
    assert ci is not None
    assert ci.degrees == ((0, 3, 0), (4, 0, 2))

    res = grid_resolution(2, 3, 2)
    assert res.syzygy_twists == ((-2, -3, -2), (-2, -3, -2))
    assert res.generator_twists == ((-2, -3, 0), (-2, 0, -2), (0, -3, -2))

    pts = [
        (i, j, k)
        for i in range(1, 3)
        for j in range(1, 4)
        for k in range(1, 3)
    ]
    grid = grid_from_points(pts)
    assert (len(grid.U3), len(grid.U2), len(grid.U1)) == (6, 4, 6)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"PASS criterion 3: complete intersections and grids ({elapsed:.3f}s)")


def test_criterion_04_route_consistency_exhaustive(route_verdicts):
    started = time.monotonic()

    verdicts, disagreements = route_verdicts
    assert disagreements == []
    assert len(verdicts) == 4095  # every nonempty subset of the small box
    for X, v in verdicts:
        assert v.acm == v.chordal
        assert v.acm == all(v.hyp.values())
        assert v.acm == all(v.numeric.values())
    # the empty subset completes the power set
    assert is_acm(EMPTY_VARIETY).acm

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(
        "PASS criterion 4: three routes agree on all 4096 small varieties "
        f"({elapsed:.1f}s)"
    )


def test_criterion_05_face_ring_oracle_agreement(oracle_population):
    started = time.monotonic()

    assert len(oracle_population) >= 100
    for X, combinatorial, homological in oracle_population:
        assert combinatorial == homological, X

    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(
        f"PASS criterion 5: face-ring oracle agrees on "
        f"{len(oracle_population)} random varieties ({elapsed:.1f}s)"
    )


def test_criterion_06_hilbert_agreement_on_staircases():
    started = time.monotonic()

    rng = random.Random(61)
    box = (6, 6, 6)
    for _ in range(50):
        X = random_ferrers_variety(rng, 4)
        assert hilbert_function(X, box) == hilbert_oracle(X, box)

    for a, b, c in [(2, 3, 2), (4, 3, 2)]:
        pts = [
            (i, j, k)
            for i in range(1, a + 1)
            for j in range(1, b + 1)
            for k in range(1, c + 1)
        ]
        grid = grid_from_points(pts)
        res = grid_resolution(a, b, c)
        H = hilbert_oracle(grid, box)
        for i in range(box[0] + 1):
            for j in range(box[1] + 1):
                for k in range(box[2] + 1):
                    assert H[i][j][k] == res.hilbert(i, j, k)

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    print(
        "PASS criterion 6: staircase formula equals Hilbert oracle on 50 "
        f"random staircase varieties and 2 grids ({elapsed:.1f}s)"
    )


def test_criterion_07_acm_is_hereditary(route_verdicts, oracle_population):
    started = time.monotonic()

    acm_pool = [X for X, v in route_verdicts[0] if v.acm]
    acm_pool += [X for X, combinatorial, _ in oracle_population if combinatorial]
    seen = set()
    checked = 0
    for X in acm_pool:
        key = (X.d, X.U3, X.U2, X.U1)
        if key in seen:
            continue
        seen.add(key)
        for f, family in enumerate("ABC", start=1):
            for index in sorted(X.used_indices(f)):
                Y = remove_hyperplane(X, family, index)
                assert is_acm(Y).acm, (X, family, index)
                checked += 1

    elapsed = time.monotonic() - started
    print(
        f"PASS criterion 7: ACM preserved by {checked} single-hyperplane "
        f"removals across {len(seen)} varieties ({elapsed:.1f}s)"
    )


def test_criterion_08_generator_scan_matches_degrees():
    started = time.monotonic()

    rng = random.Random(83)
    box = (6, 6, 6)
    for _ in range(25):
        X = random_ferrers_variety(rng, 3)
        expected = {deg: 1 for deg in degree_sets(X).minimal}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoxTooSmallWarning)
            scan = generator_degree_scan(X, box)
        assert {deg: n for deg, n in scan.items() if n} == expected, X

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    print(
        "PASS criterion 8: rank-jump scan equals staircase degrees on 25 "
        f"random staircase varieties ({elapsed:.1f}s)"
    )


def test_criterion_09_companion_hilbert_experiment():
    started = time.monotonic()

    # The smallest interesting pair first, pinned directly.
    assert ferrers_companion(SKEW_CORNER) == CORNER
    assert hilbert_oracle(SKEW_CORNER, (4, 4, 4)) == hilbert_function(CORNER, (4, 4, 4))
    report = run_hf_experiment(trials=500, dmax=3, box=(4, 4, 4), seed=42)
    assert report.trials == 500
    assert report.successes + report.failures == report.companions_built
    assert report.companions_built >= 500  # every trial found an ACM variety
    assert bool(report.counterexamples) == (report.failures > 0)
    if report.failures:
        # Informational: disagreement here answers an open question and
        # is reported, never asserted away.
        for c in report.counterexamples:
            print(
                "companion Hilbert counterexample candidate at degree",
                c.degree, c.variety_value, "!=", c.companion_value,
            )

    elapsed = time.monotonic() - started
    print(
        f"PASS criterion 9: {report.trials} seeded companion trials, "
        f"{report.successes} equal, {report.failures} flagged "
        f"({elapsed:.1f}s)"
    )
