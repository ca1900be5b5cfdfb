"""Evaluation-rank Hilbert oracle, generator-degree scan, and the
face-ring Cohen-Macaulay test."""

import hashlib
import json
import random
import re
import time
import warnings
from itertools import zip_longest
from operator import gt, le

import pytest

from acmlines import (
    BadParameter,
    BoxTooSmallWarning,
    CriteriaDisagreement,
    EMPTY_VARIETY,
    EmptyVariety,
    SizeLimit,
    acm_decision,
    compact,
    degree_sets,
    delta_hilbert,
    ferrers_companion,
    generator_degree_scan,
    hilbert_function,
    hilbert_oracle,
    is_acm,
    make_variety,
    reisner_cm,
    run_hf_experiment,
    stanley_reisner_complex,
    validate,
    variety_to_dict,
)
from acmlines import experiment, oracles
from acmlines.cli import main
from acmlines.linalg import bareiss_rank, extension_coeffs, sparse_rank
from acmlines.oracles import (
    _boxrange,
    _dim3,
    _grown_rows,
    _kernel3,
    _multiplied_rows,
    _node_dim,
    _saturation,
    _split_view,
)
from acmlines.sampling import random_ferrers_variety, random_variety
from acmlines.variety import MAX_BOX_CELLS, check_table_box
from conftest import (
    DIAGONAL_PAIR_PLUS_ONE,
    FIFTEEN_LINES,
    FULL_BOX_432,
    REPAIRED_TRIPLE_POINTS,
    SINGLE_LINE,
    TWO_TRIPLE_POINTS,
    conditions2,
    dense_kernel_by_rows,
    evaluation_matrix,
    grown_rows_by_saturation,
    hilbert_oracle_naive,
    line_conditions,
    line_sample_points,
    reisner_cm_by_links,
    scan_unclipped,
    scattered,
)


def test_single_line_table():
    H = hilbert_oracle(SINGLE_LINE, (2, 2, 2))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert H[i][j][k] == k + 1


def test_empty_variety_zero():
    H = hilbert_oracle(EMPTY_VARIETY, (2, 2, 2))
    assert all(
        H[i][j][k] == 0 for i in range(3) for j in range(3) for k in range(3)
    )


def test_degree_zero_cell():
    assert hilbert_oracle(SINGLE_LINE, (0, 0, 0)) == [[[1]]]
    assert hilbert_oracle(FULL_BOX_432, (0, 0, 0)) == [[[1]]]


def test_sample_point_count():
    pts = line_sample_points(SINGLE_LINE, (1, 1, 1))
    assert len(pts) == 2  # free factor swept through deg+1 values
    matrix = evaluation_matrix(SINGLE_LINE, (1, 1, 1))
    assert len(matrix) == 2  # one row per sample point
    assert len(matrix[0]) == 8  # monomials of multidegree (1, 1, 1)
    assert bareiss_rank(matrix) == 2


def test_structured_equals_naive_random():
    rng = random.Random(99)
    for _ in range(12):
        X = random_variety(rng, 2, p=0.5)
        assert hilbert_oracle(X, (2, 2, 2)) == hilbert_oracle_naive(
            X, (2, 2, 2)
        )


def test_structured_equals_naive_goldens():
    for X in (TWO_TRIPLE_POINTS, REPAIRED_TRIPLE_POINTS, DIAGONAL_PAIR_PLUS_ONE):
        assert hilbert_oracle(X, (2, 2, 2)) == hilbert_oracle_naive(X, (2, 2, 2))


def test_oracle_monotone_and_bounded():
    H = hilbert_oracle(REPAIRED_TRIPLE_POINTS, (3, 3, 3))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                v = H[i][j][k]
                assert v <= (i + 1) * (j + 1) * (k + 1)
                if i:
                    assert v >= H[i - 1][j][k]
                if j:
                    assert v >= H[i][j - 1][k]
                if k:
                    assert v >= H[i][j][k - 1]


def test_scan_matches_staircase_degrees():
    ds = degree_sets(FULL_BOX_432)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxTooSmallWarning)
        scan = generator_degree_scan(FULL_BOX_432, (5, 4, 3))
    found = {deg: n for deg, n in scan.items() if n}
    assert found == {deg: 1 for deg in ds.minimal}


def _multiplied_reference(t, kernels):
    """Both degree-one multiples of every kernel vector one step below t,
    along every axis, as the scan built them before the copy rule."""
    rows = []
    for axis in range(3):
        if t[axis]:
            below = t[:axis] + (t[axis] - 1,) + t[axis + 1:]
            coeffs = extension_coeffs(t[axis])
            for g in kernels[below]:
                rows.extend(_multiplied_rows(g, axis, coeffs))
    return rows


def _spread(X):
    """X with every used index p renumbered 2p and d doubled, so every
    odd hyperplane is declared but unused."""
    def double(pairs):
        return {(2 * p, 2 * q) for p, q in pairs}
    return make_variety(
        tuple(2 * n for n in X.d), double(X.U3), double(X.U2), double(X.U1)
    )


def test_grown_span_lies_in_the_ideal_and_matches_the_multiples():
    # The scan stops eliminating at dim I_t, which makes the bound
    # "grown span <= dim I_t" vacuous there; it is checked here instead,
    # with unlimited ranks, together with the copy rule's claim that the
    # copied rows span what the multiplied rows span, and the clip's
    # claim that past d (some t_a > d_a) the grown span is all of I_t.
    rng = random.Random(83)
    inputs = [(random_ferrers_variety(rng, 3), (4, 4, 4)) for _ in range(5)]
    rng = random.Random(11)
    while len(inputs) < 25:
        X = random_variety(rng, 4, 0.4)
        if not is_acm(X).acm:
            inputs.append((X, (3, 3, 3)))
    # declared but unused hyperplanes, boxes smaller than d on some
    # axis, and families with d_a = 0
    rng = random.Random(12)
    for _ in range(3):
        X = random_variety(rng, 2, 0.5)
        inputs.append((_spread(X), (5, 2, 5)))
        padded = make_variety(tuple(n + 1 for n in X.d), X.U3, X.U2, X.U1)
        inputs.append((padded, (4, 4, 1)))
    inputs += [
        (FULL_BOX_432, (2, 4, 4)),
        (make_variety((2, 3, 0), u3={(1, 1), (2, 3)}), (3, 4, 2)),
        (make_variety((0, 2, 2), u1={(1, 2), (2, 1)}), (2, 3, 3)),
        (EMPTY_VARIETY, (2, 1, 1)),
    ]
    for X, box in inputs:
        memo, kernels = {}, {}
        for t in _boxrange(box):
            kernels[t] = _kernel3(t, X, memo)
            dim_ideal = len(kernels[t])
            if not dim_ideal:
                continue
            copied = _grown_rows(t, kernels)
            multiplied = _multiplied_reference(t, kernels)
            grown = sparse_rank(copied)
            assert grown <= dim_ideal, (X, t)
            assert sparse_rank(multiplied) == grown, (X, t)
            assert sparse_rank(copied + multiplied) == grown, (X, t)
            assert sparse_rank(copied, dim_ideal) == min(grown, dim_ideal)
            if any(map(gt, t, X.d)):
                assert grown == dim_ideal, (X, t)


def test_scan_work_is_bounded_by_d():
    # Criterion 8's first three staircases: a box ten times past d gives
    # the same dict as (6, 6, 6), in time set by d, not by the box.
    rng = random.Random(83)
    varieties = [random_ferrers_variety(rng, 3) for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxTooSmallWarning)
        expected = [generator_degree_scan(X, (6, 6, 6)) for X in varieties]
        started = time.monotonic()
        scans = [generator_degree_scan(X, (60, 60, 60)) for X in varieties]
        elapsed = time.monotonic() - started
    assert [list(s.items()) for s in scans] == [list(s.items()) for s in expected]
    assert elapsed < 1.0


def test_oracle_work_is_bounded_by_d():
    # Criterion 8's first three staircases: a box far past d costs a
    # solve on the core box min(box, max(d, 1)) and an affine fill, not
    # a solve per cell.
    rng = random.Random(83)
    varieties = [random_ferrers_variety(rng, 3) for _ in range(3)]
    box = (45, 45, 45)
    expected = [hilbert_function(X, box) for X in varieties]
    started = time.monotonic()
    tables = [hilbert_oracle(X, box) for X in varieties]
    elapsed = time.monotonic() - started
    assert tables == expected
    assert elapsed < 0.25


def test_scan_compacts_its_input():
    # Unused hyperplanes cost one compaction, not a wider scan.
    rng = random.Random(7)
    varieties = [compact(random_variety(rng, 4, 0.4)) for _ in range(60)]
    padded = [scattered(rng, X, 2) for X in varieties]
    box = (6, 6, 6)
    expected = [list(generator_degree_scan(X, box).items()) for X in varieties]
    started = time.monotonic()
    scans = [list(generator_degree_scan(X, box).items()) for X in padded]
    elapsed = time.monotonic() - started
    assert scans == expected
    assert elapsed < 1.0


def test_scan_empty_variety():
    scan = generator_degree_scan(EMPTY_VARIETY, (1, 1, 1))
    found = {deg: n for deg, n in scan.items() if n}
    assert found == {(0, 0, 0): 1}


def test_scan_warns_when_box_cuts_degrees():
    with pytest.warns(BoxTooSmallWarning):
        generator_degree_scan(FULL_BOX_432, (2, 2, 2))


def test_scan_warns_exactly_when_the_box_cuts_the_compact_d():
    # No minimal generator lies past the compact d, so the scan at d is
    # complete and silent, and one step less on any axis warns, ACM or
    # not; a cut box that loses generators of a non-ACM draw is among them.
    lost_non_acm = 0
    for s in range(200):
        X = random_variety(random.Random(s), 3, 0.5)
        if s % 4 == 0:
            X = scattered(random.Random(s), compact(X), 2)
        d = compact(X).d
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoxTooSmallWarning)
            full = generator_degree_scan(X, d)
        for a in range(3):
            if d[a] == 0:
                continue
            box = d[:a] + (d[a] - 1,) + d[a + 1:]
            with pytest.warns(BoxTooSmallWarning, match=re.escape(f"up to {d}")):
                cut = generator_degree_scan(X, box)
            assert cut == {t: n for t, n in full.items() if t[a] < d[a]}, (X, box)
            lost_non_acm += cut != full and not acm_decision(X)
    assert lost_non_acm


def test_companion_gives_the_scan_and_the_oracle_on_every_small_acm_variety(
    route_verdicts,
):
    # A finite measured fact, not a theorem: on all ACM varieties of the
    # 2x2x2 box, X's generator scan and Hilbert function equal the
    # closed forms of its Ferrers companion C. The scan clipped to d is
    # complete, and two tables that agree on the box max(d_X, d_C) + 1
    # agree everywhere, since H is affine in t_a once t_a >= d_a - 1.
    acm = [X for X, v in route_verdicts[0] if v.acm]
    assert len(acm) == 1593
    # The largest scan degree per axis is C.d.
    for X in acm:
        C = ferrers_companion(X)
        expected = {m: 1 for m in degree_sets(C).minimal}
        scan = generator_degree_scan(X, X.d)
        assert scan == expected, X
        assert tuple(max(t[a] for t in scan) for a in range(3)) == C.d, X
        box = tuple(max(a, b) + 1 for a, b in zip(X.d, C.d))
        assert hilbert_oracle(X, box) == hilbert_function(C, box), X


def test_every_kernel_equals_the_row_reference(oracle_population, monkeypatch):
    # Every basis that _dense_kernel and _kernel2 give while the
    # population is scanned and tabulated is the one the elimination of
    # every condition's full rows over the whole grid gives: the same
    # dicts in the same order.
    dense_kernel, kernel2 = oracles._dense_kernel, oracles._kernel2
    calls = {"dense": 0, "fibres": 0, "block": 0, "eliminated": 0}

    def checked_dense_kernel(deg, X):
        out = dense_kernel(deg, X)
        sizes = tuple(n + 1 for n in deg)
        assert out == dense_kernel_by_rows(sizes, line_conditions(X)), (deg, X)
        calls["dense"] += 1
        calls["eliminated"] += any(len(g) > 1 for g in out)
        return out

    def checked_kernel2(deg_pair, row, col, points, memo):
        out = kernel2(deg_pair, row, col, points, memo)
        sizes = tuple(n + 1 for n in deg_pair)
        assert out == dense_kernel_by_rows(sizes, conditions2(row, col, points)), (
            deg_pair, row, col, points,
        )
        calls["fibres" if len(points) <= sizes[0] else "block"] += 1
        calls["eliminated"] += any(len(g) > 1 for g in out)
        return out

    monkeypatch.setattr(oracles, "_dense_kernel", checked_dense_kernel)
    monkeypatch.setattr(oracles, "_kernel2", checked_kernel2)
    for X, _, _ in oracle_population:
        generator_degree_scan(X, X.d)
        hilbert_oracle(X, tuple(n + 1 for n in X.d))
    # every path is taken, elimination included
    assert all(calls.values()), calls


def test_dim3_counts_the_basis_of_kernel3_on_the_population(oracle_population):
    # hilbert_oracle counts dim I_t node by node with no kernel vector
    # built; each count is the length of the basis _kernel3 builds, on
    # the box one past d, where every saturation pattern occurs. The
    # split along any saturated axis, not only the first (a face of the
    # scan splits along its own axis), gives node counts with that sum.
    for X, _, _ in oracle_population:
        memo = {}
        for t in _boxrange(tuple(n + 1 for n in X.d)):
            dim = len(_kernel3(t, X, {}))
            assert _dim3(t, X, memo) == dim, (X, t)
            saturated = _saturation(t, X.d)
            for a in (n for n, s in enumerate(saturated) if s):
                _, pick, rows, cols, points = _split_view(a, saturated, X, memo)
                i, j, k = pick(t)
                nodes = zip_longest(rows, cols, range(i + 1), fillvalue=0)
                counts = [_node_dim((j, k), r, c, points, memo) for r, c, _ in nodes]
                assert sum(counts) == dim, (X, t, a)


def test_scan_equals_the_unclipped_loop_on_every_small_variety(small_population):
    # A face degree, 1 <= d_a = t_a, is one two-factor problem in the
    # scan; the loop over the box eliminates three-factor rows there.
    # On the 2x2x2 box every variety has faces on each used axis. Each
    # count depends only on the degrees below it, so the loop at d, cut
    # to a box, is the loop over the clipped box.
    for X in small_population:
        full = scan_unclipped(X, X.d)
        for box in ((2, 2, 2), (3, 3, 3), (1, 2, 3)):
            expected = [(t, n) for t, n in full.items() if all(map(le, t, box))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoxTooSmallWarning)
                scan = generator_degree_scan(X, box)
            assert list(scan.items()) == expected, (X, box)


def test_scan_equals_the_unclipped_loop_on_draws(oracle_population):
    # random draws at d and one past it (the loop then also eliminates
    # past d), at boxes cut below d, and varieties with some d_a = 0
    inputs = [(X, [X.d, tuple(n + 1 for n in X.d)]) for X, _, _ in oracle_population]
    rng = random.Random(22)
    for _ in range(60):
        X = compact(random_variety(rng, rng.randint(2, 5), 0.4))
        inputs.append((X, [tuple(rng.randint(0, n) for n in X.d)]))
    for h, (f, g) in ((3, (0, 1)), (2, (0, 2)), (1, (1, 2))):
        for _ in range(5):
            pairs = {(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))}
            d = [0, 0, 0]
            d[f], d[g] = max(p for p, _ in pairs), max(q for _, q in pairs)
            X = compact(make_variety(tuple(d), **{f"u{h}": pairs}))
            assert 0 in X.d
            inputs.append((X, [X.d, (3, 3, 3)]))
    for X, boxes in inputs:
        for box in boxes:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoxTooSmallWarning)
                scan = generator_degree_scan(X, box)
            assert list(scan.items()) == list(scan_unclipped(X, box).items()), (X, box)


def test_grown_rows_span_the_saturation_rule_rows_at_every_scanned_degree(
    oracle_population, small_population, monkeypatch
):
    # The copy rule now applies to every one-node kernel vector, on any
    # axis; before, only to every vector on a saturated axis. At every
    # degree the scan grows rows (the interior and the face problems),
    # the new rows and the old ones have the same rank, and so does
    # their union.
    grown_rows, face_rows = oracles._grown_rows, oracles._face_rows
    d_of = {}  # the d the scan's old rule read: X.d, or the face pair's
    fewer_nonzeros = 0

    def checked_face_rows(a, t, X, memo, faces):
        pick = oracles._split_view(a, oracles._saturation(t, X.d), X, memo)[1]
        d_of[2] = pick(X.d)[1:]
        return face_rows(a, t, X, memo, faces)

    def checked_grown_rows(t, kernels):
        nonlocal fewer_nonzeros
        rows = grown_rows(t, kernels)
        reference = grown_rows_by_saturation(t, kernels, d_of[len(t)])
        rank = sparse_rank(rows)
        assert len(rows) == len(reference), t
        assert sparse_rank(reference) == rank, t
        assert sparse_rank(rows + reference) == rank, t
        fewer_nonzeros += sum(map(len, rows)) < sum(map(len, reference))
        return rows

    monkeypatch.setattr(oracles, "_face_rows", checked_face_rows)
    monkeypatch.setattr(oracles, "_grown_rows", checked_grown_rows)
    population = [X for X, _, _ in oracle_population] + small_population
    assert len(population) == 100 + 4095
    for X in population:
        d_of[3] = compact(X).d
        generator_degree_scan(X, X.d)
    # the copy rule fired on axes the old rule multiplied along
    assert fewer_nonzeros


def test_elimination_leaves_the_scans_rows_unmodified(oracle_population, monkeypatch):
    # Node problems that share a fibre share its kernel dicts, and the
    # copy rule passes kernel vectors on as rows; the elimination must
    # not write to them.
    rank = oracles.sparse_rank

    def checked_rank(rows, limit=None):
        before = [dict(row) for row in rows]
        out = rank(rows, limit)
        assert rows == before
        return out

    monkeypatch.setattr(oracles, "sparse_rank", checked_rank)
    expected = []
    for X, _, _ in oracle_population:
        expected.append(generator_degree_scan(X, X.d))
    monkeypatch.undo()
    assert [generator_degree_scan(X, X.d) for X, _, _ in oracle_population] == expected


def test_face_complex_shape():
    cx = stanley_reisner_complex(DIAGONAL_PAIR_PLUS_ONE)
    assert len(cx.vertices) == 6
    assert len(cx.facets) == 3
    assert all(len(f) == len(cx.vertices) - 2 for f in cx.facets)


def test_face_complex_refuses_empty():
    with pytest.raises(EmptyVariety):
        stanley_reisner_complex(EMPTY_VARIETY)


def test_face_complex_has_the_used_hyperplanes_as_vertices(oracle_population):
    # 22 declared hyperplanes, 3 used: an unused one is a cone point.
    X = make_variety((20, 1, 1), u3={(2, 1)}, u2={(2, 1)})
    cx = stanley_reisner_complex(X)
    assert [str(v) for v in cx.vertices] == ["A2", "B1", "C1"]
    assert reisner_cm(cx) is reisner_cm(stanley_reisner_complex(compact(X))) is True
    rng = random.Random(14)
    for Y, _, homological in oracle_population:
        cx = stanley_reisner_complex(scattered(rng, compact(Y), 2))
        assert len(cx.vertices) == sum(compact(Y).d)
        assert reisner_cm(cx) is homological, Y


def test_face_complex_size_limit():
    big = make_variety(
        (5, 5, 5),
        u3={(i, j) for i in range(1, 6) for j in range(1, 6)},
        u2={(i, k) for i in range(1, 6) for k in range(1, 6)},
        u1={(j, k) for j in range(1, 6) for k in range(1, 6)},
    )
    with pytest.raises(SizeLimit):
        stanley_reisner_complex(big)


def test_face_ring_verdicts_on_goldens():
    cases = [
        (SINGLE_LINE, True),
        (DIAGONAL_PAIR_PLUS_ONE, False),
        (TWO_TRIPLE_POINTS, False),
        (REPAIRED_TRIPLE_POINTS, True),
    ]
    for X, expected in cases:
        assert reisner_cm(stanley_reisner_complex(X)) is expected
        assert is_acm(X).acm is expected


def test_face_ring_oracle_equals_the_link_by_link_test(
    small_population, oracle_population
):
    for X in small_population:
        cx = stanley_reisner_complex(X)
        assert reisner_cm(cx) is reisner_cm_by_links(cx), X
    for X, _, homological in oracle_population:
        assert homological is reisner_cm_by_links(stanley_reisner_complex(X)), X


def test_face_ring_oracle_is_fast_on_fifteen_lines():
    cx = stanley_reisner_complex(FIFTEEN_LINES)
    started = time.monotonic()
    assert reisner_cm(cx) is False
    assert time.monotonic() - started < 0.25


def test_out_of_range_parameters_raise_bad_parameter():
    for box in ((-1, 2, 2), (1, 1), (True, 1, 1)):
        with pytest.raises(BadParameter):
            hilbert_oracle(SINGLE_LINE, box)
        with pytest.raises(BadParameter):
            hilbert_oracle_naive(SINGLE_LINE, box)
    with pytest.raises(BadParameter):
        generator_degree_scan(SINGLE_LINE, (1, 1))
    rng = random.Random(0)
    for dmax, p in ((0, 0.4), (17, 0.4), (2, 0.0), (2, -0.1), (2, 1.5)):
        with pytest.raises(BadParameter):
            random_variety(rng, dmax, p)
    with pytest.raises(BadParameter):
        run_hf_experiment(trials=1, seed=1, p=0.0)
    with pytest.raises(BadParameter):
        run_hf_experiment(trials=1, seed=1, box=(1, 1, -1))
    with pytest.raises(BadParameter):
        random_variety(rng, True)


def test_random_ferrers_variety_rejects_bad_dmax():
    # dmax 0 used to loop forever: every partition is empty
    for dmax in (0, -1, True, 2.5, 17):
        with pytest.raises(BadParameter):
            random_ferrers_variety(random.Random(0), dmax)


def test_random_variety_gives_up_on_a_tiny_p():
    started = time.monotonic()
    with pytest.raises(BadParameter):
        random_variety(random.Random(0), 1, 1e-300)
    assert time.monotonic() - started < 1.0


def test_hf_experiment_checks_parameters_before_any_trial():
    # checked on entry: also with no trials to run
    with pytest.raises(BadParameter):
        run_hf_experiment(trials=0, p=0.0)
    with pytest.raises(BadParameter):
        run_hf_experiment(trials=0, dmax=True)
    with pytest.raises(BadParameter):
        run_hf_experiment(trials=-3, seed=1)


def test_hf_experiment_raises_when_the_screen_accepts_a_non_acm_variety(monkeypatch):
    # every sampled candidate passes the screen, so the first one (dense,
    # at dmax 6, and not ACM for this seed) must be caught by is_acm
    monkeypatch.setattr(experiment, "acm_decision", lambda X: True)
    first = random_variety(random.Random(5), 6, 0.4)
    assert not is_acm(first).acm
    with pytest.raises(CriteriaDisagreement, match="is_acm rejects"):
        run_hf_experiment(trials=1, dmax=6, seed=5)


def test_hf_experiment_records_a_counterexample(monkeypatch, tmp_path, capsys):
    # no companion is known to change the table, so one cell of the
    # companion's table is shifted to reach the counterexample branch
    def shifted(C, box):
        table = hilbert_function(C, box)
        table[1][0][2] += 1
        return table

    monkeypatch.setattr(experiment, "hilbert_function", shifted)
    out_dir = tmp_path / "api"
    report = run_hf_experiment(trials=3, dmax=2, box=(2, 2, 2), seed=4, out_dir=out_dir)
    assert report.acm_found == report.companions_built == report.failures == 3
    assert report.successes == 0
    for ce, path in zip(report.counterexamples, report.artifact_paths, strict=True):
        X = validate(ce.variety)
        assert ce.companion == variety_to_dict(ferrers_companion(X))
        assert ce.degree == (1, 0, 2)
        assert ce.variety_value == hilbert_oracle(X, (2, 2, 2))[1][0][2]
        assert ce.companion_value == ce.variety_value + 1
        assert path.parent == out_dir and path.name.startswith("hf_counterexample_")
        assert json.loads(path.read_text()) == ce.to_dict()
    assert sorted(out_dir.iterdir()) == sorted(report.artifact_paths)
    # the same run through the CLI, its artifacts in another directory
    cli_dir = tmp_path / "cli"
    assert main([
        "hf-experiment", "--trials", "3", "--dmax", "2", "--box", "2", "2", "2",
        "--seed", "4", "--out-dir", str(cli_dir),
    ]) == 0
    printed = json.loads(capsys.readouterr().out)
    expected = report.to_dict()
    assert printed.pop("artifacts") == [
        str(cli_dir / p.name) for p in report.artifact_paths
    ]
    expected.pop("artifacts")
    assert printed == expected
    for p in report.artifact_paths:
        assert (cli_dir / p.name).read_text() == p.read_text()


def test_hilbert_tables_refuse_oversized_boxes_before_any_work():
    assert check_table_box((99, 999, 0)) == (99, 999, 0)  # MAX_BOX_CELLS cells
    assert 100 * 1000 == MAX_BOX_CELLS
    with pytest.raises(SizeLimit):
        check_table_box((99, 999, 1))
    started = time.monotonic()
    for table in (hilbert_oracle, hilbert_oracle_naive, delta_hilbert, hilbert_function):
        with pytest.raises(SizeLimit, match="more than 100000"):
            table(SINGLE_LINE, (300, 300, 300))
    with pytest.raises(SizeLimit):
        run_hf_experiment(trials=0, box=(46, 46, 46))
    # a box that is too big is reported before a variety that is not Ferrers
    with pytest.raises(SizeLimit):
        delta_hilbert(DIAGONAL_PAIR_PLUS_ONE, (46, 46, 46))
    assert time.monotonic() - started < 1.0
    # the scan's work is clipped to d, so it takes any box
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxTooSmallWarning)
        assert generator_degree_scan(SINGLE_LINE, (300, 300, 300)) == {
            (1, 0, 0): 1, (0, 1, 0): 1,
        }


# sha256 of the reports of run_hf_experiment(trials=1, dmax=6, p=0.4,
# box=(4, 4, 4), seed=s) for s = 0..99, each as sorted-key JSON plus a
# newline: the experiment workload's parameters. A change to the draws,
# to compaction or to either Hilbert table changes it.
EXPERIMENT_REPORTS_SHA256 = (
    "7b4568b3bbfdff1c7bdb5b6fd556a111044cfa104c21e76407f4af52eda8d02b"
)


def test_seeded_experiment_reports_are_unchanged():
    digest = hashlib.sha256()
    for seed in range(100):
        report = run_hf_experiment(trials=1, dmax=6, p=0.4, box=(4, 4, 4), seed=seed)
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == EXPERIMENT_REPORTS_SHA256


def _oracle_outputs():
    """The generator scans (key order kept) and Hilbert tables of a
    fixed seeded population, one JSON line each: 60 nine-line dmax-3
    staircases at (6, 6, 6), the scan workload's shape, then 300 draws
    of random_variety(Random(11), 6, 0.4) that acm_decision accepts,
    the experiment's, scanned up to d and tabulated at (4, 4, 4)."""
    rng = random.Random(20)
    staircases = 0
    while staircases < 60:
        X = random_ferrers_variety(rng, 3)
        if X.line_count == 9:
            staircases += 1
            scan = generator_degree_scan(X, (6, 6, 6))
            yield [list(scan.items()), hilbert_oracle(X, (6, 6, 6))]
    rng = random.Random(11)
    accepted = 0
    while accepted < 300:
        X = random_variety(rng, 6, 0.4)
        if acm_decision(X):
            accepted += 1
            scan = generator_degree_scan(X, X.d)
            yield [list(scan.items()), hilbert_oracle(X, (4, 4, 4))]


# sha256 of the lines of _oracle_outputs(), each as JSON plus a newline,
# computed before either oracle dropped its value-node conditions ahead
# of the elimination. A change to either oracle's output changes it.
ORACLE_OUTPUTS_SHA256 = (
    "0da774e03e9b26a3ba4d9aa7c02d4a9011e1c5c507d228c72a5152d7a4016570"
)


def test_seeded_oracle_outputs_are_unchanged():
    started = time.monotonic()
    digest = hashlib.sha256()
    for line in _oracle_outputs():
        digest.update(json.dumps(line).encode() + b"\n")
    assert digest.hexdigest() == ORACLE_OUTPUTS_SHA256
    assert time.monotonic() - started < 2.0
