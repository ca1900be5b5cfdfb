"""End-to-end command-line behavior via main(argv)."""

import json
import time

import pytest

from acmlines import (
    CriteriaDisagreement,
    criteria,
    is_acm,
    make_variety,
    variety_to_json,
)
from acmlines.cli import build_parser, main
from conftest import (
    CI_EXAMPLE,
    DIAGONAL_PAIR_PLUS_ONE,
    FULL_BOX_432,
    REPAIRED_TRIPLE_POINTS,
    SINGLE_LINE,
)


@pytest.fixture
def variety_file(tmp_path):
    def write(X, name="variety.json"):
        path = tmp_path / name
        path.write_text(variety_to_json(X), encoding="utf-8")
        return str(path)

    return write


def test_check_acm_exit_zero(variety_file, capsys):
    rc = main(["check", variety_file(REPAIRED_TRIPLE_POINTS)])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["acm"] is True
    assert payload["routes"]["chordal"] is True


def test_check_not_acm_exit_one_with_witness(variety_file, capsys):
    rc = main(["check", variety_file(DIAGONAL_PAIR_PLUS_ONE), "--witness"])
    out = capsys.readouterr().out
    assert rc == 1
    payload = json.loads(out.splitlines()[0])
    assert payload["acm"] is False
    assert payload["witness"]["type"] == "chordless_cycle"
    assert "chordless cycle in complement:" in out


def test_check_disagreement_exit_three(variety_file, capsys, monkeypatch):
    def stub(M):
        return False, {"condition": "stub pattern"}

    monkeypatch.setitem(criteria._NUMERIC_CRITERIA, 4, stub)
    X = REPAIRED_TRIPLE_POINTS
    with pytest.raises(CriteriaDisagreement) as info:
        is_acm(X)
    message = str(info.value)
    assert variety_to_json(X) in message
    assert "cycle=None" in message and "stub pattern" in message
    rc = main(["check", variety_file(X)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("criteria disagreement: ")
    assert variety_to_json(X) in captured.err


def test_check_oracle_flag_agrees(variety_file, capsys):
    rc = main(["check", variety_file(REPAIRED_TRIPLE_POINTS), "--oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "face-ring oracle: CM" in out


@pytest.mark.filterwarnings("ignore:unused hyperplane")
def test_check_dot_stdout(variety_file, capsys):
    rc = main(["check", variety_file(SINGLE_LINE), "--dot", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "graph complement {" in out


def test_check_dot_file(variety_file, tmp_path, capsys):
    path = tmp_path / "complement.dot"
    rc = main(["check", variety_file(DIAGONAL_PAIR_PLUS_ONE), "--dot", str(path)])
    assert rc == 1
    assert "graph complement {" not in capsys.readouterr().out
    main(["check", variety_file(DIAGONAL_PAIR_PLUS_ONE), "--dot", "-"])
    printed = capsys.readouterr().out
    dot = printed[printed.index("graph complement {"):]
    assert path.read_text(encoding="utf-8") == dot


def test_check_input_errors_exit_two_before_any_output(variety_file, tmp_path, capsys):
    # 15 used hyperplanes: past the face-ring test's limit
    pairs = {(i, i) for i in range(1, 6)}
    rc = main(["check", variety_file(make_variety((5, 5, 5), u3=pairs, u2=pairs)), "--oracle"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: face-ring test limited to 14 vertices, got 15\n"
    missing = tmp_path / "missing" / "complement.dot"
    rc = main(["check", variety_file(DIAGONAL_PAIR_PLUS_ONE), "--dot", str(missing)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_check_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", str(bad)]) == 2


def test_check_missing_file_exit_two(capsys):
    assert main(["check", "/nonexistent/variety.json"]) == 2


def test_check_out_of_bounds_exit_two(tmp_path, capsys):
    bad = tmp_path / "oob.json"
    bad.write_text(
        json.dumps({"d": [1, 1, 1], "U3": [[2, 1]], "U2": [], "U1": []}),
        encoding="utf-8",
    )
    assert main(["check", str(bad)]) == 2


def test_check_warns_on_one_line(tmp_path, capsys):
    padded = tmp_path / "padded.json"
    padded.write_text(
        json.dumps({"d": [3, 1, 1], "U3": [[1, 1]], "U2": [], "U1": []}),
        encoding="utf-8",
    )
    assert main(["check", str(padded)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: unused hyperplane A2; unused hyperplane A3; "
        "unused hyperplane C1 (compacting)"
    ]
    assert json.loads(captured.out.splitlines()[0])["acm"] is True


def test_check_bounds_the_unused_hyperplane_warning(tmp_path, capsys):
    padded = tmp_path / "padded.json"
    padded.write_text(
        json.dumps({"d": [10**6, 1, 1], "U3": [[1, 1]], "U2": [], "U1": []}),
        encoding="utf-8",
    )
    started = time.perf_counter()
    assert main(["check", str(padded)]) == 0
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 300
    assert err[0].startswith("warning: unused hyperplane A2; ")
    assert err[0].endswith("; unused hyperplanes: 999992 more (compacting)")


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2, 3],
        {"d": [1, 1, 1], "U3": None},
        {"d": [1, 1, 1], "U3": [[True, True]]},
    ],
    ids=["top-level-list", "null-line-list", "boolean-indices"],
)
def test_check_malformed_variety_exit_two(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# Bytes that are not UTF-8, and JSON nested past the parser's recursion
# limit: both once escaped as a traceback and exit 1, which for check
# means "not ACM".
UNREADABLE_INPUTS = {
    "not-utf8": b"\xff\xfe\x00bad",
    "too-deep": b"[" * 200000 + b"]" * 200000,
}


@pytest.mark.parametrize("content", UNREADABLE_INPUTS.values(), ids=UNREADABLE_INPUTS)
@pytest.mark.parametrize(
    "command", ["check", "ferrers", "hilbert", "gens", "ci", "render", "grid"]
)
def test_unreadable_input_exit_two(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {bad}: ")


def test_hilbert_negative_box_exit_two(variety_file, capsys):
    path = variety_file(FULL_BOX_432)
    for method in ("corollary", "oracle"):
        rc = main(["hilbert", path, "--box", "-1", "2", "2", "--method", method])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "box must be three non-negative integers" in captured.err


def test_hilbert_refuses_an_oversized_box_at_once(variety_file, capsys):
    path = variety_file(make_variety((1, 1, 0), u3={(1, 1)}))  # one line
    for method in ("corollary", "oracle"):
        started = time.monotonic()
        rc = main(["hilbert", path, "--box", "300", "300", "300", "--method", method])
        elapsed = time.monotonic() - started
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: box (300, 300, 300) has 27270901 cells")
        assert elapsed < 1.0


@pytest.mark.parametrize(
    "args, message",
    [
        (["--p", "0"], "line probability"),
        (["--p", "1.5"], "line probability"),
        (["--dmax", "0"], "dmax"),
        (["--box", "3", "-1", "3"], "box"),
        (["--trials", "-3"], "trials"),
        (["--dmax", "1", "--p", "1e-300"], "no line kept"),
        (["--dmax", "17"], "dmax"),
        (["--box", "46", "46", "46"], "cells, more than"),
    ],
)
def test_hf_experiment_bad_parameters_exit_two(capsys, args, message):
    rc = main(["hf-experiment", "--trials", "2", "--seed", "1", *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


def test_ferrers_output(variety_file, capsys):
    rc = main(["ferrers", variety_file(FULL_BOX_432)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["ferrers_variety"] is True
    assert out["directions"]["3"]["resembles"] is True
    assert out["directions"]["3"]["partition"] == [3, 3, 3, 3]


@pytest.mark.filterwarnings("ignore:unused hyperplane")
def test_hilbert_csv_header_and_values(variety_file, capsys):
    rc = main(
        ["hilbert", variety_file(SINGLE_LINE), "--box", "1", "1", "1"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0] == "i,j,k,deltaH,H"
    table = {
        tuple(map(int, row.split(",")[:3])): tuple(map(int, row.split(",")[3:]))
        for row in lines[1:]
    }
    assert table[(0, 0, 0)] == (1, 1)
    assert table[(1, 1, 1)] == (0, 2)
    assert len(table) == 8


def test_hilbert_methods_agree(variety_file, capsys):
    path = variety_file(FULL_BOX_432)
    main(["hilbert", path, "--box", "4", "4", "4", "--method", "corollary"])
    by_formula = capsys.readouterr().out
    main(["hilbert", path, "--box", "4", "4", "4", "--method", "oracle"])
    by_rank = capsys.readouterr().out
    assert by_formula == by_rank


@pytest.mark.filterwarnings("ignore:unused hyperplane")
def test_hilbert_json_format(variety_file, capsys):
    rc = main(
        [
            "hilbert",
            variety_file(SINGLE_LINE),
            "--box", "1", "1", "1",
            "--format", "json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["box"] == [1, 1, 1]
    assert out["H"][1][1][1] == 2
    assert out["deltaH"][0][0][1] == 1


def test_hilbert_corollary_rejects_non_ferrers(variety_file, capsys):
    rc = main(
        ["hilbert", variety_file(REPAIRED_TRIPLE_POINTS), "--box", "2", "2", "2"]
    )
    assert rc == 2


def test_gens_output(variety_file, capsys):
    rc = main(["gens", variety_file(FULL_BOX_432)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert sorted(out["degrees"]) == [[0, 3, 2], [4, 0, 2], [4, 3, 0]]
    assert "A1*A2*A3*A4*B1*B2*B3" in out["products"]


def test_grid_subcommand(tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text(
        json.dumps({"points": [[1, 1, 1], [2, 2, 1]]}), encoding="utf-8"
    )
    rc = main(["grid", str(points)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["d"] == [2, 2, 1]
    assert [1, 1] in out["U3"] and [2, 2] in out["U3"]


def test_ci_subcommand(variety_file, capsys):
    rc = main(["ci", variety_file(CI_EXAMPLE)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["complete_intersection"] is True
    assert out["degrees"] == [[0, 3, 0], [4, 0, 2]]

    main(["ci", variety_file(FULL_BOX_432, "full.json")])
    out = json.loads(capsys.readouterr().out)
    assert out["complete_intersection"] is False


@pytest.mark.filterwarnings("ignore:unused hyperplane")
def test_render_subcommand(variety_file, capsys):
    rc = main(["render", variety_file(SINGLE_LINE), "--direction", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "direction 3:" in out and "●" in out


def test_hf_experiment_subcommand(capsys):
    rc = main(
        [
            "hf-experiment",
            "--trials", "3",
            "--dmax", "2",
            "--box", "3", "3", "3",
            "--seed", "7",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["trials"] == 3
    assert out["successes"] + out["failures"] == out["companions_built"]


def test_parser_rejects_unknown_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["made-up"])
