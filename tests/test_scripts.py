"""The standalone scripts run to completion with their defaults."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["derive_corner_degrees", "exhaustive_route_check"])
def test_script_main_returns_zero(name, capsys):
    assert load_script(name).main([]) == 0
    assert capsys.readouterr().out


def test_companion_sweep_counts_the_acm_varieties_and_their_splits(capsys, monkeypatch):
    script = load_script("exhaustive_route_check")
    assert script.main(["--box", "1", "2", "2", "--with-companion"]) == 0
    out = capsys.readouterr().out
    assert ": 179 ACM, " in out and out.endswith(", 0 companion splits\n")
    # a wrong scan is a split on every ACM variety, and the sweep fails
    monkeypatch.setattr(script, "generator_degree_scan", lambda X, box: {})
    assert script.main(["--box", "1", "1", "1", "--with-companion"]) == 1
    out = capsys.readouterr().out
    assert "COMPANION DISAGREEMENT:" in out and "generator degrees" in out
    assert ": 7 ACM, " in out and out.endswith(", 7 companion splits\n")


def test_random_sweep_is_seeded_and_checks_every_draw(capsys, monkeypatch):
    script = load_script("exhaustive_route_check")
    args = ["--random", "40", "--dmax", "12", "--seed", "23"]
    assert script.main(args) == 0
    first = capsys.readouterr().out
    assert first.startswith("checked 80 varieties drawn at random (40 + 40, dmax 12, seed 23) ")
    assert ", 0 route disagreements, 0 acm_decision splits, " in first
    assert first.endswith(" (0 not chordless cycles)\n")
    assert script.main(args) == 0
    again = capsys.readouterr().out
    assert first.split(": ", 1)[1] == again.split(": ", 1)[1]  # all but the time
    # a wrong decision is a split on every draw whose routes disagree with it
    monkeypatch.setattr(script, "acm_decision", lambda X: False)
    assert script.main(args) == 1
    out = capsys.readouterr().out
    assert "DECISION DISAGREEMENT:" in out and ", 0 acm_decision splits, " not in out


@pytest.mark.parametrize("args", [
    ["--random", "5", "--box", "2", "2", "2"],
    ["--random", "0"],
    ["--random", "5", "--dmax", "17"],
])
def test_random_sweep_refuses_bad_arguments(args):
    with pytest.raises(SystemExit) as exc:
        load_script("exhaustive_route_check").main(args)
    assert exc.value.code == 2
