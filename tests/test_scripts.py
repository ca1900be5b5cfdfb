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
