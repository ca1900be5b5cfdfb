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
