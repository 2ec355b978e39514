"""Smoke test: every demo script runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# files each demo writes to the current directory
WRITES = {"moduli_landscape.py": {"annulus.csv", "annulus.obj"}}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    assert {p.name for p in tmp_path.iterdir()} == WRITES.get(script.name, set())
