"""The README's runnable examples: every script in demos/ runs to the end."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty glob would otherwise skip every demo silently


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
