"""The README's runnable examples: every script in demos/ and every `python`
block of README.md runs to the end."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = [block.split("```", 1)[0]
                 for block in (ROOT / "README.md").read_text().split("\n```python\n")[1:]]


def test_demos_are_found():
    assert DEMOS  # an empty glob would otherwise skip every demo silently
    assert README_BLOCKS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("source", README_BLOCKS,
                         ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
