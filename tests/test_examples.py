"""Every ``examples/*.py`` runs to completion.

The caller-count audit (``tests/test_public_surface.py``) counts an
example as a caller, so an example that has stopped running is a caller
that does not exist: ``targeted_healing.py`` crashed from PR 6 to PR 17
and nothing noticed.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])  # defaults, not pytest's arguments
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip(), "an example prints what it did"
