"""Smoke test: every worked example in docs/examples runs to completion.

Each script runs in-process at its own sizes, as `python <script>` would
run it; temporary files it makes land in pytest's tmp_path.
"""

import pathlib
import runpy
import tempfile

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(path, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
