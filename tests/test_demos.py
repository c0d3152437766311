"""The demos run to the end, and the pipeline plan in demos/ succeeds."""
import runpy
import shutil
from pathlib import Path

import pytest

from hcskit.cli import dispatch

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(DEMOS.glob("0*.py")), ids=lambda p: p.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_full_run_plan(tmp_path, monkeypatch, capsys):
    # the plan names demos/sac_script.json and writes under out/, both
    # relative to the directory it runs from
    shutil.copytree(DEMOS, tmp_path / "demos")
    monkeypatch.chdir(tmp_path)
    assert dispatch(["pipeline", "demos/full-run.json"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "compare_multi.csv").exists()
