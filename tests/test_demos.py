"""Every demo runs to completion in a fresh working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_hyperboloid_basics", "02_function_zoo", "03_resisting_games",
         "04_worst_function_trajectory", "05_cutting_planes_game",
         "06_interpolation_obstruction"]
# demos that write their checks through cli.run, under hypergconv-out/<demo>
WRITERS = {"03_resisting_games", "05_cutting_planes_game"}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo in WRITERS:
        out = tmp_path / "hypergconv-out" / demo
        assert (out / "summary.csv").is_file()
        assert (out / "transcript.json").is_file()
