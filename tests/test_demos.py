"""The demo scripts still run against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pipeline_walkthrough_runs_and_reports_each_stage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "pipeline_walkthrough.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("split: train=") for line in lines), proc.stdout
    assert any(line.startswith("graph: ") and " edges; " in line for line in lines), proc.stdout
    assert lines[-1].startswith("popularity baseline F1@10 = ")
