"""The demo scripts still run against the current library API."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import walkrec

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


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(walkrec.__path__)))
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"walkrec.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"walkrec.{name}.__all__ names missing attributes {missing}"


def test_cell_profile_reports_every_stage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "cell_profile.py"), "--groups",
                           "4", "--hashes"], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "cell: 200 x 199, sigma 3, walks undrawn", proc.stdout
    stages = [line.split()[0] for line in lines[2:10]]
    assert stages == ["data", "graph", "walks", "pairs", "sppmi", "ALS", "top-K", "evaluate"]
    for line in lines[2:10]:
        seconds, peak, after, maxrss = map(float, line.split()[1:])
        assert seconds >= 0 and peak >= 0 and after > 0 and maxrss > 0
    assert [line.split()[1] for line in lines[11:]] == ["pairs", "pmi", "factors", "rankings"]
