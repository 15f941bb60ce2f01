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
