"""The example config's outputs against tests/golden/example.json (see make.py there)."""

import importlib.util
import json
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "golden_make", Path(__file__).with_name("golden") / "make.py")
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


def test_example_outputs_match_the_golden_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = make.collect()
    want = json.loads(make.GOLDEN.read_text(encoding="utf-8"))
    assert set(got) == set(want)
    moved = sorted(k for k in want["sha256"] if got["sha256"].get(k) != want["sha256"][k])
    assert got["sha256"].keys() == want["sha256"].keys() and not moved, f"moved: {moved}"
    for key in ("walk corpus shape", "recommended items", "report.tsv", "factor shapes"):
        assert got[key] == want[key], key
    for key, values in want["values"].items():
        np.testing.assert_allclose(got["values"][key], values, rtol=1e-12, atol=0, err_msg=key)
