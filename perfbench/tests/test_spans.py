"""Self time and wrapper behaviour of the span recorder.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Recorder, self_times  # noqa: E402


def test_self_time_subtracts_children():
    # id, name, parent, start ns, end ns, iteration
    spans = [[0, "body", None, 0, 10_000_000_000, 1],
             [1, "cli.walk", 0, 1_000_000_000, 5_000_000_000, 1],
             [2, "walks.generate", 1, 1_500_000_000, 4_000_000_000, 1],
             [3, "cli.pairs", 0, 5_000_000_000, 9_000_000_000, 1],
             [4, "walks.generate", None, 0, 7_000_000_000, 2]]
    st = self_times(spans, 1)
    assert st == {"body": 2.0, "cli.walk": 1.5, "walks.generate": 2.5, "cli.pairs": 4.0}


def test_wrappers_record_nested_spans_and_restore(monkeypatch):
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    monkeypatch.setattr("spans.TARGETS", [("fake", "inner", "walks.generate"),
                                          ("fake", "outer", "cli.walk")])
    originals = (mod.inner, mod.outer)
    rec = Recorder()
    rec.install({"fake": mod})
    rec.iteration, rec.timed = 0, True
    assert mod.outer(1) == 4
    rec.timed = False
    assert mod.outer(1) == 4
    rec.capture = False
    assert mod.outer(1) == 4
    rec.uninstall()
    assert (mod.inner, mod.outer) == originals
    assert [(s[1], s[2]) for s in rec.spans] == [("cli.walk", None), ("walks.generate", 0)]
    captured = rec.drain()
    assert [c[0] for c in captured] == ["walks.generate", "walks.generate"]
    assert rec.drain() == []
