"""one_thread(): per-library thread counts inside and after a block, factor
and score bytes that do not depend on the caller's thread count, and the
scipy modules a fresh process loads."""

import json
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from walkrec import blas
from walkrec.cli import main
from walkrec.confidence import sppmi_matrix
from walkrec.datasets import split
from walkrec.factorization import AlsConfig, als_fit
from walkrec.graph import build_graph
from walkrec.pairs import sample_pairs
from walkrec.recommend import recommend_topk
from walkrec.synthetic import generate_synthetic
from walkrec.walks import WalkConfig, generate_walks

needs_openblas = pytest.mark.skipif(not blas.libraries(), reason="no OpenBLAS loaded")


def counts():
    return [get() for get, _ in blas.libraries()]


@contextmanager
def caller_threads(n):
    "Set every library to n threads, as a caller would, and restore the counts after."
    saved = counts()
    for _, put in blas.libraries():
        put(n)
    try:
        yield
    finally:
        for (_, put), c in zip(blas.libraries(), saved):
            put(c)


@needs_openblas
class TestOneThread:
    def test_one_thread_inside_prior_count_after(self):
        with caller_threads(3):
            with blas.one_thread():
                assert counts() == [1] * len(blas.libraries())
            assert counts() == [3] * len(blas.libraries())

    def test_restores_after_body_raises(self):
        with caller_threads(3):
            with pytest.raises(KeyError):
                with blas.one_thread():
                    raise KeyError("body")
            assert counts() == [3] * len(blas.libraries())

    def test_nested_blocks_restore_outer_count(self):
        with caller_threads(3):
            with blas.one_thread():
                with blas.one_thread():
                    assert counts() == [1] * len(blas.libraries())
                assert counts() == [1] * len(blas.libraries())
            assert counts() == [3] * len(blas.libraries())

    def test_decorated_function(self):
        @blas.one_thread()
        def inside():
            return counts()

        with caller_threads(3):
            assert inside() == [1] * len(blas.libraries())
            assert inside() == [1] * len(blas.libraries())
            assert counts() == [3] * len(blas.libraries())


def test_no_openblas_found_changes_nothing(monkeypatch):
    before = counts()
    monkeypatch.setattr(blas, "libraries", lambda: ())
    with blas.one_thread():
        x = np.arange(9.0).reshape(3, 3)
        assert (x @ x)[0, 0] == 15.0
    monkeypatch.undo()
    assert counts() == before


@needs_openblas
def test_import_leaves_thread_counts_alone():
    """In a fresh process: counts set before `import walkrec` are unchanged
    after it, and the libraries are not looked up at import."""
    script = """
import importlib.util, json, pathlib
import numpy, scipy.linalg
pkg = importlib.util.find_spec("walkrec").submodule_search_locations[0]
spec = importlib.util.spec_from_file_location("standalone_blas", pathlib.Path(pkg, "blas.py"))
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
libs = mod.libraries()
for _, put in libs:
    put(3)
import walkrec
print(json.dumps({"counts": [get() for get, _ in libs],
                  "looked_up": walkrec.blas.libraries.cache_info().currsize}))
"""
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, timeout=60).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["counts"] and got["counts"] == [3] * len(got["counts"])
    assert got["looked_up"] == 0


def test_import_and_cell_load_no_scipy_linalg():
    """In a fresh process, importing the CLI and running one PMI cell loads
    neither scipy.linalg (a second OpenBLAS) nor scipy.sparse.linalg."""
    script = """
import json, sys
import walkrec.cli
from walkrec.datasets import split
from walkrec.evaluation import PipelineSettings, run_cell
from walkrec.synthetic import generate_synthetic
ds = split(generate_synthetic(seed=0), (0.8, 0.1, 0.1), seed=0)
run_cell(ds, PipelineSettings(measure="pmi", sweeps=2))
print(json.dumps({"loaded": [m for m in ("scipy.linalg", "scipy.sparse.linalg")
                             if m in sys.modules],
                  "libraries": len(walkrec.blas.libraries())}))
"""
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, timeout=120).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["loaded"] == []
    assert got["libraries"] <= 1


SCIPY_LOADED = """
import json, sys
import walkrec, walkrec.cli
exits = [walkrec.cli.main(["-c", sys.argv[1], stage]) for stage in sys.argv[2:]]
print(json.dumps({"exits": exits,
                  "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""


def stages_in_fresh_process(config, *stages):
    "The exit codes of the stages, run in one fresh process, and the scipy modules it loaded."
    out = subprocess.run([sys.executable, "-c", SCIPY_LOADED, str(config), *stages],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    got = json.loads(out.splitlines()[-1])
    return got["exits"], got["scipy"]


def test_stages_without_a_sparse_matrix_load_no_scipy(tmp_path):
    """In fresh processes, importing walkrec and its CLI and running ingest,
    split and walk, then recommend and evaluate, load no scipy module: only
    pairs, confidence, train and experiment build or read a sparse matrix."""
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "data": {"synthetic": {"users": 50, "items": 40, "groups": 5, "seed": 3}},
        "walk": {"beta": 2, "gamma": 10, "seed": 1},
        "als": {"factors": 4, "sweeps": 2},
        "work_dir": str(tmp_path / "work"),
    }))
    assert stages_in_fresh_process(config, "ingest", "split", "walk") == ([0, 0, 0], [])
    for stage in ("pairs", "confidence", "train"):  # in this process, which has scipy
        assert main(["-c", str(config), stage]) == 0, stage
    assert stages_in_fresh_process(config, "recommend", "evaluate") == ([0, 0], [])


@pytest.fixture(scope="module")
def bundled_pmi():
    ds = split(generate_synthetic(seed=0), (0.8, 0.1, 0.1), seed=0)
    g = build_graph(ds.train, ds.n_users, ds.n_items)
    return sppmi_matrix(sample_pairs(generate_walks(g, WalkConfig(10, 80, 0)), 3), 1.0)


@needs_openblas
def test_bytes_do_not_depend_on_caller_threads(bundled_pmi):
    fits, scores = [], []
    for n in (1, 2):
        with caller_threads(n):
            model = als_fit(bundled_pmi, AlsConfig())
            assert counts() == [n] * len(blas.libraries())
            recs = recommend_topk(model, 10)
            assert counts() == [n] * len(blas.libraries())
        fits.append(model)
        scores.append([rl.items for rl in recs])
    a, b = fits
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.loss_trace, b.loss_trace)
    assert scores[0] == scores[1]
