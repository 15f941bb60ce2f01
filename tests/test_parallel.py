"""map_blocks and the parallel stages: output bytes that do not depend on the
thread count, the caller's numpy error state and BLAS thread counts kept,
and a pool that survives fork."""

import os
import signal
import sys
import time

import numpy as np
import pytest

from walkrec import blas, factorization, pairs, parallel, walks
from walkrec.confidence import sppmi_matrix
from walkrec.datasets import split
from walkrec.factorization import AlsConfig, als_fit
from walkrec.graph import build_graph
from walkrec.pairs import sample_pairs
from walkrec.recommend import recommend_topk
from walkrec.synthetic import generate_synthetic
from walkrec.walks import WalkConfig, generate_walks


@pytest.fixture
def cpus(monkeypatch):
    "Set the number of CPUs threads() sees, as an affinity mask would."
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        assert parallel.threads() == n
    return set_cpus


@pytest.fixture(scope="module")
def bundled():
    ds = split(generate_synthetic(seed=0), (0.8, 0.1, 0.1), seed=0)
    return ds, build_graph(ds.train, ds.n_users, ds.n_items)


def run_stages(ds, g):
    corpus = generate_walks(g, WalkConfig(3, 20, 5))
    stats = sample_pairs(corpus, 5)
    model = als_fit(sppmi_matrix(stats, 1.0), AlsConfig(factors=8, sweeps=3))
    recs = recommend_topk(model, 10, ds.train, chunk=37)
    return [corpus.walks, stats.pair_count.data, stats.pair_count.indices,
            stats.pair_count.indptr, model.X, model.Y, np.array(model.loss_trace),
            recs.indptr, recs.items, recs.scores]


def test_stage_bytes_do_not_depend_on_thread_count(bundled, cpus, monkeypatch):
    ds, g = bundled
    monkeypatch.setattr(walks, "_WALK_BLOCK", 97)
    monkeypatch.setattr(pairs, "_CHUNK_ROWS", 211)
    monkeypatch.setattr(factorization, "_BLOCK_ROWS", 64)
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter as often as they can
    try:
        for n in (1, 2, 3, 5):
            cpus(n)
            outputs.append(run_stages(ds, g))
    finally:
        sys.setswitchinterval(interval)
    for other in outputs[1:]:
        for a, b in zip(outputs[0], other):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    monkeypatch.undo()  # walks and pairs do not depend on their block sizes either
    again = run_stages(ds, g)
    for j in range(4):
        assert again[j].tobytes() == outputs[0][j].tobytes()


@pytest.mark.skipif(not blas.libraries(), reason="no OpenBLAS loaded")
def test_blas_thread_counts_restored_after_parallel_stages(bundled, cpus, monkeypatch):
    ds, g = bundled
    monkeypatch.setattr(factorization, "_BLOCK_ROWS", 64)
    cpus(2)
    saved = [get() for get, _ in blas.libraries()]
    try:
        for _, put in blas.libraries():
            put(3)
        s = sppmi_matrix(sample_pairs(generate_walks(g, WalkConfig(2, 10, 0)), 3), 1.0)
        model = als_fit(s, AlsConfig(factors=4, sweeps=2))
        assert [get() for get, _ in blas.libraries()] == [3] * len(saved)
        recommend_topk(model, 5, chunk=50)
        assert [get() for get, _ in blas.libraries()] == [3] * len(saved)
    finally:
        for (_, put), n in zip(blas.libraries(), saved):
            put(n)


def test_blocks_see_the_callers_error_state(cpus):
    cpus(2)
    before = np.geterr()
    with np.errstate(invalid="ignore", divide="raise"):
        seen = parallel.map_blocks(lambda _: np.geterr(), range(6))
    assert all(e["invalid"] == "ignore" and e["divide"] == "raise" for e in seen)
    assert np.geterr() == before


def test_results_in_block_order_and_first_error_in_block_order(cpus):
    cpus(2)

    def slow_square(x):
        time.sleep(0.01 * (5 - x))  # later blocks finish first
        if x in (2, 4):
            raise KeyError(x)
        return x * x

    assert parallel.map_blocks(lambda x: slow_square(x % 2), range(5)) == [0, 1, 0, 1, 0]
    with pytest.raises(KeyError) as err:
        parallel.map_blocks(slow_square, range(5))
    assert err.value.args == (2,)


def test_nested_map_blocks_runs_inline(cpus):
    cpus(2)
    got = parallel.map_blocks(lambda x: parallel.map_blocks(lambda y: x * 10 + y, range(3)),
                              range(4))
    assert got == [[x * 10 + y for y in range(3)] for x in range(4)]


def test_spans_cover_the_range_in_near_equal_parts():
    for n in range(0, 30):
        for parts in range(1, 6):
            got = parallel.spans(n, parts)
            assert len(got) == parts and got[0][0] == 0 and got[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
            sizes = [hi - lo for lo, hi in got]
            assert max(sizes) - min(sizes) <= 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
def test_forked_child_gets_a_working_pool(cpus):
    cpus(2)
    assert parallel.map_blocks(lambda x: x + 1, range(4)) == [1, 2, 3, 4]  # the pool exists
    pid = os.fork()
    if pid == 0:  # the child: exit at once, whatever happens
        code = 1
        try:
            code = 0 if parallel.map_blocks(lambda x: x * 2, range(4)) == [0, 2, 4, 6] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("map_blocks in a forked child did not finish within 30 s")
