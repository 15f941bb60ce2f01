"""map_blocks and the parallel stages: output bytes that do not depend on the
thread count, the caller's numpy error state and BLAS thread counts kept,
and a pool that survives fork."""

import os
import signal
import sys
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from walkrec import blas, evaluation, factorization, pairs, parallel, recommend, walks
from walkrec.confidence import sppmi_matrix
from walkrec.datasets import split
from walkrec.evaluation import ExperimentGrid, PipelineSettings, run_cell, run_experiment
from walkrec.factorization import AlsConfig, als_fit
from walkrec.graph import build_graph
from walkrec.pairs import sample_pairs
from walkrec.recommend import recommend_topk
from walkrec.synthetic import generate_synthetic
from walkrec.walks import WalkConfig, generate_walks


@pytest.fixture(scope="module")
def bundled():
    ds = split(generate_synthetic(seed=0), (0.8, 0.1, 0.1), seed=0)
    return ds, build_graph(ds.train, ds.n_users, ds.n_items)


def run_stages(ds, g):
    corpus = generate_walks(g, WalkConfig(3, 20, 5))
    stats = sample_pairs(corpus, 5)
    model = als_fit(sppmi_matrix(stats, 1.0), AlsConfig(factors=8, sweeps=3))
    recs = recommend_topk(model, 10, ds.train)
    return [corpus.walks, stats.pair_count.data, stats.pair_count.indices,
            stats.pair_count.indptr, model.X, model.Y, np.array(model.loss_trace),
            recs.indptr, recs.items, recs.scores]


def test_stage_bytes_do_not_depend_on_thread_count(bundled, cpus, monkeypatch):
    ds, g = bundled
    monkeypatch.setattr(walks, "_WALK_BLOCK", 97)
    monkeypatch.setattr(pairs, "_CHUNK_CODES", 211 * 51)  # 211 walks of 20 vertices at sigma 5
    monkeypatch.setattr(factorization, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(recommend, "_RANK_ROWS", 37)
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


def test_walk_bytes_do_not_depend_on_uneven_blocks(bundled, cpus, monkeypatch):
    _, g = bundled
    cfg = WalkConfig(3, 20, 5)
    want = generate_walks(g, cfg).walks  # one block
    monkeypatch.setattr(walks, "_LANE_WALKS", 1)  # a lane per CPU
    cap = -(-len(want) // 10) + 1
    monkeypatch.setattr(walks, "_WALK_BLOCK", cap)
    assert len(want) // cap == 9 and len(want) % cap  # at 3 CPUs, three a lane and a short one
    for n in (1, 2, 3):
        cpus(n)
        assert generate_walks(g, cfg).walks.tobytes() == want.tobytes()


class CountingPool:
    "Stands in for parallel's thread pool: runs each task at once and counts it."

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def test_one_block_work_stays_on_the_calling_thread(bundled, cpus, monkeypatch):
    """A matrix under 2 * _BLOCK_ROWS rows a side and a corpus under _LANE_WALKS
    walks are one block each, run with no task sent to the pool."""
    _, g = bundled
    cpus(2)
    pool = CountingPool()
    monkeypatch.setattr(parallel, "_pool", pool)
    rng = np.random.default_rng(5)
    small = sp.random(1_023, 1_000, density=0.002, format="csr", random_state=rng)
    als_fit(small, AlsConfig(factors=4, sweeps=2))
    starts = np.count_nonzero(np.diff(g.indptr))
    beta = (walks._LANE_WALKS - 1) // starts
    generate_walks(g, WalkConfig(beta, 3, 0))
    assert pool.submitted == 0
    als_fit(sp.vstack([small, small[:1]], format="csr"), AlsConfig(factors=4, sweeps=2))
    assert pool.submitted > 0  # 1,024 users are two row blocks
    pool.submitted = 0
    generate_walks(g, WalkConfig(beta + 1, 3, 0))
    assert pool.submitted > 0  # two lanes once _LANE_WALKS walks are begun


@pytest.mark.skipif(not blas.libraries(), reason="no OpenBLAS loaded")
def test_blas_thread_counts_restored_after_parallel_stages(bundled, cpus, monkeypatch):
    ds, g = bundled
    monkeypatch.setattr(factorization, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(recommend, "_RANK_ROWS", 50)
    cpus(2)
    saved = [get() for get, _ in blas.libraries()]
    try:
        for _, put in blas.libraries():
            put(3)
        s = sppmi_matrix(sample_pairs(generate_walks(g, WalkConfig(2, 10, 0)), 3), 1.0)
        model = als_fit(s, AlsConfig(factors=4, sweeps=2))
        assert [get() for get, _ in blas.libraries()] == [3] * len(saved)
        recommend_topk(model, 5)
        assert [get() for get, _ in blas.libraries()] == [3] * len(saved)
    finally:
        for (_, put), n in zip(blas.libraries(), saved):
            put(n)


def test_one_thread_does_nothing_inside_a_block(cpus, monkeypatch):
    cpus(2)
    count, calls = [3], []

    def put(n):
        calls.append((threading.current_thread() is threading.main_thread(), n))
        count[0] = n

    monkeypatch.setattr(blas, "libraries", lambda: ((lambda: count[0], put),))

    def block(_):
        with blas.one_thread():
            return count[0]

    assert parallel.map_blocks(block, range(4)) == [3] * 4 and calls == []
    with blas.one_thread():
        assert parallel.map_blocks(block, range(4)) == [1] * 4
    assert calls == [(True, 1), (True, 3)]  # set and restored once, on the calling thread
    assert count[0] == 3


GRID_FAST = PipelineSettings(beta=3, gamma=12, factors=6, sweeps=3, k_items=5, cutoffs=(3, 5))


def report_rows(rows):
    return [(r.config, r.precision, r.recall, r.f1, r.user_count) for r in rows]


def test_grid_rows_do_not_depend_on_thread_count(bundled, cpus):
    ds, _ = bundled
    grid = ExperimentGrid(measures=("pmi", "co", "mf", "itempop"), sigmas=(1, 3),
                          keep_fractions=(1.0, 0.5), seeds=(0, 1))
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter as often as they can
    try:
        for n in (1, 2, 3):
            cpus(n)
            outputs.append(report_rows(run_experiment(ds, GRID_FAST, grid)))
    finally:
        sys.setswitchinterval(interval)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    order = [(measure, sigma, keep, seed) for measure in grid.measures for sigma in grid.sigmas
             for keep in grid.keep_fractions for seed in grid.seeds]
    assert [(c["measure"], c["sigma"], c["keep_fraction"], c["seed"])
            for c, *_ in outputs[0]] == order


def test_grid_raises_the_first_failing_cell_in_grid_order(bundled, cpus, monkeypatch):
    ds, _ = bundled
    cpus(2)
    real_fit = evaluation.als_fit

    def failing_fit(s, cfg):
        cell = (s.measure, cfg.seed)
        if cell == ("pmi", 1):
            time.sleep(0.05)  # later failures finish first
            raise KeyError(cell)
        if cell == ("co", 2):
            raise KeyError(cell)
        return real_fit(s, cfg)

    monkeypatch.setattr(evaluation, "als_fit", failing_fit)
    grid = ExperimentGrid(measures=("pmi", "co"), sigmas=(3,), keep_fractions=(1.0,),
                          seeds=(0, 1, 2))
    with pytest.raises(KeyError) as err:
        run_experiment(ds, GRID_FAST, grid)
    assert err.value.args == (("pmi", 1),)


def test_corpora_are_freed_before_the_fit(bundled, cpus, monkeypatch):
    ds, _ = bundled
    cpus(2)
    corpora, live_at_fit = [], []
    real_walks, real_fit = evaluation.generate_walks, evaluation.als_fit

    def tracked_walks(g, cfg):
        corpus = real_walks(g, cfg)
        corpora.append(weakref.ref(corpus))
        return corpus

    def checked_fit(s, cfg):
        live_at_fit.append(sum(ref() is not None for ref in corpora))
        return real_fit(s, cfg)

    monkeypatch.setattr(evaluation, "generate_walks", tracked_walks)
    monkeypatch.setattr(evaluation, "als_fit", checked_fit)
    run_cell(ds, GRID_FAST)
    assert len(corpora) == 1 and live_at_fit == [0]
    grid = ExperimentGrid(measures=("pmi", "co", "mf"), sigmas=(1, 3), keep_fractions=(1.0,),
                          seeds=(0, 1))
    run_experiment(ds, GRID_FAST, grid)
    assert len(corpora) == 3 and live_at_fit == [0] * 13


def test_grid_frees_each_corpus_before_the_next(bundled, monkeypatch):
    ds, _ = bundled
    corpora, live_before = [], []
    real_walks = evaluation.generate_walks

    def tracked_walks(g, cfg):
        live_before.append(sum(ref() is not None for ref in corpora))
        corpus = real_walks(g, cfg)
        corpora.append(weakref.ref(corpus))
        return corpus

    monkeypatch.setattr(evaluation, "generate_walks", tracked_walks)
    grid = ExperimentGrid(measures=("pmi", "mf", "co"), sigmas=(3, 1), keep_fractions=(1.0, 0.5),
                          seeds=(1, 0))
    rows = run_experiment(ds, GRID_FAST, grid)
    assert live_before == [0, 0, 0, 0]  # one per (keep_fraction, seed), each made alone
    assert [(r.config["measure"], r.config["sigma"], r.config["keep_fraction"], r.config["seed"])
            for r in rows] == [(measure, sigma, keep, seed) for measure in grid.measures
                               for sigma in grid.sigmas for keep in grid.keep_fractions
                               for seed in grid.seeds]


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
