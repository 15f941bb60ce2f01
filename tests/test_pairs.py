"""Windowed pair extraction vs. brute-force enumeration, merge algebra, stats."""

import sys
import tracemalloc

import numpy as np
import pytest

import walkrec.pairs as pairs_module
import walkrec.walks as walks_module
from walkrec.graph import build_graph
from walkrec.pairs import PairCorpusStats, load_stats, merge, sample_pairs, save_stats
from walkrec.walks import WalkConfig, WalkCorpus, WalkRowError, draw_walks, generate_walks

from conftest import corpus_from_tokens, oracle_pair_multiset


def counts_dict(stats):
    coo = stats.pair_count.tocoo()
    return {(int(u), int(i)): int(c) for u, i, c in zip(coo.row, coo.col, coo.data)}


def random_corpus(rng, m=6, n=7, edges=24, beta=2, gamma=11):
    edge_set = {(int(rng.integers(m)), int(rng.integers(n))) for _ in range(edges)}
    g = build_graph(edge_set, m, n)
    return generate_walks(g, WalkConfig(beta, gamma, int(rng.integers(1000)))), edge_set


def codes_per_walk(corpus, sigma):
    "The pair codes sample_pairs makes from one walk: a pair per odd distance <= sigma."
    gamma = corpus.walks.shape[1]
    return sum(gamma - d for d in range(1, min(sigma, gamma - 1) + 1, 2))


class TestHandOracle:
    def test_four_vertex_walk_window_three(self):
        corpus = corpus_from_tokens(["u1 i2 u2 i1"], 3, 3)
        stats = sample_pairs(corpus, sigma=3)
        stats.validate()
        assert counts_dict(stats) == {(1, 2): 1, (1, 1): 1, (2, 2): 1, (2, 1): 1}
        assert stats.user_count.tolist() == [0, 2, 2]
        assert stats.item_count.tolist() == [0, 2, 2]
        assert stats.total == 4

    def test_minimal_window(self):
        corpus = corpus_from_tokens(["u1 i1"], 2, 2)
        stats = sample_pairs(corpus, sigma=1)
        assert counts_dict(stats) == {(1, 1): 1}
        assert stats.total == 1

    def test_window_three_reaches_distance_three(self):
        corpus = corpus_from_tokens(["u0 i0 u1 i1"], 2, 2)
        direct = counts_dict(sample_pairs(corpus, sigma=1))
        wide = counts_dict(sample_pairs(corpus, sigma=3))
        assert (0, 1) not in direct
        assert (0, 1) in wide  # indirect pair three steps away

    def test_item_started_walk(self):
        corpus = corpus_from_tokens(["i0 u0 i1"], 1, 2)
        stats = sample_pairs(corpus, sigma=1)
        assert counts_dict(stats) == {(0, 0): 1, (0, 1): 1}


class TestOracleEquivalence:
    def test_random_corpora_match_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            corpus, _ = random_corpus(rng)
            sigma = int(rng.choice([1, 3, 5, 7]))
            stats = sample_pairs(corpus, sigma)
            stats.validate()
            expected = oracle_pair_multiset(corpus, sigma)
            assert counts_dict(stats) == {k: v for k, v in expected.items()}
            assert stats.total == sum(expected.values())


class TestWindowSemantics:
    def test_even_sigma_rejected(self):
        corpus = corpus_from_tokens(["u0 i0"], 1, 1)
        with pytest.raises(ValueError, match="odd"):
            sample_pairs(corpus, 2)

    def test_nonpositive_sigma_rejected(self):
        corpus = corpus_from_tokens(["u0 i0"], 1, 1)
        with pytest.raises(ValueError):
            sample_pairs(corpus, 0)

    @pytest.mark.parametrize("sigma", [3.5, np.float64(3.0), True],
                             ids=["float", "numpy_float", "bool"])
    def test_non_integer_sigma_rejected_not_truncated(self, sigma):
        corpus = corpus_from_tokens(["u0 i0 u1 i1", "i1 u1 i0 u0"], 2, 2)
        with pytest.raises(ValueError, match="^sigma must be an integer"):
            sample_pairs(corpus, sigma)
        assert counts_dict(sample_pairs(corpus, np.int64(3))) == counts_dict(
            sample_pairs(corpus, 3))

    def test_alternation_violation_rejected(self):
        corpus = corpus_from_tokens(["u0 i0 u0"], 1, 1)
        corpus.walks[0][1] = 0  # sneak a user into an item slot
        with pytest.raises(ValueError, match="alternation"):
            sample_pairs(corpus, 1)

    def test_sigma_one_support_is_train_edges(self):
        rng = np.random.default_rng(6)
        corpus, edges = random_corpus(rng)
        stats = sample_pairs(corpus, 1)
        assert set(counts_dict(stats)) <= edges

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(8)
        corpus, _ = random_corpus(rng, gamma=15)
        narrow = counts_dict(sample_pairs(corpus, 3))
        wide = counts_dict(sample_pairs(corpus, 7))
        for k, v in narrow.items():
            assert wide.get(k, 0) >= v

    def test_deterministic_and_worker_independent(self):
        rng = np.random.default_rng(10)
        corpus, _ = random_corpus(rng, beta=3)
        a = sample_pairs(corpus, 3)
        b = sample_pairs(corpus, 3)
        assert counts_dict(a) == counts_dict(b)
        assert a.total == b.total


class TestMerge:
    def test_identity_element(self):
        corpus = corpus_from_tokens(["u1 i2 u2 i1"], 3, 3)
        x = sample_pairs(corpus, 3)
        out = merge(x, PairCorpusStats.empty(3, 3))
        out.validate()
        assert counts_dict(out) == counts_dict(x)
        assert out.total == x.total

    def test_doubling(self):
        corpus = corpus_from_tokens(["u1 i2 u2 i1", "u0 i0 u0 i0"], 3, 3)
        x = sample_pairs(corpus, 3)
        out = merge(x, x)
        out.validate()
        assert counts_dict(out) == {k: 2 * v for k, v in counts_dict(x).items()}
        assert out.total == 2 * x.total

    def test_disjoint_subsets_recompose_to_union(self):
        rng = np.random.default_rng(12)
        corpus, _ = random_corpus(rng, beta=2, gamma=9)
        half = len(corpus.walks) // 2
        a = WalkCorpus(corpus.walks[:half], corpus.n_users, corpus.n_items)
        b = WalkCorpus(corpus.walks[half:], corpus.n_users, corpus.n_items)
        merged = merge(sample_pairs(a, 3), sample_pairs(b, 3))
        merged.validate()
        whole = sample_pairs(corpus, 3)
        assert counts_dict(merged) == counts_dict(whole)
        assert merged.total == whole.total
        assert np.array_equal(merged.user_count, whole.user_count)
        assert np.array_equal(merged.item_count, whole.item_count)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            merge(PairCorpusStats.empty(2, 2), PairCorpusStats.empty(2, 3))


class TestStatsValidation:
    def test_marginals_follow_the_pair_counts(self):
        corpus = corpus_from_tokens(["u1 i2 u2 i1"], 3, 3)
        stats = sample_pairs(corpus, 3)
        stats.pair_count[1, 2] += 5
        assert stats.user_count.tolist() == [0, 7, 2]
        assert stats.item_count.tolist() == [0, 2, 7]
        assert stats.total == 9

    def test_detects_negative_count(self):
        corpus = corpus_from_tokens(["u1 i2 u2 i1"], 3, 3)
        stats = sample_pairs(corpus, 3)
        stats.pair_count.data[0] = -1
        with pytest.raises(ValueError, match="negative pair count"):
            stats.validate()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        corpus, _ = random_corpus(rng)
        stats = sample_pairs(corpus, 3)
        p = tmp_path / "pair_stats.npz"
        save_stats(stats, p)
        back = load_stats(p)
        back.validate()
        for name in ("data", "indices", "indptr"):
            a, b = getattr(back.pair_count, name), getattr(stats.pair_count, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert back.pair_count.shape == stats.pair_count.shape


class TestSortedRunCounter:
    @pytest.mark.parametrize("chunk", [1, 3, 16384])  # walks a chunk
    def test_chunked_merge_matches_enumeration(self, monkeypatch, chunk):
        whole = 16384  # every walk of these corpora in one chunk

        def counted(corpus, sigma, rows):
            monkeypatch.setattr(pairs_module, "_CHUNK_CODES", rows * codes_per_walk(corpus, sigma))
            return sample_pairs(corpus, sigma)

        def check(corpus, sigma):
            stats = counted(corpus, sigma, chunk)
            stats.validate()
            assert counts_dict(stats) == dict(oracle_pair_multiset(corpus, sigma))
            got, ref = stats.pair_count, counted(corpus, sigma, whole).pair_count
            for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices),
                         (got.data, ref.data)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            rows = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
            assert np.all(np.diff(got.indices)[rows[1:] == rows[:-1]] > 0)  # sorted, no repeats

        rng = np.random.default_rng(20)
        for _ in range(15):
            corpus, _ = random_corpus(rng, beta=3)  # walks of 11 vertices
            check(corpus, int(rng.choice([1, 3, 5, 7, 13])))
        corpus = corpus_from_tokens(["u0 i0 u0 i0 u0 i0"] * 5, 2, 2)  # a chunk is one run
        for sigma in (1, 5):
            check(corpus, sigma)

    def test_codes_beyond_int32_are_packed_in_int64(self):
        m = n = 50_000  # u * n + i reaches 2.5e9 > 2**31 - 1
        corpus = WalkCorpus(np.array([[m - 1, m + n - 1, 0, m + n - 2, m - 2],
                                      [m + 7, m - 3, m + n - 1, 12_345, m + 40_000]]), m, n)
        stats = sample_pairs(corpus, 3)
        stats.validate()
        assert counts_dict(stats) == dict(oracle_pair_multiset(corpus, 3))
        assert stats.pair_count[m - 1, n - 1] == 1 and stats.pair_count[m - 3, 40_000] == 1

    def test_codes_at_the_int32_edge(self):
        m, n = 46_341, 46_340  # u * n + i fits int32, but u * n + m would not
        assert m * n < 2**31 <= m * n + m
        corpus = WalkCorpus(np.array([[m - 1, m + n - 1, m - 2, m + n - 2, m - 1],
                                      [m + n - 1, m - 1, m + n - 2, 0, m + n - 1]]), m, n)
        codes = np.empty(2 * (4 + 2), dtype=np.int32)
        pairs_module._pair_codes(corpus.walks, range(1, 4, 2), m, n, codes)
        a = np.concatenate([corpus.walks[:, :-d].ravel() for d in (1, 3)]).astype(np.int64)
        b = np.concatenate([corpus.walks[:, d:].ravel() for d in (1, 3)]).astype(np.int64)
        assert codes.tolist() == (np.minimum(a, b) * n + np.maximum(a, b) - m).tolist()
        stats = sample_pairs(corpus, 3)
        assert counts_dict(stats) == dict(oracle_pair_multiset(corpus, 3))
        assert stats.pair_count[m - 1, n - 1] == 4  # twice in each walk

    @pytest.mark.parametrize("sigma", [5, 7, 11])
    def test_window_at_least_walk_length(self, sigma):
        rng = np.random.default_rng(22)
        corpus, _ = random_corpus(rng, gamma=5)
        stats = sample_pairs(corpus, sigma)
        assert counts_dict(stats) == dict(oracle_pair_multiset(corpus, sigma))
        assert counts_dict(stats) == counts_dict(sample_pairs(corpus, 3))

    @pytest.mark.parametrize("pos, code", [(0, -1), (1, -3), (1, 5), (0, 9)])
    def test_code_outside_vertex_range_rejected(self, pos, code):
        for corpus in (corpus_from_tokens(["u0 i1 u1 i0"], 2, 3),
                       WalkCorpus(np.array([[0, 3, 1, 2]]), 2, 3)):
            corpus.walks[0][pos] = code
            with pytest.raises(ValueError, match=r"outside \[0, 5\)"):
                sample_pairs(corpus, 3)

    def test_canonical_int64_matrix_saves_hand_counted_archive(self, tmp_path):
        # u0 i1 u0 i0: u0-i1 twice at distance 1, u0-i0 at distances 1 and 3;
        # i1 u1 i1 u0: u1-i1 from both sides, u0-i1 at distances 1 and 3;
        # u1 i0 u1 i1: u1-i0 from both sides, u1-i1 at distances 1 and 3
        corpus = corpus_from_tokens(["u0 i1 u0 i0", "i1 u1 i1 u0", "u1 i0 u1 i1"], 2, 2)
        stats = sample_pairs(corpus, 3)
        assert stats.pair_count.has_canonical_format
        assert stats.pair_count.data.dtype == np.int64
        save_stats(stats, tmp_path / "pair_stats.npz")
        with np.load(tmp_path / "pair_stats.npz") as saved:
            assert sorted(saved.files) == ["data", "indices", "indptr", "shape"]
            assert saved["data"].dtype == np.int64 and saved["shape"].dtype == np.int64
            assert saved["data"].tolist() == [2, 4, 2, 4]
            assert saved["indices"].tolist() == [0, 1, 0, 1]
            assert saved["indptr"].tolist() == [0, 2, 4]
            assert saved["shape"].tolist() == [2, 2]


class TestCodeBudget:
    """Walks are cut into the fewest near-equal chunks of about the code budget,
    counted one per CPU; any budget and CPU count give the enumerated counts as
    the same arrays."""

    @pytest.mark.parametrize("sigma", [1, 3, 79])
    @pytest.mark.parametrize("walks_per_chunk, spare", [(1, 0), (2, 1), (5, 7)])
    def test_any_budget_and_cpu_count_give_the_same_arrays(self, monkeypatch, cpus, sigma,
                                                           walks_per_chunk, spare):
        corpus, _ = random_corpus(np.random.default_rng(2), beta=3, gamma=81)
        assert len(corpus.walks) == 39  # 39, 20 and 8 chunks of 1, 1-2 and 4-5 walks
        expected = dict(oracle_pair_multiset(corpus, sigma))
        whole = sample_pairs(corpus, sigma).pair_count  # one chunk
        per_walk = codes_per_walk(corpus, sigma)
        assert spare < per_walk
        monkeypatch.setattr(pairs_module, "_CHUNK_CODES", walks_per_chunk * per_walk + spare)
        for n in (1, 2):
            cpus(n)
            stats = sample_pairs(corpus, sigma)
            assert counts_dict(stats) == expected
            for name in ("data", "indices", "indptr"):
                a, b = getattr(stats.pair_count, name), getattr(whole, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_chunks_hold_about_the_budget_whatever_the_window(self, monkeypatch):
        corpus, _ = random_corpus(np.random.default_rng(2), beta=3, gamma=81)
        sizes = []
        real = pairs_module._count_chunk

        def recorded(walks, *args):
            sizes.append(len(walks))
            return real(walks, *args)

        monkeypatch.setattr(pairs_module, "_count_chunk", recorded)
        monkeypatch.setattr(pairs_module, "_CHUNK_CODES", 2_000)
        # 80, 158 and 1,640 codes a walk: 3,120, 6,162 and 63,960 codes in all
        for sigma, sizes_seen in ((1, [19, 20]), (3, [9, 10, 10, 10]), (79, [1] * 25 + [2] * 7)):
            sizes.clear()
            sample_pairs(corpus, sigma)
            assert sorted(sizes) == sizes_seen


def test_traced_peak_is_bounded_by_the_corpus_size():
    # Walks on a 3,000 x 3,000 graph of user degree 5: 47,856 walks of 80
    # codes, 3.83 M vertices.  Traced peaks measured on this corpus: 25.3 MB
    # (6.6 bytes a vertex) for the sorted-run counter on int32 walks, 29.3 MB
    # (7.7) on int64 walks, 92.3 MB (24) for the per-offset COO/CSR build with
    # sparse sums that it replaced; a dense M x N int64 counter alone would
    # hold 72 MB (18.8).
    rng = np.random.default_rng(0)
    m = n = 3_000
    edges = np.stack([np.repeat(np.arange(m), 5), rng.integers(0, n, 5 * m)], axis=1)
    corpus = generate_walks(build_graph(edges, m, n), WalkConfig(beta=8, gamma=80, seed=0))
    tracemalloc.start()
    try:
        sample_pairs(corpus, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * corpus.walks.size


def undrawn(g, cfg):
    with draw_walks(False):
        return generate_walks(g, cfg)


def assert_same_matrix(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStreamedCounts:
    """sample_pairs of an undrawn corpus counts its pairs window by window as its
    walks are drawn, and gives the same arrays as sample_pairs of the drawn corpus."""

    @pytest.fixture(params=["isolated", "empty"])
    def graph(self, request):
        m, n = 12, 15
        if request.param == "empty":
            return build_graph(np.zeros((0, 2), dtype=np.int64), m, n)
        rng = np.random.default_rng(3)
        # users 10, 11 and items 13, 14 have no edges
        edges = {(int(rng.integers(10)), int(rng.integers(13))) for _ in range(40)}
        return build_graph(edges, m, n)

    @pytest.mark.parametrize("window", [1, 3, None])  # None: _WINDOW as it is
    @pytest.mark.parametrize("blocks", ["one", "many"])
    def test_counts_match_the_drawn_corpus(self, graph, window, blocks, monkeypatch, cpus):
        if window is not None:
            monkeypatch.setattr(walks_module, "_WINDOW", window)
        if blocks == "many":  # a lane per CPU, more blocks than lanes, pieces of a window
            monkeypatch.setattr(walks_module, "_LANE_WALKS", 1)
            monkeypatch.setattr(walks_module, "_WALK_BLOCK", 7)
            monkeypatch.setattr(pairs_module, "_CHUNK_CODES", 60)
        w = walks_module._WINDOW
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # blocks fold into the shared sum as often as they can
        try:
            for gamma in (1, 2, w + 1, 2 * w + 3):
                for sigma in (1, 3, 5, gamma | 1, 2 * gamma + 1):  # the last two >= gamma
                    cfg = WalkConfig(beta=3, gamma=gamma, seed=gamma + sigma)
                    want = sample_pairs(generate_walks(graph, cfg), sigma).pair_count
                    for n in (1, 2, 3):
                        cpus(n)
                        corpus = undrawn(graph, cfg)
                        assert_same_matrix(sample_pairs(corpus, sigma).pair_count, want)
                        assert corpus.walker is not None  # no rows were kept
        finally:
            sys.setswitchinterval(interval)

    def test_codes_beyond_int32(self):
        m = n = 50_000  # u * n + i reaches 2.5e9 > 2**31 - 1
        g = build_graph([(0, n - 1), (m - 1, n - 1), (m - 1, 0), (7, 0), (7, 12_345)], m, n)
        cfg = WalkConfig(beta=4, gamma=13, seed=1)
        want = sample_pairs(generate_walks(g, cfg), 5).pair_count
        assert_same_matrix(sample_pairs(undrawn(g, cfg), 5).pair_count, want)
        assert want[m - 1, n - 1] > 0

    def test_undrawn_corpus_draws_its_rows_on_first_read(self):
        g = build_graph(np.random.default_rng(4).integers(0, 6, size=(24, 2)), 6, 7)
        cfg = WalkConfig(beta=3, gamma=21, seed=9)
        lazy = undrawn(g, cfg)
        sample_pairs(lazy, 3)
        assert lazy.walker is not None
        assert lazy.walks.tobytes() == generate_walks(g, cfg).walks.tobytes()
        assert lazy.walker is None

    @pytest.mark.parametrize("window", [1, 3, None])
    def test_each_window_is_checked(self, monkeypatch, window):
        """A graph whose adjacency pairs users with users makes walks that break the
        alternation: the streamed count raises a WalkRowError that names a real fault
        of the drawn corpus, and counts nothing past it."""
        if window is not None:
            monkeypatch.setattr(walks_module, "_WINDOW", window)
        m, n = 6, 7
        g = build_graph({(u, i) for u in range(m) for i in range(n) if (u + i) % 3}, m, n)
        indices = g.indices.copy()
        indices[indices == m + 5] = 4  # a step to item 5 lands on user 4
        g = type(g)(g.indptr, indices, m, n)
        cfg = WalkConfig(beta=2, gamma=19, seed=0)
        walks = generate_walks(g, cfg).walks
        with pytest.raises(WalkRowError) as caught:
            sample_pairs(undrawn(g, cfg), 5)
        row, problem = caught.value.row, caught.value.problem
        p = int(problem.split("positions ")[1].split(" and")[0])
        assert (walks[row, p] < m) == (walks[row, p + 1] < m)
        assert problem == (f"breaks user/item alternation: positions {p} and {p + 1} "
                           "do not alternate")

    def test_traced_peak_is_below_drawing_then_counting(self, cpus):
        """On TestGeneratorMemory's graph (47,856 walks of 80 vertices, a 15.3 MB
        corpus) counting as the walks are drawn traced 20.5 MB on one CPU and 28.2
        on two, against 33.3 and 40.4 MB to draw the corpus and count it.  The
        walker's streams and window take about 141 bytes a walk and each window's
        pair runs about as many bytes as its codes on this graph (310,000 distinct
        pairs), so the whole stays above half the corpus's bytes."""
        rng = np.random.default_rng(0)
        m = n = 3_000
        edges = np.stack([np.repeat(np.arange(m), 5), rng.integers(0, n, 5 * m)], axis=1)
        g = build_graph(edges, m, n)
        cfg = WalkConfig(beta=8, gamma=80, seed=0)
        for cpu_count in (1, 2):
            cpus(cpu_count)
            tracemalloc.start()
            try:
                sample_pairs(generate_walks(g, cfg), 3)
                drawn = tracemalloc.get_traced_memory()[1]
                corpus = undrawn(g, cfg)
                tracemalloc.reset_peak()
                sample_pairs(corpus, 3)
                streamed = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert streamed < 0.8 * drawn


class TestLeanSums:
    """Each block or corpus sums its pieces' counts in int32 when it cannot reach
    _INT32_PAIRS pairs, else in int64, and every sum is cut to its nnz entries,
    so the returned counts hold no spare capacity; the arrays stay those of the
    drawn corpus, and its enumerated counts."""

    @pytest.fixture
    def graph(self):
        rng = np.random.default_rng(8)
        edges = {(int(rng.integers(10)), int(rng.integers(13))) for _ in range(40)}
        return build_graph(edges, 12, 15)

    @pytest.mark.parametrize("blocks", ["one", "many"])
    @pytest.mark.parametrize("drawn", [False, True])
    def test_returned_arrays_are_exactly_nnz_long(self, graph, blocks, drawn, monkeypatch,
                                                  cpus):
        if blocks == "many":  # many blocks and pieces: sums that fold into the running sum
            monkeypatch.setattr(walks_module, "_LANE_WALKS", 1)
            monkeypatch.setattr(walks_module, "_WALK_BLOCK", 7)
            monkeypatch.setattr(pairs_module, "_CHUNK_CODES", 60)
        cfg = WalkConfig(beta=3, gamma=2 * walks_module._WINDOW + 3, seed=4)
        corpus = generate_walks(graph, cfg)
        expected = dict(oracle_pair_multiset(corpus, 5))
        want = sample_pairs(corpus, 5).pair_count
        for n in (1, 2, 3):
            cpus(n)
            got = sample_pairs(generate_walks(graph, cfg) if drawn else undrawn(graph, cfg),
                               5).pair_count
            assert counts_dict(PairCorpusStats(got)) == expected
            assert_same_matrix(got, want)
            for a in (got.data, got.indices):
                assert len(a) == got.nnz and (a.base is None or a.base.size <= got.nnz)

    def test_a_block_past_the_int32_limit_counts_in_int64(self, graph, monkeypatch, cpus):
        monkeypatch.setattr(walks_module, "_LANE_WALKS", 1)
        monkeypatch.setattr(walks_module, "_WALK_BLOCK", 7)
        cfg = WalkConfig(beta=3, gamma=13, seed=6)
        corpus = generate_walks(graph, cfg)
        assert len(corpus.walks) % 7  # the last block is shorter than the others
        expected = dict(oracle_pair_multiset(corpus, 5))
        want = sample_pairs(corpus, 5).pair_count
        # a full block reaches the limit and counts in int64; the short one does not
        per_walk = pairs_module._codes_per_walk(cfg.gamma, range(1, 6, 2))
        monkeypatch.setattr(pairs_module, "_INT32_PAIRS", 7 * per_walk)
        dtypes, real = [], pairs_module._Recent.__init__

        def recorded(self, *args):
            real(self, *args)
            dtypes.append(self.dtype)

        monkeypatch.setattr(pairs_module._Recent, "__init__", recorded)
        for n in (1, 2, 3):
            cpus(n)
            dtypes.clear()
            got = sample_pairs(undrawn(graph, cfg), 5).pair_count
            assert counts_dict(PairCorpusStats(got)) == expected
            assert_same_matrix(got, want)
            blocks = -(-len(corpus.walks) // 7)
            assert len(dtypes) == blocks and dtypes.count(np.int32) == 1
        dtypes.clear()
        assert_same_matrix(sample_pairs(corpus, 5).pair_count, want)  # the whole corpus
        assert dtypes == [np.int64]

    def test_traced_peak_of_streamed_counting(self, cpus):
        """On TestGeneratorMemory's graph (47,856 walks of 80 vertices, a 15.3 MB
        corpus, 310,000 distinct pairs at sigma 3) counting as the walks are drawn
        traced 294 bytes a walk on one CPU and 391-422 on two, against 429 and
        526-593 while block sums were int64 and kept a sum's spare capacity."""
        rng = np.random.default_rng(0)
        m = n = 3_000
        edges = np.stack([np.repeat(np.arange(m), 5), rng.integers(0, n, 5 * m)], axis=1)
        g = build_graph(edges, m, n)
        cfg = WalkConfig(beta=8, gamma=80, seed=0)
        sample_pairs(undrawn(g, WalkConfig(beta=1, gamma=3)), 3)  # scipy.sparse is imported
        for cpu_count, bound in ((1, 340), (2, 480)):
            cpus(cpu_count)
            corpus = undrawn(g, cfg)
            tracemalloc.start()
            try:
                sample_pairs(corpus, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 47_856
