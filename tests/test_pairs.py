"""Windowed pair extraction vs. brute-force enumeration, merge algebra, stats."""

import tracemalloc

import numpy as np
import pytest

import walkrec.pairs as pairs_module
from walkrec.graph import build_graph
from walkrec.pairs import PairCorpusStats, load_stats, merge, sample_pairs, save_stats
from walkrec.walks import WalkConfig, WalkCorpus, generate_walks

from conftest import corpus_from_tokens, oracle_pair_multiset


def counts_dict(stats):
    coo = stats.pair_count.tocoo()
    return {(int(u), int(i)): int(c) for u, i, c in zip(coo.row, coo.col, coo.data)}


def random_corpus(rng, m=6, n=7, edges=24, beta=2, gamma=11):
    edge_set = {(int(rng.integers(m)), int(rng.integers(n))) for _ in range(edges)}
    g = build_graph(edge_set, m, n)
    return generate_walks(g, WalkConfig(beta, gamma, int(rng.integers(1000)))), edge_set


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
    def test_detects_broken_marginals(self):
        corpus = corpus_from_tokens(["u1 i2 u2 i1"], 3, 3)
        stats = sample_pairs(corpus, 3)
        stats.user_count[0] += 1
        with pytest.raises(ValueError):
            stats.validate()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        corpus, _ = random_corpus(rng)
        stats = sample_pairs(corpus, 3)
        p = tmp_path / "stats.tsv"
        save_stats(stats, p)
        back = load_stats(p)
        back.validate()
        assert counts_dict(back) == counts_dict(stats)
        assert back.total == stats.total
        assert np.array_equal(back.user_count, stats.user_count)

    def test_header_total_checked(self, tmp_path):
        p = tmp_path / "stats.tsv"
        p.write_text("# users=2 items=2 total=5\n0\t0\t1\n")
        with pytest.raises(ValueError, match="header total"):
            load_stats(p)


class TestSortedRunCounter:
    @pytest.mark.parametrize("chunk", [1, 3, pairs_module._CHUNK_ROWS])
    def test_chunked_merge_matches_enumeration(self, monkeypatch, chunk):
        monkeypatch.setattr(pairs_module, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(20)
        for _ in range(15):
            corpus, _ = random_corpus(rng, beta=3)
            sigma = int(rng.choice([1, 3, 5, 7]))
            stats = sample_pairs(corpus, sigma)
            stats.validate()
            assert counts_dict(stats) == dict(oracle_pair_multiset(corpus, sigma))

    def test_codes_beyond_int32_are_packed_in_int64(self):
        m = n = 50_000  # u * n + i reaches 2.5e9 > 2**31 - 1
        corpus = WalkCorpus(np.array([[m - 1, m + n - 1, 0, m + n - 2, m - 2],
                                      [m + 7, m - 3, m + n - 1, 12_345, m + 40_000]]), m, n)
        stats = sample_pairs(corpus, 3)
        stats.validate()
        assert counts_dict(stats) == dict(oracle_pair_multiset(corpus, 3))
        assert stats.pair_count[m - 1, n - 1] == 1 and stats.pair_count[m - 3, 40_000] == 1

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

    def test_canonical_int64_matrix_saves_hand_counted_file(self, tmp_path):
        # u0 i1 u0 i0: u0-i1 twice at distance 1, u0-i0 at distances 1 and 3;
        # i1 u1 i1 u0: u1-i1 from both sides, u0-i1 at distances 1 and 3;
        # u1 i0 u1 i1: u1-i0 from both sides, u1-i1 at distances 1 and 3
        corpus = corpus_from_tokens(["u0 i1 u0 i0", "i1 u1 i1 u0", "u1 i0 u1 i1"], 2, 2)
        stats = sample_pairs(corpus, 3)
        assert stats.pair_count.has_canonical_format
        assert stats.pair_count.data.dtype == np.int64
        save_stats(stats, tmp_path / "stats.tsv")
        assert (tmp_path / "stats.tsv").read_text() == (
            "# users=2 items=2 total=12\n0\t0\t2\n0\t1\t4\n1\t0\t2\n1\t1\t4\n")


def test_traced_peak_is_bounded_by_the_corpus_size():
    # Walks on a 3,000 x 3,000 graph of user degree 5: 47,856 walks of 80
    # codes, 30.6 MB.  Traced peaks measured on this corpus: 27.5 MB (0.90x)
    # for the sorted-run counter, 92.3 MB (3.0x) for the per-offset COO/CSR
    # build with sparse sums that it replaced; a dense M x N int64 counter
    # alone would hold 72 MB (2.35x).
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
    assert peak < 1.5 * corpus.walks.nbytes
