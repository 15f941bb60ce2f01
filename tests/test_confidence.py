"""Confidence measures: co-occurrence counts and shifted positive PMI."""

import math
from collections import Counter

import numpy as np
import pytest

from walkrec.confidence import co_matrix, load_confidence, save_confidence, sppmi_matrix
from walkrec.graph import build_graph
from walkrec.pairs import PairCorpusStats, merge, sample_pairs
from walkrec.walks import WalkConfig, generate_walks

from conftest import oracle_sppmi, random_multiset, stats_from_multiset


def entries(conf):
    coo = conf.matrix.tocoo()
    return {(int(u), int(i)): float(v) for u, i, v in zip(coo.row, coo.col, coo.data)}


class TestCoMatrix:
    def test_identity_on_counts(self):
        stats = stats_from_multiset(Counter({(1, 1): 7}), 2, 2)
        conf = co_matrix(stats)
        assert entries(conf) == {(1, 1): 7.0}
        assert conf.measure == "co"

    def test_empty_stats_give_empty_matrix(self):
        conf = co_matrix(PairCorpusStats.empty(3, 4))
        assert conf.matrix.nnz == 0

    def test_sigma_one_support_within_train_edges(self):
        rng = np.random.default_rng(2)
        edges = {(int(rng.integers(5)), int(rng.integers(6))) for _ in range(14)}
        g = build_graph(edges, 5, 6)
        corpus = generate_walks(g, WalkConfig(beta=3, gamma=9, seed=7))
        conf = co_matrix(sample_pairs(corpus, 1))
        assert set(entries(conf)) <= edges


class TestSppmiDerivedValues:
    # corpus: (u1,i1) twice, (u1,i2) once, (u2,i2) once
    MULTISET = Counter({(1, 1): 2, (1, 2): 1, (2, 2): 1})

    def test_four_pair_corpus(self):
        stats = stats_from_multiset(self.MULTISET, 3, 3)
        conf = sppmi_matrix(stats, shift_k=1.0)
        got = entries(conf)
        # |C| = 4, #(u1) = 3, #(u2) = 1, #(i1) = 2, #(i2) = 2
        assert set(got) == {(1, 1), (2, 2)}  # (u1,i2) negative, (u2,i1) absent
        assert got[(1, 1)] == pytest.approx(math.log(8 / 6), abs=1e-12)
        assert got[(2, 2)] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_single_pair_corpus_drops_to_empty(self):
        stats = stats_from_multiset(Counter({(0, 0): 1}), 1, 1)
        conf = sppmi_matrix(stats, shift_k=1.0)
        assert conf.matrix.nnz == 0  # log(1 * 1 / (1 * 1)) = 0 is not stored


class TestSppmiProperties:
    def test_corpus_duplication_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            multiset, m, n = random_multiset(rng)
            stats = stats_from_multiset(multiset, m, n)
            doubled = merge(stats, stats)
            a = entries(sppmi_matrix(stats, 1.0))
            b = entries(sppmi_matrix(doubled, 1.0))
            assert set(a) == set(b)
            for k in a:
                assert abs(a[k] - b[k]) <= 1e-12

    def test_shift_monotonicity(self):
        rng = np.random.default_rng(6)
        multiset, m, n = random_multiset(rng)
        stats = stats_from_multiset(multiset, m, n)
        low = entries(sppmi_matrix(stats, 1.0))
        high = entries(sppmi_matrix(stats, 3.0))
        assert set(high) <= set(low)
        for k, v in high.items():
            assert v <= low[k] + 1e-15

    def test_support_within_co_support(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            multiset, m, n = random_multiset(rng)
            stats = stats_from_multiset(multiset, m, n)
            assert set(entries(sppmi_matrix(stats, 1.0))) <= set(entries(co_matrix(stats)))

    def test_entries_strictly_positive(self):
        rng = np.random.default_rng(8)
        multiset, m, n = random_multiset(rng)
        conf = sppmi_matrix(stats_from_multiset(multiset, m, n), 1.0)
        if conf.matrix.nnz:
            assert conf.matrix.data.min() > 0


class TestSppmiOracle:
    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            multiset, m, n = random_multiset(rng)
            shift = float(rng.choice([1.0, 1.5, 2.0, 5.0]))
            got = entries(sppmi_matrix(stats_from_multiset(multiset, m, n), shift))
            want = oracle_sppmi(multiset, shift)
            assert set(got) == set(want)
            for k in want:
                assert abs(got[k] - want[k]) <= 1e-12


class TestErrors:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sppmi_matrix(PairCorpusStats.empty(2, 2), 1.0)

    def test_shift_below_one_rejected(self):
        stats = stats_from_multiset(Counter({(0, 0): 2}), 1, 1)
        for shift_k in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="shift_k"):
                sppmi_matrix(stats, shift_k)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        multiset, m, n = random_multiset(rng)
        conf = sppmi_matrix(stats_from_multiset(multiset, m, n), 1.0)
        p = tmp_path / "confidence.npz"
        save_confidence(conf, p)
        back = load_confidence(p)
        assert back.measure == "pmi" and back.shift_k == 1.0
        a, b = entries(conf), entries(back)
        assert set(a) == set(b)
        for k in a:
            assert a[k] == b[k]  # exact equality

    def test_co_round_trip(self, tmp_path):
        stats = stats_from_multiset(Counter({(0, 1): 3, (1, 0): 1}), 2, 2)
        conf = co_matrix(stats)
        p = tmp_path / "confidence.npz"
        save_confidence(conf, p)
        back = load_confidence(p)
        assert back.measure == "co" and back.shift_k is None
        assert entries(back) == entries(conf)
