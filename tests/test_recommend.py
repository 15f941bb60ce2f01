"""Top-K ranking rules: tie-breaks, masking, the popularity baseline."""

import numpy as np
import pytest

from walkrec.factorization import FactorModel
from walkrec.recommend import (item_pop_scores, load_recommendations,
                               recommend_topk, save_recommendations, top_k,
                               train_masks)

TOY_EDGES = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)}


class TestTopK:
    def test_tie_broken_by_lower_index(self):
        rl = top_k(0, [0.5, 0.9, 0.9], k_items=2)
        assert rl.item_indices() == [1, 2]

    def test_masking_excludes_items(self):
        rl = top_k(0, [1.0, 0.2], k_items=2, mask={0})
        assert rl.item_indices() == [1]

    def test_all_equal_scores_give_index_order(self):
        rl = top_k(0, [0.3, 0.3, 0.3, 0.3], k_items=3, mask={1})
        assert rl.item_indices() == [0, 2, 3]

    def test_catalog_exhausted(self):
        rl = top_k(0, [0.1, 0.2], k_items=5)
        assert len(rl.items) == 2

    def test_scores_non_increasing_no_masked_no_duplicates(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            scores = rng.normal(size=n)
            mask = {int(j) for j in rng.choice(n, size=int(rng.integers(0, n)), replace=False)}
            rl = top_k(0, scores, k_items=int(rng.integers(1, 12)), mask=mask)
            got = rl.item_indices()
            assert len(set(got)) == len(got)
            assert not (set(got) & mask)
            vals = [v for _, v in rl.items]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_permutation_equivariance_on_distinct_scores(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=12)
        perm = rng.permutation(12)
        permuted = np.empty(12)
        permuted[perm] = scores  # item j moves to index perm[j]
        base = top_k(0, scores, 4, mask={3}).item_indices()
        moved = top_k(0, permuted, 4, mask={int(perm[3])}).item_indices()
        assert [int(perm[j]) for j in base] == moved

    def test_positive_scaling_is_invariant(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=10)
        a = top_k(0, scores, 5).item_indices()
        b = top_k(0, scores * 7.5, 5).item_indices()
        assert a == b

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k(0, [1.0], 0)


class TestItemPop:
    def test_counts(self):
        scores = item_pop_scores({(1, 1), (2, 1), (1, 2)}, 4)
        assert scores.tolist() == [0.0, 2.0, 1.0, 0.0]

    def test_empty_train(self):
        assert item_pop_scores(set(), 3).tolist() == [0.0, 0.0, 0.0]

    def test_toy_graph_popularity(self):
        scores = item_pop_scores(TOY_EDGES, 4)
        assert scores.tolist() == [1.0, 2.0, 2.0, 1.0]


class TestRecommendTopk:
    def test_matches_per_user_top_k(self):
        rng = np.random.default_rng(4)
        model = FactorModel(rng.normal(size=(6, 3)), rng.normal(size=(8, 3)))
        masks = {0: {1, 2}, 3: {7}}
        recs = recommend_topk(model, 4, masks)
        assert [rl.user for rl in recs] == list(range(6))
        for u in range(6):
            expect = top_k(u, model.X[u] @ model.Y.T, 4, masks.get(u, frozenset()))
            assert recs[u].item_indices() == expect.item_indices()

    def test_train_masks_group_items_by_user(self):
        assert train_masks({(0, 1), (0, 2), (3, 7)}) == {0: {1, 2}, 3: {7}}
        assert train_masks(set()) == {}

    def test_chunking_does_not_change_output(self):
        rng = np.random.default_rng(5)
        model = FactorModel(rng.normal(size=(10, 2)), rng.normal(size=(5, 2)))
        a = recommend_topk(model, 3, None, chunk=2)
        b = recommend_topk(model, 3, None, chunk=1024)
        assert [rl.items for rl in a] == [rl.items for rl in b]

    def test_blocks_match_per_user_top_k_with_ties_nans_and_masks(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            m, n, f = int(rng.integers(1, 12)), int(rng.integers(1, 15)), 3
            # small integer factors tie often; an infinite item factor makes
            # the item's score NaN for users with a zero there (0 * inf) and
            # +-inf for the others; a NaN user factor makes a whole row NaN
            X = rng.integers(-1, 3, size=(m, f)).astype(np.float64)
            Y = rng.integers(-1, 3, size=(n, f)).astype(np.float64)
            Y[rng.random(n) < 0.2, 0] = np.inf
            X[rng.random(m) < 0.1, 1] = np.nan
            model = FactorModel(X, Y)
            k = int(rng.integers(1, n + 3))
            masks = {}
            for u in range(m):
                kind = rng.integers(4)  # absent, empty, some items, at most k left
                if kind == 1:
                    masks[u] = set()
                elif kind >= 2:
                    size = int(rng.integers(0, n + 1)) if kind == 2 else max(n - k + 1, 0)
                    masks[u] = set(rng.choice(n, size=min(size, n), replace=False).tolist())
            with np.errstate(invalid="ignore"):  # 0 * inf in the products
                recs = recommend_topk(model, k, masks, chunk=int(rng.integers(1, 5)))
                rows = [X[u] @ Y.T for u in range(m)]
            assert [rl.user for rl in recs] == list(range(m))
            for u in range(m):
                want = top_k(u, rows[u], k, masks.get(u, frozenset()))
                assert recs[u].item_indices() == want.item_indices()
                assert np.array_equal([v for _, v in recs[u].items],
                                      [v for _, v in want.items], equal_nan=True)

    def test_k_must_be_positive(self):
        model = FactorModel(np.ones((2, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            recommend_topk(model, 0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        model = FactorModel(rng.normal(size=(4, 2)), rng.normal(size=(6, 2)))
        recs = recommend_topk(model, 3, {1: {0, 1, 2, 3, 4, 5}})  # user 1 fully masked
        p = tmp_path / "recs.tsv"
        save_recommendations(recs, p)
        back = load_recommendations(p, 4)
        assert [rl.user for rl in back] == [0, 1, 2, 3]
        assert back[1].items == []
        for a, b in zip(recs, back):
            assert a.item_indices() == b.item_indices()
            for (_, va), (_, vb) in zip(a.items, b.items):
                assert va == vb

    def test_rank_order_enforced_on_load(self, tmp_path):
        p = tmp_path / "recs.tsv"
        p.write_text("0\t2\t1\t0.5\n")
        with pytest.raises(ValueError, match="ranks"):
            load_recommendations(p, 1)


class TestTopKReference:
    def test_matches_full_stable_sort_with_ties_and_masks(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            scores = rng.integers(0, 4, size=n).astype(np.float64)  # many ties
            mask = {int(i) for i in rng.choice(n, size=int(rng.integers(0, n)), replace=False)}
            k = int(rng.integers(1, n + 3))
            valid = [i for i in range(n) if i not in mask]
            want = sorted(valid, key=lambda i: -scores[i])[:k]  # sorted() is stable
            assert top_k(0, scores, k, frozenset(mask)).item_indices() == want
