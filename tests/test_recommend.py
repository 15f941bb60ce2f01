"""Top-K ranking rules: tie-breaks, masking, the popularity baseline."""

import numpy as np
import pytest

from conftest import oracle_top_k
from walkrec import recommend
from walkrec.factorization import FactorModel
from walkrec.recommend import (RankedList, Rankings, item_pop_scores, load_recommendations,
                               recommend_topk, save_recommendations)

TOY_EDGES = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)}


def top_k(scores, k_items, mask=()):
    """recommend_topk's list for the one user of the rank-1 model whose score
    row is scores exactly (X = [[1]], Y = scores as a column), mask its items."""
    model = FactorModel(np.ones((1, 1)), np.array(scores, dtype=np.float64).reshape(-1, 1))
    return recommend_topk(model, k_items, [(0, i) for i in mask])[0]


class TestTopK:
    def test_tie_broken_by_lower_index(self):
        rl = top_k([0.5, 0.9, 0.9], k_items=2)
        assert rl.item_indices() == [1, 2]

    def test_masking_excludes_items(self):
        rl = top_k([1.0, 0.2], k_items=2, mask={0})
        assert rl.item_indices() == [1]

    def test_all_equal_scores_give_index_order(self):
        rl = top_k([0.3, 0.3, 0.3, 0.3], k_items=3, mask={1})
        assert rl.item_indices() == [0, 2, 3]

    def test_catalog_exhausted(self):
        rl = top_k([0.1, 0.2], k_items=5)
        assert len(rl.items) == 2

    def test_scores_non_increasing_no_masked_no_duplicates(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            scores = rng.normal(size=n)
            mask = {int(j) for j in rng.choice(n, size=int(rng.integers(0, n)), replace=False)}
            rl = top_k(scores, k_items=int(rng.integers(1, 12)), mask=mask)
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
        base = top_k(scores, 4, mask={3}).item_indices()
        moved = top_k(permuted, 4, mask={int(perm[3])}).item_indices()
        assert [int(perm[j]) for j in base] == moved

    def test_positive_scaling_is_invariant(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=10)
        a = top_k(scores, 5).item_indices()
        b = top_k(scores * 7.5, 5).item_indices()
        assert a == b

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k([1.0], 0)

    @pytest.mark.parametrize("k", [1.5, True], ids=["float", "bool"])
    def test_non_integer_k_rejected_not_truncated(self, k):
        with pytest.raises(ValueError, match="^k_items must be an integer"):
            top_k([1.0, 2.0], k)
        assert top_k([1.0, 2.0], np.int64(1)) == top_k([1.0, 2.0], 1)


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
        mask = np.array([[0, 1], [0, 2], [3, 7]])
        recs = recommend_topk(model, 4, mask)
        assert [rl.user for rl in recs] == list(range(6))
        for u in range(6):
            expect = oracle_top_k(model.X[u] @ model.Y.T, 4, mask[mask[:, 0] == u, 1])
            assert recs[u].item_indices() == [i for i, _ in expect]

    def test_mask_may_be_any_iterable_of_pairs(self):
        rng = np.random.default_rng(4)
        model = FactorModel(rng.normal(size=(6, 3)), rng.normal(size=(8, 3)))
        want = recommend_topk(model, 4, np.array([[0, 1], [0, 2], [3, 7]]))
        for mask in ({(3, 7), (0, 2), (0, 1)}, [(3, 7), (0, 1), (0, 2), (0, 1)]):
            got = recommend_topk(model, 4, mask)
            assert [rl.items for rl in got] == [rl.items for rl in want]

    def test_chunking_does_not_change_output(self, monkeypatch):
        rng = np.random.default_rng(5)
        model = FactorModel(rng.normal(size=(10, 2)), rng.normal(size=(5, 2)))
        monkeypatch.setattr(recommend, "_RANK_ROWS", 2)
        a = recommend_topk(model, 3, None)
        monkeypatch.setattr(recommend, "_RANK_ROWS", 1024)
        b = recommend_topk(model, 3, None)
        assert [rl.items for rl in a] == [rl.items for rl in b]

    def test_blocks_match_per_user_top_k_with_ties_nans_and_masks(self, monkeypatch):
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
            mask = [(u, i) for u, items in masks.items() for i in items]
            monkeypatch.setattr(recommend, "_RANK_ROWS", int(rng.integers(1, 5)))
            with np.errstate(invalid="ignore"):  # 0 * inf in the products
                recs = recommend_topk(model, k, mask)
                rows = [X[u] @ Y.T for u in range(m)]
            assert [rl.user for rl in recs] == list(range(m))
            for u in range(m):
                want = oracle_top_k(rows[u], k, masks.get(u, ()))
                assert recs[u].item_indices() == [i for i, _ in want]
                assert np.array_equal([v for _, v in recs[u].items],
                                      [v for _, v in want], equal_nan=True)

    def test_k_must_be_positive(self):
        model = FactorModel(np.ones((2, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            recommend_topk(model, 0)

    @pytest.mark.parametrize("k", [2.5, True], ids=["float", "bool"])
    def test_non_integer_k_rejected_not_truncated(self, k):
        model = FactorModel(np.ones((2, 1)), np.arange(2.0)[:, None])
        with pytest.raises(ValueError, match="^k_items must be an integer"):
            recommend_topk(model, k)
        assert list(recommend_topk(model, np.int64(1))) == list(recommend_topk(model, 1))

    def test_no_users_gives_no_lists(self):
        recs = recommend_topk(FactorModel(np.ones((0, 2)), np.ones((4, 2))), 3)
        assert len(recs) == 0 and recs.indptr.tolist() == [0]

    def test_no_items_gives_every_user_an_empty_list(self):
        recs = recommend_topk(FactorModel(np.ones((3, 2)), np.ones((0, 2))), 3)
        assert len(recs) == 3 and [rl.items for rl in recs] == [[], [], []]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        model = FactorModel(rng.normal(size=(4, 2)), rng.normal(size=(6, 2)))
        recs = recommend_topk(model, 3, [(1, i) for i in range(6)])  # user 1 fully masked
        p = tmp_path / "recs.tsv"
        save_recommendations(recs, p)
        back = load_recommendations(p, 4)
        assert [rl.user for rl in back] == [0, 1, 2, 3]
        assert back[1].items == []
        for a, b in zip(recs, back):
            assert a.item_indices() == b.item_indices()
            for (_, va), (_, vb) in zip(a.items, b.items):
                assert va == vb

    def test_rankings_round_trip_byte_for_byte(self, tmp_path):
        recs = Rankings(np.array([0, 2, 2, 4]), np.array([4, 0, 1, 3]),
                        np.array([0.5, 1 / 3, -0.0, np.nan]))  # user 1 is empty
        p = tmp_path / "recs.tsv"
        save_recommendations(recs, p)
        first = p.read_bytes()
        back = load_recommendations(p, 3)
        save_recommendations(back, p)
        assert p.read_bytes() == first
        for name in ("indptr", "items", "scores"):
            a, b = getattr(recs, name), getattr(back, name)
            assert np.array_equal(a, b, equal_nan=True) and b.dtype.kind == a.dtype.kind

    def test_of_ranked_lists_equals_recommend_topk_arrays(self):
        rng = np.random.default_rng(7)
        model = FactorModel(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))
        recs = recommend_topk(model, 4, [(1, i) for i in range(6)] + [(3, 2), (3, 5)])
        back = Rankings.of([RankedList(u, rl.items) for u, rl in enumerate(recs)])
        for name in ("indptr", "items", "scores"):
            a, b = getattr(recs, name), getattr(back, name)
            assert np.array_equal(a, b) and a.dtype == b.dtype
        assert np.diff(back.indptr).tolist() == [4, 0, 4, 4, 4]

    def test_of_rejects_missing_list_and_negative_item(self):
        with pytest.raises(ValueError, match="missing or misordered ranked list for user 1"):
            Rankings.of([RankedList(0, []), RankedList(2, [])])
        with pytest.raises(ValueError, match="ranked list of user 1: item -1 is negative"):
            Rankings.of([RankedList(0, [(0, 1.0)]), RankedList(1, [(2, 1.0), (-1, 0.5)])])

    def test_negative_item_rejected_on_load(self, tmp_path):
        p = tmp_path / "recs.tsv"
        p.write_text("0\t1\t2\t0.9\n0\t2\t-3\t0.5\n")
        with pytest.raises(ValueError, match=r"recs\.tsv: line 2: item -3 is negative"):
            load_recommendations(p, 1)

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
            scores[rng.random(n) < 0.1] = np.nan
            mask = {int(i) for i in rng.choice(n, size=int(rng.integers(0, n)), replace=False)}
            k = int(rng.integers(1, n + 3))
            got = top_k(scores, k, frozenset(mask)).items
            want = oracle_top_k(scores, k, mask)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert np.array_equal([v for _, v in got], [v for _, v in want], equal_nan=True)


@pytest.mark.parametrize("bad", [-1, 6, 7])
def test_mask_index_outside_catalog_is_rejected(bad, monkeypatch):
    # a negative index used to wrap round and silently mask the last items
    with pytest.raises(ValueError, match=rf"mask of user 0: item {bad} not in \[0, 6\)"):
        top_k(np.arange(6.0), 3, {1, bad})
    rng = np.random.default_rng(2)
    model = FactorModel(rng.normal(size=(8, 2)), rng.normal(size=(6, 2)))
    monkeypatch.setattr(recommend, "_RANK_ROWS", 4)
    with pytest.raises(ValueError, match=rf"mask of user 5: item {bad} not in \[0, 6\)"):
        recommend_topk(model, 3, [(0, 2), (5, 0), (5, bad)])


@pytest.mark.parametrize("bad", [-1, 2, 5])
def test_mask_user_outside_users_is_rejected(bad):
    model = FactorModel(np.ones((2, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError, match=rf"^mask pair \({bad}, 1\): user {bad} not in \[0, 2\)$"):
        recommend_topk(model, 2, [(0, 0), (bad, 1)])


class TestScoreBlockBytes:
    """A score block holds _RANK_ROWS users, or fewer past 1,024 items: a multiple
    of 64 users whose scores take at most 4 MiB."""

    def blocks(self, monkeypatch, users, items, mask=None):
        "The score-block shapes recommend_topk ranks, and its Rankings."
        shapes, real = [], recommend._rank_rows

        def recorded(first_user, scores, *args):
            shapes.append((first_user, scores.shape))  # blocks may run in any order
            return real(first_user, scores, *args)

        monkeypatch.setattr(recommend, "_rank_rows", recorded)
        rng = np.random.default_rng(items)
        model = FactorModel(rng.normal(size=(users, 8)), rng.normal(size=(items, 8)))
        recs = recommend_topk(model, 10, mask)
        return [shape for _, shape in sorted(shapes)], recs

    def test_cell_scaled_items_make_blocks_of_128_users(self, monkeypatch, cpus):
        outputs = []
        for n in (1, 2, 3):
            cpus(n)
            shapes, recs = self.blocks(monkeypatch, 300, 3_983, [(5, 0), (299, 3_982)])
            assert shapes == [(128, 3_983), (128, 3_983), (44, 3_983)]
            outputs.append(recs)
        assert all(8 * rows * items <= 4 << 20 for rows, items in shapes)
        for other in outputs[1:]:
            for name in ("indptr", "items", "scores"):
                a, b = getattr(other, name), getattr(outputs[0], name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert 0 not in outputs[0][5].item_indices()

    @pytest.mark.parametrize("items", [1, 495, 1_024])
    def test_up_to_1024_items_500_users_are_one_block(self, monkeypatch, items):
        shapes, _ = self.blocks(monkeypatch, 500, items)
        assert shapes == [(500, items)]

    @pytest.mark.parametrize("items, rows", [(1_025, 448), (8_192, 64), (20_000, 64)])
    def test_rows_are_a_multiple_of_64_and_at_least_64(self, monkeypatch, items, rows):
        shapes, _ = self.blocks(monkeypatch, 520, items)
        assert {r for r, _ in shapes[:-1]} == {rows} and sum(r for r, _ in shapes) == 520


class TestPartitionRows:
    """A block's k-th best scores come from partitioned copies of _PARTITION_ROWS
    rows; a row's k-th score does not depend on the rows it shares a copy with,
    so the lists equal those of one partition of the whole block."""

    @pytest.mark.parametrize("users, items", [(300, 3_983), (500, 495)])
    def test_lists_equal_one_partition_of_the_whole_block(self, monkeypatch, cpus, users,
                                                          items):
        rng = np.random.default_rng(users)
        X = np.round(rng.normal(size=(users, 8)), 1)  # coarse factors: tied scores
        Y = np.round(rng.normal(size=(items, 8)), 1)
        Y[rng.random(items) < 0.01, 0] = np.nan  # NaN items in every row
        X[[3, users - 1]] = np.nan  # rows of NaN: a NaN k-th score
        model = FactorModel(X, Y)
        mask = np.stack([rng.integers(0, users, 2_000), rng.integers(0, items, 2_000)], axis=1)
        rows = recommend._PARTITION_ROWS
        assert rows < 128  # a 128-user block of 3,983 items takes several copies
        monkeypatch.setattr(recommend, "_PARTITION_ROWS", users)  # the whole block
        want = recommend_topk(model, 10, mask)
        monkeypatch.setattr(recommend, "_PARTITION_ROWS", rows)
        for n in (1, 2, 3):
            cpus(n)
            got = recommend_topk(model, 10, mask)
            for name in ("indptr", "items", "scores"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
