"""Dataset ingestion, filtering, splitting, sparsification, persistence."""

import io
import math

import numpy as np
import pytest

from walkrec.datasets import (Dataset, IngestFormat, as_pairs, filter_min_interactions, ingest,
                              load_dataset, load_interactions, save_dataset, save_interactions,
                              sparsify, split)


def _shared_rows(a, b):
    "Rows of pair array a that are also rows of pair array b."
    return a[(a[:, None, :] == b[None, :, :]).all(axis=2).any(axis=1)]


class TestIngest:
    def test_direct_parse(self):
        assert ingest(io.StringIO("u1,i1\nu1,i2")) == {("u1", "i1"), ("u1", "i2")}

    def test_empty_stream(self):
        assert ingest(io.StringIO("")) == set()

    def test_repeated_rows_collapse(self):
        got = ingest(io.StringIO("u1,i1,5\nu1,i1,2\nu2,i1,4\nu1,i1,1\n"))
        assert got == {("u1", "i1"), ("u2", "i1")}

    def test_extra_column_is_ignored(self):
        assert ingest(io.StringIO("u1,i1,notanumber")) == {("u1", "i1")}

    def test_columns_read_by_index(self):
        fmt = IngestFormat(delimiter="\t", user_col=2, item_col=0)
        assert ingest(io.StringIO("i1\tx\tu1"), fmt) == {("u1", "i1")}

    def test_empty_item_key_names_line(self):
        with pytest.raises(ValueError, match="line 1"):
            ingest(io.StringIO("u1,,4"))

    def test_wrong_column_count_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            ingest(io.StringIO("u1,i1,4\nu2"))

    def test_error_names_physical_line_after_multiline_field(self):
        # the quoted field spans lines 1-2, so the short row is line 3
        with pytest.raises(ValueError, match="^line 3: expected at least 2 columns"):
            ingest(io.StringIO('u1,"i\n1"\nu2\n'))

    def test_blank_lines_count_toward_line_numbers(self):
        with pytest.raises(ValueError, match="^line 4: "):
            ingest(io.StringIO("u1,i1\n\n\nu2\n"))

    def test_header_skipped(self):
        assert ingest(io.StringIO("user,item\nu1,i1"), IngestFormat(header=True)) == {
            ("u1", "i1")}

    def test_header_is_first_non_empty_row(self):
        got = ingest(io.StringIO("\nuser,item\nu1,i1\n"), IngestFormat(header=True))
        assert got == {("u1", "i1")}

    def test_header_only_stream(self):
        assert ingest(io.StringIO("user,item\n"), IngestFormat(header=True)) == set()


class TestFilterMinInteractions:
    def test_both_endpoints_under_threshold(self):
        assert filter_min_interactions({("u1", "i1")}, 2) == set()

    def test_min_zero_is_identity(self):
        pairs = {("u1", "i1"), ("u2", "i3")}
        assert filter_min_interactions(pairs, 0) == pairs

    def test_cascade_empties_star_graph(self):
        # u1 connects to i1..i5, u2 only to i1: dropping u2 pushes every
        # item below 2, which then drops u1
        pairs = {("u1", f"i{j}") for j in range(1, 6)} | {("u2", "i1")}
        assert filter_min_interactions(pairs, 2) == set()

    def test_output_is_fixed_point(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pairs = {
                (f"u{rng.integers(8)}", f"i{rng.integers(8)}")
                for _ in range(int(rng.integers(1, 60)))
            }
            once = filter_min_interactions(pairs, 3)
            assert filter_min_interactions(once, 3) == once

    def test_survivors_meet_threshold(self):
        rng = np.random.default_rng(13)
        pairs = {(f"u{rng.integers(10)}", f"i{rng.integers(10)}") for _ in range(70)}
        kept = filter_min_interactions(pairs, 2)
        u_deg = {}
        i_deg = {}
        for u, i in kept:
            u_deg[u] = u_deg.get(u, 0) + 1
            i_deg[i] = i_deg.get(i, 0) + 1
        assert all(d >= 2 for d in u_deg.values())
        assert all(d >= 2 for d in i_deg.values())

    def test_matches_scalar_peeling_oracle(self):
        # oracle: drop every pair with an endpoint below the threshold,
        # recount, repeat until nothing changes
        rng = np.random.default_rng(19)
        for _ in range(40):
            pairs = {(f"u{rng.integers(9)}", f"i{rng.integers(9)}")
                     for _ in range(int(rng.integers(0, 70)))}
            min_count = int(rng.integers(1, 5))
            want = set(pairs)
            while True:
                u_deg, i_deg = {}, {}
                for u, i in want:
                    u_deg[u] = u_deg.get(u, 0) + 1
                    i_deg[i] = i_deg.get(i, 0) + 1
                kept = {(u, i) for u, i in want
                        if u_deg[u] >= min_count and i_deg[i] >= min_count}
                if kept == want:
                    break
                want = kept
            assert filter_min_interactions(pairs, min_count) == want


class TestAsPairs:
    def test_sorts_and_drops_repeats(self):
        got = as_pairs([(3, 1), (0, 2), (3, 1), (0, -1)])
        assert got.dtype == np.int64 and got.tolist() == [[0, -1], [0, 2], [3, 1]]

    def test_sorted_repeated_and_shuffled_arrays_match_set_order(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            rows = rng.integers(-2, 4, size=(int(rng.integers(0, 12)), 2))
            ordered = np.array(sorted(set(map(tuple, rows.tolist()))), dtype=np.int64)
            for given in (rows, ordered, np.repeat(ordered, 2, axis=0)):
                got = as_pairs(given)
                assert got.tolist() == ordered.tolist()
                assert got is not given and not np.shares_memory(got, given)

    def test_empty_input_has_two_columns(self):
        for empty in (set(), [], np.empty(0, dtype=np.int64)):
            assert as_pairs(empty).shape == (0, 2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            as_pairs([(0, 1, 2)])

    def test_dataset_keeps_key_order_and_rejects_repeats(self):
        ds = Dataset(["b", "a"], ["z", "x", "y"])
        assert ds.user_keys == ["b", "a"] and ds.item_keys == ["z", "x", "y"]
        assert (ds.n_users, ds.n_items) == (2, 3)
        with pytest.raises(ValueError, match="user_keys repeats a key"):
            Dataset(["a", "b", "a"], ["x"])
        with pytest.raises(ValueError, match="item_keys repeats a key"):
            Dataset(["a"], ["x", "y", "x"])

    def test_dataset_holds_sorted_arrays(self):
        ds = Dataset(list("ab"), list("xyz"),
                     train={(1, 2), (0, 0), (1, 0)}, test=[(0, 1)])
        assert ds.train.tolist() == [[0, 0], [1, 0], [1, 2]]
        assert ds.valid.shape == (0, 2) and ds.test.tolist() == [[0, 1]]
        ds.validate()

    def test_validate_names_overlap_and_range(self):
        maps = list("ab"), list("xy")
        with pytest.raises(ValueError, match="disjoint"):
            Dataset(*maps, train={(0, 0)}, test={(0, 0)}).validate()
        with pytest.raises(ValueError, match=r"valid contains out-of-range pair \(0, 2\)"):
            Dataset(*maps, train={(0, 0)}, valid={(0, 2)}).validate()


def _pairs(n):
    return {(f"u{j % 7:02d}", f"i{j:03d}") for j in range(n)}


class TestSplit:
    def test_floor_sizes_ten_pairs(self):
        ds = split(_pairs(10), (0.8, 0.1, 0.1), seed=7)
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (8, 1, 1)

    def test_determinism(self):
        a = split(_pairs(10), (0.8, 0.1, 0.1), seed=7)
        b = split(_pairs(10), (0.8, 0.1, 0.1), seed=7)
        for name in ("train", "valid", "test"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.user_keys == b.user_keys

    def test_floor_arithmetic_oracle(self):
        # oracle: valid and test get floor(n * ratio), train the remainder
        for n in (3, 10, 37, 167_597):
            n_valid = math.floor(n * 0.1)
            n_test = math.floor(n * 0.1)
            n_train = n - n_valid - n_test
            ds = split(_pairs(n), (0.8, 0.1, 0.1), seed=3)
            assert (len(ds.train), len(ds.valid), len(ds.test)) == (n_train, n_valid, n_test)

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pairs = {
                (f"u{rng.integers(20)}", f"i{rng.integers(20)}")
                for _ in range(int(rng.integers(3, 120)))
            }
            ds = split(pairs, (0.6, 0.2, 0.2), seed=int(rng.integers(100)))
            assert len(ds.train) + len(ds.valid) + len(ds.test) == len(pairs)
            assert len(_shared_rows(ds.train, ds.valid)) == 0
            assert len(_shared_rows(ds.train, ds.test)) == 0
            assert len(_shared_rows(ds.valid, ds.test)) == 0

    def test_maps_cover_full_pair_set(self):
        # a user can land entirely in test and must still be indexed
        ds = split(_pairs(10), (0.8, 0.1, 0.1), seed=7)
        assert len(ds.user_keys) == len({u for u, _ in _pairs(10)})
        assert len(ds.item_keys) == 10

    def test_maps_and_indices_match_sorting_the_key_columns(self):
        rng = np.random.default_rng(9)
        names = ["10", "9", "u2", "U2", "é", "a b", "", "0", "u10"]  # sorted as str, not numbers
        pairs = {(names[rng.integers(len(names))] + str(rng.integers(3)),
                  names[rng.integers(len(names))]) for _ in range(60)}
        ds = split(pairs, (0.8, 0.1, 0.1), seed=4)
        users, items = (np.array(col, dtype=object) for col in zip(*sorted(pairs)))
        (user_keys, u), (item_keys, i) = (np.unique(c, return_inverse=True) for c in (users, items))
        assert ds.user_keys == user_keys.tolist()
        assert ds.item_keys == item_keys.tolist()
        rows = np.concatenate([ds.train, ds.valid, ds.test])
        assert as_pairs(rows).tolist() == as_pairs(np.stack([u, i], axis=1)).tolist()

    def test_too_few_interactions(self):
        with pytest.raises(ValueError, match="at least 3"):
            split({("u1", "i1"), ("u2", "i2")}, (0.8, 0.1, 0.1), seed=0)

    def test_bad_ratios(self):
        with pytest.raises(ValueError, match="sum to 1"):
            split(_pairs(10), (0.8, 0.1, 0.2), seed=0)
        with pytest.raises(ValueError, match="positive"):
            split(_pairs(10), (1.1, -0.05, -0.05), seed=0)


class TestSparsify:
    def test_keep_all_is_identity(self):
        train = {(0, 1), (0, 2), (3, 4)}
        assert sparsify(train, 1.0, seed=9).tolist() == [[0, 1], [0, 2], [3, 4]]

    def test_exact_count_per_user(self):
        train = {(0, j) for j in range(10)}
        kept = sparsify(train, 0.6, seed=1)
        assert len(kept) == 6

    def test_ceiling_oracle_on_mixed_degrees(self):
        # oracle: ceil(d * keep) per user for degrees {5, 9, 1} at keep 0.2
        train = {(0, j) for j in range(5)} | {(1, j) for j in range(9)} | {(2, 0)}
        kept = sparsify(train, 0.2, seed=4)
        per_user = {u: 0 for u in range(3)}
        for u, _ in kept:
            per_user[u] += 1
        assert per_user == {0: 1, 1: 2, 2: 1}

    def test_subset_and_no_user_emptied(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            train = {
                (int(rng.integers(12)), int(rng.integers(30)))
                for _ in range(int(rng.integers(1, 80)))
            }
            keep = float(rng.uniform(0.05, 1.0))
            kept = sparsify(train, keep, seed=int(rng.integers(100)))
            rows = as_pairs(train)
            assert np.array_equal(_shared_rows(kept, rows), kept)
            assert np.array_equal(np.unique(kept[:, 0]), np.unique(rows[:, 0]))

    def test_determinism_and_seed_sensitivity(self):
        train = {(0, j) for j in range(30)}
        a = sparsify(train, 0.3, seed=2)
        assert np.array_equal(a, sparsify(train, 0.3, seed=2))
        b = sparsify(train, 0.3, seed=3)
        assert len(b) == len(a)

    @staticmethod
    def draw_oracle(train, keep, seed):
        """User u keeps items[default_rng((seed, u)).choice(d, ceil(d * keep))] of
        its d sorted items: the draws the acceptance suite's sparsity results
        were measured with."""
        want = []
        for u in sorted({u for u, _ in train.tolist()}):
            items = sorted(i for uu, i in train.tolist() if uu == u)
            d = len(items)
            n_keep = max(1, math.ceil(d * keep - 1e-12))
            pick = np.random.default_rng((seed, u)).choice(d, n_keep, replace=False)
            want += sorted([u, items[j]] for j in pick)
        return want

    def test_matches_per_user_draw_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m, n = int(rng.integers(1, 15)), int(rng.integers(1, 40))
            flat = rng.choice(m * n, size=int(rng.integers(1, m * n + 1)), replace=False)
            train = np.stack([flat // n, flat % n], axis=1)
            seed = int(rng.integers(2**40))
            for keep in (0.05, 0.2, 0.5, 0.6, 0.9, 1.0):
                assert sparsify(train, keep, seed).tolist() == self.draw_oracle(train, keep, seed)
        # 25 * 0.28 is a hair above 7 in floating point; the user keeps 7
        train = np.array([(3, j) for j in range(25)] + [(5, 1), (5, 4)])
        assert sparsify(train, 0.28, 9).tolist() == self.draw_oracle(train, 0.28, 9)
        assert len(self.draw_oracle(train, 0.28, 9)) == 7 + 1

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            sparsify({(0, 0)}, 0.0)
        with pytest.raises(ValueError):
            sparsify({(0, 0)}, 1.5)


class TestPersistence:
    def test_interactions_round_trip(self, tmp_path):
        pairs = {("alice", "book-1"), ("bob", "book-2"), ("alice", "book-2")}
        p = tmp_path / "inter.tsv"
        save_interactions(pairs, p)
        assert load_interactions(p) == pairs
        first = p.read_bytes()
        save_interactions(load_interactions(p), p)
        assert p.read_bytes() == first

    def test_dataset_round_trip_bit_exact(self, tmp_path):
        ds = split(_pairs(40), (0.8, 0.1, 0.1), seed=21)
        d1 = tmp_path / "ds1"
        d2 = tmp_path / "ds2"
        save_dataset(ds, d1)
        save_dataset(load_dataset(d1), d2)
        for name in ("train.tsv", "valid.tsv", "test.tsv", "users.tsv", "items.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_loaded_dataset_equals_original(self, tmp_path):
        ds = split(_pairs(25), (0.8, 0.1, 0.1), seed=2)
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert np.array_equal(back.train, ds.train)
        assert np.array_equal(back.valid, ds.valid)
        assert np.array_equal(back.test, ds.test)
        assert back.user_keys == ds.user_keys
        assert back.item_keys == ds.item_keys

    def test_key_with_tab_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="tab"):
            save_interactions({("u\t1", "i1")}, tmp_path / "x.tsv")
