"""Metric formulas, all-user averaging, and the experiment grid driver."""

import json
from dataclasses import replace

import numpy as np
import pytest
import yaml

import walkrec.evaluation
import walkrec.walks
from walkrec.config import base_settings, parse_config
from walkrec.datasets import sparsify, split
from walkrec.evaluation import (ExperimentGrid, PipelineSettings, evaluate,
                                run_cell, run_experiment, write_report_json,
                                write_report_tsv)
from conftest import oracle_top_k
from walkrec.recommend import RankedList, Rankings
from walkrec.synthetic import generate_synthetic


def ranked(user, items):
    return RankedList(user, [(i, float(10 - r)) for r, i in enumerate(items)])


def brute_force_means(recs, test, k):
    """Per-user P@k, R@k, F1@k by set intersection, summed as a running total
    in user order and divided by the user count."""
    test_by_user = {}
    for u, i in test:
        test_by_user.setdefault(u, set()).add(i)
    p_sum = r_sum = f_sum = 0.0
    for rl in recs:
        truth = test_by_user.get(rl.user, set())
        hits = len(truth & set(rl.item_indices()[:k]))
        p = hits / k
        r = hits / len(truth) if truth else 0.0
        p_sum += p
        r_sum += r
        f_sum += 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return p_sum / len(recs), r_sum / len(recs), f_sum / len(recs)


class TestEvaluate:
    def test_hand_formula(self):
        # one relevant item in the top five, two relevant overall
        recs = [ranked(0, [1, 3, 4, 5, 6])]
        rep = evaluate(recs, {(0, 1), (0, 2)}, cutoffs=[5])
        assert rep.precision[5] == pytest.approx(0.2, abs=1e-12)
        assert rep.recall[5] == pytest.approx(0.5, abs=1e-12)
        assert rep.f1[5] == pytest.approx(2 * 0.2 * 0.5 / 0.7, abs=1e-12)

    def test_empty_test_user_contributes_zeros(self):
        recs = [ranked(0, [1, 2]), ranked(1, [1, 2])]
        rep = evaluate(recs, {(0, 1)}, cutoffs=[2])
        # user 1 has no test items: included with zeros, halving the means
        assert rep.user_count == 2
        assert rep.precision[2] == pytest.approx(0.25, abs=1e-12)
        assert rep.recall[2] == pytest.approx(0.5, abs=1e-12)

    def test_perfect_list(self):
        recs = [ranked(0, [4, 7])]
        rep = evaluate(recs, {(0, 4), (0, 7)}, cutoffs=[2])
        assert rep.precision[2] == 1.0
        assert rep.recall[2] == 1.0
        assert rep.f1[2] == 1.0

    def test_hit_counts_are_integral(self):
        rng = np.random.default_rng(3)
        n_users, n_items = 12, 20
        test = {(int(rng.integers(n_users)), int(rng.integers(n_items)))
                for _ in range(40)}
        test_by_user = {}
        for u, i in test:
            test_by_user.setdefault(u, set()).add(i)
        recs = []
        for u in range(n_users):
            items = list(rng.choice(n_items, size=8, replace=False))
            recs.append(ranked(u, [int(i) for i in items]))
        for k in (1, 3, 5, 8):
            rep = evaluate(recs, test, cutoffs=[k])
            want = brute_force_means(recs, test, k)
            assert np.allclose((rep.precision[k], rep.recall[k], rep.f1[k]), want,
                               rtol=0, atol=1e-12)
            for u in range(n_users):
                truth = test_by_user.get(u, set())
                hits_k = len(truth & set(recs[u].item_indices()[:k]))
                p = hits_k / k
                r = hits_k / len(truth) if truth else 0.0
                assert p * k == pytest.approx(round(p * k), abs=1e-9)
                if truth:
                    assert r * len(truth) == pytest.approx(round(r * len(truth)), abs=1e-9)

    def test_means_equal_brute_force_on_random_lists(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n_users, n_items = int(rng.integers(1, 15)), int(rng.integers(1, 25))
            # some users hold no test items; some lists run shorter than k, and
            # a list that names an item twice counts it once
            test = {(int(rng.integers(n_users)), int(rng.integers(n_items)))
                    for _ in range(int(rng.integers(0, 3 * n_users)))}
            recs = [ranked(u, rng.choice(n_items, size=int(rng.integers(0, n_items + 1)),
                                         replace=bool(u % 3 == 0)).tolist())
                    for u in range(n_users)]
            cutoffs = sorted({int(k) for k in rng.integers(1, n_items + 3, size=3)})
            rep = evaluate(recs, np.array(sorted(test), dtype=np.int64).reshape(-1, 2),
                           cutoffs)
            assert rep == evaluate(recs, test, cutoffs)
            for k in cutoffs:
                got = (rep.precision[k], rep.recall[k], rep.f1[k])
                want = brute_force_means(recs, test, k)
                assert np.allclose(got, want, rtol=0, atol=1e-12)
                # summed in user order, so equal to the running total bit for bit
                assert got == want and all(type(v) is float for v in got)

    def test_f1_is_harmonic_mean(self):
        recs = [ranked(0, [0, 1, 2, 3])]
        rep = evaluate(recs, {(0, 0), (0, 9)}, cutoffs=[4])
        p, r = rep.precision[4], rep.recall[4]
        assert rep.f1[4] == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_zero_when_both_zero(self):
        recs = [ranked(0, [5])]
        rep = evaluate(recs, {(0, 1)}, cutoffs=[1])
        assert rep.f1[1] == 0.0

    def test_missing_user_list_rejected(self):
        with pytest.raises(ValueError, match="user 1"):
            evaluate([ranked(0, [1]), ranked(2, [1])], set(), cutoffs=[1])

    def test_bad_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            evaluate([ranked(0, [1])], set(), cutoffs=[])
        with pytest.raises(ValueError):
            evaluate([ranked(0, [1])], set(), cutoffs=[0])

    @pytest.mark.parametrize("cutoff", [2.5, True], ids=["float", "bool"])
    def test_non_integer_cutoff_rejected_not_truncated(self, cutoff):
        recs, test = [ranked(0, [1, 0])], {(0, 0)}
        with pytest.raises(ValueError, match="^cutoffs must be an integer"):
            evaluate(recs, test, cutoffs=[cutoff])
        assert evaluate(recs, test, cutoffs=[np.int64(2)]).cutoffs == (2,)

    def test_repeated_cutoffs_rejected(self):
        with pytest.raises(ValueError, match=r"^cutoffs \[5, 10, 5\] repeats a value$"):
            evaluate([ranked(0, [1])], set(), cutoffs=[5, 10, 5])

    def test_negative_test_user_or_item_rejected(self):
        for pair in ((-1, 0), (0, -2)):
            with pytest.raises(ValueError, match=rf"test pair \({pair[0]}, {pair[1]}\)"):
                evaluate([ranked(0, [1])], {pair}, cutoffs=[5])

    def test_test_user_without_ranked_list_rejected(self):
        with pytest.raises(ValueError, match=r"test pair \(5, 0\) has a user outside \[0, 1\)"):
            evaluate([ranked(0, [1])], {(0, 1), (5, 0)}, cutoffs=[5])

    def test_negative_ranked_item_rejected(self):
        # packed as user * n + item, item -1 of user 1 would hit test pair (0, n - 1)
        lists = [RankedList(0, [(0, 1.0)]), RankedList(1, [(-1, 1.0)])]
        arrays = Rankings(np.array([0, 1, 2]), np.array([0, -1]), np.array([1.0, 1.0]))
        for recs in (lists, arrays):
            with pytest.raises(ValueError, match="ranked list of user 1: item -1 is negative"):
                evaluate(recs, {(0, 4)}, [1])

    def test_ranked_item_whose_code_would_wrap_int64_is_a_miss(self):
        # packed with n = 2**62 + 1, user 4's item 0 would wrap onto test pair (0, 4)
        recs = [ranked(0, [2**62]), ranked(1, []), ranked(2, []), ranked(3, []),
                ranked(4, [0])]
        rep = evaluate(recs, {(0, 4)}, cutoffs=[1])
        assert (rep.precision[1], rep.recall[1], rep.f1[1]) == (0.0, 0.0, 0.0)

    def test_users_times_test_items_beyond_int64_rejected(self):
        recs = [ranked(u, [0]) for u in range(4)]
        with pytest.raises(ValueError, match="4 users x 4611686018427387905 items overflow"):
            evaluate(recs, {(0, 2**62)}, cutoffs=[1])


def small_dataset(seed=0):
    pairs = generate_synthetic(n_users=40, n_items=30, n_groups=4,
                               bulk_degree=5, heavy_degree=10, heavy_fraction=0.1,
                               p_in=0.4, p_out=0.01, seed=seed)
    return split(pairs, (0.8, 0.1, 0.1), seed=seed)


FAST = PipelineSettings(beta=3, gamma=12, factors=6, sweeps=4, k_items=5,
                        cutoffs=(3, 5))


class TestRunCell:
    def test_identical_settings_identical_reports(self):
        ds = small_dataset()
        a = run_cell(ds, FAST)
        b = run_cell(ds, FAST)
        assert a.precision == b.precision
        assert a.recall == b.recall
        assert a.f1 == b.f1

    def test_all_measures_run(self):
        ds = small_dataset()
        for measure in ("pmi", "co", "mf", "itempop"):
            rep = run_cell(ds, replace(FAST, measure=measure))
            assert rep.user_count == ds.n_users
            assert rep.config["measure"] == measure

    def test_itempop_lists_equal_per_user_top_k(self, monkeypatch):
        lists = []

        def keep_lists(recs, *args, **kwargs):
            lists.append(recs)
            return evaluate(recs, *args, **kwargs)

        monkeypatch.setattr(walkrec.evaluation, "evaluate", keep_lists)
        ds = small_dataset()
        for keep, mask_train, k in ((1.0, True, 5), (0.5, True, 10), (0.5, False, 3),
                                    (1.0, True, ds.n_items + 4)):
            st = replace(FAST, measure="itempop", keep_fraction=keep, mask_train=mask_train,
                         k_items=k, seed=3)
            run_cell(ds, st)
            train = sparsify(ds.train, keep, st.seed).tolist()
            pop = np.zeros(ds.n_items)
            for _, i in train:
                pop[i] += 1.0
            for u, rl in enumerate(lists.pop()):
                mask_u = {i for uu, i in train if uu == u} if mask_train else set()
                assert rl.user == u and rl.items == oracle_top_k(pop, k, mask_u)

    def test_unknown_measure_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="measure"):
            run_cell(ds, replace(FAST, measure="bogus"))


class TestRunExperiment:
    def test_grid_order_and_cache_equivalence(self):
        ds = small_dataset()
        grid = ExperimentGrid(measures=("pmi", "co"), sigmas=(1, 3),
                              keep_fractions=(1.0,), seeds=(0, 1))
        rows = run_experiment(ds, FAST, grid)
        assert len(rows) == 8
        # cached grid rows must equal fresh standalone cells
        j = 0
        for measure in grid.measures:
            for sigma in grid.sigmas:
                for keep in grid.keep_fractions:
                    for seed in grid.seeds:
                        st = replace(FAST, measure=measure, sigma=sigma,
                                     keep_fraction=keep, seed=seed)
                        fresh = run_cell(ds, st)
                        assert rows[j].precision == fresh.precision
                        assert rows[j].f1 == fresh.f1
                        assert rows[j].config == fresh.config
                        j += 1

    @pytest.mark.parametrize("sigmas, draws", [((3,), 0), ((1, 3), 2)])
    def test_a_group_draws_its_walks_once_or_not_at_all(self, monkeypatch, sigmas, draws):
        """A (keep_fraction, seed) group that counts one window counts it as its
        walks are drawn and keeps no rows; one that counts several draws its
        corpus once and counts each window from it."""
        ds = small_dataset()
        walker = walkrec.walks._Walker
        calls = {"draw": 0, "windows": 0}

        def counted(name):
            real = getattr(walker, name)

            def call(self, *args, **kwargs):
                calls[name] += 1
                return real(self, *args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(walker, name, counted(name))
        grid = ExperimentGrid(measures=("pmi", "co"), sigmas=sigmas, keep_fractions=(1.0,),
                              seeds=(0, 1))
        rows = run_experiment(ds, FAST, grid)
        assert calls["draw"] == draws
        assert calls["windows"] == (draws or len(grid.seeds))  # one block a corpus here
        for row in rows:
            st = replace(FAST, **{k: row.config[k] for k in ("measure", "sigma", "seed")})
            assert row.precision == run_cell(ds, st).precision


class TestReportWriters:
    def make_rows(self):
        ds = small_dataset()
        grid = ExperimentGrid(measures=("pmi", "itempop"), sigmas=(3,),
                              keep_fractions=(1.0,), seeds=(0,))
        return run_experiment(ds, FAST, grid)

    def test_tsv_layout(self, tmp_path):
        rows = self.make_rows()
        p = tmp_path / "report.tsv"
        write_report_tsv(rows, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 3
        header = lines[0].split("\t")
        assert header[:4] == ["measure", "sigma", "keep_fraction", "seed"]
        assert header[-6:] == ["P@3", "R@3", "F1@3", "P@5", "R@5", "F1@5"]
        cells = lines[1].split("\t")
        assert cells[0] == "pmi"
        # metrics are percentages with three decimals
        assert all(len(c.split(".")[-1]) == 3 for c in cells[-6:])

    def test_json_mirrors_metrics(self, tmp_path):
        rows = self.make_rows()
        p = tmp_path / "report.json"
        write_report_json(rows, p, resolved_config={"workers": 1})
        payload = json.loads(p.read_text())
        assert payload["resolved_config"] == {"workers": 1}
        got = payload["rows"]
        assert len(got) == 2
        assert got[0]["config"]["measure"] == "pmi"
        assert got[0]["precision"]["3"] == rows[0].precision[3]
        assert got[0]["user_count"] == rows[0].user_count

    def test_api_and_yaml_knobs_write_the_same_bytes(self, tmp_path):
        ds = small_dataset()
        api = replace(FAST, lam=1, shift_k=np.float64(2.0))
        cfg = parse_config(yaml.safe_load("""
            walk: {beta: 3, gamma: 12}
            confidence: {shift_k: 2.0}
            als: {factors: 6, lambda: 1, sweeps: 4}
            recommend: {k_items: 5}
            evaluate: {cutoffs: [3, 5]}
        """))
        for name, st in (("api", api), ("yaml", base_settings(cfg))):
            rows = [run_cell(ds, st)]
            write_report_tsv(rows, tmp_path / f"{name}.tsv")
            write_report_json(rows, tmp_path / f"{name}.json")
        for ext in ("tsv", "json"):
            assert (tmp_path / f"api.{ext}").read_bytes() == (tmp_path / f"yaml.{ext}").read_bytes()

    def test_writers_are_byte_deterministic(self, tmp_path):
        rows = self.make_rows()
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_report_tsv(rows, a)
        write_report_tsv(rows, b)
        assert a.read_bytes() == b.read_bytes()
        aj, bj = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(rows, aj)
        write_report_json(rows, bj)
        assert aj.read_bytes() == bj.read_bytes()
