"""Random walk corpus generation: forced paths, counts, determinism, uniformity."""

import numpy as np
import pytest

from walkrec.graph import build_graph
from walkrec.pairs import sample_pairs
from walkrec.walks import WalkConfig, generate_walks, load_walks, save_walks

from conftest import corpus_from_tokens, oracle_walk

TOY_EDGES = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)}


class TestForcedWalks:
    def test_single_edge_alternation(self):
        g = build_graph({(0, 0)}, 1, 1)
        corpus = generate_walks(g, WalkConfig(beta=1, gamma=5, seed=0))
        # codes: user 0 -> 0, item 0 -> 1; both start vertices walk
        assert len(corpus.walks) == 2
        assert corpus.walks[0].tolist() == [0, 1, 0, 1, 0]
        assert corpus.walks[1].tolist() == [1, 0, 1, 0, 1]

    def test_walks_from_first_user_start_with_its_neighbors(self):
        g = build_graph(TOY_EDGES, 3, 4)
        corpus = generate_walks(g, WalkConfig(beta=20, gamma=4, seed=1))
        from_u0 = [w for w in corpus.walks if w[0] == 0]
        assert len(from_u0) == 20
        for w in from_u0:
            assert w[1] in (3, 4)  # items 0 and 1 in global coding


class TestCountContract:
    def test_paper_default_counts(self):
        g = build_graph(TOY_EDGES, 3, 4)
        cfg = WalkConfig(beta=10, gamma=80, seed=0)
        corpus = generate_walks(g, cfg)
        assert len(corpus.walks) == 10 * (3 + 4)
        assert all(len(w) == 80 for w in corpus.walks)

    def test_isolated_vertices_contribute_no_walks(self):
        g = build_graph({(0, 0)}, 3, 3)
        corpus = generate_walks(g, WalkConfig(beta=4, gamma=3, seed=0))
        assert len(corpus.walks) == 4 * 2
        starts = {int(w[0]) for w in corpus.walks}
        assert starts == {0, 3}

    def test_gamma_one_walks_are_single_vertices(self):
        g = build_graph({(0, 0)}, 1, 1)
        corpus = generate_walks(g, WalkConfig(beta=2, gamma=1, seed=0))
        assert all(len(w) == 1 for w in corpus.walks)


class TestValidity:
    def test_every_step_is_an_edge(self):
        rng = np.random.default_rng(4)
        m, n = 8, 9
        edges = {(int(rng.integers(m)), int(rng.integers(n))) for _ in range(30)}
        g = build_graph(edges, m, n)
        corpus = generate_walks(g, WalkConfig(beta=3, gamma=12, seed=5))
        corpus.validate(g)  # raises on a non-edge step or broken alternation

    def test_validate_rejects_broken_alternation(self):
        corpus = corpus_from_tokens(["u0 u0 i0"], 1, 1)
        corpus.walks[0][1] = 0  # force two users in a row
        with pytest.raises(ValueError, match="alternate"):
            corpus.validate()


class TestDeterminism:
    def test_same_config_same_corpus(self):
        g = build_graph(TOY_EDGES, 3, 4)
        a = generate_walks(g, WalkConfig(beta=5, gamma=20, seed=3))
        b = generate_walks(g, WalkConfig(beta=5, gamma=20, seed=3))
        assert len(a.walks) == len(b.walks)
        assert all(np.array_equal(x, y) for x, y in zip(a.walks, b.walks))

    def test_seed_changes_corpus(self):
        g = build_graph(TOY_EDGES, 3, 4)
        a = generate_walks(g, WalkConfig(beta=5, gamma=20, seed=3))
        b = generate_walks(g, WalkConfig(beta=5, gamma=20, seed=4))
        assert any(not np.array_equal(x, y) for x, y in zip(a.walks, b.walks))


class TestUniformity:
    def test_first_step_frequency_on_two_equal_neighbors(self):
        g = build_graph({(0, 0), (0, 1)}, 1, 2)
        corpus = generate_walks(g, WalkConfig(beta=10_000, gamma=2, seed=12))
        firsts = [int(w[1]) for w in corpus.walks if w[0] == 0]
        assert len(firsts) == 10_000
        frac = sum(1 for v in firsts if v == 1) / len(firsts)
        assert abs(frac - 0.5) <= 0.05


class TestPersistence:
    def test_round_trip(self, tmp_path):
        g = build_graph(TOY_EDGES, 3, 4)
        corpus = generate_walks(g, WalkConfig(beta=2, gamma=7, seed=8))
        p = tmp_path / "walks.txt"
        save_walks(corpus, p)
        back = load_walks(p)
        assert back.n_users == 3 and back.n_items == 4
        assert all(np.array_equal(x, y) for x, y in zip(back.walks, corpus.walks))

    def test_token_format(self, tmp_path):
        corpus = corpus_from_tokens(["u0 i1 u2 i1"], 3, 4)
        p = tmp_path / "walks.txt"
        save_walks(corpus, p)
        lines = p.read_text().splitlines()
        assert lines[1] == "u0 i1 u2 i1"


class TestArrayCorpus:
    def test_rows_match_scalar_oracle(self):
        rng = np.random.default_rng(21)
        m, n = 9, 7
        edges = {(int(rng.integers(m)), int(rng.integers(n))) for _ in range(25)}
        g = build_graph(edges, m, n)
        cfg = WalkConfig(beta=3, gamma=15, seed=11)
        corpus = generate_walks(g, cfg)
        starts = np.flatnonzero(np.diff(g.indptr)).tolist()  # codes with a neighbour
        assert corpus.walks.shape == (cfg.beta * len(starts), cfg.gamma)
        for row in rng.choice(len(corpus.walks), size=12, replace=False):
            code, b = starts[row // cfg.beta], int(row % cfg.beta)
            assert corpus.walks[row].tolist() == oracle_walk(g, cfg.seed, code, b, cfg.gamma)

    def test_edgeless_graph_gives_empty_corpus(self):
        g = build_graph(set(), 3, 4)
        corpus = generate_walks(g, WalkConfig(beta=2, gamma=6, seed=0))
        assert corpus.walks.shape == (0, 6)
        corpus.validate(g)
        stats = sample_pairs(corpus, 3)
        stats.validate()
        assert stats.total == 0 and stats.pair_count.nnz == 0

    def test_gamma_one_corpus_has_no_pairs(self):
        g = build_graph(TOY_EDGES, 3, 4)
        corpus = generate_walks(g, WalkConfig(beta=2, gamma=1, seed=0))
        assert corpus.walks.shape == (2 * 7, 1)
        corpus.validate(g)
        assert sample_pairs(corpus, 1).total == 0

    def test_validate_rejects_non_edge_step(self):
        g = build_graph({(0, 0), (1, 1)}, 2, 2)
        corpus = corpus_from_tokens(["u0 i0 u0", "u1 i1 u0 i0"], 2, 2)
        with pytest.raises(ValueError, match=r"walk step \(3, 0\) is not an edge"):
            corpus.validate(g)


class TestTruncatedCorpus:
    def test_truncated_file_names_the_line(self, tmp_path):
        g = build_graph(TOY_EDGES, 3, 4)
        corpus = generate_walks(g, WalkConfig(beta=2, gamma=30, seed=8))
        p = tmp_path / "walks.txt"
        save_walks(corpus, p)
        data = p.read_bytes()
        p.write_bytes(data[:-40])  # cuts into the last walk, whose line is > 40 bytes
        last_line = len(corpus.walks) + 1
        with pytest.raises(ValueError, match=rf"walks\.txt: line {last_line}: walk has"):
            load_walks(p)

    def test_cut_at_a_line_boundary_fails_the_walk_count(self, tmp_path):
        g = build_graph(TOY_EDGES, 3, 4)
        corpus = generate_walks(g, WalkConfig(beta=2, gamma=5, seed=8))
        n = len(corpus.walks)
        p = tmp_path / "walks.txt"
        save_walks(corpus, p)
        lines = p.read_text().splitlines(keepends=True)
        assert lines[0] == f"# users=3 items=4 walks={n}\n"
        p.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError,
                           match=rf"walks\.txt: header says walks={n}, file has {n - 1} walks"):
            load_walks(p)

    def test_short_line_in_the_middle(self, tmp_path):
        p = tmp_path / "walks.txt"
        p.write_text("# users=2 items=2\nu0 i0 u1\ni0 u0\nu1 i1 u1\n")
        with pytest.raises(ValueError, match="line 3: walk has 2 vertices, expected 3"):
            load_walks(p)

    def test_token_errors_keep_their_messages(self, tmp_path):
        p = tmp_path / "walks.txt"
        p.write_text("# users=2 items=2\nu0 i0\nu1 i2\n")
        with pytest.raises(ValueError, match="line 3: item 2 out of range"):
            load_walks(p)
        p.write_text("# users=2 items=2\nu0 x0\n")
        with pytest.raises(ValueError, match="line 2: bad token 'x0'"):
            load_walks(p)
