"""Random walk corpus generation: forced paths, counts, determinism, uniformity."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

import walkrec.walks as walks_module
from walkrec.graph import build_graph
from walkrec.pairs import sample_pairs
from walkrec.walks import WalkConfig, WalkCorpus, generate_walks, load_walks, save_walks

from conftest import corpus_from_tokens, oracle_expected_pairs, oracle_walk

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


class TestSamplerStatistics:
    """A check of the sampler that does not use its streams: every non-isolated
    vertex starts exactly beta walks, and the successors seen from each vertex
    fit the uniform 1 / deg law (chi-square, fixed seeds, so deterministic)."""

    EDGES = {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 4), (2, 1), (2, 2), (2, 3),
             (2, 4), (2, 5), (3, 5), (4, 0)}  # user 5 and item 6 isolated

    @pytest.mark.parametrize("seed", [0, 1])
    def test_starts_and_uniform_successors(self, seed):
        m, n, beta = 6, 7, 200
        g = build_graph(self.EDGES, m, n)
        deg = np.diff(g.indptr)
        corpus = generate_walks(g, WalkConfig(beta=beta, gamma=25, seed=seed))
        starts = np.bincount(corpus.walks[:, 0], minlength=m + n)
        assert starts.tolist() == (beta * (deg > 0)).tolist()
        here, there = corpus.walks[:, :-1].ravel(), corpus.walks[:, 1:].ravel()
        for x in np.flatnonzero(deg > 1):
            seen = there[here == x]
            counts = [np.count_nonzero(seen == y) for y in g.indices[g.indptr[x]:g.indptr[x + 1]]]
            assert sum(counts) == len(seen) > 100 * deg[x]  # only neighbours, all well sampled
            assert chisquare(counts).pvalue > 1e-6


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
        corpus = corpus_from_tokens(["u0 i0 u0 i0", "u1 i1 u0 i0"], 2, 2)
        with pytest.raises(ValueError, match=r"walk step \(3, 0\) is not an edge"):
            corpus.validate(g)

    def test_edge_check_does_not_overflow_int32_codes(self):
        # a step (a, b) is looked up as a * 80,000 + b, up to 6.4e9: beyond int32
        m = n = 40_000
        g = build_graph({(m - 1, n - 1), (m - 2, n - 1)}, m, n)
        WalkCorpus(np.array([[m - 1, m + n - 1, m - 2, m + n - 1]]), m, n).validate(g)
        corpus = WalkCorpus(np.array([[m - 1, m + n - 1, m - 2], [m - 2, m + n - 2, m - 1]]), m, n)
        with pytest.raises(ValueError, match=rf"walk row 1: walk step \({m - 2}, {m + n - 2}\)"):
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


class TestCorpusForm:
    def test_list_of_equal_walks_is_stacked(self):
        corpus = WalkCorpus([[0, 2], np.array([1, 3])], 2, 2)
        assert corpus.walks.dtype == np.int32 and corpus.walks.tolist() == [[0, 2], [1, 3]]
        assert WalkCorpus([], 2, 2).walks.shape == (0, 0)

    def test_code_beyond_int32_raises_instead_of_wrapping(self):
        with pytest.raises(ValueError, match=r"walk row 1: code 4294967297 outside \[0, 4\)"):
            WalkCorpus(np.array([[0, 2], [1, 2**32 + 1]]), 2, 2)  # would wrap to 1
        with pytest.raises(ValueError, match=r"walk row 0: code 2147483648 outside"):
            WalkCorpus([[2**31, 2]], 2, 2)

    def test_vertex_count_beyond_int32_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"2147483647 users \+ 1 items exceed"):
            WalkCorpus(np.zeros((0, 0), dtype=np.int32), 2**31 - 1, 1)
        WalkCorpus(np.zeros((0, 0), dtype=np.int32), 2**31 - 2, 1)
        p = tmp_path / "walks.txt"
        p.write_text("# users=3000000000 items=1\nu2999999999 i0\n")
        with pytest.raises(ValueError, match=r"walks\.txt: 3000000000 users \+ 1 items exceed"):
            load_walks(p)

    def test_ragged_list_names_the_first_differing_walk(self):
        with pytest.raises(ValueError, match="walk 2 has 3 vertices, walk 0 has 2"):
            WalkCorpus([[0, 2], [1, 3], [0, 2, 0], [1]], 2, 2)

    def test_validate_names_the_walk_row(self):
        corpus = WalkCorpus(np.array([[0, 2, 1], [1, 3, 1], [1, 1, 2]]), 2, 2)
        with pytest.raises(ValueError, match=r"walk row 2: breaks user/item alternation: "
                                             r"positions 0 and 1"):
            corpus.validate()
        corpus.walks[1, 2] = 4
        with pytest.raises(ValueError, match=r"walk row 1: code 4 outside \[0, 4\)"):
            corpus.validate()


HEADER = "# users=2 items=11 walks=2\n"


class TestStrictReader:
    @pytest.mark.parametrize("token", ["ux", "u", "u+1", "u01", "i00", "i1_0", "i\u0663",
                                       "x0", "i-1", "u1234567890123456789"])
    def test_bad_token_names_file_and_line(self, tmp_path, token):
        p = tmp_path / "walks.txt"
        p.write_text(f"{HEADER}i1 {token}\nu0 i1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"walks\.txt: line 2: bad token"):
            load_walks(p)

    @pytest.mark.parametrize("body, line", [
        ("u0 i1\n\nu1 i0\n", 3),  # blank line
        ("u0 i1\nu1  i0\n", 3),  # double space
        ("u0 i1\nu1\ti0\n", 3),  # tab
        ("u0 i1\r\nu1 i0\r\n", 2),  # CRLF
        ("u0 i1\nu1 i0 \n", 3),  # trailing space
        (" u0 i1\nu1 i0\n", 2),  # leading space
        ("u0 i1\nu1 i0", 3),  # missing final newline
    ])
    def test_layout_errors_name_the_line(self, tmp_path, body, line):
        p = tmp_path / "walks.txt"
        p.write_text(HEADER + body, newline="")
        with pytest.raises(ValueError, match=rf"walks\.txt: line {line}: "):
            load_walks(p)

    def test_broken_alternation_names_the_line(self, tmp_path):
        p = tmp_path / "walks.txt"
        p.write_text(HEADER + "u0 i1\ni1 i0\n")
        with pytest.raises(ValueError, match=r"walks\.txt: line 3: breaks user/item alternation"):
            load_walks(p)

    @pytest.mark.parametrize("walks", [[[0, -1, 1, -3]], [[0, 4, 1, 2]], [[0, 1, 2, 3]]])
    def test_invalid_corpus_is_not_saved(self, tmp_path, walks):
        p = tmp_path / "walks.txt"
        with pytest.raises(ValueError, match="walk row 0: "):
            save_walks(WalkCorpus(np.array(walks), 2, 2), p)
        assert not p.exists()


def random_corpus(rng, m, n, w, gamma):
    "An alternating corpus whose walks start at random kinds, with the top ids drawn."
    user_first = rng.random(w) < 0.5
    is_user = (np.arange(gamma) % 2 == 0) == user_first[:, None]
    walks = np.where(is_user, rng.integers(m, size=(w, gamma)),
                     m + rng.integers(n, size=(w, gamma)))
    if w and gamma > 1:
        walks[0, :2] = (m - 1, m + n - 1) if user_first[0] else (m + n - 1, m - 1)
    return WalkCorpus(walks, m, n)


class TestOneGrammar:
    @pytest.mark.parametrize("m, n, w, gamma", [(3, 10**6 + 1, 40, 7), (40, 30, 300, 12),
                                                (5, 4, 30, 1), (1, 1, 3, 4), (2, 2, 0, 0)])
    def test_save_then_load_round_trips(self, tmp_path, m, n, w, gamma):
        corpus = random_corpus(np.random.default_rng(m + w), m, n, w, gamma)
        p, q = tmp_path / "a.txt", tmp_path / "b.txt"
        save_walks(corpus, p)
        names = [" ".join(f"u{v}" if v < m else f"i{v - m}" for v in row) + "\n"
                 for row in corpus.walks.tolist()]  # the scalar rendering, as the oracle
        assert p.read_text().split("\n", 1)[1] == "".join(names)
        back = load_walks(p)
        assert (back.n_users, back.n_items) == (m, n)
        assert back.walks.dtype == np.int32 and np.array_equal(back.walks, corpus.walks)
        save_walks(back, q)
        assert q.read_bytes() == p.read_bytes()

    def test_every_single_byte_mutation_fails_loudly_or_round_trips(self, tmp_path):
        check_single_byte_mutations(tmp_path)


def check_single_byte_mutations(tmp_path):
    "Every one-byte change to a small file raises naming the file, or reloads to itself."
    p, q = tmp_path / "walks.txt", tmp_path / "again.txt"
    save_walks(corpus_from_tokens(["u0 i1 u12 i10", "i3 u1 i0 u10"], 13, 11), p)
    valid = p.read_bytes()
    named = rf"^{re.escape(str(p))}: (line \d+: |header says walks=)"
    outcomes = set()
    for pos in range(len(valid)):
        for byte in b" \n\tui0x+_-\r":
            mutated = valid[:pos] + bytes([byte]) + valid[pos + 1:]
            if mutated == valid:
                continue
            p.write_bytes(mutated)
            try:
                corpus = load_walks(p)
            except ValueError as exc:
                assert re.match(named, str(exc)), (mutated, str(exc))
                outcomes.add("raised")
                continue
            save_walks(corpus, q)
            assert q.read_bytes().split(b"\n", 1)[1] == mutated.split(b"\n", 1)[1], mutated
            outcomes.add("loaded")
    assert outcomes == {"raised", "loaded"}


class TestBlockedReader:
    """The reader parses about _TEXT_ROWS lines at a time into the corpus's rows."""

    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("m, n, w, gamma", [(3, 10**6 + 1, 40, 7), (40, 30, 300, 12),
                                                (5, 4, 30, 1)])
    def test_small_blocks_round_trip(self, tmp_path, monkeypatch, rows, m, n, w, gamma):
        corpus = random_corpus(np.random.default_rng(m + w), m, n, w, gamma)
        p, q = tmp_path / "a.txt", tmp_path / "b.txt"
        save_walks(corpus, p)
        monkeypatch.setattr(walks_module, "_TEXT_ROWS", rows)
        back = load_walks(p)
        assert back.walks.dtype == np.int32 and np.array_equal(back.walks, corpus.walks)
        save_walks(back, q)
        assert q.read_bytes() == p.read_bytes()

    def test_default_blocks_round_trip(self, tmp_path):
        w = 3 * walks_module._TEXT_ROWS + 5  # four blocks, the last of 5 lines
        corpus = random_corpus(np.random.default_rng(3), 50, 7000, w, 9)
        p = tmp_path / "walks.txt"
        save_walks(corpus, p)
        back = load_walks(p)
        assert back.walks.dtype == np.int32 and np.array_equal(back.walks, corpus.walks)

    @pytest.mark.parametrize("rows", [1, 2, 7, walks_module._TEXT_ROWS])
    @pytest.mark.parametrize("token, problem", [
        ("ux", "bad token 'ux'"),
        ("i40", "item 40 out of range"),
        (None, "walk has 5 vertices, expected 6 as on line 2"),
        ("u0", "breaks user/item alternation: positions 0 and 1 do not alternate"),
    ])
    def test_error_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, rows, token,
                                                   problem):
        # equal lines, so each block holds `rows` of them; the fault is on the
        # first line of the fourth block
        walks = np.tile([0, 12, 1, 13, 2, 14], (3 * rows + 5, 1))  # user-first, 6 vertices
        p, line = tmp_path / "walks.txt", 3 * rows + 2
        save_walks(WalkCorpus(walks, 10, 40), p)
        lines = p.read_text().split("\n")
        tokens = lines[line - 1].split()
        if token is None:
            tokens.pop()
        else:
            tokens[1] = token  # the second vertex, an item
        lines[line - 1] = " ".join(tokens)
        p.write_text("\n".join(lines))
        monkeypatch.setattr(walks_module, "_TEXT_ROWS", rows)
        with pytest.raises(ValueError, match=rf"walks\.txt: line {line}: {re.escape(problem)}$"):
            load_walks(p)

    def test_single_byte_mutations_in_one_line_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(walks_module, "_TEXT_ROWS", 1)
        check_single_byte_mutations(tmp_path)

    def test_long_line_two_does_not_size_the_corpus(self, tmp_path):
        # line 2 claims walks of 100,000 vertices and 100,000 lines follow: the
        # corpus is sized by the bytes the file has, not 10**10 codes
        p = tmp_path / "walks.txt"
        p.write_text("# users=1 items=1\n" + " ".join(["u0", "i0"] * 50_000) + "\n"
                     + "u0\n" * 100_000)
        with pytest.raises(ValueError, match=r"line 3: walk has 1 vertices, expected 100000"):
            load_walks(p)


class TestReaderMemory:
    def test_peak_is_a_small_multiple_of_the_result(self, tmp_path):
        """The reader holds the file bytes (5.7 bytes a vertex here), the int32
        corpus (4) and one block's temporaries: its traced peak over 9 blocks
        measured 13.5 bytes a vertex, against 34.8 when the whole body was
        tokenized at once."""
        p = tmp_path / "walks.txt"
        save_walks(random_corpus(np.random.default_rng(0), 4000, 4000, 9000, 80), p)
        tracemalloc.start()
        try:
            corpus = load_walks(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus.walks) > 8 * walks_module._TEXT_ROWS
        assert peak < 15 * corpus.walks.size


class TestBlockedValidate:
    """validate runs each check over row blocks of _TEXT_ROWS walks, one check after
    another, so its first error is the one a whole-corpus pass would raise."""

    def corpus(self, blocks):
        m, n = 30, 40
        rng = np.random.default_rng(blocks)
        edges = {(int(rng.integers(m)), int(rng.integers(n))) for _ in range(150)}
        g = build_graph(edges, m, n)
        beta = -(-blocks * walks_module._TEXT_ROWS // int(np.count_nonzero(np.diff(g.indptr))))
        return g, generate_walks(g, WalkConfig(beta=beta, gamma=40, seed=blocks))

    def test_checks_run_in_order_across_blocks(self):
        g, corpus = self.corpus(3)
        w, rows, m = corpus.walks, walks_module._TEXT_ROWS, 30
        clean = w.copy()
        w[1, 3] = w[1, 2]  # an alternation fault in block 0
        w[2 * rows + 5, 7] = 70  # a range fault in block 2
        with pytest.raises(ValueError, match=rf"walk row {2 * rows + 5}: code 70 outside"):
            corpus.validate(g)
        w[rows + 9, 0] = -1  # a range fault in block 1 comes first
        with pytest.raises(ValueError, match=rf"walk row {rows + 9}: code -1 outside"):
            corpus.validate(g)
        w[:] = clean
        same_kind = range(m) if w[5, 2] < m else range(m, m + 40)
        neighbours = g.indices[g.indptr[w[5, 1]]:g.indptr[w[5, 1] + 1]]
        w[5, 2] = next(c for c in same_kind if c not in neighbours)  # an edge fault in block 0
        w[rows + 3, 4] = w[rows + 3, 5]  # an alternation fault in block 1
        with pytest.raises(ValueError, match=rf"walk row {rows + 3}: breaks user/item "
                                             "alternation: positions 3 and 4"):
            corpus.validate(g)
        w[rows + 3] = clean[rows + 3]
        with pytest.raises(ValueError, match=rf"walk row 5: walk step \({w[5, 1]}, {w[5, 2]}\)"):
            corpus.validate(g)  # the edge fault in block 0, found last
        w[:] = clean
        corpus.validate(g)

    def test_traced_peak_is_one_blocks_temporaries(self):
        """The checks' temporaries are about one block's: kind masks and their
        comparison, and the int64 steps and lookups of the edge check.  Traced
        peaks measured here: 3.9 and 24.6 bytes a block vertex, against 20.3 and
        275 when each check ran over the whole corpus of 10 blocks."""
        g, corpus = self.corpus(10)
        assert len(corpus.walks) >= 10 * walks_module._TEXT_ROWS
        tracemalloc.start()
        try:
            corpus.validate()
            bare = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            corpus.validate(g)
            with_edges = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = walks_module._TEXT_ROWS * corpus.walks.shape[1]  # vertices a block
        assert bare < 6 * block
        assert with_edges < 40 * block


class TestGeneratorMemory:
    def test_blocks_write_into_the_corpus(self):
        """Blocks copy each window of 8 drawn positions into the int32 corpus, so
        the traced peak is the corpus plus each block's streams, indices and
        window: measured 9.8 MB over the 15.3 MB corpus on one CPU and 10.5 MB on
        two, 205-219 bytes a walk, set while a block's streams are made.  The
        window takes 4 * 8 = 32 bytes a walk; a time-major int32 buffer of whole
        walks would take 4 * 80 = 320."""
        rng = np.random.default_rng(0)
        m = n = 3_000
        edges = np.stack([np.repeat(np.arange(m), 5), rng.integers(0, n, 5 * m)], axis=1)
        g = build_graph(edges, m, n)
        tracemalloc.start()
        try:
            corpus = generate_walks(g, WalkConfig(beta=8, gamma=80, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.walks.dtype == np.int32 and len(corpus.walks) == 47_856
        assert peak < corpus.walks.nbytes + 400 * len(corpus.walks)


class TestExpectedPairOracle:
    def test_sampled_pairs_converge_to_the_expected_counts(self):
        rng = np.random.default_rng(0)
        m, n, gamma, sigma = 12, 15, 9, 3
        edges = {(int(rng.integers(m)), int(rng.integers(n))) for _ in range(30)}
        g = build_graph(edges, m, n)
        errors = []
        for beta in (10, 100, 1000):
            expected = oracle_expected_pairs(edges, m, n, beta, gamma, sigma)
            stats = sample_pairs(generate_walks(g, WalkConfig(beta, gamma, seed=0)), sigma)
            sampled = stats.pair_count.toarray()
            assert stats.total == pytest.approx(expected.sum(), rel=1e-12)
            assert np.all(expected[sampled > 0] > 1e-12)  # support inside the expected support
            errors.append(np.abs(sampled - expected).sum() / expected.sum())
        # sampling error shrinks about as 1 / sqrt(beta): tenfold over 100x beta
        assert errors[0] > errors[1] > errors[2] and errors[2] < errors[0] / 4
