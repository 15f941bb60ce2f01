"""Bipartite graph construction and its CSR rows."""

import numpy as np
import pytest

from walkrec.graph import build_graph

# toy graph used across the suite: three users, four items, chain-like overlap
TOY_EDGES = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)}


def _rows(g):
    "Each global code's neighbour codes, read off the CSR."
    return [g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()
            for v in range(g.n_users + g.n_items)]


def _degrees(g):
    "User degrees, then item degrees."
    deg = np.diff(g.indptr).tolist()
    return deg[:g.n_users], deg[g.n_users:]


class TestBuildGraph:
    def test_empty_edge_set_keeps_isolated_vertices(self):
        g = build_graph(set(), 2, 2)
        assert g.n_users == 2 and g.n_items == 2
        assert _rows(g) == [[], [], [], []]
        assert g.indices.shape == (0,) and g.n_edges == 0

    def test_toy_degrees(self):
        g = build_graph(TOY_EDGES, 3, 4)
        assert _degrees(g) == ([2, 2, 2], [1, 2, 2, 1])

    def test_single_edge(self):
        g = build_graph({(0, 0)}, 1, 1)
        assert _rows(g) == [[1], [0]]  # user 0 is code 0, item 0 is code 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph({(0, 5)}, 2, 2)
        with pytest.raises(ValueError, match="out of range"):
            build_graph({(-1, 0)}, 2, 2)

    def test_duplicates_collapse(self):
        g = build_graph([(0, 0), (0, 0)], 1, 1)
        assert _rows(g) == [[1], [0]]

    def test_degree_sums_equal_edge_count(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            edges = {
                (int(rng.integers(m)), int(rng.integers(n)))
                for _ in range(int(rng.integers(0, 30)))
            }
            g = build_graph(edges, m, n)
            user_deg, item_deg = _degrees(g)
            assert sum(user_deg) == len(edges)
            assert sum(item_deg) == len(edges)
            assert g.n_edges == len(edges)

    def test_matches_scalar_loop_oracle(self):
        # oracle: append each edge to both endpoints' lists, then sort and
        # deduplicate every list; users are codes 0..m-1, items m..m+n-1
        rng = np.random.default_rng(29)
        for trial in range(60):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            size = 0 if trial % 10 == 0 else int(rng.integers(1, 3 * m * n))
            edges = [(int(rng.integers(m)), int(rng.integers(n))) for _ in range(size)]
            nbrs = [[] for _ in range(m + n)]
            for u, i in edges:  # repeated edges included
                nbrs[u].append(m + i)
                nbrs[m + i].append(u)
            want = [sorted(set(row)) for row in nbrs]
            for given in (edges, set(edges), np.array(edges, dtype=np.int64).reshape(-1, 2)):
                g = build_graph(given, m, n)
                assert _rows(g) == want
                assert g.indptr.dtype == g.indices.dtype == np.int64
                assert g.n_edges == len(set(edges))


class TestCsrRows:
    def test_toy_rows_sorted(self):
        g = build_graph(TOY_EDGES, 3, 4)
        rows = _rows(g)
        assert rows[0] == [3, 4]  # user 0 -> items 0, 1
        assert rows[3 + 2] == [1, 2]  # item 2 -> users 1, 2

    def test_isolated_vertex_has_empty_row(self):
        g = build_graph({(0, 0)}, 2, 2)
        rows = _rows(g)
        assert rows[1] == [] and rows[2 + 1] == []

    def test_rows_sorted_arcs_symmetric_degrees_are_row_lengths(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            edges = {(int(rng.integers(m)), int(rng.integers(n)))
                     for _ in range(int(rng.integers(0, 25)))}
            g = build_graph(edges, m, n)
            rows = _rows(g)
            assert all(np.all(np.diff(row) > 0) for row in rows)
            arcs = {(v, w) for v, row in enumerate(rows) for w in row}
            assert arcs == {(w, v) for v, w in arcs}
            assert arcs == {(u, m + i) for u, i in edges} | {(m + i, u) for u, i in edges}
            assert np.diff(g.indptr).tolist() == (
                [sum(u == v for u, _ in edges) for v in range(m)]
                + [sum(i == j for _, i in edges) for j in range(n)])
