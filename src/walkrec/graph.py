"""User-item bipartite graph over training interactions."""

from dataclasses import dataclass

import numpy as np

from .datasets import as_pairs

__all__ = ["BipartiteGraph", "build_graph"]


@dataclass(frozen=True)
class BipartiteGraph:
    """Adjacency over the union vertex set of users and items, as one CSR.

    Vertices have global codes: users 0..n_users-1, then items
    n_users..n_users+n_items-1.  The neighbours of code v are
    indices[indptr[v]:indptr[v + 1]], sorted and duplicate-free; an edge
    (u, i) exists iff the pair is a training interaction.  Isolated
    vertices have empty rows.
    """

    indptr: np.ndarray  # (n_users + n_items + 1,) int64 row offsets
    indices: np.ndarray  # (2 * n_edges,) int64 neighbour codes
    n_users: int
    n_items: int

    @property
    def n_edges(self):
        return len(self.indices) // 2


def build_graph(train, n_users, n_items) -> BipartiteGraph:
    """Build the bipartite adjacency from (u, i) index pairs.

    Degree-0 vertices are kept so every index in [0, n_users) x [0, n_items)
    remains addressable.  Raises ValueError on out-of-range indices.
    """
    train = as_pairs(train)
    u, i = train.T
    bad = (u < 0) | (u >= n_users) | (i < 0) | (i >= n_items)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"interaction ({u[j]}, {i[j]}) out of range {n_users}x{n_items}")
    m = n_users
    arcs = as_pairs(np.concatenate([train + (0, m), train[:, ::-1] + (m, 0)]))
    indptr = np.searchsorted(arcs[:, 0], np.arange(m + n_items + 1))
    return BipartiteGraph(indptr, arcs[:, 1].copy(), n_users, n_items)

