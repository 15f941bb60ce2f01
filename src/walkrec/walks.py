"""Truncated uniform random walks over the bipartite graph."""

from dataclasses import dataclass
from itertools import chain, product, repeat
from pathlib import Path

import numpy as np

from .graph import BipartiteGraph

__all__ = ["WalkConfig", "WalkCorpus", "generate_walks", "save_walks", "load_walks"]

_SAVE_ROWS = 8192  # walks rendered per write, bounding the token buffer


@dataclass(frozen=True)
class WalkConfig:
    """Walk generation knobs: walks per vertex, walk length, seed."""

    beta: int = 10
    gamma: int = 80
    seed: int = 0

    def __post_init__(self):
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")


@dataclass
class WalkCorpus:
    """Vertex sequences encoded globally: code < n_users is a user, else an item.

    ``walks`` is a (W, gamma) int64 array, one walk per row, as made by
    generate_walks and load_walks.  A hand-built corpus may instead pass a
    list of 1-D int64 arrays of mixed lengths; ``blocks`` groups those by
    length so array code sees only rectangular blocks.
    """

    walks: np.ndarray
    n_users: int
    n_items: int

    def blocks(self):
        """The walks as 2-D arrays, one per distinct walk length."""
        if isinstance(self.walks, np.ndarray) and self.walks.ndim == 2:
            return [self.walks]
        lengths = sorted({len(w) for w in self.walks})
        return [np.stack([w for w in self.walks if len(w) == k]) for k in lengths]

    def validate(self, g: BipartiteGraph | None = None):
        """Check kind alternation along every walk, and edges when g is given."""
        m = self.n_users
        if g is not None:
            indptr, indices = _adjacency(g)
            v = len(indptr) - 1
            edges = np.repeat(np.arange(v), np.diff(indptr)) * v + indices
        for block in self.blocks():
            is_user = block < m
            if not np.all(is_user[:, 1:] != is_user[:, :-1]):
                raise ValueError("walk does not alternate user/item vertices")
            if g is not None:
                a, b = block[:, :-1].ravel(), block[:, 1:].ravel()
                bad = np.flatnonzero(~np.isin(a * v + b, edges))
                if bad.size:
                    raise ValueError(f"walk step ({a[bad[0]]}, {b[bad[0]]}) is not an edge")


def _adjacency(g: BipartiteGraph):
    "Global-code CSR adjacency: users 0..m-1, then items m..m+n-1; rows sorted."
    m = g.n_users
    deg = np.fromiter(map(len, chain(g.user_adj, g.item_adj)), dtype=np.int64,
                      count=m + g.n_items)
    indptr = np.zeros(len(deg) + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.concatenate([np.empty(0, dtype=np.int64),
                              *(row + m for row in g.user_adj), *g.item_adj])
    return indptr, indices


def generate_walks(g: BipartiteGraph, cfg: WalkConfig, workers: int = 1) -> WalkCorpus:
    """Launch cfg.beta walks of cfg.gamma vertices from every non-isolated vertex.

    Each successor is drawn uniformly from the current vertex's neighbors.
    Every walk consumes its own random stream keyed by
    (seed, start vertex, walk index), so its vertices do not depend on the
    other walks; all walks then advance together, one array step per
    position.  Rows are in (start code, walk index) order.

    ``workers`` is accepted for compatibility and has no effect.
    """
    indptr, indices = _adjacency(g)
    deg = np.diff(indptr)
    starts = np.flatnonzero(deg)
    steps = cfg.gamma - 1
    r = np.empty((len(starts) * cfg.beta, steps))
    for w, (code, b) in enumerate(product(starts.tolist(), range(cfg.beta))):
        np.random.default_rng((cfg.seed, code, b)).random(out=r[w])

    walks = np.empty((len(r), cfg.gamma), dtype=np.int64)
    walks[:, 0] = cur = np.repeat(starts, cfg.beta)
    for t in range(steps):
        # float product then truncation, exactly as int(r * len(row)) per walk
        cur = indices[indptr[cur] + (r[:, t] * deg[cur]).astype(np.int64)]
        walks[:, t + 1] = cur
    return WalkCorpus(walks, g.n_users, g.n_items)


def _token_names(m, n):
    "Token of every global code: 'u<idx>' for users, then 'i<idx>' for items."
    return np.array([f"u{v}" for v in range(m)] + [f"i{j}" for j in range(n)], dtype=object)


def save_walks(corpus: WalkCorpus, path):
    """One walk per line, space-separated 'u<idx>' / 'i<idx>' tokens."""
    names = _token_names(corpus.n_users, corpus.n_items)
    spaced, ended = names + " ", names + "\n"
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write(f"# users={corpus.n_users} items={corpus.n_items}\n")
        for lo in range(0, len(corpus.walks), _SAVE_ROWS):
            part = corpus.walks[lo:lo + _SAVE_ROWS]
            flat = np.concatenate(part)
            ends = np.cumsum(np.fromiter(map(len, part), dtype=np.int64, count=len(part))) - 1
            out = spaced[flat]
            out[ends] = ended[flat[ends]]
            f.write("".join(out.tolist()))


def _parse_token(tok, m, n, path, lineno):
    "Code of a token that is not in canonical form, or the error it deserves."
    idx = int(tok[1:])
    if tok[0] == "u":
        if not 0 <= idx < m:
            raise ValueError(f"{path}: line {lineno}: user {idx} out of range")
        return idx
    if tok[0] == "i":
        if not 0 <= idx < n:
            raise ValueError(f"{path}: line {lineno}: item {idx} out of range")
        return m + idx
    raise ValueError(f"{path}: line {lineno}: bad token {tok!r}")


def load_walks(path) -> WalkCorpus:
    """Read a corpus written by save_walks.

    Blank lines are skipped.  Raises ValueError naming the file and line
    for an out-of-range or malformed token, and for a walk whose length
    differs from the first walk's, as a truncated file leaves it.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as f:
        header = f.readline().strip()
        if not header.startswith("# users="):
            raise ValueError(f"{path}: missing corpus header")
        fields = dict(part.split("=") for part in header[2:].split())
        m, n = int(fields["users"]), int(fields["items"])
        lines = list(map(str.split, f.read().split("\n")))
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    toks = list(chain.from_iterable(lines))
    lookup = {name: code for code, name in enumerate(_token_names(m, n).tolist())}
    codes = np.fromiter(map(lookup.get, toks, repeat(-1)), dtype=np.int64, count=len(toks))
    line_of = np.repeat(np.arange(len(lines)) + 2, lengths)
    for j in np.flatnonzero(codes < 0).tolist():
        codes[j] = _parse_token(toks[j], m, n, path, int(line_of[j]))

    filled = np.flatnonzero(lengths)
    gamma = int(lengths[filled[0]]) if filled.size else 0
    short = filled[lengths[filled] != gamma]
    if short.size:
        j = int(short[0])
        raise ValueError(f"{path}: line {j + 2}: walk has {lengths[j]} vertices, "
                         f"expected {gamma} as on line {filled[0] + 2}")
    return WalkCorpus(codes.reshape(len(filled), gamma), m, n)
