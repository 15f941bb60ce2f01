"""Truncated uniform random walks over the bipartite graph."""

from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .graph import BipartiteGraph
from .knobs import Knobs, knob
from .pcg64 import Pcg64Streams
from .tables import format_header, parse_header

__all__ = ["WalkConfig", "WalkCorpus", "generate_walks", "save_walks", "load_walks"]

_SAVE_ROWS = 8192  # walks rendered per write, bounding the token buffer


@dataclass(frozen=True)
class WalkConfig(Knobs):
    """Walk generation knobs: walks per vertex, walk length, seed."""

    beta: int = knob(10, min=1)
    gamma: int = knob(80, min=1)
    seed: int = knob(0, min=0)


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
            v = len(g.indptr) - 1
            edges = np.repeat(np.arange(v), np.diff(g.indptr)) * v + g.indices
        for block in self.blocks():
            is_user = block < m
            if not np.all(is_user[:, 1:] != is_user[:, :-1]):
                raise ValueError("walk does not alternate user/item vertices")
            if g is not None:
                a, b = block[:, :-1].ravel(), block[:, 1:].ravel()
                bad = np.flatnonzero(~np.isin(a * v + b, edges))
                if bad.size:
                    raise ValueError(f"walk step ({a[bad[0]]}, {b[bad[0]]}) is not an edge")


def generate_walks(g: BipartiteGraph, cfg: WalkConfig) -> WalkCorpus:
    """Launch cfg.beta walks of cfg.gamma vertices from every non-isolated vertex.

    Each successor is drawn uniformly from the current vertex's neighbors.
    Every walk consumes its own random stream, the one
    ``np.random.default_rng((seed, start code, walk index))`` draws, so its
    vertices do not depend on the other walks.  The streams of all walks are
    computed together as arrays (Pcg64Streams), and all walks advance
    together, one array step per position.  Rows are in (start code, walk
    index) order.  Start codes and walk indices must be below 2**32.
    """
    deg = np.diff(g.indptr)
    starts = np.flatnonzero(deg)
    walks = np.empty((len(starts) * cfg.beta, cfg.gamma), dtype=np.int64)
    walks[:, 0] = cur = np.repeat(starts, cfg.beta)
    streams = Pcg64Streams(cfg.seed, cur, np.tile(np.arange(cfg.beta), len(starts)))
    for t in range(1, cfg.gamma):
        # float product then truncation, exactly as int(r * len(row)) per walk
        cur = g.indices[g.indptr[cur] + (streams.random() * deg[cur]).astype(np.int64)]
        walks[:, t] = cur
    return WalkCorpus(walks, g.n_users, g.n_items)


def _token_names(m, n):
    "Token of every global code: 'u<idx>' for users, then 'i<idx>' for items."
    return np.array([f"u{v}" for v in range(m)] + [f"i{j}" for j in range(n)], dtype=object)


def save_walks(corpus: WalkCorpus, path):
    """One walk per line, space-separated 'u<idx>' / 'i<idx>' tokens.

    The header line carries the user, item and walk counts.
    """
    names = _token_names(corpus.n_users, corpus.n_items)
    spaced, ended = names + " ", names + "\n"
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write(format_header({"users": corpus.n_users, "items": corpus.n_items,
                               "walks": len(corpus.walks)}))
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
    differs from the first walk's, as a truncated file leaves it.  A file
    cut at a line boundary fails the header's walk count, when the header
    has one.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as f:
        fields = parse_header(f.readline(), path, {"users": int, "items": int})
        m, n = fields["users"], fields["items"]
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
    if fields.get("walks", str(len(filled))) != str(len(filled)):
        raise ValueError(f"{path}: header says walks={fields['walks']}, "
                         f"file has {len(filled)} walks")
    return WalkCorpus(codes.reshape(len(filled), gamma), m, n)
