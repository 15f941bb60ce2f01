"""Truncated uniform random walks over the bipartite graph."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import BipartiteGraph
from .knobs import Knobs, knob
from .parallel import map_blocks, spans, threads
from .pcg64 import Pcg64Streams
from .tables import format_header, parse_header

__all__ = ["WalkConfig", "WalkCorpus", "generate_walks", "save_walks", "load_walks"]

_SAVE_ROWS = 8192  # walks rendered per write, bounding the token buffer
_WALK_BLOCK = 16384  # walks whose streams advance together; far fewer lose to the GIL
_SP, _NL, _U, _I = b" \nui"


@dataclass(frozen=True)
class WalkConfig(Knobs):
    """Walk generation knobs: walks per vertex, walk length, seed."""

    beta: int = knob(10, min=1)
    gamma: int = knob(80, min=1)
    seed: int = knob(0, min=0)


class WalkRowError(ValueError):
    "A WalkCorpus.validate failure: ``problem`` at walk ``row``."

    def __init__(self, row, problem):
        super().__init__(f"walk row {row}: {problem}")
        self.row, self.problem = int(row), problem


@dataclass
class WalkCorpus:
    """Vertex sequences encoded globally: code < n_users is a user, else an item.

    ``walks`` is a (W, gamma) int64 array, one walk per row.  A list of
    equal-length walks is stacked into one, an empty list into (0, 0).
    """

    walks: np.ndarray
    n_users: int
    n_items: int

    def __post_init__(self):
        if isinstance(self.walks, list):
            lengths = [len(w) for w in self.walks] or [0]
            for r in np.flatnonzero(np.array(lengths) != lengths[0])[:1]:  # the first, if any
                raise ValueError(f"walk {r} has {lengths[r]} vertices, walk 0 has {lengths[0]}")
            self.walks = np.array(self.walks, dtype=np.int64).reshape(len(self.walks), lengths[0])
        self.walks = np.asarray(self.walks, dtype=np.int64)

    def validate(self, g: BipartiteGraph | None = None):
        """Check codes in [0, n_users + n_items), user/item alternation along every walk
        and, when g is given, that every step is an edge of g.  Raises WalkRowError, a
        ValueError naming the first offending walk row."""
        w, v = self.walks, self.n_users + self.n_items
        # the first fault, if any; a negative code viewed as uint64 is >= 2**63
        for f in np.flatnonzero(w.view(np.uint64) >= v)[:1]:
            raise WalkRowError(f // w.shape[1], f"code {w.flat[f]} outside [0, {v})")
        if w.size == 0 < len(w):
            raise WalkRowError(0, "walk has no vertices")
        kind = w < self.n_users
        for f in np.flatnonzero(kind[:, 1:] == kind[:, :-1])[:1]:
            r, p = divmod(f, w.shape[1] - 1)
            raise WalkRowError(r, f"breaks user/item alternation: positions {p} and {p + 1} "
                                  "do not alternate")
        if g is not None:
            base = max(v, len(g.indptr) - 1)
            edges = np.repeat(np.arange(len(g.indptr) - 1), np.diff(g.indptr)) * base + g.indices
            for r, p in np.argwhere(~np.isin(w[:, :-1] * base + w[:, 1:], edges))[:1]:
                raise WalkRowError(r, f"walk step ({w[r, p]}, {w[r, p + 1]}) is not an edge")


def generate_walks(g: BipartiteGraph, cfg: WalkConfig) -> WalkCorpus:
    """Launch cfg.beta walks of cfg.gamma vertices from every non-isolated vertex.

    Each successor is drawn uniformly from the current vertex's neighbors.
    Every walk consumes its own random stream, the one
    ``np.random.default_rng((seed, start code, walk index))`` draws, so its
    vertices do not depend on the other walks, nor on how they are blocked.
    Rows are in (start code, walk index) order.  The rows are cut into one
    contiguous part per CPU (one part below _WALK_BLOCK walks), run in
    parallel.  A part computes the streams of about _WALK_BLOCK walks at a
    time as arrays (Pcg64Streams) and advances them together, one array
    step per position, into the part's time-major buffer, copied into the
    rows once.  Start codes and walk indices must be below 2**32.
    """
    deg = np.diff(g.indptr)
    starts = np.flatnonzero(deg)
    walks = np.empty((len(starts) * cfg.beta, cfg.gamma), dtype=np.int64)
    parts = [[(lo + a, lo + b) for a, b in spans(hi - lo, max(1, round((hi - lo) / _WALK_BLOCK)))]
             for lo, hi in spans(len(walks), min(threads(), -(-len(walks) // _WALK_BLOCK) or 1))]
    # made on this thread: memory a worker thread frees stays in its own malloc arena
    buffers = [np.empty(cfg.gamma * max(hi - lo for lo, hi in part), dtype=np.int64)
               for part in parts]

    def walk_part(p):
        for lo, hi in parts[p]:
            j = np.arange(lo, hi)
            cur = starts[j // cfg.beta]
            streams = Pcg64Streams(cfg.seed, cur, j % cfg.beta)
            steps = buffers[p][:cfg.gamma * len(j)].reshape(cfg.gamma, len(j))
            steps[0] = cur
            for t in range(1, cfg.gamma):
                # float product then truncation, exactly as int(r * len(row)) per walk
                cur = g.indices[g.indptr[cur] + (streams.random() * deg[cur]).astype(np.int64)]
                steps[t] = cur
            walks[lo:hi] = steps.T

    map_blocks(walk_part, range(len(parts)))
    return WalkCorpus(walks, g.n_users, g.n_items)


def save_walks(corpus: WalkCorpus, path):
    """One walk per line of space-separated 'u<idx>' / 'i<idx>' tokens, under a header
    of the user, item and walk counts.  An invalid corpus raises before the file is made.
    """
    corpus.validate()
    m, n = corpus.n_users, corpus.n_items
    with Path(path).open("wb") as f:
        f.write(format_header({"users": m, "items": n, "walks": len(corpus.walks)}).encode())
        for lo in range(0, len(corpus.walks), _SAVE_ROWS):
            f.write(_render(corpus.walks[lo:lo + _SAVE_ROWS], m))


def _render(walks, m):
    """The lines of a block of walks as bytes, with no table of token names.

    Token t is row t: its letter, its digits right-aligned by repeated
    division by ten (the inverse of load_walks' Horner pass) after NUL
    bytes, then its separator.  Dropping the NULs leaves the tokens.
    """
    code = walks.ravel()
    item = code >= m
    idx = code - m * item
    top = int(idx.max(initial=0))
    idx = idx.astype(np.int32 if top < 2**31 else np.int64)  # int32 divides faster
    width = len(str(top))
    rows = np.empty((len(idx), width + 2), dtype=np.uint8)
    rows[:, 0] = np.uint8(_U) - item.view(np.uint8) * np.uint8(_U - _I)
    for col in range(width, 0, -1):
        rest, digit = np.divmod(idx, 10)
        digit += ord("0")
        if col < width:
            digit[idx == 0] = 0  # no digit left: a NUL
        rows[:, col], idx = digit, rest
    rows[:, -1] = _SP
    rows[walks.shape[1] - 1::walks.shape[1], -1] = _NL
    return rows[rows != 0].tobytes()


def load_walks(path) -> WalkCorpus:
    """Read a corpus written by save_walks, accepting exactly the body it writes:
    lines of 'u<idx>'/'i<idx>' tokens (idx in canonical ASCII decimal: no sign, no
    leading zero, at most 18 digits) joined by single spaces, each ended by '\\n',
    all of one length.  Parsed as one byte array; an error raises ValueError naming
    the file and line, or the file alone for a header walk count that differs.
    """
    data = Path(path).read_bytes()
    head = data[:data.find(b"\n")] if b"\n" in data else data
    fields = parse_header(head.decode("utf-8", "replace"), path, {"users": int, "items": int})
    m, n = fields["users"], fields["items"]
    body = np.frombuffer(data, dtype=np.uint8)[len(head) + 1:]
    unended = body.size > 0 and body[-1] != _NL
    if unended:  # parse the last line as if ended, then name it
        body = np.append(body, np.uint8(_NL))
    sep = body == _SP
    sep |= body == _NL
    # tokens end at separators; byte offsets fit int32 below 2 GiB, halving these arrays
    ends = np.flatnonzero(sep).astype(np.int32 if body.size < 2**31 else np.int64)
    del sep
    starts = np.insert(ends[:-1] + 1, 0, 0)[:len(ends)]
    width, lines = ends - starts, np.flatnonzero(body[ends] == _NL)  # a line's last token
    kind = body[starts]

    def fail(t, problem):
        raise ValueError(f"{path}: line {np.searchsorted(lines, t) + 2}: {problem}")

    bad = ((kind != _U) & (kind != _I)) | (width < 2) | (width > 19)
    bad |= (body[np.minimum(starts + 1, ends)] == ord("0")) & (width > 2)  # a leading zero
    del ends
    idx = np.zeros(len(starts), dtype=np.int64)
    for j in range(1, min(int(width.max(initial=0)), 19)):  # Horner's rule over digit positions
        d = body.take(starts + j, mode="clip") - np.uint8(ord("0"))  # a non-digit wraps to >= 10
        live = width > j
        bad |= live & (d >= 10)
        np.multiply(idx, 10, out=idx, where=live)
        np.add(idx, d, out=idx, where=live)
    for t in np.flatnonzero(bad)[:1]:  # the first, if any, as for every check here
        tok = body[starts[t]:starts[t] + min(width[t], 24)].tobytes()
        fail(t, f"bad token {tok.decode('utf-8', 'replace')!r}")
    is_user = kind == _U
    for t in np.flatnonzero(np.where(is_user, idx >= m, idx >= n))[:1]:
        fail(t, f"{'user' if is_user[t] else 'item'} {idx[t]} out of range")
    per_line = np.diff(lines, prepend=-1)
    gamma = int(per_line[0]) if len(lines) else 0
    for k in np.flatnonzero(per_line != gamma)[:1]:
        fail(lines[k], f"walk has {per_line[k]} vertices, expected {gamma} as on line 2")
    if unended:
        fail(len(idx) - 1, "missing final newline")
    if (said := fields.get("walks", str(len(lines)))) != str(len(lines)):
        raise ValueError(f"{path}: header says walks={said}, file has {len(lines)} walks")
    np.add(idx, m, out=idx, where=~is_user)
    del data, body, starts, width, kind, bad, is_user  # before the corpus is checked
    corpus = WalkCorpus(idx.reshape(len(lines), gamma), m, n)
    try:
        corpus.validate()
    except WalkRowError as exc:
        raise ValueError(f"{path}: line {exc.row + 2}: {exc.problem}") from None
    return corpus
