"""Truncated uniform random walks over the bipartite graph, and their text form.

generate_walks keeps both CPUs busy: the corpus is cut into one block per
lane (_LANE_WALKS walks begun each, at most one per CPU, no block over
_WALK_BLOCK walks), and each block advances all its walks' PCG64 streams
together in buffers made once, so its steps make no new arrays, drawing
them into time-major windows of _WINDOW positions.  Every walk draws from
its own stream, so the corpus is the same bytes however it is blocked and
on however many CPUs.  A corpus left undrawn (draw_walks(False)) keeps
no rows until they are read: sample_pairs counts its windows as they are
drawn.
"""

import contextlib
import contextvars
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import BipartiteGraph
from .knobs import Knobs, knob
from .parallel import map_blocks, threads
from .pcg64 import Pcg64Streams
from .tables import format_header, parse_header

__all__ = ["WalkConfig", "WalkCorpus", "draw_walks", "generate_walks", "save_walks",
           "load_walks"]

_TEXT_ROWS = 1024  # walks rendered or parsed per block; 8,192 faulted in fresh pages every block
_LANE_WALKS = 16384  # walks begun per CPU used: far fewer lose to the GIL
_WALK_BLOCK = 65536  # most walks in a block: uncapped blocks were slower at 10x
_WINDOW = 8  # positions drawn per time-major window, copied into the rows at once
_SP, _NL, _U, _I = b" \nui"
_DRAW = contextvars.ContextVar("walkrec_draw_walks", default=True)  # set by draw_walks


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


class WalkCorpus:
    """Vertex sequences encoded globally: code < n_users is a user, else an item.

    ``walks`` is a (W, gamma) int32 array, one walk per row, kept as given if int32,
    else cast once every value fits (WalkRowError names a row that does not).  A list
    of equal-length walks is stacked into one, an empty list into (0, 0).

    A corpus that generate_walks makes inside ``draw_walks(False)`` is undrawn: its
    rows are drawn the first time ``walks`` is read, and until then ``walker`` is
    the _Walker that draws them, so a reader such as sample_pairs can take them
    window by window and keep none.  ``walker`` is None once the rows exist.
    """

    def __init__(self, walks, n_users, n_items):
        self.n_users, self.n_items, self.walker = n_users, n_items, None
        if (v := n_users + n_items) > 2**31 - 1:
            raise ValueError(f"{n_users} users + {n_items} items exceed int32 codes")
        if isinstance(walks, list):
            lengths = [len(w) for w in walks] or [0]
            for r in np.flatnonzero(np.array(lengths) != lengths[0])[:1]:  # the first, if any
                raise ValueError(f"walk {r} has {lengths[r]} vertices, walk 0 has {lengths[0]}")
            walks = np.array(walks, dtype=np.int64).reshape(len(walks), lengths[0])
        w = self._walks = np.asarray(walks)
        if w.dtype != np.int32:
            self._walks = w.astype(np.int32)  # wraps a value beyond int32, caught here
            for f in np.flatnonzero(self._walks != w)[:1]:
                raise WalkRowError(f // w.shape[1], f"code {w.flat[f]} outside [0, {v})")

    @property
    def walks(self):
        if self.walker is not None:
            self._walks, self.walker = self.walker.draw(), None
        return self._walks

    def validate(self, g: BipartiteGraph | None = None):
        """Check codes in [0, n_users + n_items), user/item alternation along every walk
        and, when g is given, that every step is an edge of g.  Raises WalkRowError, a
        ValueError naming the first offending walk row.

        Each check runs over the walks in row blocks of _TEXT_ROWS, so no temporary
        grows with the corpus, and all of one check runs before the next: the error
        raised is the first fault of the first check that fails."""
        _check(self.walks, self.n_users, self.n_items, g)


def _check(w, m, n, g=None, row=0, position=0, rows=None):
    """WalkCorpus.validate over the (walks, positions) array w, whose row 0 is walk
    row and whose column 0 is position position, in blocks of rows (else _TEXT_ROWS)
    walks."""
    v, rows = m + n, rows or _TEXT_ROWS
    # a negative code viewed as uint32 is >= 2**31
    for r, p in _first_fault(w, lambda b: b.view(np.uint32) >= v, rows):
        raise WalkRowError(row + r, f"code {w[r, p]} outside [0, {v})")
    if w.size == 0 < len(w):
        raise WalkRowError(row, "walk has no vertices")

    def same_kind(b):
        kind = b < m
        return kind[:, 1:] == kind[:, :-1]

    for r, p in _first_fault(w, same_kind, rows):
        p += position
        raise WalkRowError(row + r, f"breaks user/item alternation: positions {p} and {p + 1} "
                                    "do not alternate")
    if g is not None:
        base = max(v, len(g.indptr) - 1)
        edges = np.repeat(np.arange(len(g.indptr) - 1), np.diff(g.indptr)) * base + g.indices
        # sorted, then a sentinel above every step (a, b < base), so a lookup stays in range
        edges = np.append(np.sort(edges), base * base)

        def not_edge(b):
            steps = b[:, :-1].astype(np.int64) * base + b[:, 1:]  # int32 would overflow
            return edges[np.searchsorted(edges, steps)] != steps

        for r, p in _first_fault(w, not_edge, rows):
            raise WalkRowError(row + r, f"walk step ({w[r, p]}, {w[r, p + 1]}) is not an edge")


def _first_fault(walks, fault, rows):
    """[(row, column)] of the first True of fault(block) over walks' row blocks of
    rows walks, in order; [] when there is none."""
    for lo in range(0, len(walks), rows):
        hit = fault(walks[lo:lo + rows])
        if hit.any():
            r, p = divmod(int(hit.argmax()), hit.shape[1])  # the first True
            return [(lo + r, p)]
    return []


class _Walker:
    """The walks generate_walks(g, cfg) draws, drawn whole or window by window.

    Rows are in (start code, walk index) order, cut into ``blocks``, (lo, hi)
    row bounds run in parallel: a lane for each _LANE_WALKS walks begun, at
    most one per CPU, and no block longer than _WALK_BLOCK walks.
    """

    def __init__(self, g: BipartiteGraph, cfg: WalkConfig):
        self.g, self.cfg = g, cfg
        self.starts = np.flatnonzero(np.diff(g.indptr))
        self.count = len(self.starts) * cfg.beta
        self.lanes = min(threads(), -(-self.count // _LANE_WALKS) or 1)
        size = min(_WALK_BLOCK, -(-self.count // self.lanes)) or 1
        self.blocks = [(lo, min(lo + size, self.count)) for lo in range(0, self.count, size)]

    def windows(self, lo, hi, keep, checked=False):
        """Draw walks lo..hi, yielding time-major windows (window, first, new):
        window[t] holds position first + t of every walk, the first new rows
        repeat the previous window's last new rows (at most keep, none in the
        first window) and the other rows, at most _WINDOW, are drawn.  The
        window is one buffer, rewritten once the next is asked for.  When
        checked, each window's rows are checked as WalkCorpus.validate checks
        a corpus, naming the corpus row and position of a fault.

        The walks advance together, one array step per position, from their
        streams (Pcg64Streams): each walk's own, the one
        ``np.random.default_rng((seed, start code, walk index))`` draws.
        Draws, degrees, offsets and current vertices live in buffers made
        once, updated in place, so a step makes no new arrays.
        """
        g, cfg, deg = self.g, self.cfg, np.diff(self.g.indptr)
        j = np.arange(lo, hi)
        cur = self.starts[j // cfg.beta]
        streams = Pcg64Streams(cfg.seed, cur, j % cfg.beta)
        del j
        r, d, at = np.empty(len(cur)), np.empty_like(cur), np.empty_like(cur)
        buf = np.empty((keep + _WINDOW, len(cur)), dtype=np.int32)
        buf[0] = cur
        first, filled, new = 0, 1, 0  # buf[:filled] holds positions first, first + 1, ...
        for t in range(1, cfg.gamma + 1):
            if filled == len(buf) or t == cfg.gamma:
                window = buf[:filled]
                if checked:
                    skip = max(new - 1, 0)  # one repeated row, for the alternation across
                    _check(window[skip:].T, g.n_users, g.n_items, row=lo,
                           position=first + skip, rows=hi - lo)
                yield window, first, new
                if t == cfg.gamma:
                    return
                new = keep
                buf[:keep] = buf[filled - keep:filled]
                first, filled = first + filled - keep, keep
            streams.random(out=r)
            # float product then truncation, exactly as int(r * len(row)) per walk;
            # every index is in range, and take's default mode="raise" would buffer out
            r *= np.take(deg, cur, out=d, mode="clip")
            np.copyto(d, r, casting="unsafe")
            np.take(g.indptr, cur, out=at, mode="clip")
            at += d
            buf[filled] = np.take(g.indices, at, out=cur, mode="clip")
            filled += 1

    def draw(self):
        "Every walk, as the (count, gamma) int32 corpus; blocks run in parallel."
        walks = np.empty((self.count, self.cfg.gamma), dtype=np.int32)

        def draw_block(bounds):
            lo, hi = bounds
            # a window's columns go to each row at once, not one strided column a step
            for window, first, _ in self.windows(lo, hi, 0):
                walks[lo:hi, first:first + len(window)] = window.T

        map_blocks(draw_block, self.blocks)
        return walks


@contextlib.contextmanager
def draw_walks(draw):
    """generate_walks calls inside the block draw their corpora's rows if draw is
    true, as outside every such block, else leave them undrawn."""
    token = _DRAW.set(bool(draw))
    try:
        yield
    finally:
        _DRAW.reset(token)


def generate_walks(g: BipartiteGraph, cfg: WalkConfig) -> WalkCorpus:
    """Launch cfg.beta walks of cfg.gamma vertices from every non-isolated vertex.

    Each successor is drawn uniformly from the current vertex's neighbors.
    Every walk consumes its own random stream, the one
    ``np.random.default_rng((seed, start code, walk index))`` draws, so its
    vertices do not depend on the other walks, nor on how they are blocked.
    Rows are in (start code, walk index) order.  Start codes and walk indices
    must be below 2**32.

    The rows are drawn in blocks run in parallel (_Walker), each block in
    time-major windows of _WINDOW positions that are copied into its rows of
    the int32 corpus.  Inside ``draw_walks(False)`` the corpus is returned
    undrawn: its rows are drawn on the first read of ``walks``, and
    sample_pairs counts an undrawn corpus window by window, keeping no rows.
    """
    corpus = WalkCorpus(np.empty((0, 0), dtype=np.int32), g.n_users, g.n_items)  # checks m + n
    corpus.walker = _Walker(g, cfg)
    if _DRAW.get():
        _ = corpus.walks  # drawn on this first read
    return corpus


def save_walks(corpus: WalkCorpus, path):
    """One walk per line of space-separated 'u<idx>' / 'i<idx>' tokens, under a header
    of the user, item and walk counts.  An invalid corpus raises before the file is made.
    """
    corpus.validate()
    m, n = corpus.n_users, corpus.n_items
    with Path(path).open("wb") as f:
        f.write(format_header({"users": m, "items": n, "walks": len(corpus.walks)}).encode())
        for lo in range(0, len(corpus.walks), _TEXT_ROWS):
            f.write(_render(corpus.walks[lo:lo + _TEXT_ROWS], m))


def _render(walks, m):
    """The lines of a block of walks as bytes, with no table of token names.

    Letters, digits and separators go straight to their offsets, laid end to end
    from the digit counts; digits come by division by ten (the inverse of load_walks'
    Horner pass), leading column first, so a short token's spare zeros land on its
    letter or earlier tokens, rewritten later, or on ``width`` spare bytes ahead.
    """
    code = walks.ravel()
    item = code >= m
    idx = code - item * np.int32(m)
    width = len(str(idx.max(initial=0)))
    sep = np.full(len(idx) + 1, 3, dtype=np.int64)  # letter, first digit, separator
    sep[0] = width - 1  # a separator ahead of the first token, in the spare bytes
    for k in range(1, width):
        sep[1:] += idx >= 10**k
    np.cumsum(sep, out=sep)
    out = np.empty(sep[-1] + 1, dtype=np.uint8)
    pos = sep[1:] - width
    for k in range(width - 1, -1, -1):
        digit = idx // 10**k
        idx -= digit * 10**k
        out[pos] = digit.astype(np.uint8) + np.uint8(ord("0"))
        pos += 1
    out[sep[:-1] + 1] = np.uint8(_U) - item.view(np.uint8) * np.uint8(_U - _I)
    out[sep] = _SP
    out[sep[walks.shape[1]::walks.shape[1]]] = _NL
    return out[width:].tobytes()


def load_walks(path) -> WalkCorpus:
    """Read a corpus written by save_walks, accepting exactly the body it writes:
    lines of 'u<idx>'/'i<idx>' tokens (idx in canonical ASCII decimal: no sign, no
    leading zero, at most 18 digits) joined by single spaces, each ended by '\\n',
    all of one length.  The walk count is the line count and the walk length is
    line 2's token count.  The int32 corpus is made once, and the body is parsed
    straight into its rows in blocks of about _TEXT_ROWS lines, so no other array
    grows with the file.  An error raises ValueError naming the file and line, or
    the file alone for a header walk count that differs or more users and items
    than int32 codes hold.
    """
    data = Path(path).read_bytes()
    head = data[:data.find(b"\n")] if b"\n" in data else data
    fields = parse_header(head.decode("utf-8", "replace"), path, {"users": int, "items": int})
    m, n = fields["users"], fields["items"]
    lo = len(head) + 1
    unended = len(data) > lo and data[-1] != _NL  # its last line is parsed as if ended
    rows = data.count(b"\n", lo) + unended
    eol = data.find(b"\n", lo)
    eol = eol if eol >= 0 else len(data)  # the end of line 2
    gamma = data.count(b" ", lo, eol) + 1 if rows else 0
    # A line of gamma tokens takes at least 3 * gamma bytes.  A file too short for
    # its rows has a shorter line, which raises before the rows past it are written.
    fit = min(rows, (len(data) - lo + 1) // (3 * gamma)) if rows else 0
    try:
        corpus = WalkCorpus(np.empty((fit, gamma), dtype=np.int32), m, n)  # checks m + n
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    body, row = np.frombuffer(data, dtype=np.uint8), 0
    step = _TEXT_ROWS * (eol - lo + 1)  # the bytes of _TEXT_ROWS lines as long as line 2
    while lo < len(data):
        hi = data.rfind(b"\n", lo, lo + step) + 1  # the lines that end within step bytes
        if not hi:  # else the one line that starts at lo
            hi = data.find(b"\n", lo + step) + 1 or len(data)
        block = body[lo:hi] if data[hi - 1] == _NL else np.append(body[lo:hi], np.uint8(_NL))
        row += _parse_block(block, corpus.walks[row:], m, n, path, row + 2)
        lo = hi
    if unended:
        raise ValueError(f"{path}: line {rows + 1}: missing final newline")
    if (said := fields.get("walks", str(rows))) != str(rows):
        raise ValueError(f"{path}: header says walks={said}, file has {rows} walks")
    return corpus


def _parse_block(body, walks, m, n, path, line):
    """Parse body, whole lines of walk text from the given line number on, into the
    leading rows of walks, and return how many lines it held.  An error raises
    ValueError naming path and the line."""
    sep = body == _SP
    sep |= body == _NL
    # tokens end at separators; byte offsets fit int32 below 2 GiB, halving these arrays
    ends = np.flatnonzero(sep).astype(np.int32 if body.size < 2**31 else np.int64)
    del sep
    starts = np.insert(ends[:-1] + 1, 0, 0)[:len(ends)]
    width, lines = ends - starts, np.flatnonzero(body[ends] == _NL)  # a line's last token
    kind = body[starts]

    def fail(t, problem):
        raise ValueError(f"{path}: line {np.searchsorted(lines, t) + line}: {problem}")

    bad = ((kind != _U) & (kind != _I)) | (width < 2) | (width > 19)
    bad |= (body[np.minimum(starts + 1, ends)] == ord("0")) & (width > 2)  # a leading zero
    idx = np.zeros(len(starts), dtype=np.int32 if width.max(initial=0) <= 10 else np.int64)
    for j in range(1, min(int(width.max(initial=0)), 19)):  # Horner's rule; 9 digits fit int32
        d = body.take(starts + j, mode="clip") - np.uint8(ord("0"))  # a non-digit wraps to >= 10
        live = width > j
        bad |= live & (d >= 10)
        d *= live  # unmasked arithmetic: a where= mask makes a ufunc about 40x slower
        idx *= live * idx.dtype.type(9) + idx.dtype.type(1)
        idx += d
    for t in np.flatnonzero(bad)[:1]:  # the first, if any, as for every check here
        tok = body[starts[t]:starts[t] + min(width[t], 24)].tobytes()
        fail(t, f"bad token {tok.decode('utf-8', 'replace')!r}")
    is_item = kind == _I
    for t in np.flatnonzero(np.where(is_item, idx >= n, idx >= m))[:1]:
        fail(t, f"{'item' if is_item[t] else 'user'} {idx[t]} out of range")
    per_line = np.diff(lines, prepend=-1)
    for k in np.flatnonzero(per_line != walks.shape[1])[:1]:
        fail(lines[k], f"walk has {per_line[k]} vertices, expected {walks.shape[1]} as on line 2")
    out = walks[:len(lines)]
    out[...] = idx.reshape(out.shape)  # below m or n, so int32 codes once items are shifted
    out += is_item.reshape(out.shape) * np.int32(m)
    try:
        WalkCorpus(out, m, n).validate()  # user/item alternation
    except WalkRowError as exc:
        raise ValueError(f"{path}: line {line + exc.row}: {exc.problem}") from None
    return len(lines)
