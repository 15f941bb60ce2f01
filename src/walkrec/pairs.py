"""Windowed user-item pair extraction from walk corpora, with count statistics.

Every user position j in a walk is paired with the item vertices at
offsets j-sigma, j-sigma+2, ..., j+sigma that fall inside the walk.  With
an odd window the stride-2 offsets land exactly on item positions (kinds
alternate), so each sampled pair is user-item by construction.

The pairs are counted per odd distance d rather than per offset: of the
two vertices at positions p and p+d exactly one is a user, the smaller
code, so (min, max - n_users) is the pair whichever end is the centre.
Each pair is packed into one integer, u * n_items + i, so sorting the
codes of a chunk of walks orders them as the rows of a CSR matrix; the
chunk's runs of equal codes are its distinct pairs and their counts,
which make one CSR matrix.  Chunks hold about the same number of codes
whatever the window, and one chunk per CPU is counted at a time, in the
threads of walkrec.parallel, which share one malloc arena, so what one
chunk frees the next reuses.  The chunks' matrices are added in chunk
order to a small recent sum, folded into the running sum once it outgrows
both a chunk's codes and an eighth of the running sum: a chunk then
copies the small sum, not the whole count table.  Memory is bounded by
the running sum, the recent sum and one chunk's codes per CPU, or by a
second running sum while a fold runs.  Counts are integers, so the sums
do not depend on how the chunks are cut or grouped.

A corpus left undrawn is counted as it is drawn, window by window: each
walk block folds its windows' pieces into a recent sum of its own, and
the blocks fold those into one running sum, so no walk rows are kept.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .knobs import conform
from .parallel import map_blocks, spans, threads
from .tables import read_matrix, write_matrix
from .walks import WalkCorpus

__all__ = ["PairCorpusStats", "sample_pairs", "merge", "save_stats", "load_stats"]

# pair codes counted per sort, about 8,200 walks at sigma = 3 and 800 at 79: bounds
# the codes each CPU holds at once (fixed, not a setting)
_CHUNK_CODES = 1_280_000
_FOLD = 8  # the recent sum is folded in once it has a 1/_FOLD share of the running sum


@dataclass
class PairCorpusStats:
    """Multiset statistics of sampled (u, i) pairs.

    pair_count[u, i] is the multiplicity of (u, i), and the only stored
    form: user_count[u] and item_count[i], the occurrence counts of u and
    i across all pairs, and total, the multiset size, are its row sums,
    column sums and sum, computed on each access so they cannot go stale.
    """

    pair_count: "scipy.sparse.csr_matrix"  # int64, n_users x n_items

    @property
    def user_count(self):
        return np.asarray(self.pair_count.sum(axis=1)).ravel()

    @property
    def item_count(self):
        return np.asarray(self.pair_count.sum(axis=0)).ravel()

    @property
    def total(self):
        return self.pair_count.sum().item()

    @classmethod
    def empty(cls, n_users, n_items):
        import scipy.sparse as sp

        return cls(sp.csr_matrix((n_users, n_items), dtype=np.int64))

    def validate(self):
        """Raise ValueError on a negative count."""
        if self.pair_count.nnz and self.pair_count.data.min() < 0:
            raise ValueError("negative pair count")


def sample_pairs(corpus: WalkCorpus, sigma: int) -> PairCorpusStats:
    """Extract the windowed (u, i) pair multiset and aggregate its counts.

    Each odd distance d <= sigma is one pass over the positions p and p+d
    of every walk: as kinds alternate, exactly one end is the user, so
    u = min and i = max - n_users, and the offsets +d and -d around a user
    centre are both counted by it.  Pairs are packed as u * n_items + i
    (int32 when every code fits, else int64) and counted in pieces of at
    most about _CHUNK_CODES codes (at least one walk): each piece's codes
    are sorted in place and run-length counted, and the runs, which are
    the rows of a CSR matrix in order, are added in order to a recent sum.
    That is folded into a running count matrix once it holds at least
    _CHUNK_CODES pairs and a 1/_FOLD share of the running matrix's.

    A drawn corpus is cut into the fewest near-equal chunks of walks, one
    chunk per CPU at a time, with a CPU per two chunks.  An undrawn one
    (made inside walks.draw_walks(False)) is drawn and counted in its
    walker's blocks, one per CPU at a time, each in its time-major windows,
    checked as validate checks a corpus: a window's pieces are cut from its
    walks, and it counts the pairs whose later position it draws, its first
    rows repeating the previous window's last sigma.  Each block keeps its
    own recent sum and folds it into the one running matrix.  No walk rows
    are kept, and the counts are the same arrays as the drawn corpus's.

    Args:
        corpus: walk corpus; a drawn one is checked by corpus.validate() first.
        sigma: window size; must be an odd integer >= 1 (even offsets would
            pair users with users).
    """
    import scipy.sparse as sp

    sigma = conform("sigma", sigma, int, min=1, odd=True)
    m, n, walker = corpus.n_users, corpus.n_items, corpus.walker
    dtype = np.int32 if m * n < 2**31 else np.int64
    gamma = corpus.walks.shape[1] if walker is None else walker.cfg.gamma
    distances = range(1, min(sigma, gamma - 1) + 1, 2)

    def count(walks, new=0):
        # a piece's codes live only inside _count_chunk, in the thread that counts it
        keys, counts = _count_chunk(walks, distances, m, n, dtype, new)
        indptr = np.searchsorted(keys, np.arange(m + 1, dtype=np.int64) * n)
        return sp.csr_matrix((counts, np.remainder(keys, n, out=keys), indptr), shape=(m, n))

    def count_block(bounds):
        recent = total.empty()
        for window, _, new in walker.windows(*bounds, max(distances, default=0), checked=True):
            walks = window.T  # (walks, positions) view of the time-major window
            per_walk = _codes_per_walk(len(window), distances, new)
            for lo, hi in spans(len(walks), min(len(walks), -(-len(walks) * per_walk
                                                               // _CHUNK_CODES))):
                recent = total.add(recent, count(walks[lo:hi], new))
        total.fold(recent)

    total = _Counts(m, n)
    if walker is not None:
        for lo in range(0, len(walker.blocks), walker.lanes):  # a block per CPU at a time
            map_blocks(count_block, walker.blocks[lo:lo + walker.lanes])
        return PairCorpusStats(total.pair)
    corpus.validate()
    walks = corpus.walks
    parts = min(len(walks), -(-len(walks) * _codes_per_walk(gamma, distances) // _CHUNK_CODES))
    chunks = [walks[lo:hi] for lo, hi in spans(len(walks), parts)]  # near-equal
    # a CPU per two chunks: counting the two chunks of a small corpus at once held
    # both chunks' temporaries for a few milliseconds saved
    cpus = max(1, min(threads(), len(chunks) // 2))
    recent = total.empty()
    for lo in range(0, len(chunks), cpus):
        for part in map_blocks(count, chunks[lo:lo + cpus]):  # in chunk order
            recent = total.add(recent, part)
    total.fold(recent)
    return PairCorpusStats(total.pair)


class _Counts:
    """The running count matrix, into which each thread folds its recent sum of
    count matrices once that outgrows both _CHUNK_CODES pairs and a 1/_FOLD share
    of it, so an add copies the small recent sum, not the whole count table.
    Counts are integers, so the folds' order does not change the sum."""

    def __init__(self, m, n):
        import scipy.sparse as sp

        self.empty = lambda: sp.csr_matrix((m, n), dtype=np.int64)
        self.pair, self._lock = self.empty(), threading.Lock()

    def add(self, recent, part):
        "recent + part, or an empty recent sum once that is folded in."
        recent = recent + part
        if recent.nnz < max(_CHUNK_CODES, self.pair.nnz // _FOLD):
            return recent
        self.fold(recent)
        return self.empty()

    def fold(self, recent):
        if recent.nnz:
            with self._lock:
                self.pair = self.pair + recent


def _codes_per_walk(positions, distances, new=0):
    "Pairs a walk of these positions has with a later end at or past position new."
    return sum(max(positions - max(new, d), 0) for d in distances)


def _pair_codes(walks, distances, m, n, codes, new=0):
    """Fill codes with u * n + i for the vertices at positions p and p + d of every
    walk, each d in turn, where p + d >= new.

    As min + max = a + b and max = m + i, the code is min(a, b) * (n - 1) - m + a + b,
    built in place with no second array.  No partial sum exceeds the final code and
    none is below -m, so codes.dtype holds them all.  Each distance's codes are laid
    out in walks' own order, row- or column-major, so the operations run along memory.
    """
    walks = walks.astype(codes.dtype, copy=False)  # codes below m + n <= m * n + 1 fit it too
    order = "F" if walks.strides[0] < walks.strides[1] else "C"
    lo = 0
    for d in distances:
        a, b = walks[:, max(new, d) - d:walks.shape[1] - d], walks[:, max(new, d):]
        code = codes[lo:lo + a.size].reshape(a.shape, order=order)
        lo += a.size
        np.minimum(a, b, out=code)
        code *= n - 1
        code -= m
        code += a
        code += b


def _runs(codes):
    "The distinct values of sorted codes and their multiplicities."
    first = np.empty(len(codes), dtype=bool)  # where a run of equal codes starts
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    keys, counts = codes[first], np.flatnonzero(first)  # the runs' starts, for now
    # each run's length overwrites its start: a second array of the chunk's
    # distinct pairs would set the peak on wide windows
    np.subtract(counts[1:], counts[:-1], out=counts[:-1])
    counts[-1:] = len(codes) - counts[-1:]
    return keys, counts


def _count_chunk(walks, distances, m, n, dtype, new=0):
    """The distinct pair codes of a chunk of walks whose later end is at or past
    position new, sorted, and their multiplicities."""
    codes = np.empty(len(walks) * _codes_per_walk(walks.shape[1], distances, new), dtype=dtype)
    _pair_codes(walks, distances, m, n, codes, new)
    codes.sort()
    return _runs(codes)


def merge(a: PairCorpusStats, b: PairCorpusStats) -> PairCorpusStats:
    """Elementwise sum of two count statistics over the same dimensions."""
    if a.pair_count.shape != b.pair_count.shape:
        raise ValueError(f"dimension mismatch: {a.pair_count.shape} vs {b.pair_count.shape}")
    return PairCorpusStats(a.pair_count + b.pair_count)


def save_stats(stats: PairCorpusStats, path):
    """Write the pair counts as a sparse-matrix archive (exact)."""
    write_matrix(path, stats.pair_count)


def load_stats(path) -> PairCorpusStats:
    "Read pair counts written by save_stats, bit exact; read_matrix's checks name path."
    pair, = read_matrix(path, np.int64, "pair-count")
    return PairCorpusStats(pair)
