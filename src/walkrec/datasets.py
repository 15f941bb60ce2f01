"""Interaction data handling: ingest, binarize, filter, split, sparsify, persist."""

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .knobs import KnobError, Knobs, knob
from .tables import check_rows, read_table, write_table

__all__ = [
    "RawInteraction",
    "IngestFormat",
    "IdMap",
    "Dataset",
    "ingest",
    "binarize",
    "filter_min_interactions",
    "split",
    "sparsify",
    "save_interactions",
    "load_interactions",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class RawInteraction:
    """One row of an interaction log before binarization."""

    user_key: str
    item_key: str
    value: float = 1.0
    timestamp: int | None = None


@dataclass(frozen=True)
class IngestFormat(Knobs):
    """Column layout of a delimiter-separated interaction file."""

    delimiter: str = ","
    user_col: int = knob(0, min=0)
    item_col: int = knob(1, min=0)
    value_col: int | None = knob(None, min=0)
    timestamp_col: int | None = knob(None, min=0)
    header: bool = False

    def __post_init__(self):
        super().__post_init__()
        if len(self.delimiter) != 1:
            raise KnobError("delimiter", "must be a single character")


@dataclass(frozen=True)
class IdMap:
    """Bijection between external string keys and dense indices [0, n)."""

    forward: dict[str, int]
    backward: list[str]

    @classmethod
    def from_keys(cls, keys):
        """Build a map assigning indices in the order `keys` are given."""
        backward = list(keys)
        forward = {k: i for i, k in enumerate(backward)}
        if len(forward) != len(backward):
            raise ValueError("duplicate keys in IdMap")
        return cls(forward, backward)

    def __len__(self):
        return len(self.backward)


@dataclass
class Dataset:
    """Indexed binary interactions partitioned into train/valid/test."""

    user_map: IdMap
    item_map: IdMap
    train: set = field(default_factory=set)
    valid: set = field(default_factory=set)
    test: set = field(default_factory=set)

    @property
    def n_users(self):
        return len(self.user_map)

    @property
    def n_items(self):
        return len(self.item_map)

    def validate(self):
        """Check disjointness and index ranges; raises ValueError on violation."""
        if self.train & self.valid or self.train & self.test or self.valid & self.test:
            raise ValueError("train/valid/test splits are not pairwise disjoint")
        m, n = self.n_users, self.n_items
        for name, part in (("train", self.train), ("valid", self.valid), ("test", self.test)):
            for u, i in part:
                if not (0 <= u < m and 0 <= i < n):
                    raise ValueError(f"{name} contains out-of-range pair ({u}, {i})")


def ingest(source, fmt: IngestFormat = IngestFormat()):
    """Parse delimiter-separated interaction rows into RawInteraction records.

    Args:
        source: iterable of text lines (an open file works).
        fmt: column layout; rows must contain at least the referenced columns.
    Returns:
        List of RawInteraction in input order.
    Raises:
        ValueError: malformed row, with the 1-based physical line number.
    """
    needed = [fmt.user_col, fmt.item_col]
    if fmt.value_col is not None:
        needed.append(fmt.value_col)
    if fmt.timestamp_col is not None:
        needed.append(fmt.timestamp_col)
    min_cols = max(needed) + 1

    out = []
    reader = csv.reader(source, delimiter=fmt.delimiter)
    for lineno, row in enumerate(reader, start=1):
        if fmt.header and lineno == 1:
            continue
        if not row:
            continue
        if len(row) < min_cols:
            raise ValueError(
                f"line {lineno}: expected at least {min_cols} columns, got {len(row)}"
            )
        user_key = row[fmt.user_col].strip()
        item_key = row[fmt.item_col].strip()
        if not user_key:
            raise ValueError(f"line {lineno}: empty user key")
        if not item_key:
            raise ValueError(f"line {lineno}: empty item key")
        value = 1.0
        if fmt.value_col is not None:
            try:
                value = float(row[fmt.value_col])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad value {row[fmt.value_col]!r}"
                ) from None
        timestamp = None
        if fmt.timestamp_col is not None:
            cell = row[fmt.timestamp_col].strip()
            if cell:
                try:
                    timestamp = int(cell)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad timestamp {cell!r}") from None
        out.append(RawInteraction(user_key, item_key, value, timestamp))
    return out


def binarize(raws):
    """Collapse interactions to the set of distinct (user_key, item_key) pairs."""
    return {(r.user_key, r.item_key) for r in raws}


def filter_min_interactions(pairs, min_count):
    """Drop users and items with degree < min_count until a fixed point.

    The result is the maximal subset in which every surviving user and item
    has degree >= min_count; may be empty.
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    if min_count == 0:
        return set(pairs)
    current = set(pairs)
    while True:
        u_deg = {}
        i_deg = {}
        for u, i in current:
            u_deg[u] = u_deg.get(u, 0) + 1
            i_deg[i] = i_deg.get(i, 0) + 1
        kept = {
            (u, i)
            for u, i in current
            if u_deg[u] >= min_count and i_deg[i] >= min_count
        }
        if len(kept) == len(current):
            return kept
        current = kept


def split(pairs, ratios=(0.8, 0.1, 0.1), seed=0):
    """Randomly partition key pairs into an indexed train/valid/test Dataset.

    ID maps are built from the full pair set (sorted keys), so users and
    items missing from a split still have indices.  Sizes are
    floor(n * ratio) for valid and test, with the remainder going to train.

    Args:
        pairs: set of (user_key, item_key).
        ratios: (train, valid, test) positive fractions summing to 1.
        seed: shuffle seed; the split is a pure function of (pairs, seed).
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    n = len(pairs)
    if n < 3:
        raise ValueError(f"need at least 3 interactions to split, got {n}")

    user_map = IdMap.from_keys(sorted({u for u, _ in pairs}))
    item_map = IdMap.from_keys(sorted({i for _, i in pairs}))
    indexed = sorted((user_map.forward[u], item_map.forward[i]) for u, i in pairs)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_valid = int(math.floor(n * ratios[1]))
    n_test = int(math.floor(n * ratios[2]))
    n_train = n - n_valid - n_test

    train = {indexed[j] for j in perm[:n_train]}
    valid = {indexed[j] for j in perm[n_train : n_train + n_valid]}
    test = {indexed[j] for j in perm[n_train + n_valid :]}
    ds = Dataset(user_map, item_map, train, valid, test)
    ds.validate()
    return ds


def sparsify(train, keep_fraction, seed=0):
    """Keep a per-user uniform sample of ceil(degree * keep_fraction) interactions.

    The ceiling guarantees every user that had an interaction keeps at
    least one.  Sampling is per user from a stream keyed by (seed, u), so
    the result does not depend on iteration order.
    """
    keep_fraction = float(keep_fraction)
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    if keep_fraction == 1.0:
        return set(train)

    by_user = {}
    for u, i in train:
        by_user.setdefault(u, []).append(i)

    kept = set()
    for u in sorted(by_user):
        items = sorted(by_user[u])
        d = len(items)
        # small epsilon so a float product that lands a hair above an exact
        # integer does not inflate the ceiling
        n_keep = max(1, math.ceil(d * keep_fraction - 1e-12))
        rng = np.random.default_rng((seed, u))
        pick = rng.choice(d, size=min(n_keep, d), replace=False)
        for j in pick:
            kept.add((u, items[j]))
    return kept


def _columns(pairs):
    "Sorted pairs as two lists (zip(*rows) would hold one iterator per row and set off GC)."
    rows = sorted(pairs)
    return [u for u, _ in rows], [i for _, i in rows]


def save_interactions(pairs, path):
    """Write binarized key pairs as sorted 'user<TAB>item' lines."""
    write_table(path, ("%s", "%s"), _columns(pairs))


def load_interactions(path):
    """Read key pairs written by save_interactions."""
    _, (users, items) = read_table(path, (object, object))
    check_rows(path, (users == "") | (items == ""), "empty key")
    return set(zip(users.tolist(), items.tolist()))


def save_dataset(ds: Dataset, directory):
    """Persist a Dataset as three split files plus two ID-map files.

    The layout is bit-exact: load_dataset followed by save_dataset
    reproduces the files byte for byte.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in ("train", "valid", "test"):
        write_table(directory / f"{name}.tsv", ("%d", "%d"), _columns(getattr(ds, name)))
    for name, id_map in (("users", ds.user_map), ("items", ds.item_map)):
        write_table(directory / f"{name}.tsv", ("%d", "%s"),
                    (range(len(id_map)), id_map.backward))


def load_dataset(directory):
    """Read a Dataset persisted by save_dataset."""
    directory = Path(directory)
    maps = []
    for name in ("users", "items"):
        path = directory / f"{name}.tsv"
        _, (index, keys) = read_table(path, (np.int64, object))
        check_rows(path, index != np.arange(len(index)), "non-contiguous index {}", index)
        _, first = np.unique(keys, return_index=True)
        check_rows(path, ~np.isin(index, first), "key {!r} repeats an earlier line", keys)
        maps.append(IdMap.from_keys(keys.tolist()))
    ds = Dataset(*maps)
    for name in ("train", "valid", "test"):
        path = directory / f"{name}.tsv"
        _, (u, i) = read_table(path, (np.int64, np.int64))
        check_rows(path, (u < 0) | (u >= ds.n_users), "user {} out of range", u)
        check_rows(path, (i < 0) | (i >= ds.n_items), "item {} out of range", i)
        setattr(ds, name, set(zip(u.tolist(), i.tolist())))
    ds.validate()
    return ds
