"""Interaction data handling: ingest, filter, split, sparsify, persist."""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .knobs import KnobError, Knobs, knob
from .tables import check_rows, check_unique, read_table, write_table

__all__ = [
    "IngestFormat",
    "Dataset",
    "as_pairs",
    "ingest",
    "filter_min_interactions",
    "split",
    "sparsify",
    "save_interactions",
    "load_interactions",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class IngestFormat(Knobs):
    """Column layout of a delimiter-separated interaction file."""

    delimiter: str = ","
    user_col: int = knob(0, min=0)
    item_col: int = knob(1, min=0)
    header: bool = False

    def __post_init__(self):
        super().__post_init__()
        if len(self.delimiter) != 1 or self.delimiter in "\r\n":
            raise KnobError("delimiter", "must be a single character other than a line break")


_SPLITS = ("train", "valid", "test")


def as_pairs(pairs):
    """Any iterable of (u, i) index pairs as a sorted, duplicate-free (n, 2) int64 array.

    The result is always a new array, also when the input already has that form.
    """
    rows = np.array(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
    rows = rows.reshape(-1, 2) if rows.size == 0 else rows
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"expected (u, i) pairs, got an array of shape {rows.shape}")
    du, di = np.diff(rows[:, 0]), np.diff(rows[:, 1])
    if np.all((du > 0) | ((du == 0) & (di > 0))):  # rows strictly increase already
        return rows
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[first]


@dataclass
class Dataset:
    """Indexed binary interactions partitioned into train/valid/test.

    user_keys[u] is the key of user u, item_keys[i] that of item i.  Each
    split is a sorted, duplicate-free (n, 2) int64 array of (u, i) rows;
    any iterable of pairs given to the constructor is converted.
    """

    user_keys: list[str]
    item_keys: list[str]
    train: np.ndarray = ()
    valid: np.ndarray = ()
    test: np.ndarray = ()

    def __post_init__(self):
        for name in ("user_keys", "item_keys"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"Dataset.{name} repeats a key")
        for name in _SPLITS:
            setattr(self, name, as_pairs(getattr(self, name)))

    @property
    def n_users(self):
        return len(self.user_keys)

    @property
    def n_items(self):
        return len(self.item_keys)

    def validate(self):
        """Check disjointness and index ranges; raises ValueError on violation."""
        parts = [getattr(self, name) for name in _SPLITS]
        if len(as_pairs(np.concatenate(parts))) < sum(map(len, parts)):
            raise ValueError("train/valid/test splits are not pairwise disjoint")
        for name, (u, i) in zip(_SPLITS, (part.T for part in parts)):
            bad = (u < 0) | (u >= self.n_users) | (i < 0) | (i >= self.n_items)
            if bad.any():
                j = int(np.argmax(bad))
                raise ValueError(f"{name} contains out-of-range pair ({u[j]}, {i[j]})")


def ingest(source, fmt: IngestFormat = IngestFormat()):
    """Read the distinct (user_key, item_key) pairs of delimiter-separated rows.

    Args:
        source: iterable of text lines (an open file works).
        fmt: column layout.  Only the user and item columns are read, so a
            non-empty row needs max(user_col, item_col) + 1 columns; with
            fmt.header the first non-empty row is skipped.
    Returns:
        Set of (user_key, item_key) string pairs.
    Raises:
        ValueError: malformed row, naming its last physical line (1-based).
    """
    min_cols = max(fmt.user_col, fmt.item_col) + 1
    pairs = set()
    reader = csv.reader(source, delimiter=fmt.delimiter)
    rows = filter(None, reader)  # a blank line is an empty record
    if fmt.header:
        next(rows, None)
    for row in rows:
        line = reader.line_num  # the last physical line of the record
        if len(row) < min_cols:
            raise ValueError(f"line {line}: expected at least {min_cols} columns, got {len(row)}")
        user_key = row[fmt.user_col].strip()
        item_key = row[fmt.item_col].strip()
        if not user_key:
            raise ValueError(f"line {line}: empty user key")
        if not item_key:
            raise ValueError(f"line {line}: empty item key")
        pairs.add((user_key, item_key))
    return pairs


def _key_rows(pairs):
    "Key pairs as an (n, 2) object array, in iteration order."
    return np.array(list(pairs), dtype=object).reshape(-1, 2)


def _index_keys(keys):
    """The sorted distinct keys and each key's index among them, as np.unique's
    return_inverse gives, with only the distinct keys sorted: a dict lookup per key
    is about three times faster than sorting every key of an object array."""
    distinct = sorted(set(keys))
    at = {k: j for j, k in enumerate(distinct)}
    return distinct, np.fromiter(map(at.__getitem__, keys), dtype=np.int64, count=len(keys))


def filter_min_interactions(pairs, min_count):
    """Drop users and items with degree < min_count until a fixed point.

    The result is the maximal subset in which every surviving user and item
    has degree >= min_count; may be empty.
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    if min_count == 0:
        return set(pairs)
    keys = _key_rows(pairs)
    u, i = (_index_keys(col)[1] for col in keys.T)
    alive = np.ones(len(keys), dtype=bool)
    while True:
        kept = (alive & (np.bincount(u, alive)[u] >= min_count)
                & (np.bincount(i, alive)[i] >= min_count))
        if kept.sum() == alive.sum():
            return set(map(tuple, keys[kept].tolist()))
        alive = kept


def split(pairs, ratios=(0.8, 0.1, 0.1), seed=0):
    """Randomly partition key pairs into an indexed train/valid/test Dataset.

    Key lists are built from the full pair set (sorted keys), so users and
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
    (user_keys, u), (item_keys, i) = map(_index_keys, _key_rows(pairs).T)
    indexed = as_pairs(np.stack([u, i], axis=1))  # the permutation is over sorted rows
    n = len(indexed)
    if n < 3:
        raise ValueError(f"need at least 3 interactions to split, got {n}")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_valid = int(math.floor(n * ratios[1]))
    n_test = int(math.floor(n * ratios[2]))
    n_train = n - n_valid - n_test

    ds = Dataset(user_keys, item_keys,
                 indexed[perm[:n_train]], indexed[perm[n_train:n_train + n_valid]],
                 indexed[perm[n_train + n_valid:]])
    ds.validate()
    return ds


def sparsify(train, keep_fraction, seed=0):
    """Keep a per-user uniform sample of ceil(degree * keep_fraction) interactions.

    The ceiling guarantees every user that had an interaction keeps at
    least one.  Sampling is per user from a stream keyed by (seed, u), so
    the result does not depend on iteration order.  Returns the kept rows
    of as_pairs(train).
    """
    train = as_pairs(train)
    keep_fraction = float(keep_fraction)
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    if keep_fraction == 1.0:
        return train

    users, starts, degrees = np.unique(train[:, 0], return_index=True, return_counts=True)
    kept = [np.empty(0, dtype=np.int64)]
    for u, lo, d in zip(users.tolist(), starts.tolist(), degrees.tolist()):
        # small epsilon so a float product that lands a hair above an exact
        # integer does not inflate the ceiling
        n_keep = max(1, math.ceil(d * keep_fraction - 1e-12))
        rng = np.random.default_rng((seed, u))
        kept.append(lo + rng.choice(d, size=min(n_keep, d), replace=False))
    return train[np.sort(np.concatenate(kept))]


def save_interactions(pairs, path):
    """Write key pairs as sorted 'user<TAB>item' lines."""
    write_table(path, ("%s", "%s"), _key_rows(sorted(pairs)).T)


def load_interactions(path):
    """Read key pairs written by save_interactions."""
    users, items = read_table(path, (object, object))
    check_rows(path, (users == "") | (items == ""), "empty key")
    check_unique(path, users + "\t" + items, "pair ({}, {}) repeats an earlier line",
                 users, items)
    return set(zip(users.tolist(), items.tolist()))


def save_dataset(ds: Dataset, directory):
    """Persist a Dataset as three split files plus two key-list files.

    The layout is bit-exact: load_dataset followed by save_dataset
    reproduces the files byte for byte.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in _SPLITS:
        write_table(directory / f"{name}.tsv", ("%d", "%d"), getattr(ds, name).T)
    for name, keys in (("users", ds.user_keys), ("items", ds.item_keys)):
        write_table(directory / f"{name}.tsv", ("%d", "%s"), (range(len(keys)), keys))


def load_dataset(directory):
    """Read a Dataset persisted by save_dataset."""
    directory = Path(directory)
    key_lists = []
    for name in ("users", "items"):
        path = directory / f"{name}.tsv"
        index, keys = read_table(path, (np.int64, object))
        check_rows(path, index != np.arange(len(index)), "non-contiguous index {}", index)
        check_unique(path, keys, "key {!r} repeats an earlier line", keys)
        key_lists.append(keys.tolist())
    ds = Dataset(*key_lists)
    for name in _SPLITS:
        path = directory / f"{name}.tsv"
        u, i = read_table(path, (np.int64, np.int64))
        check_rows(path, (u < 0) | (u >= ds.n_users), "user {} out of range", u)
        check_rows(path, (i < 0) | (i >= ds.n_items), "item {} out of range", i)
        check_unique(path, u * ds.n_items + i, "pair ({}, {}) repeats an earlier line", u, i)
        setattr(ds, name, as_pairs(np.stack([u, i], axis=1)))
    ds.validate()
    return ds
