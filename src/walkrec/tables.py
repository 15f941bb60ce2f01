"""The layouts of the stage artifacts, with their one reader and writer each.

A table is rows of tab-separated fields, one row per line; its read
errors name the file and line.  A header line ``# key=value ...`` heads
``walks.txt``.  The binary artifacts are ``.npz`` archives of named
arrays; a sparse matrix is one in CSR form, its ``data``, ``indices``,
``indptr`` and ``shape`` beside any named members.  Their read errors
name the file.
"""

import zipfile

import numpy as np

__all__ = ["format_header", "parse_header", "write_table", "read_table", "check_rows",
           "check_unique", "write_archive", "read_archive", "write_matrix", "read_matrix"]


def format_header(fields):
    "The header line, newline included, of a dict of key -> value."
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"


def parse_header(line, path, keys):
    """The key -> value strings of a header line; keys maps each required key to its converter."""
    if not line.startswith("# "):
        raise ValueError(f"{path}: line 1: missing header")
    fields = {k: v for k, _, v in (part.partition("=") for part in line[2:].split())}
    for key, convert in keys.items():
        try:
            fields[key] = convert(fields[key])
        except (KeyError, ValueError):
            raise ValueError(f"{path}: line 1: header lacks a valid {key}=") from None
    return fields


def write_table(path, fmt, columns):
    "Write equal-length columns (arrays or lists), one %-format of fmt each."
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    n = len(columns[0])
    text = "".join(map(("\t".join(fmt) + "\n").__mod__, zip(*columns)))
    if text.count("\t") != n * (len(fmt) - 1) or text.count("\n") != n or "\r" in text:
        raise ValueError(f"{path}: a field holds a tab or line break; cannot persist")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def read_table(path, dtypes):
    """One array per column of a table.

    dtypes holds one dtype per column, object for text.  A blank line, or a
    row without one parsable field per column, raises ValueError naming
    the file and line.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return [np.empty(0, dtype=dt) for dt in dtypes]
    dtype = np.dtype([(f"f{j}", dt) for j, dt in enumerate(dtypes)])
    try:
        if "" in lines:  # loadtxt would skip it and shift every later line number
            raise ValueError("blank line")
        table = np.loadtxt(lines, dtype=dtype, delimiter="\t", comments=None, ndmin=1)
    except ValueError as exc:
        for n, line in enumerate(lines, start=1):
            fields = line.split("\t") if line else []
            try:
                if len(fields) != len(dtypes):
                    raise ValueError(f"{len(fields)} fields, expected {len(dtypes)}")
                for field, dt in zip(fields, dtypes):
                    np.dtype(dt).type(field)
            except (ValueError, OverflowError) as bad:
                raise ValueError(f"{path}: line {n}: {bad}") from None
        raise ValueError(f"{path}: {exc}") from None
    return [table[name] for name in dtype.names]


def check_rows(path, bad, message, *columns):
    """Raise ValueError naming the line of the first row r that bad flags.

    Row r is on line r + 1; message is formatted with its entries of columns.
    """
    if np.any(bad):
        r = int(np.argmax(bad))
        raise ValueError(f"{path}: line {r + 1}: " + message.format(*(c[r] for c in columns)))


def check_unique(path, keys, message, *columns):
    "check_rows on the first row whose entry of keys repeats an earlier row's."
    first = np.zeros(len(keys), dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    check_rows(path, ~first, message, *columns)


def write_archive(path, **arrays):
    "Write named arrays as an .npz archive at path itself, whatever its suffix."
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def read_archive(path, names, kind):
    "The named arrays of an archive; an unreadable file or member raises ValueError naming path."
    try:
        with np.load(path, allow_pickle=False) as data:
            return [data[name] for name in names]
    except (OSError, EOFError, KeyError, ValueError, TypeError, NotImplementedError,
            zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: unreadable {kind} archive: {exc}") from None


def write_matrix(path, matrix, **members):
    "Write a canonical CSR matrix (rows' entries sorted, none repeated) and named members."
    write_archive(path, data=matrix.data, indices=matrix.indices, indptr=matrix.indptr,
                  shape=np.array(matrix.shape, dtype=np.int64), **members)


def read_matrix(path, dtype, kind, names=()):
    """The CSR matrix of an archive write_matrix wrote, then its members named by names.

    Values not of dtype, indices or a shape not of integers, a shape of
    other than two entries, a malformed CSR, a row's entries out of order
    or repeated, and a value not finite and positive raise ValueError naming path.
    """
    import scipy.sparse as sp

    data, indices, indptr, shape, *members = read_archive(
        path, ("data", "indices", "indptr", "shape", *names), kind)
    if (data.dtype != dtype or shape.shape != (2,)
            or any(a.dtype.kind not in "iu" for a in (indices, indptr, shape))):
        raise ValueError(f"{path}: data {data.dtype}, indices {indices.dtype}, indptr "
                         f"{indptr.dtype} or shape {shape.dtype} {shape.shape} is not "
                         f"{np.dtype(dtype)}, integer and two integers")
    try:
        matrix = sp.csr_matrix((data, indices, indptr), shape=tuple(shape))
        matrix.check_format(full_check=True)  # drops values past indptr[-1]
        if matrix.nnz != len(data):
            raise ValueError(f"{len(data)} values for {matrix.nnz} entries")
    except ValueError as exc:
        raise ValueError(f"{path}: malformed sparse matrix: {exc}") from None
    if not matrix.has_canonical_format:
        raise ValueError(f"{path}: a row's entries are out of order or repeat")
    for k in np.flatnonzero(~(np.isfinite(data) & (data > 0)))[:1]:
        u = np.searchsorted(indptr, k, side="right") - 1
        raise ValueError(f"{path}: entry ({u}, {indices[k]}) value {data[k]} "
                         "is not finite and positive")
    return matrix, *members
