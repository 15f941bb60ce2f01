"""The layout of the tab-separated stage artifacts, with their one reader and writer.

A table is an optional header line ``# key=value ...`` over rows of
tab-separated fields, one row per line.  A sparse matrix is a table of
(u, i, value) rows sorted by (u, i) under a ``users=M items=N ...``
header.  Read errors name the file and line.
"""

import numpy as np
import scipy.sparse as sp

__all__ = ["format_header", "parse_header", "write_table", "read_table", "check_rows",
           "check_unique", "write_matrix", "read_matrix"]


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


def write_table(path, fmt, columns, header=None):
    """Write equal-length columns (arrays or lists), one %-format of fmt each, under an
    optional header."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    n = len(columns[0])
    text = "".join(map(("\t".join(fmt) + "\n").__mod__, zip(*columns)))
    if text.count("\t") != n * (len(fmt) - 1) or text.count("\n") != n or "\r" in text:
        raise ValueError(f"{path}: a field holds a tab or line break; cannot persist")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(format_header(header) + text if header is not None else text)


def read_table(path, dtypes, header_keys=None):
    """The header fields (None without header_keys) and one array per column of a table.

    dtypes holds one dtype per column, object for text.  A blank line, or a
    row without one parsable field per column, raises ValueError naming
    the file and line.
    """
    with open(path, encoding="utf-8") as f:
        header = None if header_keys is None else parse_header(f.readline(), path, header_keys)
        lines = f.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return header, [np.empty(0, dtype=dt) for dt in dtypes]
    dtype = np.dtype([(f"f{j}", dt) for j, dt in enumerate(dtypes)])
    try:
        if "" in lines:  # loadtxt would skip it and shift every later line number
            raise ValueError("blank line")
        table = np.loadtxt(lines, dtype=dtype, delimiter="\t", comments=None, ndmin=1)
    except ValueError as exc:
        for n, line in enumerate(lines, start=1 + (header is not None)):
            fields = line.split("\t") if line else []
            try:
                if len(fields) != len(dtypes):
                    raise ValueError(f"{len(fields)} fields, expected {len(dtypes)}")
                for field, dt in zip(fields, dtypes):
                    np.dtype(dt).type(field)
            except (ValueError, OverflowError) as bad:
                raise ValueError(f"{path}: line {n}: {bad}") from None
        raise ValueError(f"{path}: {exc}") from None
    return header, [table[name] for name in dtype.names]


def check_rows(path, bad, message, *columns, first_line=1):
    """Raise ValueError naming the line of the first row r that bad flags.

    Row r is on line first_line + r; message is formatted with its entries of columns.
    """
    if np.any(bad):
        r = int(np.argmax(bad))
        raise ValueError(f"{path}: line {first_line + r}: "
                         + message.format(*(c[r] for c in columns)))


def check_unique(path, keys, message, *columns, first_line=1):
    "check_rows on the first row whose entry of keys repeats an earlier row's."
    first = np.zeros(len(keys), dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    check_rows(path, ~first, message, *columns, first_line=first_line)


def write_matrix(path, matrix, fmt, header):
    """Write a sparse matrix's stored entries as (u, i, value) rows sorted by (u, i).

    fmt formats the values; the header holds users= and items=, then header.
    """
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    write_table(path, ("%d", "%d", fmt), (coo.row[order], coo.col[order], coo.data[order]),
                {"users": matrix.shape[0], "items": matrix.shape[1], **header})


def read_matrix(path, dtype, header_keys):
    """The header fields and CSR matrix of a file write_matrix wrote.

    An index out of range, a value that is not finite and positive, and a
    repeated (u, i) raise ValueError naming their line.
    """
    header, (u, i, v) = read_table(path, (np.int64, np.int64, dtype),
                                   {"users": int, "items": int, **header_keys})
    m, n = header["users"], header["items"]
    check_rows(path, (u < 0) | (u >= m) | (i < 0) | (i >= n), "entry ({}, {}) out of range",
               u, i, first_line=2)
    check_rows(path, ~(np.isfinite(v) & (v > 0)), "value {} is not finite and positive", v,
               first_line=2)
    matrix = sp.coo_matrix((v, (u, i)), shape=(m, n)).tocsr()
    if matrix.nnz < len(v):  # tocsr summed repeated entries
        check_unique(path, u * n + i, "entry ({}, {}) repeats an earlier line", u, i,
                     first_line=2)
    return header, matrix
