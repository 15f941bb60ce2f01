"""Run a block of dense linear algebra on one OpenBLAS thread.

ALS's dense problems at K=100 (a KxK Cholesky factor and its inverse,
thin Gram, half-sweep and score products) are too small for a second
BLAS thread to pay for its synchronization, and the thread count
decides how a product is split, so it changes the last bits of the
result.  one_thread() pins every OpenBLAS mapped into this process to
one thread for the length of a block (``with one_thread():``, or
``@one_thread()`` on a function) and restores each library's count
afterwards, so callers keep whatever count they chose.  walkrec itself
loads only numpy's OpenBLAS: it never imports scipy's dense linalg
module, which would map scipy's own.
"""

import contextlib
import ctypes
import functools

__all__ = ["libraries", "one_thread"]

# (getter, setter) symbols across OpenBLAS builds: numpy's 64-bit-integer
# scipy_openblas64_, scipy's scipy_openblas, and a plain OpenBLAS
_SYMBOLS = tuple((name.format("get"), name.format("set")) for name in (
    "scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_", "openblas_{}_num_threads"))


def _loaded_openblas():
    "Paths of the OpenBLAS libraries mapped into this process (Linux only)."
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


@functools.cache
def libraries():
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Found on the first call, not at import; walkrec has loaded numpy's BLAS,
    the only one it uses, by then.  A library mapped later, such as scipy's
    when a caller first imports scipy's linalg module after that call, is
    not found.
    Empty when no OpenBLAS is found.
    """
    found = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def one_thread():
    """Every loaded OpenBLAS runs one thread inside the block.

    Each library's previous count is restored on exit, also when the body
    raises; nested blocks restore the outer block's count.  The count is
    process-wide, so a parallel region pins it once, on the calling thread,
    around all its blocks; inside a map_blocks block one_thread() does
    nothing, so worker threads never set or restore a count.
    """
    from .parallel import _inside  # imported here, so this module also loads on its own

    libs = () if _inside.get() else libraries()
    saved = [get() for get, _ in libs]
    for _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(libs, saved):
            put(n)
