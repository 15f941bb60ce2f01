"""Fixed blocks of work on one thread per available CPU.

A stage cuts its work into blocks whose bounds depend only on the data,
never on the thread count, so its output bytes are the same on any
number of cores.  map_blocks runs the blocks on a shared thread pool;
numpy's array operations and BLAS release the GIL, so the blocks overlap.
Restrict the cores with ``taskset``; there is no setting.
"""

import contextvars
import os
import threading

__all__ = ["threads", "spans", "map_blocks"]

_pool = None  # the ThreadPoolExecutor, made on the first parallel call
_lock = threading.Lock()
_inside = contextvars.ContextVar("walkrec_parallel_inside", default=False)


def threads():
    "The number of CPUs this process may run on."
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def spans(n, parts):
    "(lo, hi) bounds of parts near-equal contiguous pieces of range(n), in order."
    return [(n * j // parts, n * (j + 1) // parts) for j in range(parts)]


def _run(fn, block):
    _inside.set(True)  # a nested map_blocks runs inline instead of waiting on the pool
    return fn(block)


def map_blocks(fn, blocks):
    """[fn(b) for b in blocks], with the blocks run in parallel threads.

    Each block runs in a copy of the caller's context, so settings such as
    np.errstate hold inside it.  Runs inline for one block, on one CPU, or
    inside another block.  Every block finishes before the first error in
    block order is raised.
    """
    global _pool
    blocks, n = list(blocks), threads()
    if len(blocks) < 2 or n < 2 or _inside.get():
        return [fn(b) for b in blocks]
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # imported here: not paid at import
            _pool = ThreadPoolExecutor(n, thread_name_prefix="walkrec")
    futures = [_pool.submit(contextvars.copy_context().run, _run, fn, b) for b in blocks]
    for f in futures:
        f.exception()  # waits for it
    return [f.result() for f in futures]


def _forget_pool():
    "A forked child has none of the parent's pool threads: make a new pool on demand."
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # Unix
    os.register_at_fork(after_in_child=_forget_pool)
