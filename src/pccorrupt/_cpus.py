"""The CPUs a command may use, and the one way its independent tasks share them.

map_tasks runs gen's cells and attack's clouds on worker threads; the mixup
matcher sizes its own pool to usable_cpus, without a BLAS cap (it runs no
BLAS).
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def openblas_capped(cap: int, log):
    """Lower every loaded OpenBLAS to at most `cap` threads; restore on exit.

    openblas_set_num_threads_local returns the previous count and is
    process-wide in the bundled builds, so the caller wraps its whole worker
    pool from its own thread.  Setting 1 first reads a count without ever
    raising it.  A `blas_threads` event says when a count was lowered, or
    that no OpenBLAS was found (another BLAS, or no /proc/self/maps).
    """
    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.exists() else []
    setters = {}  # by address: one library can be mapped from more than one path
    for path in sorted({line.split()[-1] for line in lines if "openblas" in line}):
        try:
            fn = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):  # a deleted file, a path with spaces, an old build
            continue
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
        setters.setdefault(ctypes.cast(fn, ctypes.c_void_p).value, fn)
    before = [fn(1) for fn in setters.values()]
    try:
        for fn, count in zip(setters.values(), before):
            fn(min(count, cap))
        if not before or max(before) > cap:
            log({"event": "blas_threads", "libraries": len(before), "before": before,
                 "used": cap})
        yield
    finally:
        for fn, count in zip(setters.values(), before):
            fn(count)


def map_tasks(fn, tasks, workers: int, log) -> list:
    """[fn(task) for task in tasks], run on `workers` threads, in task order.

    One worker runs inline.  More than one share the usable CPUs: while they
    run, every loaded OpenBLAS is capped at usable_cpus() // workers threads,
    since uncapped each worker's BLAS calls would wake helpers on every core.
    A task's exception reaches the caller after the pool has stopped and the
    BLAS counts are restored.
    """
    if workers <= 1:
        return [fn(task) for task in tasks]
    with openblas_capped(max(1, usable_cpus() // workers), log):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
