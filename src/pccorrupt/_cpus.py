"""The CPU count that gen's worker threads and the mixup matcher size to."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
