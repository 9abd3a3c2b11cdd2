"""Speed probe: how fast the machine runs while the workload runs.

On a shared host the speed of a vCPU drifts with the neighbours' load: a
fixed pure-Python loop took anywhere from 1.0x to 2x its best time, in
stretches of seconds to minutes, so medians of whole runs a few minutes
apart differed by 20-50%.  The probe is a fixed computation that does not
use pccorrupt: a pure-Python loop, a scipy kd-tree query, JSON encoding,
hashing and small numpy operations, and a sort of a 3 MB array, so it
covers the interpreter, small-array and cache-bound code the workloads
spend their time in.

It runs before every command and, at most every PERIOD seconds, at the
entry of the per-item functions named in PROBED (a cell for gen, a batch
for the network), in whichever thread calls them, so it samples the
speed all through a round.  It costs 1-2% of a round, which stays in
the round's wall time.  Each probe is timed by the CPU time of its own
thread, so a probe in one of gen's worker threads does not count the time
it waits for the interpreter lock.  run.py divides a run's wall times by
the probe's median time, which cancels much of the host's drift; less of
it on gen_mesh, whose two worker threads slow down more than the probe
(see WORKLOADS.md).
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
from contextlib import contextmanager

import numpy as np
from scipy.spatial import cKDTree

from pccorrupt import network, pipeline

PERIOD = 0.5  # seconds between probes inside a command
# wall times are reported as on a machine where the probe takes REF_S
REF_S = 0.01
# called once per item of work: a cell for gen, a batch for the network
PROBED = ((pipeline, "apply_corruption"), (network, "forward"))

_RNG = np.random.default_rng(0)
_CLOUD = _RNG.standard_normal((1024, 3))
_LONG = _RNG.standard_normal(400_000)
_RECORD = {str(i): [i, i * 0.5, "label"] for i in range(300)}


def _work() -> None:
    total = 0
    for i in range(5_000):
        total += i * i
    cKDTree(_CLOUD).query(_CLOUD, k=8)
    hashlib.sha256(json.dumps(_RECORD, sort_keys=True).encode() * 8).digest()
    for _ in range(20):
        (_CLOUD * 1.5 + _CLOUD.mean(axis=0)).astype(np.float32).tobytes()
    np.sort(_LONG)


class Probe:
    def __init__(self):
        self.times: list[float] = []
        self._last = 0.0
        self._lock = threading.Lock()

    def run(self) -> None:
        """Run the probe once and record the CPU time it took."""
        start = time.thread_time()
        _work()
        self.times.append(time.thread_time() - start)
        self._last = time.perf_counter()

    def _run_if_due(self) -> None:
        if time.perf_counter() - self._last < PERIOD or not self._lock.acquire(blocking=False):
            return
        try:
            if time.perf_counter() - self._last >= PERIOD:
                self.run()
        finally:
            self._lock.release()

    def median(self) -> float:
        ordered = sorted(self.times)
        return ordered[len(ordered) // 2]

    @contextmanager
    def sampling(self):
        """Run the probe at the entry of PROBED functions when it is due."""

        def wrap(owner, attr):
            original = owner.__dict__[attr]

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self._run_if_due()
                return original(*args, **kwargs)

            setattr(owner, attr, wrapper)
            return owner, attr, original

        undo = [wrap(owner, attr) for owner, attr in PROBED]
        try:
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
