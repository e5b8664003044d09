"""A fixed pure-Python computation that measures the host's current speed.

The benchmark runs on a few cores of a shared host, whose speed for one
interpreter changes by a quarter or more from one minute to the next.  A
``Probe`` runs in short slices right after each timed piece of work, for a
fixed share of that work's time, so it samples the host's speed over the
same stretch of time as the work.  ``scale`` then turns a wall time into
reference seconds: the time the work would have taken on a host that runs
one probe unit in ``REF_UNIT_S``.

The probe code is the benchmark's own and no change to varietal alters it.
It looks like varietal's inner loops (tuple keys hashed into dicts,
indexing into lists of objects, small function calls) over a working set
of a few hundred KB.  A working set of several MB made the probe slow
down more than varietal's jobs when other processes shared the cores; this
size tracked them within a few per cent.  The cyclic garbage collector is
off while it runs, so the size of varietal's heap does not change what a
unit costs.
"""

from __future__ import annotations

import functools
import gc
import random
from time import perf_counter

# one probe unit's wall time on the host the benchmark was written on
# (2 vCPUs of a shared x86-64 Linux host, CPython 3)
REF_UNIT_S = 3.5e-5
_SIZE = 1 << 11
_STEPS = 150
WARM_UNITS = 1000


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


@functools.cache
def _working_set():
    """A random cycle of indices and a dict keyed by tuples; every probe in
    the process shares them, so they add to its memory once."""
    perm = list(range(_SIZE))
    random.Random(0).shuffle(perm)
    keys = [(i, i * i % 97, str(i)) for i in range(_SIZE)]
    return perm, keys, {k: i for i, k in enumerate(keys)}


class Probe:
    """Runs probe slices and accumulates their units and wall time."""

    def __init__(self, share: float):
        self.share = share
        self.units = 0
        self.seconds = 0.0
        self._next, self._keys, self._table = _working_set()
        self._pos = self.check = 0
        # warm the code and the working set, untimed
        for _ in range(WARM_UNITS):
            self.check ^= self._unit()

    def _unit(self) -> int:
        # each unit carries on where the last one stopped, so that the walk
        # covers the whole working set
        nxt, keys, table = self._next, self._keys, self._table
        j, acc = self._pos, 0
        for _ in range(_STEPS):
            j = nxt[j]
            acc = _mix(acc, table[keys[j]])
            j = nxt[(j + acc) & (_SIZE - 1)]
        self._pos = j
        return acc

    def after(self, seconds: float) -> None:
        """Run whole units for ``share`` times ``seconds`` of wall time."""
        budget = self.share * seconds
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = now = perf_counter()
            units = 0
            while now - t0 < budget or units == 0:
                self.check ^= self._unit()
                units += 1
                now = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.units += units
        self.seconds += now - t0

    @property
    def unit_s(self) -> float:
        return self.seconds / self.units

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over the slices run so far."""
        return REF_UNIT_S / self.unit_s
