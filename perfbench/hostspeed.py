"""Host-speed probe: scales measured times to one reference speed of the host.

On a shared host the same request list runs up to twice as slow for minutes
at a time, because other tenants load the same cores; neither a request's
fastest nor its median pass removes that.  So the runner times this probe, a
fixed piece of work that calls no nablalg code, between requests (at least
every ``EVERY_S`` of request time).  A request's time is multiplied by
``REF_S`` over the median of the ``2 * WINDOW + 1`` probe times nearest it:
the time the request would take at the host speed at which the probe takes
``REF_S``.  A change to nablalg moves the request times and not the probe,
so it moves the scaled times by the same share as the measured ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from time import perf_counter

import numpy as np

EVERY_S = 0.01       # request time between two probes
WINDOW = 2           # probes on either side of a request that set its scale
# A round figure near the probe's median time on a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4); it fixes the unit of the scaled times.
REF_S = 0.0004

_TABLE = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) % 7


def probe() -> float:
    """Seconds taken by the fixed work: dict and frozenset churn, as in the
    program's Python layers, and one 48^3 numpy broadcast, as in its table
    kernels."""
    start = perf_counter()
    seen = {}
    for i in range(200):
        key = frozenset(range(i % 11, i % 11 + 5))
        seen[key] = seen.get(key, 0) + i
    int((_TABLE[:, :, None] <= _TABLE[None, :, :]).sum())
    return perf_counter() - start


def scaled(latencies, probes) -> list:
    """``latencies`` at the reference speed.

    ``probes`` holds (index of the next request, probe seconds) pairs in
    request order, the first one before request 0.
    """
    at = [i for i, _ in probes]
    out = []
    for i, t in enumerate(latencies):
        k = bisect_right(at, i) - 1
        near = [s for _, s in probes[max(0, k - WINDOW):k + WINDOW + 1]]
        out.append(t * REF_S / statistics.median(near))
    return out


def scale_at_now(seconds: float) -> float:
    """``seconds`` just measured, at the reference speed of five probes taken now."""
    return seconds * REF_S / statistics.median(probe() for _ in range(5))
