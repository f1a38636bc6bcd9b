"""Host-speed reference for normalising times on a shared machine.

On a small shared host the same Python code runs up to twice as slow for
seconds or minutes at a time, in CPU time as well as wall time. The
benchmark therefore runs a fixed pure-Python loop (burning passes over a
fixed graph, the same kind of work as the engine's inner loop) between
instances, and scales each instance's time by NOMINAL_S over the median
reference time around it. A time reads as it would on this host running
the reference in NOMINAL_S; the loop is benchmark code, so no change to
chipfire can move it. Raw times are kept in the result file beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

# Median reference time on an idle 2-vCPU Intel Xeon host (2.1 GHz, Python
# 3.11); it sets the scale of every reported time, not the comparisons.
NOMINAL_S = 0.0017

_N = 240
_ADJ = tuple(
    tuple(((i + step) % _N, 1 + (i + step) % 2) for step in (-1, 1, 11, -11))
    for i in range(_N)
)
_CHIPS = tuple((7 * i) % 6 for i in range(_N))


def _burn(root):
    burnt = bytearray(_N)
    burnt[root] = 1
    threat = [0] * _N
    stack = [root]
    while stack:
        u = stack.pop()
        for j, mult in _ADJ[u]:
            if not burnt[j]:
                threat[j] += mult
                if threat[j] > _CHIPS[j]:
                    burnt[j] = 1
                    stack.append(j)
    return sum(threat)


def reference_seconds(clock=time.perf_counter):
    """Time of one pass of the reference loop on the given clock."""
    started = clock()
    for root in range(0, _N, 2):
        _burn(root)
    return clock() - started


def speed_factor(samples):
    """NOMINAL_S over the median of reference samples: the multiplier that
    turns a time measured around those samples into a nominal-speed time."""
    return NOMINAL_S / statistics.median(samples)
