"""The ledger's yardstick: a fixed pure-Python loop, timed beside the runs.

The box is a few cores of a shared host and is slow for minutes at a
time (README, "How noisy the box is"), so a wall time says as much about
the minute it was taken in as about the program. run.py therefore times
this loop between the repeats of a run and reports host times in
*reference seconds*: measured seconds x ``REFERENCE_S`` / the run's
calibration time. On a quiet reference box the factor is 1.

The loop does what the simulator's kernel does (heap, deque, generator
resumption, small arithmetic) and imports nothing from the program, so
no change under ``src/`` can move it. Do not edit it or ``REFERENCE_S``:
either rescales every host metric ever recorded.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import List

#: About what one sample takes on the reference box (2 cores, python
#: 3.11) in a quiet minute.
REFERENCE_S = 0.0175
_OPERATIONS = 30_000


def _echo():
    value = 0
    while True:
        value = yield value + 1


def sample() -> float:
    """Seconds one pass of the loop takes now."""
    heap: List[tuple] = []
    ring: deque = deque()
    resume = _echo()
    next(resume)
    push, pop, send = heapq.heappush, heapq.heappop, resume.send
    total = 0
    started = time.perf_counter()
    for index in range(_OPERATIONS):
        push(heap, ((index * 7919) % 1000, index))
        ring.append(index)
        total += send(index)
        if index & 1:
            pop(heap)
            ring.popleft()
    return time.perf_counter() - started


def samples(count: int) -> List[float]:
    return [sample() for _ in range(count)]


def quiet(values: List[float]) -> float:
    """The lower decile: what the loop takes in the run's quiet moments."""
    return sorted(values)[len(values) // 10]
