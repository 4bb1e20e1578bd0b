"""Fixed reference work, timed between benchmark invocations to track host speed.

The host's speed drifts by tens of percent over minutes. The benchmark runs
this script as a child after every timed CLI invocation and scales its
timings by how long this script took, relative to CALIBRATION_REFERENCE_S in
run.py. The work mirrors the simulator's mix (interpreter start, numpy
import, heap and dataclass churn, small-array percentiles, JSON encoding)
and uses nothing from ``src/``, so a change to airsync cannot move it.
"""

import heapq
import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Item:
    t: int
    kind: str


def main() -> None:
    heap = []
    for i in range(30_000):
        heapq.heappush(heap, (i * 7919 % 100_003, i, Item(i, "event")))
    total = 0
    while heap:
        t, _, item = heapq.heappop(heap)
        total += (t + item.t) % 13
    values = np.arange(200.0)
    for i in range(300):
        np.percentile(values * i, [50, 95, 99])
    json.dumps([[i, i * 0.5, "node"] for i in range(30_000)])


if __name__ == "__main__":
    main()
