"""Deterministic discrete-event core.

Single-threaded scheduler over the integer tick timeline plus labeled,
seed-derived random streams. Events that fire at the same tick dispatch in
insertion order, and the same (root_seed, label) pair always reproduces the
same draw sequence, so a full run is a pure function of (config, seed).
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .errors import PastEventError, TickOverflowError
from .timebase import UINT64_MAX


@dataclass
class Event:
    """A scheduled occurrence on the simulated timeline.

    ``sequence`` is assigned by the scheduler and doubles as the event id.
    """

    fire_at: int
    target: str = ""
    kind: str = ""
    callback: Optional[Callable[["Simulator", "Event"], None]] = None
    payload: Any = None
    sequence: int = -1


class Simulator:
    """Event loop with FIFO tie-breaking and a monotone integer clock."""

    def __init__(self):
        self._now = 0
        self._next_seq = 0
        self._heap: list[tuple[int, int, Event]] = []

    @property
    def now(self) -> int:
        return self._now

    def schedule(self, event: Event) -> int:
        if event.fire_at < self._now:
            raise PastEventError(
                f"cannot schedule at {event.fire_at} (now is {self._now})"
            )
        if event.fire_at > UINT64_MAX:
            raise TickOverflowError("event time exceeds the 64-bit tick counter")
        event.sequence = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (event.fire_at, event.sequence, event))
        return event.sequence

    def at(
        self,
        fire_at: int,
        callback: Callable[["Simulator", "Event"], None],
        kind: str = "",
        target: str = "",
        payload: Any = None,
    ) -> int:
        """Convenience wrapper around :meth:`schedule`."""
        return self.schedule(
            Event(fire_at=fire_at, target=target, kind=kind, callback=callback, payload=payload)
        )

    def run_until(self, t_end: int) -> int:
        """Dispatch every event with fire_at <= t_end; leaves now() at t_end."""
        if t_end < self._now:
            raise PastEventError(f"t_end {t_end} is before now {self._now}")
        dispatched = 0
        while self._heap and self._heap[0][0] <= t_end:
            fire_at, _seq, event = heapq.heappop(self._heap)
            self._now = fire_at
            if event.callback is not None:
                event.callback(self, event)
            dispatched += 1
        self._now = t_end
        return dispatched


def _label_digest(root_seed: int, label: str) -> bytes:
    """SHA-256 of "root_seed/label": the source of every derived seed."""
    return hashlib.sha256(f"{root_seed}/{label}".encode()).digest()


def derive_seed(root_seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for (root_seed, label), platform independent."""
    return int.from_bytes(_label_digest(root_seed, label)[:8], "little")


@dataclass
class RngStream:
    """Labeled random stream derived from a root seed.

    Distinct labels give statistically independent streams; the same
    (root_seed, label) pair yields an identical sequence on every run.
    """

    root_seed: int
    label: str
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the digest's eight little-endian uint32 words are the SeedSequence
        # entropy; handing them over as one array skips numpy's per-int coercion
        words = np.frombuffer(_label_digest(self.root_seed, self.label), "<u4")
        self._gen = np.random.default_rng(np.random.SeedSequence(words.astype(np.uint32, copy=False)))

    def random(self) -> float:
        return float(self._gen.random())

    def uniform(self, low: float, high: float) -> float:
        return float(self._gen.uniform(low, high))

    def normal(self, mean: float, sigma: float, size: Optional[int] = None):
        """One draw as a float, or a float64 array of ``size`` successive draws."""
        draw = self._gen.normal(mean, sigma, size)
        return draw if size is not None else float(draw)

    def integers(self, low: int, high: int, size: Optional[int] = None):
        """Uniform integer in [low, high) as a plain Python int, or an int64
        array of ``size`` successive draws."""
        draw = self._gen.integers(low, high, size)
        return draw if size is not None else int(draw)

    def gauss_ticks(self, sigma: float, size: Optional[int] = None):
        """Zero-mean Gaussian draw rounded to the nearest tick, or a float64
        array of ``size`` successive ones (whole numbers). σ = 0 draws nothing."""
        if size is not None:
            return np.zeros(size) if sigma == 0 else np.rint(self._gen.normal(0.0, sigma, size))
        if sigma == 0:
            return 0
        return round(float(self._gen.normal(0.0, sigma)))


def derive_stream(root_seed: int, label: str) -> RngStream:
    return RngStream(root_seed=root_seed, label=label)
