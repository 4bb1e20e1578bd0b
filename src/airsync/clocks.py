"""Imperfect local clocks: phase offset, fractional skew, aging drift, noise.

A node's clock is one trajectory over the run: its drawn parameters plus the
steps it took. Its reading at true time t is a pure function of t,

    local(t) = theta0 + correction(t) + (1 + y) * t + (a/2) * t_s * t

with t in ticks, t_s the same instant in seconds, y the fractional frequency
offset, a the aging rate per second and correction(t) the total of the steps
installed at or before t. The integer terms are kept exact; only the small
skew/drift perturbation is evaluated in double precision and rounded to a
tick (error below one tick for horizons up to ~1e4 s). Timestamp noise
enters solely through stamp().

local_times() and stamps() are the bulk readers: over an int64 array of
instants they give exactly what local_time() and successive stamp() calls
give, in one numpy pass, and raise TickOverflowError on the same inputs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .engine import RngStream
from .errors import TickOverflowError
from .timebase import INT64_MAX, INT64_MIN, TICKS_PER_SECOND


@dataclass(frozen=True)
class ClockParams:
    """Oscillator quality: initial phase (ticks), skew, drift, stamp noise."""

    theta0: int = 0
    skew_y: float = 0.0
    drift_a: float = 0.0           # fractional frequency change per second
    stamp_noise_sigma: float = 0.0  # ticks


@dataclass(slots=True)
class ClockState:
    """One node's clock trajectory: its parameters plus every step it took.

    ``installed_at[i]`` is the true instant of step i (non-decreasing) and
    ``correction[i]`` the total correction in force from then on. A clock
    with no steps holds its drawn phase throughout.
    """

    params: ClockParams = ClockParams()
    installed_at: list[int] = field(default_factory=list, init=False)
    correction: list[int] = field(default_factory=list, init=False)

    def step(self, at: int, delta: int) -> None:
        """From true time ``at`` on, every reading drops by a further ``delta``."""
        if self.installed_at and at < self.installed_at[-1]:
            raise ValueError(f"step at {at} before the last step at {self.installed_at[-1]}")
        self.installed_at.append(at)
        self.correction.append((self.correction[-1] if self.correction else 0) - delta)

    def set(self, at: int, reading: int) -> int:
        """Step the clock so that it reads ``reading`` at true time ``at``, and
        return the step taken (the old reading then minus ``reading``)."""
        delta = local_time(self, at) - in_tick_range(reading)
        self.step(at, delta)
        return delta


def ideal_clock() -> ClockState:
    return ClockState()


def in_tick_range(local: int) -> int:
    """``local``, if it fits a signed 64-bit timestamp."""
    if not (INT64_MIN <= local <= INT64_MAX):
        raise TickOverflowError(f"local timestamp {local} outside signed 64-bit range")
    return local


def local_time(state: ClockState, t_true: int) -> int:
    """Deterministic local reading (ticks, signed) at true time t_true."""
    p = state.params
    steps = bisect_right(state.installed_at, t_true)
    correction = state.correction[steps - 1] if steps else 0
    t_seconds = t_true / TICKS_PER_SECOND
    perturbation = p.skew_y * t_true + 0.5 * p.drift_a * t_seconds * t_true
    return in_tick_range(p.theta0 + correction + t_true + round(perturbation))


def stamp(state: ClockState, t_true: int, rng: RngStream) -> int:
    """Local reading with Gaussian timestamping noise, rounded to a tick."""
    local = local_time(state, t_true) + rng.gauss_ticks(state.params.stamp_noise_sigma)
    return in_tick_range(local)


def clock_error(state: ClockState, t_true: int) -> int:
    """Signed error of the local clock against the reference (local - true)."""
    return local_time(state, t_true) - t_true


def _wrapped(a: np.ndarray, b: np.ndarray, total: np.ndarray) -> np.ndarray:
    """+1 or -1 where the int64 sum ``total = a + b`` wrapped past INT64_MAX or
    INT64_MIN (numpy wraps silently), else 0."""
    return np.where((a ^ total) & (b ^ total) < 0, np.where(a < 0, -1, 1), 0)


def _castable(x: np.ndarray) -> bool:
    """Whether every whole-number float of ``x`` converts to int64 exactly."""
    return bool(np.all(np.abs(x) < 2.0**63))


def local_times(state: ClockState, t_true: np.ndarray) -> np.ndarray:
    """local_time at each instant of an int64 array, in one pass: the same
    float operations in the same order, and the same range check."""
    p = state.params
    t = np.asarray(t_true, dtype=np.int64)
    t_seconds = t / TICKS_PER_SECOND
    wide = (t > 2**53) | (t < -(2**53))
    if wide.any():   # Python divides such an int exactly; numpy rounds it to a double first
        t_seconds[wide] = [x / TICKS_PER_SECOND for x in t[wide].tolist()]
    perturbation = np.rint(p.skew_y * t + 0.5 * p.drift_a * t_seconds * t)
    held = [p.theta0, *(p.theta0 + c for c in state.correction)]
    if not (_castable(perturbation) and INT64_MIN <= min(held) and max(held) <= INT64_MAX):
        return np.array([local_time(state, x) for x in t.tolist()], dtype=np.int64)
    base = np.array(held, dtype=np.int64)[np.searchsorted(np.array(state.installed_at, dtype=np.int64), t, "right")]
    rounded = perturbation.astype(np.int64)
    partial = base + t
    local = partial + rounded
    if np.any(_wrapped(base, t, partial) + _wrapped(partial, rounded, local)):
        raise TickOverflowError("a local timestamp falls outside the signed 64-bit range")
    return local


def stamps(state: ClockState, t_true: np.ndarray, rng: RngStream) -> np.ndarray:
    """stamp at each instant of an int64 array, in order: the same values and
    the same draws from ``rng`` as one stamp call per instant."""
    local = local_times(state, t_true)
    noise = rng.gauss_ticks(state.params.stamp_noise_sigma, len(local))
    if not _castable(noise):
        return np.array([in_tick_range(x + int(n)) for x, n in zip(local.tolist(), noise.tolist())], dtype=np.int64)
    noise = noise.astype(np.int64)
    stamped = local + noise
    if np.any(_wrapped(local, noise, stamped)):
        raise TickOverflowError("a timestamp falls outside the signed 64-bit range")
    return stamped
