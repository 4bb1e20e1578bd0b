"""Imperfect local clocks: phase offset, fractional skew, aging drift, noise.

A node's reading of its own clock is a pure function of the true time and
the clock state. The deterministic part is quadratic,

    local(t) = theta0 + correction + (1 + y) * t + (a/2) * t_s * t

with t in ticks, t_s the same instant in seconds, y the fractional frequency
offset and a the aging rate per second. The integer true-time term is kept exact; only the small skew/drift
perturbation is evaluated in double precision and rounded to a tick (error
below one tick for horizons up to ~1e4 s). Timestamp noise enters solely
through stamp().
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .engine import RngStream
from .errors import TickOverflowError
from .timebase import INT64_MAX, INT64_MIN, TICKS_PER_SECOND

MAX_ABS_SKEW = 1e-3


@dataclass(frozen=True)
class ClockParams:
    """Oscillator quality: initial phase (ticks), skew, drift, stamp noise."""

    theta0: int = 0
    skew_y: float = 0.0
    drift_a: float = 0.0           # fractional frequency change per second
    stamp_noise_sigma: float = 0.0  # ticks

    def __post_init__(self):
        if abs(self.skew_y) >= MAX_ABS_SKEW:
            raise ValueError(f"|skew_y| must be < {MAX_ABS_SKEW}, got {self.skew_y}")
        if self.stamp_noise_sigma < 0:
            raise ValueError("stamp_noise_sigma must be >= 0")


@dataclass(frozen=True)
class ClockState:
    """Clock parameters plus accumulated corrections; value data, never mutated."""

    params: ClockParams = ClockParams()
    correction: int = 0
    last_sync_at: Optional[int] = None


def ideal_clock() -> ClockState:
    return ClockState()


def _in_tick_range(local: int) -> int:
    if not (INT64_MIN <= local <= INT64_MAX):
        raise TickOverflowError(f"local timestamp {local} outside signed 64-bit range")
    return local


def local_time(state: ClockState, t_true: int) -> int:
    """Deterministic local reading (ticks, signed) at true time t_true."""
    p = state.params
    t_seconds = t_true / TICKS_PER_SECOND
    perturbation = p.skew_y * t_true + 0.5 * p.drift_a * t_seconds * t_true
    return _in_tick_range(p.theta0 + state.correction + t_true + round(perturbation))


def stamp(state: ClockState, t_true: int, rng: RngStream) -> int:
    """Local reading with Gaussian timestamping noise, rounded to a tick."""
    local = local_time(state, t_true) + rng.gauss_ticks(state.params.stamp_noise_sigma)
    return _in_tick_range(local)


def clock_error(state: ClockState, t_true: int) -> int:
    """Signed error of the local clock against the reference (local - true)."""
    return local_time(state, t_true) - t_true


def apply_offset_correction(
    state: ClockState, delta: int, at: Optional[int] = None
) -> ClockState:
    """Step correction: subsequent readings at the same instant drop by delta."""
    return dataclasses.replace(
        state,
        correction=state.correction - delta,
        last_sync_at=at if at is not None else state.last_sync_at,
    )
