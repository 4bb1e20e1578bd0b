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

local_times() and stamps() are the bulk readers: they read many clocks at
once, each at its own int64 instants, and give exactly what local_time() and
successive stamp() calls give, raising TickOverflowError on the same inputs.
set_readings() is ClockState.set for many steps of fresh clocks at once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import RngStream
from .errors import TickOverflowError
from .timebase import INT64_MAX, INT64_MIN, TICKS_PER_SECOND

_BLOCK = 1 << 14   # elements a bulk read evaluates at once: bounds its float temporaries
_SMALL = 2**59     # int64 sums and differences of a few terms this small cannot wrap


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
    _arrays: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def step(self, at: int, delta: int) -> None:
        """From true time ``at`` on, every reading drops by a further ``delta``."""
        if self.installed_at and at < self.installed_at[-1]:
            raise ValueError(f"step at {at} before the last step at {self.installed_at[-1]}")
        self.installed_at.append(at)
        self.correction.append((self.correction[-1] if self.correction else 0) - delta)
        self._arrays = None

    def set(self, at: int, reading: int) -> int:
        """Step the clock so that it reads ``reading`` at true time ``at``, and
        return the step taken (the old reading then minus ``reading``)."""
        delta = local_time(self, at) - in_tick_range(reading)
        self.step(at, delta)
        return delta

    def arrays(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The trajectory as int64 arrays, built once: the step instants, and
        the reading's base (theta0 plus the correction in force) before the
        first step and from each step on. The base is None when one of its
        values leaves int64; the bulk readers then read the clock one instant
        at a time."""
        if self._arrays is None:
            theta0, held = self.params.theta0, [0, *self.correction]
            base = None
            if INT64_MIN <= theta0 + min(held) and theta0 + max(held) <= INT64_MAX:
                try:
                    base = np.array(held, dtype=np.int64) + theta0
                except OverflowError:   # a correction past int64 that theta0 brings back
                    base = (np.array(held, dtype=object) + theta0).astype(np.int64)
            self._arrays = (np.array(self.installed_at, dtype=np.int64), base)
        return self._arrays


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


# --- bulk: many clocks, many instants, one numpy pass ----------------------------------


def _wrapped(a: np.ndarray, b: np.ndarray, total: np.ndarray) -> np.ndarray:
    """+1 or -1 where the int64 sum ``total = a + b`` wrapped past INT64_MAX or
    INT64_MIN (numpy wraps silently), else 0."""
    return np.where((a ^ total) & (b ^ total) < 0, np.where(a < 0, -1, 1), 0)


def _perturbation(skew: np.ndarray, half_drift: np.ndarray, t: np.ndarray) -> np.ndarray:
    """local_time's rounded skew and drift term, as whole float64s: per-clock
    ``skew`` and ``half_drift`` (0.5 * drift) broadcast against int64
    instants ``t``, in local_time's float operations and order. Without
    drift its term is a signed zero, which changes no rounded sum."""
    if not np.any(half_drift):
        return np.rint(skew * t)
    t_seconds = t / TICKS_PER_SECOND
    if t.size and (t.max() > 2**53 or t.min() < -(2**53)):
        wide = (t > 2**53) | (t < -(2**53))   # Python divides such an int exactly; numpy rounds it to a double first
        t_seconds[wide] = [x / TICKS_PER_SECOND for x in t[wide].tolist()]
    return np.rint(skew * t + half_drift * t_seconds * t)


def _rates(clocks: Sequence[ClockState]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([c.params.skew_y for c in clocks], dtype=float),
            np.array([0.5 * c.params.drift_a for c in clocks], dtype=float))


def _within(bound: float, *arrays: np.ndarray) -> bool:
    """Whether every value of ``arrays`` lies strictly within +-``bound``
    (False for a NaN)."""
    return all(not x.size or (-bound < x.min() and x.max() < bound) for x in arrays)


def _columns(where: Optional[np.ndarray], j: int):
    """The rows of column j that a bulk read takes: all, or the marked ones."""
    return slice(None) if where is None else where[:, j]


def local_times(clocks: Sequence[ClockState], t_true: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
    """local_time of many clocks at once: column j of the int64 (instants x
    clocks) matrix ``t_true`` is read by ``clocks[j]``; an (instants x 1)
    matrix is read by every clock. The same float operations in the same
    order as local_time, and TickOverflowError exactly where it raises.

    With ``where`` (a boolean matrix of the result's shape) only the marked
    instants are read and checked; the other entries are left undefined.
    Temporaries are bounded by evaluating _BLOCK elements at a time.
    """
    t = np.asarray(t_true, dtype=np.int64)
    local = np.empty((len(t), len(clocks)), dtype=np.int64)
    exact = np.ones(len(clocks), dtype=bool)   # columns read in int64; the others one instant at a time
    for j, clock in enumerate(clocks):   # the base in force at each instant, straight into the result
        installed_at, base = clock.arrays()
        if base is None:
            exact[j] = False
            local[:, j] = 0
        else:
            local[:, j] = base[np.searchsorted(installed_at, t[:, j if t.shape[1] > 1 else 0], "right")]
    skew, half_drift = _rates(clocks)
    rows = max(1, _BLOCK // max(1, len(clocks)))
    for start in range(0, len(t), rows):
        block = slice(start, start + rows)
        tb, base = t[block], local[block]
        marked = None if where is None else where[block]
        perturbation = _perturbation(skew, half_drift, tb)
        if not _within(2.0**63, perturbation):   # some term does not convert to int64
            castable = np.abs(perturbation) < 2.0**63
            exact &= np.all(castable if marked is None else castable | ~marked, axis=0)
            perturbation = np.where(castable, perturbation, 0.0)
        rounded = perturbation.astype(np.int64)
        read = base + tb
        read += rounded
        if not _within(2.0**61, base, tb, perturbation):   # the int64 sums may have wrapped
            partial = base + tb
            wrapped = (_wrapped(base, tb, partial) + _wrapped(partial, rounded, read) != 0) & exact
            if np.any(wrapped if marked is None else wrapped & marked):
                raise TickOverflowError("a local timestamp falls outside the signed 64-bit range")
        local[block] = read
    for j in np.flatnonzero(~exact).tolist():
        rows_j = _columns(where, j)
        instants = (t[:, j] if t.shape[1] > 1 else t[:, 0])[rows_j]
        local[rows_j, j] = [local_time(clocks[j], x) for x in instants.tolist()]
    return local


def stamps(clocks: Sequence[ClockState], t_true: np.ndarray, rngs: Sequence[Optional[RngStream]],
           where: Optional[np.ndarray] = None) -> np.ndarray:
    """stamp of many clocks at once: local_times, plus for column j the stamp
    noise of ``clocks[j]``, drawn from ``rngs[j]`` one instant after another
    down the column (only the marked ones under ``where``). The same values
    and the same draws as successive stamp calls; a column that draws nothing
    (no instant, or no stamp noise) may have no stream."""
    local = local_times(clocks, t_true, where)
    counts = [len(local)] * len(clocks) if where is None else np.count_nonzero(where, axis=0).tolist()
    noise = np.zeros(local.shape)
    for j, (clock, rng, count) in enumerate(zip(clocks, rngs, counts)):
        if clock.params.stamp_noise_sigma and count:
            noise[_columns(where, j), j] = rng.gauss_ticks(clock.params.stamp_noise_sigma, count)
    exact = np.ones(len(clocks), dtype=bool)   # columns whose noise converts to int64
    if not _within(2.0**63, noise):
        exact = np.all(np.abs(noise) < 2.0**63, axis=0)
    whole = (noise if exact.all() else np.where(exact, noise, 0.0)).astype(np.int64)
    if _within(2.0**62, local, whole):   # no int64 sum can wrap
        stamped = np.add(local, whole, out=whole)
    else:
        stamped = local + whole
        wrapped = (_wrapped(local, whole, stamped) != 0) & exact
        if np.any(wrapped if where is None else wrapped & where):
            raise TickOverflowError("a timestamp falls outside the signed 64-bit range")
    for j in np.flatnonzero(~exact).tolist():
        rows_j = _columns(where, j)
        stamped[rows_j, j] = [in_tick_range(x + int(n))
                              for x, n in zip(local[rows_j, j].tolist(), noise[rows_j, j].tolist())]
    return stamped


def set_readings(clocks: Sequence[ClockState], which: np.ndarray, at: np.ndarray, reading: np.ndarray) -> np.ndarray:
    """ClockState.set for many steps of clocks that have taken none yet: step
    i sets ``clocks[which[i]]`` to read ``reading[i]`` at true time ``at[i]``.
    Each clock's steps are contiguous and in time order. Installs them and
    returns the step each one takes, with set's range checks.

    With u_i the clock's unstepped reading at ``at[i]``, the correction after
    step i is c_i = reading_i - u_i, so step i is c_{i-1} - c_i (c = 0 before
    the first step): a same-tick step reads what the previous one installed.
    The arithmetic is int64 while every term is small, else exact Python
    ints in object arrays, and so is the result.
    """
    if not len(which):
        return np.empty(0, dtype=np.int64)
    skew, half_drift = _rates(clocks)
    rounded = _perturbation(skew[which], half_drift[which], at)
    theta0 = [clock.params.theta0 for clock in clocks]
    small = (reading.dtype != object and _within(_SMALL, reading, at, rounded)
             and max(map(abs, theta0)) < _SMALL)
    if small:
        theta0, rounded = np.array(theta0, dtype=np.int64)[which], rounded.astype(np.int64)
    else:
        theta0, rounded = np.array(theta0, dtype=object)[which], np.frompyfunc(int, 1, 1)(rounded)
        at, reading = at.astype(object), reading.astype(object)
    unstepped = theta0 + at + rounded
    correction = reading - unstepped
    first = np.ones(len(which), dtype=bool)
    first[1:] = which[1:] != which[:-1]
    before = unstepped + np.where(first, 0, np.roll(correction, 1))   # each step's read of the clock
    outside = (before < INT64_MIN) | (before > INT64_MAX) | (reading < INT64_MIN) | (reading > INT64_MAX)
    if not small and np.any(outside):
        raise TickOverflowError("a local timestamp falls outside the signed 64-bit range")
    starts = np.flatnonzero(first).tolist()
    for start, stop in zip(starts, starts[1:] + [len(which)]):
        clock = clocks[which[start]]
        if clock.installed_at:
            raise ValueError("set_readings steps only clocks that have taken no step")
        clock.installed_at, clock.correction = at[start:stop].tolist(), correction[start:stop].tolist()
        clock._arrays = None
    return before - reading
