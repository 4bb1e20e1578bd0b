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
set_readings() is ClockState.set for many steps of fresh clocks at once, and
read_steps() its inverse; like set, set_readings records in
ClockState.overflow a step whose delta or error after it falls outside the
signed 64-bit range. Their arithmetic follows one rule: int64 while every
term is small enough that no sum of a few can wrap, and exact Python ints in
object arrays otherwise (whole() makes that choice), with the signed 64-bit
range checked on the exact sums only. The bulk readers make that
choice clock by clock: only the columns that hold a large term (every
column, when the shared instants do) are summed in exact ints.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engine import RngStream
from .errors import TickOverflowError
from .timebase import INT64_MAX, INT64_MIN, TICKS_PER_SECOND

_BLOCK = 1 << 14   # elements a bulk read evaluates at once: bounds its float temporaries
_SMALL = 2**59     # int64 sums and differences of a few terms this small cannot wrap


class ClockParams(NamedTuple):
    """Oscillator quality: initial phase (ticks), skew, drift, stamp noise."""

    theta0: int = 0
    skew_y: float = 0.0
    drift_a: float = 0.0           # fractional frequency change per second
    stamp_noise_sigma: float = 0.0  # ticks


class ClockState:
    """One node's clock trajectory: its parameters plus every step it took.

    ``installed_at[i]`` is the true instant of step i (non-decreasing) and
    ``correction[i]`` the total correction in force from then on. A clock
    with no steps holds its drawn phase throughout. ``overflow`` names the
    correction-log columns, "delta" and "error_after", that some step taken
    by set or set_readings puts outside the signed 64-bit range.
    """

    __slots__ = ("params", "installed_at", "correction", "overflow", "_arrays")

    def __init__(self, params: ClockParams = ClockParams()):
        self.params = params
        self.installed_at: list[int] = []
        self.correction: list[int] = []
        self.overflow: frozenset[str] = frozenset()
        self._arrays: Optional[tuple] = None

    def __repr__(self) -> str:
        return f"ClockState(params={self.params!r}, installed_at={self.installed_at!r}, correction={self.correction!r})"

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
        if not INT64_MIN <= delta <= INT64_MAX:
            self.overflow |= {"delta"}
        if not INT64_MIN <= reading - at <= INT64_MAX:
            self.overflow |= {"error_after"}
        return delta

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The trajectory as arrays, built once: the step instants (int64),
        and the reading's base (theta0 plus the correction in force) before
        the first step and from each step on, as whole() gives it: int64
        while every value fits, else exact Python ints."""
        if self._arrays is None:
            base = np.array([0, *self.correction], dtype=object) + self.params.theta0
            self._arrays = (np.array(self.installed_at, dtype=np.int64), whole(base, 2.0**63))
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


_exact = np.frompyfunc(int, 1, 1)   # whole numbers as exact Python ints, in an object array


def whole(values: np.ndarray, bound: float = _SMALL) -> np.ndarray:
    """Whole numbers (ints or whole floats, in any array) as int64 while every
    one lies strictly within +-``bound``, else as exact Python ints in an
    object array. A sum of a few such arrays is exact either way: int64
    cannot wrap on terms this small, and one exact term makes the sum exact."""
    return values.astype(np.int64) if _within(bound, values) else _exact(values)


def _in_range(total: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
    """An exact sum ``total``, raising TickOverflowError if an entry that
    ``where`` marks (any entry, without it) falls outside the signed 64-bit
    range; unmarked entries become 0. An int64 ``total`` is in range and
    comes back as it is."""
    if total.dtype != object:
        return total
    if where is not None:
        total = np.where(where, total, 0)
    if np.any((total < INT64_MIN) | (total > INT64_MAX)):
        raise TickOverflowError("a local timestamp falls outside the signed 64-bit range")
    return total


def _perturbation(skew: np.ndarray, half_drift: np.ndarray, t: np.ndarray) -> np.ndarray:
    """local_time's rounded skew and drift term, as whole float64s: per-clock
    ``skew`` and ``half_drift`` (0.5 * drift) broadcast against int64
    instants ``t``, in local_time's float operations and order. Without
    drift its term is a signed zero, which changes no rounded sum."""
    if not half_drift.any():
        return np.rint(skew * t)
    t_seconds = t / TICKS_PER_SECOND
    if not _within(2**53 + 1, t):
        wide = (t > 2**53) | (t < -(2**53))   # Python divides such an int exactly; numpy rounds it to a double first
        t_seconds[wide] = [x / TICKS_PER_SECOND for x in t[wide].tolist()]
    return np.rint(skew * t + half_drift * t_seconds * t)


def _rates(clocks: Sequence[ClockState]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([c.params.skew_y for c in clocks], dtype=float),
            np.array([0.5 * c.params.drift_a for c in clocks], dtype=float))


def _within(bound: float, *arrays: np.ndarray) -> bool:
    """Whether every value of ``arrays`` lies strictly within +-``bound``
    (False for a NaN). The extremes are compared as Python numbers, exactly
    and faster than numpy scalars."""
    for x in arrays:
        if x.size:
            low, high = (x.min(), x.max()) if x.dtype == object else (x.min().item(), x.max().item())
            if not (-bound < low and high < bound):
                return False
    return True


def _wide(bound: float, *arrays: np.ndarray) -> np.ndarray:
    """Per column of the (rows x columns) ``arrays``, at least one row each:
    whether some value lies outside +-``bound`` (or is a NaN). A one-column
    array counts for every column."""
    small = True
    for x in arrays:
        small = small & (-bound < x.min(axis=0)) & (x.max(axis=0) < bound)
    return ~small


def _sum(bound: float, terms: Sequence[np.ndarray], where: Optional[np.ndarray]) -> np.ndarray:
    """The sum of ``terms``, (rows x columns) arrays of whole numbers, as
    int64; a one-column term after the first counts for every column. A
    column is summed in int64 while each of its terms lies within
    +-``bound``, else in exact ints, range-checked as _in_range does under
    ``where``. May write into the first term."""
    if _within(bound, *terms):
        return _add(terms)
    wide = _wide(bound, *terms)
    total = np.empty(np.broadcast_shapes(*(term.shape for term in terms)), dtype=np.int64)
    if not wide.all():
        total[:, ~wide] = _add([term[:, ~wide] if term.shape[1] > 1 else term for term in terms])
    exact = [_exact(term[:, wide] if term.shape[1] > 1 else term) for term in terms]
    total[:, wide] = _in_range(sum(exact[1:], exact[0]), None if where is None else where[:, wide])
    return total


def _add(terms: Sequence[np.ndarray]) -> np.ndarray:
    """The int64 sum of ``terms``, each within int64 and small enough that
    the sum cannot wrap; into the first term when that is int64."""
    total = terms[0] if terms[0].dtype == np.int64 else terms[0].astype(np.int64)
    for term in terms[1:]:
        total += term.astype(np.int64, copy=False)
    return total


def local_times(clocks: Sequence[ClockState], t_true: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
    """local_time of many clocks at once: column j of the int64 (instants x
    clocks) matrix ``t_true`` is read by ``clocks[j]``; an (instants x 1)
    matrix is read by every clock. The same float operations in the same
    order as local_time, and TickOverflowError exactly where it raises.

    With ``where`` (a boolean matrix of the result's shape) only the marked
    instants are read and checked; the other entries are left undefined.
    _BLOCK elements are evaluated at a time, which bounds the temporaries:
    a block sums base, instant and perturbation in int64 for the clocks
    whose terms are all below 2**61, so that no sum wraps, and in exact ints
    for the others.
    """
    t = np.asarray(t_true, dtype=np.int64)
    trajectories = [clock.arrays() for clock in clocks]
    exact = any(base.dtype == object for _, base in trajectories)
    local = np.empty((len(t), len(clocks)), dtype=object if exact else np.int64)
    for j, (installed_at, base) in enumerate(trajectories):   # the base in force at each instant, into the result
        local[:, j] = base[np.searchsorted(installed_at, t[:, j if t.shape[1] > 1 else 0], "right")]
    skew, half_drift = _rates(clocks)
    rows = max(1, _BLOCK // max(1, len(clocks)))
    for start in range(0, len(t), rows):
        block = slice(start, start + rows)
        tb = t[block]
        local[block] = _sum(2.0**61, (local[block], tb, _perturbation(skew, half_drift, tb)),
                            None if where is None else where[block])
    return local.astype(np.int64, copy=False)


def stamps(clocks: Sequence[ClockState], t_true: np.ndarray, rngs: Sequence[Optional[RngStream]],
           where: Optional[np.ndarray] = None) -> np.ndarray:
    """stamp of many clocks at once: local_times, plus for column j the stamp
    noise of ``clocks[j]``, drawn from ``rngs[j]`` one instant after another
    down the column (only the marked ones under ``where``), added by
    add_noise. The same values and the same draws as successive stamp calls;
    a column that draws nothing (no instant, or no stamp noise) may have no
    stream."""
    local = local_times(clocks, t_true, where)
    marked = np.ones(local.shape, dtype=bool) if where is None else where
    noise = np.zeros(local.shape)
    for j, (clock, rng, count) in enumerate(zip(clocks, rngs, np.count_nonzero(marked, axis=0).tolist())):
        if clock.params.stamp_noise_sigma and count:
            noise[marked[:, j], j] = rng.gauss_ticks(clock.params.stamp_noise_sigma, count)
    return add_noise(local, noise, where)


def add_noise(local: np.ndarray, noise: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
    """The readings ``local`` (int64, instants x clocks) plus the whole
    float64 stamp ``noise``, with stamp's range check on each sum (only the
    marked ones under ``where``): in int64 for the clocks whose terms are all
    below 2**62, and in exact ints for the others. May write into ``local``."""
    return _sum(2.0**62, (local, noise), where)


def set_readings(clocks: Sequence[ClockState], which: np.ndarray, at: np.ndarray, reading: np.ndarray) -> None:
    """ClockState.set for many steps of clocks that have taken none yet: step
    i sets ``clocks[which[i]]`` to read ``reading[i]`` at true time ``at[i]``.
    Each clock's steps are contiguous and in time order. Installs them, with
    set's range checks on each step's read and reading, and records in
    ``overflow`` what set records.

    With u_i the clock's unstepped reading at ``at[i]``, the correction after
    step i is c_i = reading_i - u_i, and step i reads u_i + c_{i-1} (c = 0
    before the first step). Each term goes through whole(): int64 while
    below 2**59, so that no sum of the few here wraps, else exact ints.
    """
    if not len(which):
        return
    skew, half_drift = _rates(clocks)
    rounded = whole(_perturbation(skew[which], half_drift[which], at))
    theta0 = whole(np.array([clock.params.theta0 for clock in clocks], dtype=object))[which]
    at, reading = whole(at), whole(reading)
    unstepped = theta0 + at + rounded
    correction = reading - unstepped
    first = np.ones(len(which), dtype=bool)
    first[1:] = which[1:] != which[:-1]
    previous = np.zeros_like(correction)   # the correction in force before each step
    previous[1:] = correction[:-1]
    previous[first] = 0
    read = _in_range(unstepped + previous)   # each step's read of the clock
    _in_range(reading)
    # in int64 every term is below 2**59, so the delta and the error after lie in range
    wide = {name: (value < INT64_MIN) | (value > INT64_MAX)
            for name, value in (("delta", read - reading), ("error_after", reading - at)) if value.dtype == object}
    starts = np.flatnonzero(first).tolist()
    for start, stop in zip(starts, starts[1:] + [len(which)]):
        clock = clocks[which[start]]
        if clock.installed_at:
            raise ValueError("set_readings steps only clocks that have taken no step")
        clock.installed_at, clock.correction = at[start:stop].tolist(), correction[start:stop].tolist()
        if wide:
            clock.overflow = frozenset(name for name, outside in wide.items() if outside[start:stop].any())
        clock._arrays = None


def read_steps(clocks: Sequence[ClockState]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """set_readings inverted: every step of ``clocks``, clock by clock, as
    (which, at, delta, error). Step i took ``clocks[which[i]]``'s reading
    down by ``delta[i]`` (the arrays() base before it minus the base after)
    at true time ``at[i]``, to ``at[i] + error[i]`` (the base after plus the
    rounded perturbation). By whole()'s rule; not range-checked. Reads only
    each clock's arrays() and params, so a finished trajectory kept without
    its clock (scenario.SteppedClock) reads the same."""
    trajectories = [clock.arrays() for clock in clocks]
    which = np.repeat(np.arange(len(clocks)), [len(installed_at) for installed_at, _ in trajectories])
    if not len(which):
        return which, *(np.empty(0, dtype=np.int64),) * 3
    at = np.concatenate([installed_at for installed_at, _ in trajectories])
    base = whole(np.concatenate([base for _, base in trajectories]))
    after = np.arange(len(which)) + which + 1   # a clock's bases are one more than its steps
    skew, half_drift = _rates(clocks)
    error = base[after] + whole(_perturbation(skew[which], half_drift[which], at))
    return which, at, base[after - 1] - base[after], error
