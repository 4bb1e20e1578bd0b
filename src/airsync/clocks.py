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

local_time() and stamp() read one clock at one instant. local_times() and
stamps() are the bulk readers: they read many clocks at once, each at its
own int64 instants, and give exactly what local_time() and successive
stamp() calls give, raising TickOverflowError on the same inputs;
clock_errors() and broadcast_stamps() are local_times for the error samples
and for stamps whose noise is drawn already (a SIB16 BS's broadcasts, a RIBS
anchor's reference signals). set_readings() is the one way a clock steps: it
installs every step of fresh clocks at once, each given as the reading the
clock adopts and when, and read_steps() is its inverse. set_readings records
in ClockState.overflow a step whose delta or error after it falls outside
the signed 64-bit range. unstepped_readings() reads a clock before its
steps, unchecked, for a caller that works out its steps itself (the
two-way exchange pass in scenario.py). Their arithmetic follows one
rule: int64 while every term lies below _SMALL, so that no sum of the few
here can wrap, and exact Python ints in object arrays otherwise, with the
signed 64-bit range checked on the exact sums only. The rule is decided
from bounds already at hand, not by scanning the terms: each trajectory
keeps its reach (the largest |base|), the instants' reach is one min/max,
and the perturbation is bounded by |y| * T + |a/2| * T * T / TICKS_PER_SECOND
for instants within +-T. The bulk readers decide clock by clock: only the
columns of a clock with a large term (every column, when the instants are
large) are summed in exact ints.
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


class Trajectory(NamedTuple):
    """A clock's steps as arrays: the step instants (int64), the reading's
    base (theta0 plus the correction in force) before the first step and
    from each step on, int64 while every value fits, else exact Python ints,
    and the base's reach, max |base|, as a Python int."""

    installed_at: np.ndarray
    base: np.ndarray
    reach: int


_NO_STEPS = np.empty(0, dtype=np.int64)   # every unstepped clock's step instants
_NO_STEPS.flags.writeable = False


class ClockState:
    """One node's clock: its drawn parameters and its trajectory, which
    holds no step until clocks.set_readings installs them all. ``overflow``
    names the correction-log columns, "delta" and "error_after", that some
    step set_readings installed puts outside the signed 64-bit range.
    """

    __slots__ = ("params", "trajectory", "overflow")

    def __init__(self, params: ClockParams = ClockParams()):
        self.params = params
        reach = abs(params.theta0)
        self.trajectory = Trajectory(_NO_STEPS, np.array([params.theta0], dtype=np.int64 if reach < 2**63 else object),
                                     reach)
        self.overflow: frozenset[str] = frozenset()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.params!r}, trajectory={self.trajectory!r})"


def ideal_clock() -> ClockState:
    return ClockState()


def in_tick_range(local: int) -> int:
    """``local``, if it fits a signed 64-bit timestamp."""
    if not (INT64_MIN <= local <= INT64_MAX):
        raise TickOverflowError(f"local timestamp {local} outside signed 64-bit range")
    return local


def local_time(state: ClockState, t_true: int) -> int:
    """Deterministic local reading (ticks, signed) at true time t_true: the
    one-instant reader, which the bulk readers reproduce."""
    p = state.params
    installed_at, base, _ = state.trajectory
    t_seconds = t_true / TICKS_PER_SECOND
    perturbation = p.skew_y * t_true + 0.5 * p.drift_a * t_seconds * t_true
    return in_tick_range(int(base[bisect_right(installed_at, t_true)]) + t_true + round(perturbation))


def stamp(state: ClockState, t_true: int, rng: RngStream) -> int:
    """Local reading with Gaussian timestamping noise, rounded to a tick."""
    local = local_time(state, t_true) + rng.gauss_ticks(state.params.stamp_noise_sigma)
    return in_tick_range(local)


def clock_error(state: ClockState, t_true: int) -> int:
    """Signed error of the local clock against the reference (local - true)."""
    return local_time(state, t_true) - t_true


# --- bulk: many clocks, many instants, one numpy pass ----------------------------------


_exact = np.frompyfunc(int, 1, 1)   # whole numbers as exact Python ints, in an object array


def _reach(values: np.ndarray):
    """The largest |value| of ``values`` as a Python number (0 for none, NaN
    if one is a NaN), from its extremes: Python numbers compare exactly and
    faster than numpy scalars."""
    if not values.size:
        return 0
    low, high = np.minimum.reduce(values, axis=None), np.maximum.reduce(values, axis=None)
    if values.dtype != object:
        low, high = low.item(), high.item()
    return max(-low, high)


def whole(values: np.ndarray, bound: float = _SMALL) -> np.ndarray:
    """Whole numbers (ints or whole floats, in any array) as int64 while every
    one lies strictly within +-``bound``, else as exact Python ints in an
    object array. A sum of a few such arrays is exact either way: int64
    cannot wrap on terms this small, and one exact term makes the sum exact.
    Scans ``values``; the bulk readers decide from bounds instead."""
    return values.astype(np.int64) if _reach(values) < bound else _exact(values)


def _in_range(total: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
    """An exact sum ``total`` (exact ints), raising TickOverflowError if an
    entry that ``where`` marks (any entry, without it) falls outside the
    signed 64-bit range; unmarked entries become 0."""
    if where is not None:
        total = np.where(where, total, 0)
    if np.any((total < INT64_MIN) | (total > INT64_MAX)):
        raise TickOverflowError("a local timestamp falls outside the signed 64-bit range")
    return total


def _perturbation(skew: np.ndarray, half_drift: np.ndarray, t: np.ndarray, reach: int) -> np.ndarray:
    """local_time's rounded skew and drift term, as whole float64s: per-clock
    ``skew`` and ``half_drift`` (0.5 * drift) broadcast against int64
    instants ``t``, all within +-``reach``, in local_time's float operations
    and order. Without drift its term is a signed zero, which changes no
    rounded sum."""
    if not half_drift.any():
        return np.rint(skew * t)
    t_seconds = t / TICKS_PER_SECOND
    if reach > 2**53:
        wide = (t > 2**53) | (t < -(2**53))   # Python divides such an int exactly; numpy rounds it to a double first
        t_seconds[wide] = [x / TICKS_PER_SECOND for x in t[wide].tolist()]
    return np.rint(skew * t + half_drift * t_seconds * t)


def _small_perturbation(clocks: Sequence[ClockState], reach: int) -> list[bool]:
    """Per clock, whether its _perturbation lies below _SMALL at every
    instant within +-``reach`` (False for a NaN rate): whether the bound
    |y| * T + |a/2| * (T / TICKS_PER_SECOND) * T does. It takes the same
    float operations in the same order as _perturbation on the largest
    magnitudes, and each is monotone, so it is at least every term before
    rounding; below _SMALL it lies at least one ulp (64) under it, more
    than rint adds."""
    scale = reach / TICKS_PER_SECOND
    return [abs(c.params.skew_y) * reach + abs(0.5 * c.params.drift_a) * scale * reach < _SMALL for c in clocks]


def _rates(clocks: Sequence[ClockState]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([c.params.skew_y for c in clocks], dtype=float),
            np.array([0.5 * c.params.drift_a for c in clocks], dtype=float))


def _sum(terms: Sequence[np.ndarray], wide: Sequence[bool], where: Optional[np.ndarray]) -> np.ndarray:
    """The sum of ``terms``, (rows x columns) arrays of whole numbers, as
    int64; a one-column term after the first counts for every column. The
    columns ``wide`` marks are summed in exact ints, range-checked as
    _in_range does under ``where``; the others in int64, which the caller's
    bounds keep from wrapping. May write into the first term."""
    if not any(wide):
        return _add(terms)
    wide = np.array(wide, dtype=bool)
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


def _read(clocks: Sequence[ClockState], t: np.ndarray, where: Optional[np.ndarray] = None
          ) -> tuple[np.ndarray, list[bool]]:
    """local_times, and per clock whether its column was summed in exact
    ints: some term of it (its base, an instant or its perturbation) may
    reach _SMALL. Every other column's terms lie below _SMALL, so each of
    its readings lies within +-3 * _SMALL."""
    trajectories = [clock.trajectory for clock in clocks]
    skew, half_drift = _rates(clocks)
    reach = _reach(t)
    wide = [reach >= _SMALL or trajectory.reach >= _SMALL or not small
            for trajectory, small in zip(trajectories, _small_perturbation(clocks, reach))]
    exact = any(base.dtype == object for _, base, _ in trajectories)
    local = np.empty((len(t), len(clocks)), dtype=object if exact else np.int64)
    for j, (installed_at, base, _) in enumerate(trajectories):   # the base in force at each instant, into the result
        local[:, j] = base[installed_at.searchsorted(t[:, j if t.shape[1] > 1 else 0], "right")]
    rows = max(1, _BLOCK // max(1, len(clocks)))
    for start in range(0, len(t), rows):
        block = slice(start, start + rows)
        tb = t[block]
        local[block] = _sum((local[block], tb, _perturbation(skew, half_drift, tb, reach)), wide,
                            None if where is None else where[block])
    return local.astype(np.int64, copy=False), wide


def local_times(clocks: Sequence[ClockState], t_true: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
    """local_time of many clocks at once: column j of the int64 (instants x
    clocks) matrix ``t_true`` is read by ``clocks[j]``; an (instants x 1)
    matrix is read by every clock. The same float operations in the same
    order as local_time, and TickOverflowError exactly where it raises.

    With ``where`` (a boolean matrix of the result's shape) only the marked
    instants are read and checked; the other entries are left undefined.
    _BLOCK elements are evaluated at a time, which bounds the temporaries.
    A clock's column is summed in int64 when its trajectory's reach, the
    instants' reach and its perturbation bound all lie below _SMALL, and in
    exact ints otherwise.
    """
    return _read(clocks, np.asarray(t_true, dtype=np.int64), where)[0]


def clock_errors(clocks: Sequence[ClockState], t_true: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """clock_error of many clocks at once, at the non-negative int64
    instants ``t_true`` (an instants x 1 matrix): the (instants x clocks)
    matrix of local_times less the instants, and the indices of the clocks
    some error of which falls below the signed 64-bit range (their columns
    are left undefined). Only the exact-int columns of the read can wrap,
    so only they are checked."""
    t = np.asarray(t_true, dtype=np.int64)
    local, wide = _read(clocks, t)
    wrapped = np.flatnonzero(wide)
    if len(wrapped):   # local - t < INT64_MIN
        wrapped = wrapped[np.any(local[:, wrapped] < INT64_MIN + t, axis=0)]
    return np.subtract(local, t, out=local), wrapped


def stamps(clocks: Sequence[ClockState], t_true: np.ndarray, rngs: Sequence[Optional[RngStream]],
           where: Optional[np.ndarray] = None) -> np.ndarray:
    """stamp of many clocks at once: local_times, plus for column j the stamp
    noise of ``clocks[j]``, drawn from ``rngs[j]`` one instant after another
    down the column (only the marked ones under ``where``), with stamp's
    range check on each sum. The same values and the same draws as
    successive stamp calls; a column that draws nothing (no instant, or no
    stamp noise) may have no stream. A column is summed in int64 when its
    read was and its noise lies below _SMALL, and in exact ints otherwise."""
    local, wide = _read(clocks, np.asarray(t_true, dtype=np.int64), where)
    marked = np.ones(local.shape, dtype=bool) if where is None else where
    noise = np.zeros(local.shape)
    for j, (clock, rng, count) in enumerate(zip(clocks, rngs, np.count_nonzero(marked, axis=0).tolist())):
        if clock.params.stamp_noise_sigma and count:
            noise[marked[:, j], j] = rng.gauss_ticks(clock.params.stamp_noise_sigma, count)
    reach = np.maximum(-noise.min(axis=0, initial=0.0), noise.max(axis=0, initial=0.0))   # no matrix-sized temporary
    wide = np.array(wide, dtype=bool) | ~(reach < _SMALL)
    return _sum((local, noise), wide, where)


def broadcast_stamps(clock: ClockState, t_true: np.ndarray, noise: np.ndarray, grid: int) -> np.ndarray:
    """What ``clock`` stamps at each of the int64 instants ``t_true`` with the
    whole float64 stamp ``noise`` drawn for it: stamp's values, and its
    TickOverflowError. In int64 while the read's terms, the noise and
    ``grid``, the granularity the caller then floors the stamps to, all lie
    below _SMALL, so that neither the sums nor the floor (nor a delay of
    less than _SMALL added after it) can wrap; else in exact ints."""
    local, wide = _read([clock], np.asarray(t_true, dtype=np.int64)[:, None])
    if wide[0] or not (_reach(noise) < _SMALL and grid < _SMALL):
        return _in_range(_exact(local[:, 0]) + _exact(noise))
    return local[:, 0] + noise.astype(np.int64)


def set_readings(clocks: Sequence[ClockState], which: np.ndarray, at: np.ndarray, reading: np.ndarray) -> None:
    """Every step of clocks that have taken none yet, installed at once: step
    i sets ``clocks[which[i]]`` to read ``reading[i]`` at true time ``at[i]``
    (int64). Each clock's steps are contiguous and in time order. Raises
    TickOverflowError if a step's read of the clock before it (local_time's
    value) or its reading falls outside the signed 64-bit range; records in
    ``overflow`` a step whose delta (the read minus the reading) or error
    after (the reading minus the instant) does; and installs each clock's
    trajectory.

    With u_i the clock's unstepped reading at ``at[i]``, the correction after
    step i is c_i = reading_i - u_i, and step i reads u_i + c_{i-1} (c = 0
    before the first step). All of it is in int64 when every phase, instant,
    reading and perturbation bound lies below _SMALL, so that no sum of the
    few here wraps, else in exact ints.
    """
    if not len(which):
        return
    skew, half_drift = _rates(clocks)
    phase = [clock.params.theta0 for clock in clocks]
    reach = _reach(at)
    rounded = _perturbation(skew[which], half_drift[which], at, reach)
    first = np.ones(len(which), dtype=bool)   # each clock's first step
    first[1:] = which[1:] != which[:-1]
    wide = {}   # per correction-log column, the steps that put it outside int64
    if (max(map(abs, phase)) < _SMALL and reach < _SMALL and _reach(reading) < _SMALL
            and all(_small_perturbation(clocks, reach))):
        # every read, delta and error after is a sum of a few terms below _SMALL: in range
        theta0 = np.array(phase, dtype=np.int64)[which]
        correction = reading.astype(np.int64, copy=False) - (theta0 + at + rounded.astype(np.int64))
    else:
        theta0, instants, reading = np.array(phase, dtype=object)[which], _exact(at), _exact(reading)
        unstepped = theta0 + instants + _exact(rounded)
        correction = reading - unstepped
        previous = np.zeros_like(correction)   # the correction in force before each step
        previous[1:] = correction[:-1]
        previous[first] = 0
        read = _in_range(unstepped + previous)   # each step's read of the clock
        _in_range(reading)
        wide = {name: (value < INT64_MIN) | (value > INT64_MAX)
                for name, value in (("delta", read - reading), ("error_after", reading - instants))}
    after = theta0 + correction   # the base from each step on
    starts = np.flatnonzero(first).tolist()
    reaches = np.maximum.reduceat(np.abs(after), starts).tolist()
    for start, stop, reach in zip(starts, starts[1:] + [len(which)], reaches):
        clock = clocks[which[start]]
        if len(clock.trajectory.installed_at):
            raise ValueError("set_readings steps only clocks that have taken no step")
        if wide:
            clock.overflow = frozenset(name for name, outside in wide.items() if outside[start:stop].any())
        reach = max(abs(clock.params.theta0), reach)
        base = np.empty(stop - start + 1, dtype=np.int64 if reach < 2**63 else object)
        base[0], base[1:] = clock.params.theta0, after[start:stop]
        clock.trajectory = Trajectory(at[start:stop], base, reach)


def unstepped_readings(clock: ClockState, t_true: np.ndarray) -> np.ndarray:
    """What ``clock`` reads at the int64 instants ``t_true`` before any step,
    not range-checked: local_time's sum without the correction, which may
    leave int64 where the corrected reading does not. In int64 while its
    phase, the instants and its perturbation bound lie below _SMALL, so each
    reading lies within +-3 * _SMALL; else in exact ints."""
    theta0, reach = clock.params.theta0, _reach(t_true)
    rounded = _perturbation(*_rates([clock]), t_true, reach)
    if abs(theta0) < _SMALL and reach < _SMALL and _small_perturbation([clock], reach)[0]:
        return theta0 + t_true + rounded.astype(np.int64)
    return theta0 + _exact(t_true) + _exact(rounded)


def read_steps(clocks: Sequence[ClockState]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """set_readings inverted: every step of ``clocks``, clock by clock, as
    (which, at, delta, error). Step i took ``clocks[which[i]]``'s reading
    down by ``delta[i]`` (the trajectory's base before it minus the base after)
    at true time ``at[i]``, to ``at[i] + error[i]`` (the base after plus the
    rounded perturbation). In int64 while the bases' reaches and the
    perturbation bound lie below _SMALL, else in exact ints; not
    range-checked. Reads only each clock's trajectory and params, so a
    finished trajectory kept without its clock (scenario.SteppedClock)
    reads the same."""
    trajectories = [clock.trajectory for clock in clocks]
    which = np.repeat(np.arange(len(clocks)), [len(installed_at) for installed_at, _, _ in trajectories])
    if not len(which):
        return which, *(np.empty(0, dtype=np.int64),) * 3
    at = np.concatenate([installed_at for installed_at, _, _ in trajectories])
    base = np.concatenate([base for _, base, _ in trajectories])
    after = np.arange(len(which)) + which + 1   # a clock's bases are one more than its steps
    skew, half_drift = _rates(clocks)
    reach = _reach(at)
    rounded = _perturbation(skew[which], half_drift[which], at, reach)
    base = base if max(trajectory.reach for trajectory in trajectories) < _SMALL else _exact(base)
    rounded = rounded.astype(np.int64) if all(_small_perturbation(clocks, reach)) else _exact(rounded)
    return which, at, base[after - 1] - base[after], base[after] + rounded
