"""Imperfect local clocks: phase offset, fractional skew, aging drift, noise.

A node's clock is one trajectory over the run: its drawn parameters plus the
steps it took. Its reading at true time t is a pure function of t,

    local(t) = theta0 + correction(t) + (1 + y) * t + (a/2) * t_s * t

with t in ticks, t_s the same instant in seconds, y the fractional frequency
offset, a the aging rate per second and correction(t) the total of the steps
installed at or before t. The integer terms are kept exact; only the small
skew/drift perturbation p(t) is evaluated in double precision and rounded to
a tick (error below one tick for horizons up to ~1e4 s). Timestamp noise
enters solely through stamp().

local_time() and stamp() read one clock at one instant, in Python ints,
with a range check: they are the reference. local_times() and stamps() are
the bulk readers: they read many clocks at once, each at its own int64
instants, and give exactly what local_time() and stamp() give, the stamp
noise drawn by the caller. clock_errors() is local_times less the instants.
set_readings() is the one way a clock steps: it installs every step of fresh
clocks at once, each given as the reading the clock adopts and when, and
read_steps() is its inverse. unstepped_readings() reads a clock before its
steps, for the two-way exchange pass in scenario.py, which works out its
steps itself.

Every bulk sum is in int64 and none can wrap, because validate_config bounds
every tick quantity that a reading sums by M = timebase.MAX_TICKS = 2**53.
The proof, with every assumption it takes:

- Instants. A bulk read is at an instant in [0, M + 1]. Samples, steps and
  stamps lie within the run (duration <= M); a command that is not delivered
  is read at the run's end plus one, and that read is discarded. A
  propagation or extra delay only moves an instant, and an instant past the
  run is clipped to its end (a command's arrival, a SIB16 send) or sends
  nothing (a two-way exchange, a RIBS round): the delay itself enters no
  reading. Nor can an arrival's own sum wrap before it is clipped: an extra
  delay is clipped at 2**62 as it is drawn, and a propagation delay lies
  below 2**59 (positions within 1e15 m). Up to 2**53 an int64 instant
  converts to float64 exactly, so the bulk readers' float operations are
  local_time's.
- The perturbation. |y| < 1e-3, and the drift rule bounds |a/2| * T * T /
  TICKS_PER_SECOND by M at the latest instant T any clock is read, so
  |p(t)| < 2**44 + M + 1 < 2**54.
- Noise. numpy's normal draw lies within 14 standard deviations: its
  ziggurat's core lies within r = 3.654, its tail within r - ln(2**-53) / r =
  13.7, taking a 53-bit uniform. So a stamp or relay noise of sigma <= M lies
  below 2**57.
- Smaller terms. A TA estimate lies below 2**38: an initial index is at most
  1282, and each TA timer expiry (500 ms apart at least) adds at most 32. A
  SIB16 reading is its stamp floored by a granularity g <= M, and a steered
  BS's offset is at most M.
- Errors. A clock's error e(t) = local(t) - t is its base plus p(t). From a
  step at a to the reading r on, it is (r - a) + p(t) - p(a), within
  |r - a| + 2**55. Unstepped or steered (|r - a| <= M), |e| < 2**56. A RIBS
  BS adopts the anchor's stamp (plus a TA estimate) one propagation delay
  (at most M) after it is stamped: |r - a| < 2**56 + 2**57 + M + 2**38.
  A two-way exchange (at most one in flight, so the responder's stamps and
  its landing share one correction) leaves the responder the error
  e(L) - offset = (e_i(t1) + e_i(t4)) / 2 + the responder's p(L) - (p(t2) +
  p(t3)) / 2 - (forward - back) / 2 - (n2 + n3 - n1 - n4) / 2, with n1 to
  n4 its stamp noise, within one tick: below |e_i| + 2**55 + M / 2 +
  2**58 + 1, for the initiator's error e_i and both delays within the run. So a BS errs below 2**59, a device
  (a SIB16 reading adds its noise, g, the flight time and its TA estimate)
  below 2**60, and a legacy device, which adds its relay noise, below 2**61.
- Sums. So every base lies within 2**61 + 2**54, every reading and every
  stamp within 2**62, and a step's delta, the difference of two bases,
  within 2**62 + 2**55. The two-way pass sums the responder's two unstepped
  stamps (each below 2**58) less the initiator's two (a BS's, each below
  2**60). Every sum is below 2**63.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from .engine import RngStream
from .errors import TickOverflowError
from .timebase import INT64_MAX, INT64_MIN, TICKS_PER_SECOND

_BLOCK = 1 << 14   # elements a bulk read evaluates at once: bounds its float temporaries


class ClockParams(NamedTuple):
    """Oscillator quality: initial phase (ticks), skew, drift, stamp noise."""

    theta0: int = 0
    skew_y: float = 0.0
    drift_a: float = 0.0           # fractional frequency change per second
    stamp_noise_sigma: float = 0.0  # ticks


class Trajectory(NamedTuple):
    """A clock's steps as int64 arrays: the step instants, and the reading's
    base (theta0 plus the correction in force) before the first step and
    from each step on."""

    installed_at: np.ndarray
    base: np.ndarray


_NO_STEPS = np.empty(0, dtype=np.int64)   # every unstepped clock's step instants
_NO_STEPS.flags.writeable = False


class ClockState:
    """One node's clock: its drawn parameters and its trajectory, which
    holds no step until clocks.set_readings installs them all."""

    __slots__ = ("params", "trajectory")

    def __init__(self, params: ClockParams = ClockParams()):
        self.params = params
        self.trajectory = Trajectory(_NO_STEPS, np.array([params.theta0], dtype=np.int64))

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
    installed_at, base = state.trajectory
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


def _perturbation(skew: np.ndarray, half_drift: np.ndarray, t: np.ndarray) -> np.ndarray:
    """local_time's rounded skew and drift term, as int64: per-clock ``skew``
    and ``half_drift`` (0.5 * drift) broadcast against int64 instants ``t``,
    in local_time's float operations and order. Without drift its term is a
    signed zero, which changes no rounded sum."""
    if not half_drift.any():
        return np.rint(skew * t).astype(np.int64)
    return np.rint(skew * t + half_drift * (t / TICKS_PER_SECOND) * t).astype(np.int64)


def _rates(clocks: Sequence[ClockState]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([c.params.skew_y for c in clocks], dtype=float),
            np.array([0.5 * c.params.drift_a for c in clocks], dtype=float))


def local_times(clocks: Sequence[ClockState], t_true: np.ndarray) -> np.ndarray:
    """local_time of many clocks at once: column j of the int64 (instants x
    clocks) matrix ``t_true`` is read by ``clocks[j]``; an (instants x 1)
    matrix is read by every clock. The same float operations in the same
    order as local_time; _BLOCK elements are evaluated at a time, which
    bounds the temporaries."""
    t = np.asarray(t_true, dtype=np.int64)
    skew, half_drift = _rates(clocks)
    local = np.empty((len(t), len(clocks)), dtype=np.int64)
    for j, clock in enumerate(clocks):   # the base in force at each instant, into the result
        installed_at, base = clock.trajectory
        local[:, j] = base[installed_at.searchsorted(t[:, j if t.shape[1] > 1 else 0], "right")]
    rows = max(1, _BLOCK // max(1, len(clocks)))
    for start in range(0, len(t), rows):
        block = local[start:start + rows]
        block += t[start:start + rows]
        block += _perturbation(skew, half_drift, t[start:start + rows])
    return local


def clock_errors(clocks: Sequence[ClockState], t_true: np.ndarray) -> np.ndarray:
    """clock_error of many clocks at once, at the int64 instants ``t_true``
    (an instants x 1 matrix): the (instants x clocks) matrix of local_times
    less the instants."""
    t = np.asarray(t_true, dtype=np.int64)
    local = local_times(clocks, t)
    return np.subtract(local, t, out=local)


def stamps(clocks: Sequence[ClockState], t_true: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """stamp of many clocks at once: local_times plus the whole float64 stamp
    ``noise`` the caller drew, of the result's shape (or one that broadcasts
    to it), as successive stamp calls would draw it."""
    local = local_times(clocks, t_true)
    local += noise.astype(np.int64)
    return local


def set_readings(clocks: Sequence[ClockState], which: np.ndarray, at: np.ndarray, reading: np.ndarray) -> None:
    """Every step of clocks that have taken none yet, installed at once: step
    i sets ``clocks[which[i]]`` to read ``reading[i]`` at true time ``at[i]``
    (int64 both). Each clock's steps are contiguous and in time order.

    The base from step i on is what makes the clock read reading_i at at_i:
    reading_i - at_i - p(at_i)."""
    if not len(which):
        return
    skew, half_drift = _rates(clocks)
    after = reading - at - _perturbation(skew[which], half_drift[which], at)
    first = np.ones(len(which), dtype=bool)   # each clock's first step
    first[1:] = which[1:] != which[:-1]
    starts = np.flatnonzero(first).tolist()
    for start, stop in zip(starts, starts[1:] + [len(which)]):
        clock = clocks[which[start]]
        if len(clock.trajectory.installed_at):
            raise ValueError("set_readings steps only clocks that have taken no step")
        base = np.empty(stop - start + 1, dtype=np.int64)
        base[0], base[1:] = clock.params.theta0, after[start:stop]
        clock.trajectory = Trajectory(at[start:stop], base)


def unstepped_readings(clock: ClockState, t_true: np.ndarray) -> np.ndarray:
    """What ``clock`` reads at the int64 instants ``t_true`` before any step:
    local_time's sum without the correction."""
    return clock.params.theta0 + t_true + _perturbation(*_rates([clock]), t_true)


def read_steps(clocks: Sequence[ClockState]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """set_readings inverted: every step of ``clocks``, clock by clock, as
    (which, at, delta, error). Step i took ``clocks[which[i]]``'s reading
    down by ``delta[i]`` (the trajectory's base before it minus the base after)
    at true time ``at[i]``, to ``at[i] + error[i]`` (the base after plus the
    rounded perturbation). Reads only each clock's trajectory and params, so
    a finished trajectory kept without its clock (scenario.SteppedClock)
    reads the same."""
    trajectories = [clock.trajectory for clock in clocks]
    which = np.repeat(np.arange(len(clocks)), [len(installed_at) for installed_at, _ in trajectories])
    if not len(which):
        return which, *(np.empty(0, dtype=np.int64),) * 3
    at = np.concatenate([installed_at for installed_at, _ in trajectories])
    base = np.concatenate([base for _, base in trajectories])
    after = np.arange(len(which)) + which + 1   # a clock's bases are one more than its steps
    skew, half_drift = _rates(clocks)
    return which, at, base[after - 1] - base[after], base[after] + _perturbation(skew[which], half_drift[which], at)
