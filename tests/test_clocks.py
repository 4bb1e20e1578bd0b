"""Clock model: deterministic reads, noise, corrections, the tick range."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airsync.clocks import (
    ClockParams,
    ClockState,
    clock_error,
    clock_errors,
    ideal_clock,
    local_time,
    local_times,
    read_steps,
    set_readings,
    stamp,
    stamps,
    unstepped_readings,
)
from airsync.engine import derive_stream
from airsync.errors import TickOverflowError
from airsync.timebase import INT64_MAX, INT64_MIN, MAX_TICKS, TICKS_PER_SECOND, TICKS_PER_US
from stepwise import SteppingClock, steps_of


def test_ideal_clock_is_identity():
    clock = ideal_clock()
    for t in [0, 1, 12345, TICKS_PER_SECOND]:
        assert local_time(clock, t) == t


def test_initial_phase_offset():
    clock = ClockState(params=ClockParams(theta0=100))
    assert local_time(clock, 0) == 100


def test_one_ppm_skew_gains_one_us_per_second():
    # arithmetic oracle: 1e-6 * 1 s = 1 us = 30720 ticks
    expected_excess = round(1e-6 * TICKS_PER_SECOND)
    assert expected_excess == 30720
    clock = ClockState(params=ClockParams(skew_y=1e-6))
    assert local_time(clock, TICKS_PER_SECOND) == TICKS_PER_SECOND + expected_excess


def test_drift_term_quadratic():
    # a = 1e-9/s after 100 s contributes a/2 * t^2 = 5e-6 s = 5 us
    a = 1e-9
    t = 100 * TICKS_PER_SECOND
    expected = round(0.5 * a * 100 * t)
    clock = ClockState(params=ClockParams(drift_a=a))
    assert local_time(clock, t) == t + expected
    assert expected == 5 * TICKS_PER_US


def test_stamp_without_noise_equals_local_time():
    clock = ClockState(params=ClockParams(theta0=42))
    rng = derive_stream(0, "stamp")
    assert stamp(clock, 1000, rng) == local_time(clock, 1000)


def test_stamp_noise_statistics():
    sigma = 308.0  # ~10 ns
    clock = ClockState(params=ClockParams(stamp_noise_sigma=sigma))
    rng = derive_stream(7, "stamp-noise")
    draws = np.array([stamp(clock, 0, rng) for _ in range(100_000)])
    assert abs(draws.std() - sigma) / sigma < 0.05
    assert abs(draws.mean()) < 5


def test_two_noisy_stamps_generally_differ():
    clock = ClockState(params=ClockParams(stamp_noise_sigma=1000.0))
    rng = derive_stream(3, "pair")
    assert stamp(clock, 0, rng) != stamp(clock, 0, rng)


def stepped(params: ClockParams, *steps: tuple[int, int]) -> SteppingClock:
    """A clock with ``params`` that took each (at, delta) step in turn."""
    clock = SteppingClock(params=params)
    for at, delta in steps:
        clock.step(at, delta)
    return clock


def test_offset_correction_fixed_point():
    clock = SteppingClock(params=ClockParams(theta0=777))
    offset = clock_error(clock, 5000)
    clock.step(5000, offset)
    assert clock_error(clock, 5000) == 0
    assert clock.installed_at == [5000]


def test_set_reports_the_step_it_takes():
    clock = SteppingClock(params=ClockParams(theta0=700))
    assert clock.set(10, 210) == 500
    assert clock.installed_at == [10] and clock_error(clock, 10) == 200


@pytest.mark.parametrize("reading", [INT64_MAX + 1, INT64_MIN - 1], ids=["above", "below"])
def test_set_checks_the_reading_it_sets(reading):
    clock = SteppingClock()
    with pytest.raises(TickOverflowError):
        clock.set(10, reading)
    assert clock.installed_at == []


def test_set_before_the_last_step_rejected():
    clock = SteppingClock()
    clock.set(100, 0)
    with pytest.raises(ValueError):
        clock.set(99, 0)
    assert clock.installed_at == [100]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-(2**40), 2**40),
    st.floats(-9e-4, 9e-4),
    st.lists(st.tuples(st.integers(0, 2**40), st.integers(-(2**40), 2**40)), max_size=3),
    st.integers(0, 2**40),
    st.integers(-(2**41), 2**41),
    st.lists(st.integers(0, 2**41), max_size=5),
)
def test_set_reads_its_reading_from_then_on(theta0, skew, steps, after, reading, probes):
    clock = stepped(ClockParams(theta0=theta0, skew_y=skew), *sorted(steps))
    at = (clock.installed_at[-1] if clock.installed_at else 0) + after
    earlier = [t % (at + 1) - 1 for t in probes]   # instants before the new step
    before = [local_time(clock, t) for t in [at, *earlier]]
    assert clock.set(at, reading) == before[0] - reading
    assert local_time(clock, at) == reading
    assert [local_time(clock, t) for t in earlier] == before[1:]


def test_zero_correction_is_identity():
    clock = SteppingClock(params=ClockParams(theta0=5))
    readings = [local_time(clock, t) for t in (0, 10, TICKS_PER_SECOND)]
    clock.step(0, 0)
    assert [local_time(clock, t) for t in (0, 10, TICKS_PER_SECOND)] == readings


def test_corrections_are_additive():
    via_two = stepped(ClockParams(), (0, 30), (0, 12))
    via_one = stepped(ClockParams(), (0, 42))
    assert via_two.correction[-1] == via_one.correction[-1]


def test_step_reaches_only_later_readings():
    clock = stepped(ClockParams(theta0=100), (50, 30), (50, 12), (90, -2))
    assert [local_time(clock, t) - t for t in (0, 49, 50, 89, 90)] == [100, 100, 58, 58, 60]


def test_step_before_the_last_step_rejected():
    clock = stepped(ClockParams(), (100, 1))
    with pytest.raises(ValueError):
        clock.step(99, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-(2**40), 2**40),
    st.floats(-9.99e-4, 9.99e-4),
    st.floats(-1e-6, 1e-6),
    st.integers(-(2**40), 2**40),
    st.integers(0, 10**4 * TICKS_PER_SECOND),
)
def test_correction_lowers_reading_by_delta_at_any_instant(theta0, skew, drift, delta, t):
    params = ClockParams(theta0=theta0, skew_y=skew, drift_a=drift)
    assert local_time(stepped(params, (0, delta)), t) == local_time(ClockState(params), t) - delta


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-(2**60), 2**60),
    st.floats(-1e-3, 1e-3, exclude_min=True, exclude_max=True),
    st.floats(-1e-6, 1e-6),
    st.lists(st.tuples(st.integers(0, 10**4 * TICKS_PER_SECOND), st.integers(-(2**40), 2**40)),
             max_size=8),
    st.lists(st.integers(0, 10**4 * TICKS_PER_SECOND), max_size=8),
)
def test_local_time_within_a_tick_of_the_exact_polynomial(theta0, skew, drift, steps, instants):
    # exact reference: theta0 + correction + t + y*t + a/2 * (t / TICKS_PER_SECOND) * t,
    # in rationals, with the correction summed from the steps installed at or before t
    steps.sort(key=lambda s: s[0])
    clock = stepped(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift), *steps)
    y, a = Fraction(skew), Fraction(drift)
    for t in instants + [at + d for at, _ in steps for d in (-1, 0) if at + d >= 0]:
        correction = -sum(delta for at, delta in steps if at <= t)
        exact = theta0 + correction + t + y * t + a / 2 * Fraction(t, TICKS_PER_SECOND) * t
        assert abs(local_time(clock, t) - exact) <= 1


# the validated range: phases, instants and the drift rule at MAX_TICKS
_EDGES = st.sampled_from([MAX_TICKS, MAX_TICKS - 1, -MAX_TICKS, -(MAX_TICKS - 1)])
_PHASE = st.integers(-(2**40), 2**40) | st.integers(-MAX_TICKS, MAX_TICKS) | _EDGES
_INSTANT = (st.integers(0, 2**41) | st.integers(0, 10**4 * TICKS_PER_SECOND) | st.integers(0, MAX_TICKS)
            | st.sampled_from([MAX_TICKS, MAX_TICKS - 1]))
_SKEW = st.floats(-1e-3, 1e-3, exclude_min=True, exclude_max=True)
_DRIFT_LIMIT = 2 * MAX_TICKS * TICKS_PER_SECOND / MAX_TICKS**2   # validate_config's at T = MAX_TICKS
_DRIFT = st.just(0.0) | st.floats(-_DRIFT_LIMIT, _DRIFT_LIMIT) | st.sampled_from([_DRIFT_LIMIT, -_DRIFT_LIMIT])
# readings a clock may adopt: clocks.py bounds each within 2**62 of its instant
_READING = st.integers(-(2**41), 2**41) | st.integers(-(2**61), 2**61) | st.sampled_from([2**61, -(2**61)])


_STEPS = st.lists(st.tuples(_INSTANT, st.integers(-(2**40), 2**40) | st.integers(-(2**58), 2**58)), max_size=6)
_CLOCK = st.builds(lambda theta0, skew, drift, steps: stepped(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift),
                                                               *sorted(steps, key=lambda s: s[0])),
                   _PHASE, _SKEW, _DRIFT, _STEPS)


def _column_readings(read, clocks, t) -> list:
    """The scalar reading of every entry of the (instants x clocks) list ``t``,
    column j read by ``read(clocks[j], instant, j)`` down the column."""
    readings = [[None] * len(clocks) for _ in t]
    for j, clock in enumerate(clocks):
        for i in range(len(t)):
            readings[i][j] = read(clock, t[i][j], j)
    return readings


def _matrix(width: int, max_size: int):
    """(rows x width) int64 instant matrices: one instant per clock a row."""
    return st.lists(st.lists(_INSTANT, min_size=width, max_size=width), max_size=max_size).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(-1, width))


@settings(max_examples=300, deadline=None)
@given(st.lists(_CLOCK, min_size=1, max_size=4).flatmap(lambda c: st.tuples(st.just(c), _matrix(len(c), 8))),
       st.lists(_INSTANT, max_size=8))
# at MAX_TICKS, t / TICKS_PER_SECOND must divide as Python divides the int
@example(([ClockState(ClockParams(drift_a=_DRIFT_LIMIT))], np.zeros((0, 1), dtype=np.int64)), [MAX_TICKS - 1])
# every term at its bound: the phase, the skew, the drift and a step to 2**61
@example(([stepped(ClockParams(theta0=MAX_TICKS, skew_y=9.99e-4, drift_a=_DRIFT_LIMIT), (MAX_TICKS - 5, -(2**61)))],
          np.array([[MAX_TICKS]], dtype=np.int64)), [0, MAX_TICKS - 6, MAX_TICKS - 5])
def test_bulk_reader_equals_local_time(clocks_and_instants, instants):
    # many clocks read together: every clock at shared instants (around each
    # one's steps too), then each at its own instants
    clocks, own = clocks_and_instants
    shared = instants + [at + d for clock in clocks for at in clock.trajectory.installed_at.tolist() for d in (-1, 0)
                         if at + d >= 0]
    shared = np.array(shared, dtype=np.int64).reshape(-1, 1)
    for t in (shared, own):
        expected = _column_readings(lambda clock, x, _: local_time(clock, x), clocks,
                                    np.broadcast_to(t, (len(t), len(clocks))).tolist())
        assert local_times(clocks, t).tolist() == expected
    errors = clock_errors(clocks, shared)
    assert errors.tolist() == [[local_time(clock, x) - x for clock in clocks] for x in shared[:, 0].tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PHASE, _SKEW, _DRIFT, st.lists(st.tuples(_INSTANT, _READING), max_size=5)), max_size=4))
# a step of 2**62: the base goes from 2**61 less the perturbation to -2**61 less it
@example([(MAX_TICKS, 9.99e-4, _DRIFT_LIMIT, [(0, 2**61), (MAX_TICKS, -(2**61))])])
def test_read_steps_gives_back_what_each_set_took(clocks):
    # clocks stepped by SteppingClock.set in time order, in exact ints:
    # read_steps gives each step's instant, the delta set returned and the
    # reading it set less the instant, clock by clock
    stepped_clocks, taken = [], []
    for j, (theta0, skew, drift, sets) in enumerate(clocks):
        clock = SteppingClock(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift))
        for at, reading in sorted(sets, key=lambda s: s[0]):
            taken.append((j, at, clock.set(at, reading), reading - at))
        stepped_clocks.append(clock)
    which, at, delta, error = read_steps(stepped_clocks)
    assert list(zip(which.tolist(), at.tolist(), delta.tolist(), error.tolist())) == taken


def test_set_readings_steps_only_clocks_that_have_taken_no_step():
    clock = ClockState(ClockParams(theta0=5))
    set_readings([clock], np.zeros(1, dtype=np.int64), np.array([10]), np.array([10]))
    with pytest.raises(ValueError, match="taken no step"):
        set_readings([clock], np.zeros(1, dtype=np.int64), np.array([20]), np.array([20]))
    assert steps_of(clock) == ([10], [5, 0])


@settings(max_examples=300, deadline=None)
@given(_PHASE, _SKEW, _DRIFT, st.lists(_INSTANT, max_size=8))
def test_unstepped_readings_are_local_times_sum_unchecked(theta0, skew, drift, instants):
    # local_time's sum for a clock with no step, in int64, is local_time itself
    clock = ClockState(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift))
    bulk = unstepped_readings(clock, np.array(instants, dtype=np.int64))
    assert bulk.dtype == np.int64
    assert bulk.tolist() == [theta0 + t + round(skew * t + 0.5 * drift * (t / TICKS_PER_SECOND) * t)
                             for t in instants] == [local_time(clock, t) for t in instants]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PHASE, _SKEW, _DRIFT, st.lists(st.tuples(_INSTANT, _READING), min_size=1, max_size=4)),
                min_size=1, max_size=3))
def test_set_readings_records_what_successive_sets_record(clocks):
    # the int64 arrays set_readings installs are the exact ones the clocks'
    # steps, set one after another, give
    ones, bulks, which, at, reading = [], [], [], [], []
    for j, (theta0, skew, drift, sets) in enumerate(clocks):
        ones.append(SteppingClock(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift)))
        bulks.append(ClockState(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift)))
        for t, value in sorted(sets, key=lambda s: s[0]):
            which.append(j), at.append(t), reading.append(value)
    for j, t, value in zip(which, at, reading):
        ones[j].set(t, value)
    set_readings(bulks, np.array(which), np.array(at, dtype=np.int64), np.array(reading, dtype=np.int64))
    for one, bulk in zip(ones, bulks):
        assert steps_of(one) == steps_of(bulk)
        assert bulk.trajectory.installed_at.dtype == bulk.trajectory.base.dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_PHASE, _SKEW, st.sampled_from([0.0, 0.4, 308.0, float(MAX_TICKS)]) | st.floats(0, MAX_TICKS)),
             min_size=1, max_size=3),
    st.integers(0, 2**32),
    st.data(),
)
def test_bulk_stamps_equal_successive_stamp_calls(params, seed, data):
    # each column's noise drawn in one call, down the column, as the run draws
    # it: the stamps and the draws of successive stamp calls
    clocks = [ClockState(ClockParams(theta0=theta0, skew_y=skew, stamp_noise_sigma=sigma))
              for theta0, skew, sigma in params]
    t = data.draw(_matrix(len(clocks), 12))
    one_by_one = [derive_stream(seed, f"stamps/{j}") for j in range(len(clocks))]
    bulk = [derive_stream(seed, f"stamps/{j}") for j in range(len(clocks))]
    noise = np.zeros(t.shape)
    for j, (clock, rng) in enumerate(zip(clocks, bulk)):
        if clock.params.stamp_noise_sigma and len(t):
            noise[:, j] = rng.gauss_ticks(clock.params.stamp_noise_sigma, len(t))
    expected = _column_readings(lambda clock, x, j: stamp(clock, x, one_by_one[j]), clocks, t.tolist())
    assert stamps(clocks, t, noise).tolist() == expected
    # the same number of draws from each stream, none at sigma 0
    assert [rng.random() for rng in bulk] == [rng.random() for rng in one_by_one]


def test_single_correction_permanent_without_skew_or_drift():
    clock = SteppingClock(params=ClockParams(theta0=-340))
    clock.step(100, clock_error(clock, 100))
    for t in [100, 1000, 10 * TICKS_PER_SECOND]:
        assert clock_error(clock, t) == 0


def test_residual_after_correction_tracks_skew():
    # resynchronization trade-off: tau seconds after a perfect correction the
    # error is y * tau, within one tick of rounding
    y = 2e-6
    clock = SteppingClock(params=ClockParams(skew_y=y, theta0=912))
    t0 = 3 * TICKS_PER_SECOND
    clock.step(t0, clock_error(clock, t0))
    for tau_s in [0.01, 0.5, 2.0]:
        t1 = t0 + round(tau_s * TICKS_PER_SECOND)
        expected = y * (t1 - t0)
        assert abs(clock_error(clock, t1) - expected) <= 1


def test_local_time_strictly_increasing():
    rng = derive_stream(11, "mono")
    for _ in range(20):
        y = rng.uniform(-9e-4, 9e-4)
        clock = ClockState(params=ClockParams(skew_y=y, theta0=rng.integers(-1000, 1000)))
        previous = None
        for t in range(0, 2_000_000, 97_531):
            value = local_time(clock, t)
            assert previous is None or value > previous
            previous = value


def test_local_time_overflow_raises():
    clock = stepped(ClockParams(theta0=0), (0, 2**63 + 1000))
    with pytest.raises(TickOverflowError):
        local_time(clock, 10)


def test_stamp_overflow_raises():
    # the reading is in range, the noise added to it is not
    clock = ClockState(params=ClockParams(stamp_noise_sigma=1e30))
    with pytest.raises(TickOverflowError):
        stamp(clock, 10, derive_stream(0, "stamp-overflow"))


def test_microsecond_constant_sanity():
    assert TICKS_PER_US == 30720
