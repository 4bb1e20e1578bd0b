"""Clock model: deterministic reads, noise, corrections, the tick range."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airsync import clocks as clocks_module
from airsync.clocks import (
    ClockParams,
    ClockState,
    broadcast_stamps,
    clock_error,
    clock_errors,
    ideal_clock,
    in_tick_range,
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
from airsync.protocols import quantize_broadcast_time
from airsync.timebase import INT64_MAX, INT64_MIN, TICKS_PER_SECOND, TICKS_PER_US
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


def _scalar_readings(read, instants):
    """[read(t) for t in instants], or None if any reading overflows."""
    try:
        return [read(t) for t in instants]
    except TickOverflowError:
        return None


# the magnitudes around which the bulk readers' bound decisions and range checks switch
_EDGES = st.sampled_from([sign * (2**power + d) for power in (59, 60, 61, 62) for d in (-1, 0, 1) for sign in (1, -1)])
_PHASE = (st.integers(-(2**40), 2**40) | st.integers(INT64_MAX - 2**41, INT64_MAX)
          | st.integers(INT64_MIN, INT64_MIN + 2**41) | st.integers(-(2**64), 2**64) | _EDGES)
_INSTANT = (st.integers(0, 2**41) | st.integers(0, 10**4 * TICKS_PER_SECOND) | st.integers(INT64_MIN, INT64_MAX)
            | _EDGES)
_SKEW = st.floats(-1e-3, 1e-3, exclude_min=True, exclude_max=True)
# drifts whose term a/2 * t_s * t is about 2**59 at instants of 2**59 to 2**62 ticks
_DRIFT = (st.just(0.0) | st.floats(-1e-3, 1e-3)
          | st.sampled_from([sign * 2.0**60 * TICKS_PER_SECOND / 2.0**(2 * power) * factor
                             for power in (59, 60, 61, 62) for factor in (0.5, 1.0, 2.0) for sign in (1, -1)]))


_STEPS = st.lists(st.tuples(_INSTANT, st.integers(-(2**40), 2**40) | st.integers(-(2**64), 2**64) | _EDGES),
                  max_size=6)
_CLOCK = st.builds(lambda theta0, skew, drift, steps: stepped(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift),
                                                               *sorted(steps, key=lambda s: s[0])),
                   _PHASE, _SKEW, _DRIFT, _STEPS)


def _column_readings(read, clocks, t, where):
    """The scalar reading of every marked entry of ``t`` (column j read by
    ``read(clocks[j], instant)``, down each column), or None if any overflows."""
    readings = {}
    try:
        for j, clock in enumerate(clocks):
            for i in range(len(t)):
                if where[i][j]:
                    readings[i, j] = read(clock, t[i][j], j)
    except TickOverflowError:
        return None
    return readings


def _rows(width: int, max_size: int):
    """Rows of ``width`` (instant, marked) cells: one instant per clock."""
    return st.lists(st.lists(st.tuples(_INSTANT, st.booleans()), min_size=width, max_size=width), max_size=max_size)


def _matrix(rows: list, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The instants and the marks of ``rows`` as (rows x width) matrices."""
    return (np.array([[t for t, _ in row] for row in rows], dtype=np.int64).reshape(-1, width),
            np.array([[marked for _, marked in row] for row in rows], dtype=bool).reshape(-1, width))


@settings(max_examples=300, deadline=None)
@given(st.lists(_CLOCK, min_size=1, max_size=4).flatmap(lambda c: st.tuples(st.just(c), _rows(len(c), 8))),
       st.lists(_INSTANT, max_size=8))
# theta0 + t wraps past INT64_MAX, but the negative skew term brings the reading back in range
@example(([ClockState(ClockParams(theta0=INT64_MAX - 10**6, skew_y=-9e-4))], []), [1_000_500])
# past 2**53 ticks, t / TICKS_PER_SECOND must divide the exact int, as Python does
@example(([ClockState(ClockParams(drift_a=1e-9))], []), [36_361_359_135_263_771])
# in one block with an ordinary clock, a clock whose base leaves int64 (theta0 + 10
# after its step) while every reading, at a negative instant, stays in range
@example(([ClockState(ClockParams(theta0=5, skew_y=1e-6)), stepped(ClockParams(theta0=INT64_MAX), (-100, -10))],
          [[(-50, True), (-20, True)], [(-(10**6), True), (-(10**6), True)]]), [-(10**6)])
# an unmarked instant whose reading would overflow, beside a marked one that does not
@example(([ClockState(ClockParams(theta0=INT64_MAX - 10))], [[(5, True)], [(100, False)]]), [])
def test_bulk_reader_equals_local_time(clocks_and_rows, instants):
    # many clocks read together: every clock at shared instants (around each
    # one's steps too), then each at its own instants, only the marked ones
    clocks, rows = clocks_and_rows
    shared = instants + [at + d for clock in clocks for at in clock.trajectory.installed_at.tolist() for d in (-1, 0)
                         if at + d >= INT64_MIN]
    for t, where in [(np.array(shared, dtype=np.int64).reshape(-1, 1), None), _matrix(rows, len(clocks))]:
        marks = np.ones((len(t), len(clocks)), dtype=bool) if where is None else where
        expected = _column_readings(lambda clock, x, _: local_time(clock, x),
                                    clocks, np.broadcast_to(t, marks.shape).tolist(), marks.tolist())
        if expected is None:
            with pytest.raises(TickOverflowError):
                local_times(clocks, t, where)
        else:
            local = local_times(clocks, t, where)
            assert {(i, j): local[i, j] for i, j in expected} == expected
    for installed_at, base, reach in (clock.trajectory for clock in clocks):   # the bound each read decided on
        assert reach == max(abs(value) for value in base.tolist())
    # the errors at the non-negative shared instants, and the clocks with one below int64
    t = np.array([x for x in shared if x >= 0], dtype=np.int64).reshape(-1, 1)
    marks = np.ones((len(t), len(clocks)), dtype=bool)
    local = _column_readings(lambda clock, x, _: local_time(clock, x), clocks,
                             np.broadcast_to(t, marks.shape).tolist(), marks.tolist())
    if local is None:
        with pytest.raises(TickOverflowError):
            clock_errors(clocks, t)
        return
    errors, wrapped = clock_errors(clocks, t)
    expected = {(i, j): reading - t[i, 0].item() for (i, j), reading in local.items()}
    assert wrapped.tolist() == sorted({j for (i, j), error in expected.items() if error < INT64_MIN})
    assert {(i, j): errors[i, j] for i, j in expected if j not in wrapped} == \
        {key: error for key, error in expected.items() if key[1] not in wrapped}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PHASE, _SKEW, _DRIFT,
                          st.lists(st.tuples(_INSTANT, st.integers(INT64_MIN, INT64_MAX)), max_size=5)), max_size=4))
# a step of 2**64 - 1: the base goes from INT64_MAX to INT64_MIN
@example([(INT64_MAX, 0.0, 0.0, [(0, INT64_MIN)])])
def test_read_steps_gives_back_what_each_set_took(clocks):
    # clocks stepped by SteppingClock.set in time order: read_steps gives each
    # step's instant, the delta set returned and the reading it set less the
    # instant, clock by clock, as exact values (also past int64)
    stepped_clocks, taken = [], []
    for j, (theta0, skew, drift, sets) in enumerate(clocks):
        clock = SteppingClock(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift))
        for at, reading in sorted(sets, key=lambda s: s[0]):
            try:
                taken.append((j, at, clock.set(at, reading), reading - at))
            except TickOverflowError:   # the read before the step is out of range: no step
                pass
        stepped_clocks.append(clock)
    which, at, delta, error = read_steps(stepped_clocks)
    assert list(zip(which.tolist(), at.tolist(), delta.tolist(), error.tolist())) == taken


@pytest.mark.parametrize("theta0, at, reading, overflow", [
    (700, 10, 210, set()),
    (INT64_MAX - 100, 0, -200, {"delta"}),   # reads INT64_MAX - 100: a step of INT64_MAX + 100
    (INT64_MIN + 5, 10, INT64_MIN + 5, {"error_after"}),   # a step of 10, to 10 ticks below the range
    (INT64_MAX - 30, 20, INT64_MIN + 5, {"delta", "error_after"}),
], ids=["in-range", "delta", "error-after", "both"])
def test_a_step_past_int64_is_recorded_as_it_is_installed(theta0, at, reading, overflow):
    # delta is the read minus the reading and error_after the reading minus
    # the instant: set and set_readings check both, record them, and install
    # the step all the same
    one, bulk = SteppingClock(ClockParams(theta0=theta0)), ClockState(ClockParams(theta0=theta0))
    one.set(at, reading)
    set_readings([bulk], np.zeros(1, dtype=np.int64), np.array([at]), np.array([reading]))
    assert one.overflow == bulk.overflow == overflow
    assert steps_of(one) == steps_of(bulk) and steps_of(bulk)[0] == [at]
    assert local_time(one, at) == local_time(bulk, at) == reading


def test_set_readings_steps_only_clocks_that_have_taken_no_step():
    clock = ClockState(ClockParams(theta0=5))
    set_readings([clock], np.zeros(1, dtype=np.int64), np.array([10]), np.array([10]))
    with pytest.raises(ValueError, match="taken no step"):
        set_readings([clock], np.zeros(1, dtype=np.int64), np.array([20]), np.array([20]))
    assert steps_of(clock) == ([10], [5, 0], 5)


@settings(max_examples=300, deadline=None)
@given(_PHASE, _SKEW, _DRIFT, st.lists(_INSTANT, max_size=8))
def test_unstepped_readings_are_local_times_sum_unchecked(theta0, skew, drift, instants):
    # local_time's sum for a clock with no step, as exact ints also where it
    # leaves int64; where it does not, local_time itself. In int64 only while
    # every reading lies within +-3 * _SMALL, so that sums of a few cannot wrap
    clock = ClockState(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift))
    bulk = unstepped_readings(clock, np.array(instants, dtype=np.int64))
    readings = bulk.tolist()
    assert bulk.dtype == object or all(abs(reading) < 3 * clocks_module._SMALL for reading in readings)
    assert readings == [theta0 + t + round(skew * t + 0.5 * drift * (t / TICKS_PER_SECOND) * t) for t in instants]
    assert all(type(reading) is int for reading in readings)
    assert [reading for reading in readings if INT64_MIN <= reading <= INT64_MAX] == \
        [local_time(clock, t) for t, reading in zip(instants, readings) if INT64_MIN <= reading <= INT64_MAX]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_PHASE, _SKEW, _DRIFT,
                          st.lists(st.tuples(_INSTANT, st.integers(INT64_MIN, INT64_MAX) | _EDGES),
                                   min_size=1, max_size=4)), min_size=1, max_size=3))
def test_set_readings_records_what_successive_sets_record(clocks):
    # each step's delta and error after: exactly where one of them passes
    # int64 does the clock record it, in bulk as one set after another; and
    # the arrays it installs are those the clock's steps give
    ones, bulks, which, at, reading = [], [], [], [], []
    for j, (theta0, skew, drift, sets) in enumerate(clocks):
        ones.append(SteppingClock(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift)))
        bulks.append(ClockState(ClockParams(theta0=theta0, skew_y=skew, drift_a=drift)))
        for t, value in sorted(sets, key=lambda s: s[0]):
            which.append(j), at.append(t), reading.append(value)
    try:
        expected = []
        for j, t, value in zip(which, at, reading):
            delta = ones[j].set(t, value)
            expected.append({name for name, x in (("delta", delta), ("error_after", value - t))
                             if not INT64_MIN <= x <= INT64_MAX})
    except TickOverflowError:   # some read before its step is out of range: set_readings takes no step
        with pytest.raises(TickOverflowError):
            set_readings(bulks, np.array(which), np.array(at, dtype=np.int64), np.array(reading, dtype=object))
        return
    set_readings(bulks, np.array(which), np.array(at, dtype=np.int64), np.array(reading, dtype=object))
    for j, (one, bulk) in enumerate(zip(ones, bulks)):
        assert one.overflow == bulk.overflow == set().union(*(e for i, e in zip(which, expected) if i == j))
        assert steps_of(one) == steps_of(bulk)
        assert bulk.trajectory.installed_at.dtype == np.int64
        assert bulk.trajectory.base.dtype == one.trajectory.base.dtype


class _Drawn:
    """Stands in for st.data() in an @example: every draw gives ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_PHASE, _SKEW, st.sampled_from([0.0, 0.4, 308.0, 2.0**57, 2.0**59]) | st.floats(0, 1e30)),
             min_size=1, max_size=3),
    st.integers(0, 2**32),
    st.data(),
)
# noise alone past 2**62 (seed 5 draws +0.84 sigma), the stamp back in range
@example([(INT64_MIN + 10**6, 0.0, 2.0**63)], 5, _Drawn([[(0, True)]]))
def test_bulk_stamps_equal_successive_stamp_calls(params, seed, data):
    clocks = [ClockState(ClockParams(theta0=theta0, skew_y=skew, stamp_noise_sigma=sigma))
              for theta0, skew, sigma in params]
    t, where = _matrix(data.draw(_rows(len(clocks), 12)), len(clocks))
    one_by_one = [derive_stream(seed, f"stamps/{j}") for j in range(len(clocks))]
    bulk = [derive_stream(seed, f"stamps/{j}") for j in range(len(clocks))]
    expected = _column_readings(lambda clock, x, j: stamp(clock, x, one_by_one[j]), clocks, t.tolist(), where.tolist())
    if expected is None:
        with pytest.raises(TickOverflowError):
            stamps(clocks, t, bulk, where)
    else:
        stamped = stamps(clocks, t, bulk, where)
        assert {(i, j): stamped[i, j] for i, j in expected} == expected
        # the same number of draws from each stream, none at sigma 0
        assert [rng.random() for rng in bulk] == [rng.random() for rng in one_by_one]


@settings(max_examples=300, deadline=None)
@given(_CLOCK, st.lists(st.tuples(_INSTANT, st.integers(-(2**20), 2**20) | _EDGES | st.integers(-(2**64), 2**64)),
                        max_size=8),
       st.sampled_from([0, 1, 30_720, 2**59 - 1, 2**59, 2**62, INT64_MAX, 2**64 - 1]))
def test_broadcast_stamps_floor_to_what_each_stamp_floors_to(clock, stamped, grid):
    # a SIB16 BS's stamps, given their noise, floored to the grid: in int64 or
    # exact ints, what the scalar reading plus that noise floors to
    t = np.array([at for at, _ in stamped], dtype=np.int64)
    noise = np.array([float(draw) for _, draw in stamped])
    try:
        expected = [quantize_broadcast_time(in_tick_range(local_time(clock, at) + int(draw)), grid)
                    for at, draw in zip(t.tolist(), noise.tolist())]
    except TickOverflowError:
        with pytest.raises(TickOverflowError):
            broadcast_stamps(clock, t, noise, grid)
        return
    assert quantize_broadcast_time(broadcast_stamps(clock, t, noise, grid), grid).tolist() == expected


_EDGE_PHASE = (st.integers(2**61, INT64_MAX - 2**41) | st.integers(INT64_MIN + 2**41, -(2**61))
               | st.integers(INT64_MAX - 2**41, INT64_MAX))   # the last may read past int64
_ORDINARY_INSTANT = st.integers(0, 2**40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(-(2**40), 2**40), _EDGE_PHASE, _SKEW,
                          st.sampled_from([0.0, 0.4, 308.0])), min_size=1, max_size=5),
       st.integers(0, 2**32), st.data())
def test_mixed_blocks_sum_only_the_clocks_near_the_edge_in_exact_ints(specs, seed, data):
    # ordinary clocks and clocks past 2**61 in one block, read at ordinary
    # instants: local_times and stamps give what local_time and stamp give,
    # and only the columns of the clocks near the edge leave int64
    clocks = [ClockState(ClockParams(theta0=edge if near else phase, skew_y=skew, stamp_noise_sigma=sigma))
              for near, phase, edge, skew, sigma in specs]
    near_edge = sum(near for near, *_ in specs)
    shared = np.array(data.draw(st.lists(_ORDINARY_INSTANT, max_size=8)), dtype=np.int64).reshape(-1, 1)
    t, where = _matrix(data.draw(st.lists(st.lists(st.tuples(_ORDINARY_INSTANT, st.booleans()), min_size=len(clocks),
                                                   max_size=len(clocks)), max_size=8)), len(clocks))
    one_by_one = [derive_stream(seed, f"stamps/{j}") for j in range(len(clocks))]
    bulk = [derive_stream(seed, f"stamps/{j}") for j in range(len(clocks))]
    reads = [   # scalar read, bulk read, instants, marks
        (lambda clock, x, _: local_time(clock, x), lambda: local_times(clocks, shared), shared, None),
        (lambda clock, x, _: local_time(clock, x), lambda: local_times(clocks, t, where), t, where),
        (lambda clock, x, j: stamp(clock, x, one_by_one[j]), lambda: stamps(clocks, t, bulk, where), t, where),
    ]
    widths = []   # columns of each matrix converted to exact ints
    convert = clocks_module._exact

    def exact(values):
        widths.append(values.shape[1] if values.ndim == 2 else 0)
        return convert(values)

    with mock.patch.object(clocks_module, "_exact", exact):
        for scalar, bulk_read, instants, marks in reads:
            marks = np.ones((len(instants), len(clocks)), dtype=bool) if marks is None else marks
            expected = _column_readings(scalar, clocks, np.broadcast_to(instants, marks.shape).tolist(), marks.tolist())
            if expected is None:
                with pytest.raises(TickOverflowError):
                    bulk_read()
            else:
                read = bulk_read()
                assert {(i, j): read[i, j] for i, j in expected} == expected
    assert max(widths, default=0) <= near_edge


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
