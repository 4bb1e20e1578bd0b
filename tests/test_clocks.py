"""Clock model: deterministic reads, noise, corrections, the tick range."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsync.clocks import (
    ClockParams,
    ClockState,
    apply_offset_correction,
    clock_error,
    ideal_clock,
    local_time,
    stamp,
)
from airsync.engine import derive_stream
from airsync.errors import TickOverflowError
from airsync.timebase import TICKS_PER_SECOND, TICKS_PER_US


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


def test_offset_correction_fixed_point():
    clock = ClockState(params=ClockParams(theta0=777))
    offset = clock_error(clock, 5000)
    corrected = apply_offset_correction(clock, offset, at=5000)
    assert clock_error(corrected, 5000) == 0
    assert corrected.last_sync_at == 5000


def test_zero_correction_is_identity():
    clock = ClockState(params=ClockParams(theta0=5))
    assert apply_offset_correction(clock, 0).correction == clock.correction


def test_corrections_are_additive():
    clock = ideal_clock()
    via_two = apply_offset_correction(apply_offset_correction(clock, 30), 12)
    via_one = apply_offset_correction(clock, 42)
    assert via_two.correction == via_one.correction


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-(2**40), 2**40),
    st.floats(-9.99e-4, 9.99e-4),
    st.floats(-1e-6, 1e-6),
    st.integers(-(2**40), 2**40),
    st.integers(0, 10**4 * TICKS_PER_SECOND),
)
def test_correction_lowers_reading_by_delta_at_any_instant(theta0, skew, drift, delta, t):
    clock = ClockState(params=ClockParams(theta0=theta0, skew_y=skew, drift_a=drift))
    assert local_time(apply_offset_correction(clock, delta), t) == local_time(clock, t) - delta


def test_single_correction_permanent_without_skew_or_drift():
    clock = ClockState(params=ClockParams(theta0=-340))
    corrected = apply_offset_correction(clock, clock_error(clock, 100))
    for t in [100, 1000, 10 * TICKS_PER_SECOND]:
        assert clock_error(corrected, t) == 0


def test_residual_after_correction_tracks_skew():
    # resynchronization trade-off: tau seconds after a perfect correction the
    # error is y * tau, within one tick of rounding
    y = 2e-6
    clock = ClockState(params=ClockParams(skew_y=y, theta0=912))
    t0 = 3 * TICKS_PER_SECOND
    corrected = apply_offset_correction(clock, clock_error(clock, t0))
    for tau_s in [0.01, 0.5, 2.0]:
        t1 = t0 + round(tau_s * TICKS_PER_SECOND)
        expected = y * (t1 - t0)
        assert abs(clock_error(corrected, t1) - expected) <= 1


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
    clock = ClockState(params=ClockParams(theta0=0), correction=-(2**63) - 1000)
    with pytest.raises(TickOverflowError):
        local_time(clock, 10)


def test_stamp_overflow_raises():
    # the reading is in range, the noise added to it is not
    clock = ClockState(params=ClockParams(stamp_noise_sigma=1e30))
    with pytest.raises(TickOverflowError):
        stamp(clock, 10, derive_stream(0, "stamp-overflow"))


def test_params_validation():
    with pytest.raises(ValueError):
        ClockParams(skew_y=2e-3)
    with pytest.raises(ValueError):
        ClockParams(stamp_noise_sigma=-1)


def test_microsecond_constant_sanity():
    assert TICKS_PER_US == 30720
