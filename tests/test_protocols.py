"""Timing advance, broadcast-time sync, two-way exchange, RIBS, GW relay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airsync.clocks import ClockParams, ClockState, clock_error, ideal_clock, local_time
from airsync.engine import derive_stream
from airsync.errors import CausalityViolationError, NegativeTaStateError, NoTaStateError
from airsync.protocols import (
    ExchangeRecord,
    SibConfig,
    StampMode,
    TA_INITIAL_MAX,
    TaCommand,
    TaKind,
    apply_ta_command,
    compute_ta_initial,
    compute_ta_update,
    delay_estimate_from_index,
    gw_relay_sync,
    measure_rtt,
    one_way_delay_estimate,
    quantize_broadcast_time,
    twoway_offset,
)
from airsync.timebase import (
    HALF_TA_STEP_TICKS,
    MAX_TICKS,
    TA_STEP_TICKS,
    TICKS_PER_MS,
    TICKS_PER_US,
    propagation_ticks,
    ticks_to_ns,
)
from airsync.scenario import cell_schedule
from stepwise import SteppingClock, ribs_align, twoway_exchange

US = TICKS_PER_US
MS = TICKS_PER_MS
PROPERTY = settings(max_examples=100, deadline=None)
TICKS = st.integers(-(2**40), 2**40)


def error_after(landing: tuple[int, int]) -> int:
    """The error an enabler's (instant, reading) leaves: the reading minus the instant."""
    at, reading = landing
    return reading - at


# --- timing advance -----------------------------------------------------------


def test_ta_initial_zero_rtt():
    assert compute_ta_initial(0) == TaCommand(TaKind.INITIAL, 0)


def test_ta_initial_step_boundary():
    assert compute_ta_initial(TA_STEP_TICKS).value == 1
    assert compute_ta_initial(TA_STEP_TICKS - 1).value == 0


def test_ta_initial_three_km_cell_edge():
    # 3 km edge: rtt = 2 * 3000 m / 3e8 = 20 us = 614400 ticks
    rtt = 2 * propagation_ticks(3000.0)
    assert rtt == 614_400
    expected = rtt // TA_STEP_TICKS  # arithmetic oracle: 38
    assert expected == 38
    assert compute_ta_initial(rtt).value == expected


def test_ta_initial_clamps_at_max():
    assert compute_ta_initial(10**9).value == 1282


def test_ta_update_zero_is_noop_value():
    assert compute_ta_update(0) == TaCommand(TaKind.UPDATE, 31)


def test_ta_update_one_step_positive():
    assert compute_ta_update(TA_STEP_TICKS).value == 32


def test_ta_update_eight_steps_negative():
    assert compute_ta_update(-8 * TA_STEP_TICKS).value == 31 - 8  # oracle: 23


def test_ta_update_clamps_both_ends():
    assert compute_ta_update(-100 * TA_STEP_TICKS).value == 0
    assert compute_ta_update(100 * TA_STEP_TICKS).value == 63


def test_ta_command_value_ranges():
    with pytest.raises(ValueError):
        TaCommand(TaKind.INITIAL, 1283)
    with pytest.raises(ValueError):
        TaCommand(TaKind.UPDATE, 64)


def test_apply_ta_command_accumulates_and_clamps():
    index = apply_ta_command(None, TaCommand(TaKind.INITIAL, 5))
    assert index == 5
    index = apply_ta_command(index, TaCommand(TaKind.UPDATE, 33))
    assert index == 7
    index = apply_ta_command(index, TaCommand(TaKind.UPDATE, 0))
    assert index == 0  # 7 - 31 clamps at zero
    with pytest.raises(NoTaStateError):
        apply_ta_command(None, TaCommand(TaKind.UPDATE, 31))


def test_one_way_estimate_zero_index():
    assert one_way_delay_estimate(TaCommand(TaKind.INITIAL, 0)) == 0


def test_one_way_estimate_single_step_is_half_ta_step():
    estimate = one_way_delay_estimate(TaCommand(TaKind.INITIAL, 1))
    assert estimate == 8 * 1000 == HALF_TA_STEP_TICKS
    # half of the 16*Ts step, ~260.4 ns
    assert ticks_to_ns(estimate) == pytest.approx(260.4166, abs=1e-3)


def test_one_way_estimate_three_km_residual():
    tau = propagation_ticks(3000.0)  # 10 us
    command = compute_ta_initial(2 * tau)
    estimate = one_way_delay_estimate(command)
    assert estimate == 38 * HALF_TA_STEP_TICKS == 304_000
    residual = tau - estimate  # ~104 ns
    assert residual == 3200
    assert ticks_to_ns(residual) == pytest.approx(104.16, abs=0.01)


def test_one_way_estimate_negative_state_rejected():
    with pytest.raises(NegativeTaStateError):
        one_way_delay_estimate(TaCommand(TaKind.UPDATE, 0), current_ta_state=10)
    with pytest.raises(NoTaStateError):
        one_way_delay_estimate(TaCommand(TaKind.UPDATE, 31), current_ta_state=None)
    with pytest.raises(NegativeTaStateError):
        delay_estimate_from_index(-1)


def test_ta_quantization_bound_exhaustive():
    # for every one-way delay in one full 16*Ts period, the floor-quantized
    # estimate undershoots by [0, 8*Ts)
    for tau in range(0, TA_STEP_TICKS, 7):
        estimate = one_way_delay_estimate(compute_ta_initial(2 * tau))
        assert 0 <= tau - estimate < HALF_TA_STEP_TICKS


@PROPERTY
@given(st.integers(0, TA_INITIAL_MAX * HALF_TA_STEP_TICKS))
def test_ta_initial_residual_within_half_step(one_way):
    # exact round trip inside the 11-bit range: the estimate never overshoots
    # and misses by less than 8*Ts
    index = compute_ta_initial(2 * one_way).value
    assert 0 <= one_way - delay_estimate_from_index(index) < HALF_TA_STEP_TICKS


def test_measure_rtt_noiseless():
    rng = derive_stream(0, "rtt")
    assert measure_rtt(1234, 0.0, 0.0, rng) == 2468


def test_measure_rtt_forced_wrong_bin():
    rng = derive_stream(1, "rtt-bin")
    for _ in range(50):
        result = measure_rtt(100_000, 0.0, 1.0, rng)
        assert abs(result - 200_000) == TA_STEP_TICKS


def test_measure_rtt_noise_statistics():
    sigma = 3072.0  # 100 ns
    rng = derive_stream(2, "rtt-noise")
    tau = 500_000
    draws = np.array([measure_rtt(tau, sigma, 0.0, rng) - 2 * tau for _ in range(100_000)])
    assert abs(draws.std() - sigma) / sigma < 0.05


def test_measure_rtt_floors_at_zero():
    rng = derive_stream(3, "rtt-floor")
    for _ in range(50):
        assert measure_rtt(0, 0.0, 1.0, rng) >= 0


# --- broadcast time -------------------------------------------------------------


def test_quantize_zero_granularity_is_identity():
    assert quantize_broadcast_time(123_456_789, 0) == 123_456_789


def test_quantize_floor_arithmetic():
    t = int(123.4567 * MS)  # exactly 3_792_589_824 ticks
    assert quantize_broadcast_time(t, 10 * MS) == 120 * MS


def test_quantize_idempotent_on_grid():
    assert quantize_broadcast_time(120 * MS, 10 * MS) == 120 * MS


def _sib(granularity=0, si_window=0, mode=StampMode.AT_TRANSMIT, periodicity=80 * MS):
    return SibConfig(granularity=granularity, periodicity=periodicity,
                     si_window=si_window, stamp_mode=mode)


def _sib_cycle(bs_clock, sib, link_delay, seed, at):
    """The broadcast of a cell's round at ``at``, its second (rounds come
    ``at`` apart), as cell_schedule draws it from ``sib/bs`` for a UE
    ``link_delay`` away with an exact TA measurement: when the UE adopts it,
    and its reading then, the quantized BS stamp plus the TA one-way
    estimate."""
    duration = at + sib.si_window + link_delay   # both rounds land
    schedule = cell_schedule(seed, "bs", ("ue",), (link_delay,), duration, at, sib.si_window, sib.stamp_mode,
                             bs_clock.params.stamp_noise_sigma, 0, duration + 1, 0, 0)
    assert schedule.landed.tolist() == [0, 1]
    bs_value = local_time(bs_clock, int(schedule.stamped_at[1])) + int(schedule.noise[1])
    return int(schedule.at[1]), quantize_broadcast_time(bs_value, sib.granularity) + int(schedule.ta_delay[1])


@pytest.mark.parametrize("mode", StampMode)
def test_a_round_is_sent_within_its_si_window_and_stamped_as_its_mode_says(mode):
    # 31 rounds 10 ms apart, each sent after a uniform delay in [0, 4 ms]:
    # at_schedule stamps the BS clock at the round's start, at_transmit when
    # it is sent. Every round lands (the UE sits at the BS, and the run ends
    # one window after the last round), in the order sent
    window, period = 4 * MS, 10 * MS
    schedule = cell_schedule(5, "bs", ("ue",), (0,), 300 * MS + window, period, window, mode, 0, 0, 500 * MS, 0, 0)
    delay = derive_stream(5, "sib/bs").integers(0, window + 1, 31)   # replay
    sent = np.arange(31) * period + delay
    assert schedule.at.tolist() == sent.tolist()
    assert schedule.stamped_at.tolist() == (sent - delay if mode is StampMode.AT_SCHEDULE else sent).tolist()
    assert 0 <= delay.min() and delay.max() <= window and len(set(delay.tolist())) == 31


def test_sib_cycle_ideal_is_exact():
    # no quantization, stamp at transmit, delay exactly on the 8*Ts grid
    tau = 3 * HALF_TA_STEP_TICKS * 2  # 3 full TA steps
    ue = SteppingClock(params=ClockParams(theta0=5000))
    arrival, reading = _sib_cycle(ideal_clock(), _sib(), tau, 0, at=10 * MS)
    assert (arrival, reading) == (10 * MS + tau, 10 * MS + tau)
    assert ue.set(arrival, reading) == 5000
    assert clock_error(ue, arrival) == 0


def test_sib_cycle_quantization_mean_half_granularity():
    # sweep the broadcast phase across one 10 ms grid interval: the error is
    # uniform in [0, g) with mean ~g/2
    g = 10 * MS
    errors = []
    for k in range(200):
        at = 100 * MS + k * (g // 200)
        result = _sib_cycle(ideal_clock(), _sib(granularity=g), 0, 0, at=at)
        errors.append(-error_after(result))
    assert all(0 <= e < g for e in errors)
    assert abs(np.mean(errors) - g / 2) / (g / 2) < 0.02


def test_sib_cycle_granularity_plus_ta_bound_exhaustive():
    # |error| <= g + 8*Ts for every delay phase in one 16*Ts period
    g = US
    bound = g + HALF_TA_STEP_TICKS
    at = 987_654_321
    for tau in range(0, TA_STEP_TICKS, 97):
        result = _sib_cycle(ideal_clock(), _sib(granularity=g), tau, 0, at=at)
        assert abs(error_after(result)) < bound


def test_sib_cycle_error_decomposition():
    # each error source isolated matches its analytic value exactly, and the
    # combined case matches the sum of the terms. The cell draws both rounds'
    # scheduling delays from sib/bs, then both rounds' stamp noise: the
    # round at ``at`` takes the second of each
    at = 400 * MS + 1234
    bs_sigma = 500.0

    # quantization only
    g = US
    result = _sib_cycle(ideal_clock(), _sib(granularity=g), 0, 1, at=at)
    assert error_after(result) == -(at % g)

    # scheduling only (stamp at schedule time, window > 0)
    window = 7 * MS
    result = _sib_cycle(ideal_clock(), _sib(si_window=window, mode=StampMode.AT_SCHEDULE), 0, 9, at=at)
    sched = derive_stream(9, "sib/bs").integers(0, window + 1, 2)[1]  # replay the draw
    assert error_after(result) == -sched

    # TA residual only
    tau = 5 * TA_STEP_TICKS + 3000
    index = compute_ta_initial(2 * tau).value
    result = _sib_cycle(ideal_clock(), _sib(), tau, 3, at=at)
    assert error_after(result) == -(tau - delay_estimate_from_index(index))

    # stamp noise only
    bs = ClockState(params=ClockParams(stamp_noise_sigma=bs_sigma))
    result = _sib_cycle(bs, _sib(), 0, 11, at=at)
    noise = derive_stream(11, "sib/bs").gauss_ticks(bs_sigma, 2)[1]
    assert error_after(result) == noise

    # all sources together (AT_SCHEDULE): error = noise - sched - quant - residual
    result = _sib_cycle(bs, _sib(granularity=g, si_window=window, mode=StampMode.AT_SCHEDULE), tau, 13, at=at)
    replay = derive_stream(13, "sib/bs")
    sched = replay.integers(0, window + 1, 2)[1]
    noise = replay.gauss_ticks(bs_sigma, 2)[1]
    stamped = at + noise
    expected = noise - (stamped % g) - sched - (tau - delay_estimate_from_index(index))
    assert error_after(result) == expected


# --- two-way exchange --------------------------------------------------------------


def test_twoway_symmetric_zero_offset():
    result = twoway_offset(ExchangeRecord(0, 30, 40, 70))
    assert (result.offset, result.mean_path_delay) == (0, 30)
    assert not result.offset_half_tick and not result.delay_half_tick


def test_twoway_known_offset_and_delay():
    # forward-simulated: responder +10 ahead, one-way delay 40 each way
    result = twoway_offset(ExchangeRecord(100, 150, 160, 190))
    assert (result.offset, result.mean_path_delay) == (10, 40)


def test_twoway_asymmetry_error_is_half_difference():
    # dl=40, ul=20, true offset 0: recovered offset = asymmetry / 2 = 10
    result = twoway_offset(ExchangeRecord(0, 40, 50, 70))
    assert result.offset == 10


def test_twoway_causality_violation():
    with pytest.raises(CausalityViolationError):
        twoway_offset(ExchangeRecord(100, 150, 160, 90))


def test_twoway_half_tick_flag():
    # odd numerator: offset truncates toward zero and the flag is set
    result = twoway_offset(ExchangeRecord(0, 31, 40, 70))
    assert result.offset == 0 and result.offset_half_tick


def test_twoway_symmetric_randomized_exactness():
    rng = derive_stream(17, "ptp-sym")
    for _ in range(2000):
        offset = rng.integers(-10**9, 10**9)
        delay = rng.integers(0, 10**6)
        t1 = rng.integers(0, 10**12)
        turnaround = rng.integers(0, 10**6)
        record = ExchangeRecord(
            t1=t1,
            t2=t1 + delay + offset,
            t3=t1 + delay + turnaround + offset,
            t4=t1 + delay + turnaround + delay,
        )
        result = twoway_offset(record)
        assert result.offset == offset
        assert not result.offset_half_tick
        assert result.mean_path_delay == delay


def test_twoway_asymmetric_randomized_exactness():
    rng = derive_stream(19, "ptp-asym")
    for _ in range(2000):
        offset = rng.integers(-10**6, 10**6)
        dl = rng.integers(0, 10**6)
        ul = rng.integers(0, 10**6)
        t1 = rng.integers(0, 10**9)
        turnaround = rng.integers(0, 10**4)
        record = ExchangeRecord(
            t1=t1,
            t2=t1 + dl + offset,
            t3=t1 + dl + turnaround + offset,
            t4=t1 + dl + turnaround + ul,
        )
        result = twoway_offset(record)
        numerator = 2 * offset + (dl - ul)
        if numerator % 2 == 0:
            assert result.offset - offset == (dl - ul) // 2
            assert not result.offset_half_tick
        else:
            assert result.offset_half_tick
            reconstructed = 2 * result.offset + (1 if numerator > 0 else -1)
            assert reconstructed == numerator


@PROPERTY
@given(TICKS, TICKS, st.integers(0, 2**40), st.integers(0, 2**40))
def test_twoway_offset_reconstructs_the_numerator(t1, t2, turnaround, span):
    record = ExchangeRecord(t1=t1, t2=t2, t3=t2 + turnaround, t4=t1 + span)
    numerator = (record.t2 - record.t1) - (record.t4 - record.t3)
    result = twoway_offset(record)
    # truncation toward zero keeps the numerator's sign; the flag carries the dropped half
    sign = 1 if numerator > 0 else -1
    assert 2 * result.offset + sign * result.offset_half_tick == numerator
    assert result.offset * numerator >= 0


@PROPERTY
@given(TICKS, TICKS, st.integers(0, 2**40), st.integers(0, 2**30), st.integers(0, 2**30))
def test_twoway_exchange_gives_responder_minus_initiator_error(theta_i, theta_r, at, delay, turnaround):
    initiator = ClockState(params=ClockParams(theta0=theta_i))
    responder = ClockState(params=ClockParams(theta0=theta_r))
    record = twoway_exchange(initiator, responder, at, delay, delay, turnaround, derive_stream(0, "prop"))
    result = twoway_offset(record)
    assert result.offset == clock_error(responder, at) - clock_error(initiator, at)
    assert not result.offset_half_tick


def test_twoway_exchange_forward_sim_recovers_offset():
    responder = ClockState(params=ClockParams(theta0=987_654))
    record = twoway_exchange(
        ideal_clock(), responder, at=10_000, delay_forward=5000, delay_back=5000,
        turnaround=777, rng=derive_stream(0, "xa"),
    )
    result = twoway_offset(record)
    assert result.offset == 987_654
    assert result.mean_path_delay == 5000


# --- RIBS alignment -------------------------------------------------------------------


def test_ribs_listen_only_residual_is_propagation_delay():
    # 300 m between BSs -> 1 us residual
    delay = propagation_ticks(300.0)
    assert delay == US
    result = ribs_align(ideal_clock(), delay, derive_stream(0, "ribs1"))
    assert abs(error_after(result)) == delay


def test_ribs_listen_with_ta_bound():
    # helper co-located with BS-B, exact TA: residual within one half TA step
    delay = propagation_ticks(731.0)
    helper_index = compute_ta_initial(2 * delay).value
    result = ribs_align(ideal_clock(), delay, derive_stream(0, "ribs4"), helper_ta_index=helper_index)
    assert 0 <= -error_after(result) < HALF_TA_STEP_TICKS


# --- gateway relay ----------------------------------------------------------------------


def test_gw_relay_passes_error_through():
    # the gateway reads 4321 ticks ahead at 1000 ticks and at 2000 ticks
    relayed = gw_relay_sync(np.array([1000 + 4321, 2000 + 4321]), 0.0, derive_stream(0, "gw1"))
    assert (relayed - [1000, 2000]).tolist() == [4321, 4321]


def test_gw_relay_zero_error_zero_sigma():
    device = SteppingClock(params=ClockParams(theta0=9))
    (reading,) = gw_relay_sync(np.array([0]), 0.0, derive_stream(0, "gw2")).tolist()
    device.set(0, reading)
    assert clock_error(device, 0) == 0


def test_gw_relay_error_statistics():
    # GW error 200 ns (6144 ticks), wired-domain sigma ~30 ns (922 ticks)
    gw_error = 6144
    sigma = 922.0
    errors = gw_relay_sync(np.full(10_000, gw_error), sigma, derive_stream(21, "gw4"))
    assert abs(errors.mean() - gw_error) < 3 * sigma / 100
    assert abs(errors.std() - sigma) / sigma < 0.05


def test_gw_relay_bulk_draws_equal_one_at_a_time():
    # one relay stream holds a single distribution: relaying a gateway's
    # readings at once draws what relaying them one landing at a time does
    readings = np.arange(6144, 50 * TICKS_PER_MS, TICKS_PER_MS)
    bulk = gw_relay_sync(readings, 922.0, derive_stream(5, "relay/ld1")).tolist()
    rng = derive_stream(5, "relay/ld1")
    assert bulk == [gw_relay_sync(readings[i:i + 1], 922.0, rng).item() for i in range(len(readings))]
    rng = derive_stream(5, "relay/ld1")
    assert bulk == [reading + rng.gauss_ticks(922.0) for reading in readings.tolist()]
    assert len(set(b - r for b, r in zip(bulk, readings.tolist()))) > 40


def test_gw_relay_of_exact_readings_stays_exact():
    # readings as far out as a gateway's (within 2**61 of true time, clocks.py)
    # and the largest relay noise a config admits: the int64 sum is the exact one
    readings = np.array([2**61 + MAX_TICKS, -(2**61)], dtype=np.int64)
    relayed = gw_relay_sync(readings, float(MAX_TICKS), derive_stream(3, "gw5"))
    rng = derive_stream(3, "gw5")
    noise = [rng.gauss_ticks(float(MAX_TICKS)) for _ in range(2)]
    assert relayed.dtype == np.int64
    assert relayed.tolist() == [2**61 + MAX_TICKS + noise[0], -(2**61) + noise[1]]
    assert max(map(abs, noise)) > 2**52   # the noise reaches the magnitude of its sigma
