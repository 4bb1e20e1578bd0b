"""Offset/jitter statistics, fault localization, requirement verdicts."""

import numpy as np
import pytest

from airsync.clocks import ClockParams, ClockState, ideal_clock
from airsync.engine import derive_stream
from airsync.errors import InsufficientNodesError, InsufficientSamplesError
from airsync.metrics import (
    BUILTIN_PRESETS,
    check_requirements,
    fault_location_estimate,
    jitter_stats,
    localization_uncertainty,
    pairwise_offset_stats,
)
from airsync.scenario import Delivery, OffsetSample, Workload, fault_wave_stamps
from airsync.timebase import TICKS_PER_MS, TICKS_PER_US

MS = TICKS_PER_MS
US = TICKS_PER_US


def _samples(errors_by_node: dict[str, int], instants=(0, 1000, 2000)):
    return [
        OffsetSample(t, node, err)
        for t in instants
        for node, err in errors_by_node.items()
    ]


# --- pairwise offsets -----------------------------------------------------------


def test_pairwise_constant_opposite_errors():
    stats = pairwise_offset_stats(_samples({"a": 100, "b": -100}))
    assert stats["max"] == 200 and stats["p50"] == 200


def test_pairwise_identical_errors_cancel():
    stats = pairwise_offset_stats(_samples({"a": 777, "b": 777}))
    assert stats["max"] == 0


def test_pairwise_three_nodes_definition():
    a, b = 40, -25
    stats = pairwise_offset_stats(_samples({"x": 0, "y": a, "z": b}))
    assert stats["max"] == max(abs(a), abs(b), abs(a - b))


def test_pairwise_common_mode_rejection():
    rng = derive_stream(1, "cm")
    base = {f"n{i}": rng.integers(-1000, 1000) for i in range(4)}
    shifted = {k: v + 123_456 for k, v in base.items()}
    assert pairwise_offset_stats(_samples(base)) == pairwise_offset_stats(_samples(shifted))


def test_pairwise_needs_two_nodes():
    with pytest.raises(InsufficientNodesError):
        pairwise_offset_stats(_samples({"only": 5}))


# --- jitter ------------------------------------------------------------------------


def _workload(period=MS, phase=0, mode="median"):
    return Workload(command_period=period, targets=("ue1",), grid_phase=phase, phase_mode=mode)


def _deliveries(stamps):
    return [
        Delivery("ue1", k, k * MS, stamp, stamp) for k, stamp in enumerate(stamps)
    ]


def test_jitter_on_grid_is_zero():
    stats = jitter_stats(_deliveries([k * MS for k in range(10)]), _workload())
    assert stats["peak_to_peak"] == 0 and stats["max"] == 0


def test_jitter_ignores_constant_delay():
    # constant extra delay shifts every delivery; the re-estimated grid phase
    # absorbs it and the variation stays zero
    delay = 12_345
    stats = jitter_stats(_deliveries([k * MS + delay for k in range(10)]), _workload())
    assert stats["peak_to_peak"] == 0 and stats["max"] == 0


def test_jitter_uniform_delay_peak_to_peak_approaches_width():
    u = 3000
    rng = derive_stream(2, "jit")
    stamps = [k * MS + rng.integers(0, u + 1) for k in range(10_000)]
    stats = jitter_stats(_deliveries(stamps), _workload())
    assert u * 0.995 <= stats["peak_to_peak"] <= u


def test_jitter_shift_invariance_with_median_phase():
    rng = derive_stream(3, "jshift")
    stamps = [k * MS + rng.integers(0, 2000) for k in range(500)]
    shifted = [s + 4444 for s in stamps]
    assert jitter_stats(_deliveries(stamps), _workload()) == jitter_stats(
        _deliveries(shifted), _workload()
    )


def test_jitter_absorbs_per_node_constant_paths():
    # two targets with different constant path delays: that spread is an
    # offset (visible in pairwise stats), not jitter
    near = [Delivery("a", k, k * MS, k * MS + 100, k * MS + 100) for k in range(20)]
    far = [Delivery("b", k, k * MS, k * MS + 9000, k * MS + 9000) for k in range(20)]
    stats = jitter_stats(near + far, _workload())
    assert stats["peak_to_peak"] == 0 and stats["max"] == 0


def test_jitter_fixed_phase_keeps_offset():
    # measured against each delivery's own grid point, so an offset past half
    # a period is not folded onto the next grid slot
    for offset in (100, 7 * MS // 10):
        stats = jitter_stats(
            _deliveries([k * MS + offset for k in range(10)]), _workload(mode="fixed")
        )
        assert stats["max"] == offset and stats["peak_to_peak"] == 0


def test_jitter_needs_two_deliveries():
    with pytest.raises(InsufficientSamplesError):
        jitter_stats(_deliveries([0]), _workload())


# --- fault localization ---------------------------------------------------------------


def test_fault_symmetric_arrivals_give_midpoint():
    position, out = fault_location_estimate(500, 500, 600.0, 3.0e8)
    assert position == 300.0 and not out


def test_fault_one_us_offset_shifts_150m():
    # forward-simulate with PMU-B one microsecond ahead, then invert
    offset_clock = ClockState(params=ClockParams(theta0=US))
    t_a, t_b = fault_wave_stamps(
        ideal_clock(), offset_clock, 300.0, 600.0, 3.0e8,
        rng_a=derive_stream(0, "fa"), rng_b=derive_stream(0, "fb"),
    )
    assert t_b - t_a == US
    position, out = fault_location_estimate(t_a, t_b, 600.0, 3.0e8)
    assert position == pytest.approx(150.0, abs=1e-6) and not out


def test_fault_sweep_spans_300m_for_one_us_bound():
    # brute-force sweep of the inter-PMU offset over [-1 us, +1 us]
    estimates = []
    for delta in np.linspace(-US, US, 201).round().astype(int):
        clock_b = ClockState(params=ClockParams(theta0=int(delta)))
        t_a, t_b = fault_wave_stamps(
            ideal_clock(), clock_b, 300.0, 600.0, 3.0e8,
            rng_a=derive_stream(0, "fa"), rng_b=derive_stream(0, "fb"),
        )
        estimates.append(fault_location_estimate(t_a, t_b, 600.0, 3.0e8)[0])
    assert min(estimates) == pytest.approx(150.0, abs=0.01)
    assert max(estimates) == pytest.approx(450.0, abs=0.01)
    assert max(estimates) - min(estimates) == pytest.approx(300.0, abs=0.02)


def test_fault_out_of_range_flagged():
    # a huge arrival difference puts the raw estimate off the line
    position, out = fault_location_estimate(0, 10 * US, 600.0, 3.0e8)
    assert position == 0.0 and out


def test_fault_inversion_identity_on_position_grid():
    for x in np.linspace(0.0, 600.0, 25):
        t_a, t_b = fault_wave_stamps(
            ideal_clock(), ideal_clock(), float(x), 600.0, 3.0e8,
            rng_a=derive_stream(0, "fa"), rng_b=derive_stream(0, "fb"),
        )
        position, out = fault_location_estimate(t_a, t_b, 600.0, 3.0e8)
        assert position == pytest.approx(float(x), abs=0.01)
        assert not out


def test_fault_deviation_linear_in_offset():
    # slope of location deviation vs inter-PMU offset is v/2
    v = 3.0e8
    offsets = [-2 * US, -US, 0, US, 2 * US]
    deviations = []
    for delta in offsets:
        clock_b = ClockState(params=ClockParams(theta0=delta))
        t_a, t_b = fault_wave_stamps(
            ideal_clock(), clock_b, 300.0, 600.0, v,
            rng_a=derive_stream(0, "fa"), rng_b=derive_stream(0, "fb"),
        )
        deviations.append(fault_location_estimate(t_a, t_b, 600.0, v)[0] - 300.0)
    slope = np.polyfit([o / 30_720_000_000 for o in offsets], deviations, 1)[0]
    assert slope == pytest.approx(-v / 2, rel=1e-6)


def test_localization_uncertainty_anchor_values():
    assert localization_uncertainty(US, 3.0e8) == pytest.approx(300.0)
    assert localization_uncertainty(0, 3.0e8) == 0.0
    assert localization_uncertainty(US // 2, 3.0e8) == pytest.approx(150.0)


# --- verdicts ---------------------------------------------------------------------------


def test_builtin_presets_bounds():
    assert BUILTIN_PRESETS["tsn-factory"].device_sync_bound == US
    assert BUILTIN_PRESETS["tsn-factory"].jitter_bound == US
    assert BUILTIN_PRESETS["tsn-factory"].per_device_bound == US // 2
    assert BUILTIN_PRESETS["grid-fault-protection"].device_sync_bound == 20 * US
    assert BUILTIN_PRESETS["grid-monitoring"].device_sync_bound == 2 * US
    assert BUILTIN_PRESETS["lte-tdd-small"].device_sync_bound == 3 * US
    assert BUILTIN_PRESETS["lte-tdd-large"].device_sync_bound == 10 * US
    assert BUILTIN_PRESETS["mbms"].device_sync_bound == 10 * US
    assert len(BUILTIN_PRESETS) == 6


def test_verdict_pass_under_tsn_budget():
    # 400 ns pairwise against the 1 us pairwise budget derived from +-500 ns
    measured = round(0.4 * US)
    verdicts = check_requirements(measured, 0, [BUILTIN_PRESETS["tsn-factory"]])
    assert verdicts[0].passed is True
    assert verdicts[0].measured_pairwise == measured


def test_verdict_fail_fault_protection():
    verdicts = check_requirements(30 * US, None, [BUILTIN_PRESETS["grid-fault-protection"]])
    assert verdicts[0].passed is False


def test_verdict_empty_presets():
    assert check_requirements(100, 100, []) == []


def test_verdict_incomplete_measurement():
    verdicts = check_requirements(100, None, [BUILTIN_PRESETS["tsn-factory"]])
    assert verdicts[0].passed is None
