"""Offset/jitter statistics, fault localization, requirement verdicts."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from airsync.clocks import ClockParams, ClockState, ideal_clock
from airsync.config import Workload, validate_config
from airsync.engine import derive_stream
from airsync.errors import InsufficientNodesError, InsufficientSamplesError
from airsync.metrics import (
    BUILTIN_PRESETS,
    _percentiles,
    build_report,
    check_requirements,
    fault_location_estimate,
    jitter_stats,
    localization_uncertainty,
    pairwise_offset_stats,
)
from airsync.scenario import DELIVERY_DTYPE, RawTrace, build_scenario, fault_wave_stamps, run_scenario
from airsync.timebase import INT64_MAX, INT64_MIN, TICKS_PER_MS, TICKS_PER_US

MS = TICKS_PER_MS
US = TICKS_PER_US


def _samples(errors_by_node: dict[str, int], instants=(0, 1000, 2000)):
    """The (instants x nodes) error matrix of nodes holding constant errors."""
    return np.array([list(errors_by_node.values()) for _ in instants], dtype=np.int64)


def _deliveries_of(rows, targets=("ue1",)):
    """Delivery columns from (node, grid_index, true_arrival, local_stamp) rows,
    each node an id of ``targets``."""
    rows = [(targets.index(node), *rest) for node, *rest in rows]
    return np.array(rows, dtype=DELIVERY_DTYPE).view(np.recarray)


# --- percentiles ---------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=60),
    st.lists(st.sampled_from([-3.0, -0.0, 0.0, 1.0, 2.0]), min_size=1, max_size=60),
))
@example([7.0])
@example([-(2**63), 2**63 - 1])
def test_percentiles_equal_numpy_bit_for_bit(values):
    """Singletons, ties, signed zeros, negatives and int64-scale magnitudes."""
    x = np.array(values)
    stats = _percentiles(x)
    expected = np.percentile(np.asarray(x, dtype=float), [50, 95, 99])
    assert np.array([stats["p50"], stats["p95"], stats["p99"]]).tobytes() == expected.tobytes()
    assert stats["max"] == float(x.max()) and stats["n"] == x.size


def test_percentiles_of_a_matrix_are_over_every_entry():
    x = np.arange(12, dtype=np.int64).reshape(4, 3)
    assert _percentiles(x) == _percentiles(x.ravel())
    assert _percentiles(x)["p50"] == 5.5


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


def test_pairwise_spread_at_the_int64_edges_is_exact():
    # spreads of 2**64 - 1 and of 1 at both ends of int64; taken in floats,
    # the spreads of 1 would read 0. Column 1 takes no part.
    errors = np.array([[INT64_MIN, 0, INT64_MAX], [INT64_MAX, 0, INT64_MIN], [INT64_MAX - 1, 0, INT64_MAX],
                       [INT64_MIN + 1, 0, INT64_MIN], [5, 0, 5]], dtype=np.int64)
    stats = pairwise_offset_stats(errors, [0, 2])
    assert stats == _percentiles([float(2**64 - 1), float(2**64 - 1), 1.0, 1.0, 0.0])
    assert stats["max"] == float(2**64 - 1) and stats["p50"] == 1.0


# --- jitter ------------------------------------------------------------------------


def _workload(period=MS, phase=0, mode="median", targets=("ue1",)):
    return Workload(command_period=period, targets=targets, grid_phase=phase, phase_mode=mode)


def _deliveries(stamps):
    return _deliveries_of([("ue1", k, stamp, stamp) for k, stamp in enumerate(stamps)])


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
    near = [("a", k, k * MS + 100, k * MS + 100) for k in range(20)]
    far = [("b", k, k * MS + 9000, k * MS + 9000) for k in range(20)]
    stats = jitter_stats(_deliveries_of(near + far, ("a", "b")), _workload(targets=("a", "b")))
    assert stats["peak_to_peak"] == 0 and stats["max"] == 0


def test_jitter_fixed_phase_keeps_offset():
    # measured against each delivery's own grid point, so an offset past half
    # a period is not folded onto the next grid slot
    for offset in (100, 7 * MS // 10):
        stats = jitter_stats(
            _deliveries([k * MS + offset for k in range(10)]), _workload(mode="fixed")
        )
        assert stats["max"] == offset and stats["peak_to_peak"] == 0


def _jitter_by_node_loop(deliveries, workload):
    """Reference jitter: one target at a time, centered on np.median of its mask."""
    grid_point = np.array([workload.grid_phase + k * workload.command_period for k in deliveries.grid_index.tolist()])
    deviation = (deliveries.local_stamp - grid_point).astype(float)
    if workload.phase_mode == "median":
        for node in np.unique(deliveries.node):
            mine = deliveries.node == node
            deviation[mine] -= np.median(deviation[mine])
    stats = _percentiles(np.abs(deviation))
    stats["peak_to_peak"] = float(deviation.max() - deviation.min())
    return stats


@settings(max_examples=300, deadline=None)
@given(
    groups=st.lists(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=9),
                    min_size=1, max_size=6),
    mode=st.sampled_from(["median", "fixed"]),
    shuffle=st.randoms(use_true_random=False),
)
@example(groups=[[5], [1, 2], [3, 9, 4], [0, 0, 7, -7]], mode="median", shuffle=None)
def test_grouped_jitter_equals_the_per_node_median_loop(groups, mode, shuffle):
    """Odd, even and single-delivery groups, interleaved in any order."""
    targets = tuple(f"n{i}" for i in range(len(groups)))
    rows = [(f"n{i}", k, 0, k * MS + deviation)
            for i, group in enumerate(groups) for k, deviation in enumerate(group)]
    if len(rows) < 2:
        return
    if shuffle is not None:
        shuffle.shuffle(rows)
    deliveries = _deliveries_of(rows, targets)
    workload = _workload(mode=mode, targets=targets)
    assert jitter_stats(deliveries, workload) == _jitter_by_node_loop(deliveries, workload)


def test_jitter_needs_two_deliveries():
    with pytest.raises(InsufficientSamplesError):
        jitter_stats(_deliveries([0]), _workload())


# --- the report against the per-row grouping it replaced ---------------------------


def _reference_report(rows, devices, deliveries, workload):
    """per_node, device_error, pairwise and jitter, grouped row by row in dicts
    from (t_true, node, error) sample rows and (node, grid_point, local_stamp)
    delivery rows, as the report computed them before the trace was columnar."""
    by_node: dict[str, list[int]] = {}
    for _t, node, error in rows:
        by_node.setdefault(node, []).append(error)
    per_node = {
        node: _percentiles(np.abs(np.asarray(by_node[node], dtype=float))) for node in sorted(by_node)
    }
    device_rows = [row for row in rows if row[1] in devices]
    device_error = None
    if device_rows:
        device_error = _percentiles(np.abs(np.asarray([e for _t, _n, e in device_rows], dtype=float)))
    pairwise = None
    if len({node for _t, node, _e in device_rows}) >= 2:
        by_instant: dict[int, list[int]] = {}
        for t, _node, error in device_rows:
            by_instant.setdefault(t, []).append(error)
        pairwise = _percentiles([max(errs) - min(errs) for errs in by_instant.values()])
    jitter = None
    if len(deliveries) >= 2:
        deviations: dict[str, list[int]] = {}
        for node, grid_point, local_stamp in deliveries:
            deviations.setdefault(node, []).append(local_stamp - grid_point)
        centered = []
        for node in sorted(deviations):
            arr = np.asarray(deviations[node], dtype=float)
            if workload.phase_mode == "median":
                arr = arr - np.median(arr)
            centered.append(arr)
        pooled = np.concatenate(centered)
        jitter = _percentiles(np.abs(pooled))
        jitter["peak_to_peak"] = float(pooled.max() - pooled.min())
    return per_node, device_error, pairwise, jitter


# config order is not sorted order; "ue2" and "ue2\0" are two nodes
_NAMES = ("ue2", "bs1", "ue10", "gw", "a", "ld1", "ue2\0")
_INT64 = st.integers(-(2**63) + 1, 2**63 - 1)


@st.composite
def _runs(draw):
    sampled = tuple(draw(st.permutations(_NAMES))[:draw(st.integers(1, len(_NAMES)))])
    instants = draw(st.integers(1, 5))
    error = st.integers(-3, 3) | st.integers(-10**6, 10**6) | _INT64   # ties, and the int64 range
    errors = draw(st.lists(st.lists(error, min_size=len(sampled), max_size=len(sampled)),
                           min_size=instants, max_size=instants))
    devices = frozenset(draw(st.sets(st.sampled_from(sampled))))
    deliveries = draw(st.lists(st.tuples(
        st.sampled_from(sampled), st.integers(0, 40), st.integers(-3, 3) | st.integers(-10**9, 10**9),
    ), max_size=12))
    return sampled, errors, devices, deliveries, draw(st.sampled_from(("median", "fixed")))


@given(_runs())
def test_report_equals_the_row_grouping_reference(run):
    sampled, errors, devices, deliveries, phase_mode = run
    instants = [1000 * i for i in range(len(errors))]
    rows = [(t, node, e) for t, row in zip(instants, errors) for node, e in zip(sampled, row)]
    delivery_rows = [(node, k, k * MS, k * MS + dev) for node, k, dev in deliveries]
    workload = Workload(command_period=MS, targets=sampled, grid_phase=0, phase_mode=phase_mode)
    trace = RawTrace(
        sampled=sampled,
        instants=np.array(instants, dtype=np.int64),
        errors=np.array(errors, dtype=np.int64).reshape(len(instants), len(sampled)),
        workload=workload, deliveries=_deliveries_of(delivery_rows, sampled),
        stepped=(), devices=devices, ta_index={}, lost_sync=0, fault=None,
    )
    report = build_report(trace, workload)
    per_node, device_error, pairwise, jitter = _reference_report(
        rows, devices, [(node, k * MS, stamp) for node, k, _a, stamp in delivery_rows], workload,
    )
    assert report.per_node == per_node and list(report.per_node) == list(per_node)
    assert report.device_error == device_error
    assert report.pairwise == pairwise
    assert report.jitter == jitter
    if pairwise is not None:
        worst = max(abs(row[i] - row[j]) for row in errors
                    for i, j in combinations([k for k, node in enumerate(sampled) if node in devices], 2))
        assert report.pairwise["max"] == float(worst)


def test_the_report_holds_one_float_buffer_of_the_device_columns(traced_peak):
    # 2 device columns of 5: beyond the trace, the report holds one float64
    # buffer of the device columns and a constant (numpy's cast buffer among
    # it); the pairwise pass's two int64 columns fit in the same room
    instants, sampled, devices = 100_000, ("bs1", "ue1", "gw", "ld1", "ue2"), frozenset(("ue1", "ue2"))
    trace = RawTrace(
        sampled=sampled, instants=np.arange(instants, dtype=np.int64) * MS,
        errors=derive_stream(3, "errors").integers(-10**9, 10**9, size=(instants, len(sampled))),
        workload=None, deliveries=_deliveries_of([]), stepped=(),
        devices=devices, ta_index={}, lost_sync=0, fault=None,
    )
    assert traced_peak(lambda: build_report(trace)) <= len(devices) * instants * 8 + 2**17


_REF = {"id": "ref", "role": "reference"}
_BS1 = {"id": "bs1", "role": "base_station", "position": [0, 0],
        "clock": {"theta0": "50 ticks", "skew_ppm": 0.2}}


def _summary(stats):
    return None if stats is None else (stats["p50"], stats["max"], stats["n"])


@pytest.mark.parametrize("nodes, samples, per_node, device_error", [
    ([_REF], 0, {}, None),
    ([_REF, _BS1, {"id": "ue1", "role": "ue", "attach_to": "bs1", "position": [300, 0],
                   "clock": {"theta0": "-70000 ticks", "skew_ppm": -3.0}}],
     42, {"bs1": (61.0, 123.0, 21), "ue1": (50271312.0, 50272233.0, 21)}, (50271312.0, 50272233.0, 21)),
    ([_REF, _BS1, {"id": "bs2", "role": "base_station", "position": [900, 0],
                   "clock": {"theta0": "2000 ticks", "skew_ppm": 1.5}}],
     42, {"bs1": (61.0, 123.0, 21), "bs2": (461.0, 922.0, 21)}, None),
], ids=["reference-only", "single-device", "no-devices"])
def test_report_on_degenerate_graphs(nodes, samples, per_node, device_error):
    cfg = validate_config({"schema_version": 1, "seed": 3, "duration": "20 ms", "nodes": nodes})
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    report = build_report(trace)
    assert len(trace.samples) == samples
    assert {node: _summary(stats) for node, stats in report.per_node.items()} == per_node
    assert _summary(report.device_error) == device_error
    assert report.pairwise is None


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


@pytest.mark.parametrize("bound, passed", [(US, False), (US + 1, True)])
def test_a_jitter_half_a_tick_over_its_bound_fails(bound, passed):
    # ue1's stamps sit 0 and 1 tick off the grid, centred on 0.5; ue2's 0, 0
    # and US, centred on 0: the peak-to-peak is US + 0.5, over a bound of US
    offsets = [("ue1", 0), ("ue1", 1), ("ue2", 0), ("ue2", 0), ("ue2", US)]
    workload = Workload(command_period=MS, targets=("ue1", "ue2"), grid_phase=0, phase_mode="median")
    trace = RawTrace(
        sampled=("ue1", "ue2"), instants=np.zeros(1, dtype=np.int64), errors=np.zeros((1, 2), dtype=np.int64),
        workload=workload, stepped=(), devices=frozenset(("ue1", "ue2")), ta_index={}, lost_sync=0, fault=None,
        deliveries=_deliveries_of([(node, k, k * MS, k * MS + offset) for k, (node, offset) in enumerate(offsets)],
                                  ("ue1", "ue2")),
    )
    preset = BUILTIN_PRESETS["tsn-factory"]._replace(jitter_bound=bound)
    report = build_report(trace, workload, presets=[preset])
    assert report.jitter["peak_to_peak"] == US + 0.5
    assert report.verdicts[0].measured_jitter == US + 1 and report.verdicts[0].passed is passed
