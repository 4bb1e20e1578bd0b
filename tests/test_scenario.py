"""Scenario construction, end-to-end runs, and the PMU fault probe."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from airsync import scenario as scenario_module
from airsync.cli import main
from airsync.clocks import ClockParams, ClockState, clock_error, local_time
from airsync.config import (
    DelayDistribution,
    Role,
    load_config,
    load_sweep_spec,
    replace_config_value,
    validate_config,
)
from airsync.engine import RngStream, derive_stream
from airsync.errors import InvalidConfigError
from airsync.protocols import ExchangeRecord, StampMode, twoway_offset
from airsync.scenario import build_scenario, fault_wave_stamps, run_scenario
from airsync.timebase import (
    HALF_TA_STEP_TICKS,
    INT64_MAX,
    TA_STEP_TICKS,
    TICKS_PER_MS,
    TICKS_PER_SECOND,
    TICKS_PER_US,
    propagation_ticks,
)
from stepwise import SteppingClock

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MS = TICKS_PER_MS

# distance whose propagation delay sits exactly on the 8*Ts grid
ON_GRID_M = 156.25
assert propagation_ticks(ON_GRID_M) == TA_STEP_TICKS


def base_config(**overrides):
    raw = {
        "schema_version": 1,
        "seed": 5,
        "duration": "500 ms",
        "sampling_grid": "10 ms",
        "nodes": [
            {"id": "ref", "role": "reference"},
            {"id": "bs1", "role": "base_station", "position": [0, 0]},
            {"id": "ue1", "role": "ue", "attach_to": "bs1", "position": [ON_GRID_M, 0]},
            {"id": "ue2", "role": "ue", "attach_to": "bs1", "position": [2 * ON_GRID_M, 0]},
        ],
        "sync_plan": {
            "resync_period": "100 ms",
            "sib": {"granularity": 0, "si_window": 0, "stamp_mode": "at_transmit"},
        },
    }
    raw.update(overrides)
    return raw


def test_build_simple_scenario():
    scenario = build_scenario(validate_config(base_config()))
    assert len(scenario.clocks) == 4  # reference + BS + 2 UEs
    assert scenario.config.nodes["ue1"].role is Role.UE


def test_build_is_pure():
    cfg = validate_config(base_config())
    assert build_scenario(cfg) == build_scenario(cfg)


def test_unattached_ue_rejected():
    raw = base_config()
    del raw["nodes"][2]["attach_to"]
    with pytest.raises(InvalidConfigError) as info:
        build_scenario(validate_config(raw))
    assert "nodes[2].attach_to" in str(info.value)


def test_attach_to_unknown_node_rejected():
    raw = base_config()
    raw["nodes"][2]["attach_to"] = "bs9"
    with pytest.raises(InvalidConfigError) as info:
        build_scenario(validate_config(raw))
    assert "bs9" in str(info.value)


def test_exactly_one_reference_required():
    raw = base_config()
    raw["nodes"].append({"id": "ref2", "role": "reference"})
    with pytest.raises(InvalidConfigError):
        build_scenario(validate_config(raw))


def test_heterogeneous_preset_is_eight_nodes():
    scenario = build_scenario(load_config(CONFIG_DIR / "heterogeneous.yaml"))
    assert len(scenario.clocks) == 8
    roles = [n.role for n in scenario.config.nodes.values()]
    assert roles.count(Role.BASE_STATION) == 2
    assert roles.count(Role.LEGACY) == 2
    assert roles.count(Role.GATEWAY) == 1


def test_ideal_run_has_zero_errors_everywhere():
    # no noise, no quantization, delays on the TA grid: every sampled device
    # error is exactly zero after the first sync round
    cfg = validate_config(base_config())
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    assert len(trace.samples)
    for sample in trace.samples:
        assert sample.error == 0


def test_skew_resync_tradeoff_100ms():
    # 1 ppm skew, 100 ms resync: each correction removes ~1e-6 * 100 ms = 100 ns
    raw = base_config(duration="2 s")
    raw["nodes"][2]["clock"] = {"skew_ppm": 1.0}
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    expected = 1e-6 * 100 * MS  # 3072 ticks = 100 ns
    corrections = [
        c.delta for c in trace.corrections if c.node == "ue1" and c.kind == "sib16"
    ]
    assert len(corrections) >= 10
    for delta in corrections[1:]:
        assert abs(abs(delta) - expected) <= 2


def test_full_loss_means_no_corrections_and_growing_error():
    raw = base_config(duration="500 ms", link={"loss_prob": 1.0})
    raw["nodes"][2]["clock"] = {"skew_ppm": 5.0}
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    device_corrections = [c for c in trace.corrections if c.node.startswith("ue")]
    assert device_corrections == []
    assert trace.lost_sync > 0
    last = [s for s in trace.samples if s.node == "ue1"][-1]
    assert last.error == pytest.approx(5e-6 * last.t_true, abs=2)


def test_deliveries_follow_grid_plus_propagation():
    cfg = validate_config(base_config(
        workload={"command_period": "10 ms", "targets": ["ue1"]},
    ))
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    prop = propagation_ticks(ON_GRID_M)
    assert len(trace.deliveries)
    for d in trace.deliveries:
        assert d.true_arrival == cfg.workload.grid_point(d.grid_index) + prop
    # zero extra delay and ideal clocks: the jitter is exactly zero
    from airsync.metrics import jitter_stats
    assert jitter_stats(trace.delivered, cfg.workload)["peak_to_peak"] == 0


@pytest.mark.parametrize("dist", [
    DelayDistribution("none", low=0, high=0, mean=0.0, sigma=0.0),
    DelayDistribution("uniform", low=3, high=5 * MS, mean=0.0, sigma=0.0),
    DelayDistribution("uniform", low=0, high=INT64_MAX - 1, mean=0.0, sigma=0.0),
    DelayDistribution("normal", low=0, high=0, mean=2 * MS, sigma=MS),
    DelayDistribution("normal", low=0, high=0, mean=1e19, sigma=10),
], ids=["none", "uniform", "uniform-int64", "normal", "normal-1e19"])
def test_delays_drawn_in_bulk_follow_the_one_at_a_time_rule(dist):
    bulk, one = derive_stream(5, "delays"), derive_stream(5, "delays")
    next_delay = {
        "none": lambda: 0,
        "uniform": lambda: one.integers(dist.low, dist.high + 1),
        "normal": lambda: max(0, round(one.normal(dist.mean, dist.sigma))),
    }[dist.kind]
    drawn = dist.draw(bulk, 50)
    assert drawn.dtype == np.int64 and drawn.tolist() == [min(next_delay(), 2**62) for _ in range(50)]


def test_run_is_deterministic():
    cfg = validate_config(base_config(
        workload={"command_period": "10 ms", "targets": ["ue1", "ue2"]},
    ))
    first = run_scenario(build_scenario(cfg), cfg.duration)
    second = run_scenario(build_scenario(cfg), cfg.duration)
    assert np.array_equal(first.samples, second.samples)
    assert np.array_equal(first.deliveries, second.deliveries)
    assert first.corrections == second.corrections


def test_run_never_mutates_its_scenario():
    # gateway relay, two-way exchanges and deliveries all read and step clocks
    scenario = build_scenario(load_config(CONFIG_DIR / "heterogeneous.yaml"))
    drawn = dict(scenario.clocks)
    first = run_scenario(scenario, 300 * MS)
    second = run_scenario(scenario, 300 * MS)
    assert first.corrections and len(first.deliveries)
    assert np.array_equal(first.samples, second.samples)
    assert np.array_equal(first.deliveries, second.deliveries)
    assert first.corrections == second.corrections
    assert scenario.clocks == drawn


def test_seed_changes_noisy_run():
    raw = base_config()
    raw["nodes"][1]["clock"] = {"stamp_noise": 300}
    cfg = validate_config(raw)
    t1 = run_scenario(build_scenario(cfg, root_seed=1), cfg.duration)
    t2 = run_scenario(build_scenario(cfg, root_seed=2), cfg.duration)
    assert not np.array_equal(t1.samples, t2.samples)


def test_two_bs_fixed_error_budget_additivity():
    # device-to-device offset across two cells = alignment error plus the
    # difference of the two TA residuals, exactly
    e = TICKS_PER_US
    raw = {
        "schema_version": 1,
        "seed": 11,
        "duration": "200 ms",
        "sampling_grid": "50 ms",
        "nodes": [
            {"id": "ref", "role": "reference"},
            {"id": "bs1", "role": "base_station", "position": [0, 0]},
            {"id": "bs2", "role": "base_station", "position": [3000, 0]},
            {"id": "ue1", "role": "ue", "attach_to": "bs1", "position": [700, 0]},
            {"id": "ue2", "role": "ue", "attach_to": "bs2", "position": [3420, 0]},
        ],
        "sync_plan": {
            "resync_period": "100 ms",
            "sib": {"granularity": 0, "si_window": 0, "stamp_mode": "at_transmit"},
            "bs_alignment": {"mode": "fixed_error", "error": e},
        },
    }
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    tau1 = propagation_ticks(700.0)
    tau2 = propagation_ticks(420.0)
    r1 = tau1 - (2 * tau1 // TA_STEP_TICKS) * HALF_TA_STEP_TICKS
    r2 = tau2 - (2 * tau2 // TA_STEP_TICKS) * HALF_TA_STEP_TICKS
    by_node = {}
    for s in trace.samples:
        if s.t_true == 150 * MS:
            by_node[s.node] = s.error
    assert abs((by_node["ue2"] - by_node["ue1"]) - (e + r1 - r2)) <= 1


def test_ta_refresh_keeps_index_consistent():
    raw = base_config(duration="1200 ms")
    raw["sync_plan"]["ta_timer_ms"] = 500
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    # noiseless static geometry: refreshed index still matches the distance
    assert trace.ta_index["ue1"] == 2
    assert trace.ta_index["ue2"] == 4


def test_ribs_alignment_modes_align_second_bs():
    # 300 m between BSs: listening alone leaves the 1 us propagation delay,
    # TA compensation shrinks it below half a TA step, two-way removes it
    for mode in ["listen_only", "listen_ta", "two_way"]:
        raw = base_config()
        raw["nodes"].insert(2, {"id": "bs2", "role": "base_station", "position": [300, 0]})
        raw["sync_plan"]["bs_alignment"] = {"mode": "ribs", "ribs_mode": mode}
        cfg = validate_config(raw)
        trace = run_scenario(build_scenario(cfg), cfg.duration)
        aligns = [c for c in trace.corrections if c.node == "bs2" and c.kind == "bs_align"]
        assert len(aligns) == 1
        if mode == "listen_only":
            assert abs(aligns[0].error_after) == TICKS_PER_US
        elif mode == "listen_ta":
            assert abs(aligns[0].error_after) < HALF_TA_STEP_TICKS
        else:
            assert aligns[0].error_after == 0


def test_ribs_step_lands_when_the_exchange_completes():
    # two-way RIBS over 300 m: BS-B keeps its 1 us offset until the reply
    # arrives, about 1 ms after the alignment round starts
    raw = base_config(sampling_grid="1 ms")
    raw["nodes"].insert(2, {"id": "bs2", "role": "base_station", "position": [300, 0],
                            "clock": {"theta0": "1 us"}})
    raw["sync_plan"]["bs_alignment"] = {"mode": "ribs", "ribs_mode": "two_way"}
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    (align,) = [c for c in trace.corrections if c.node == "bs2"]
    assert MS < align.t_true < 2 * MS
    assert align.delta == TICKS_PER_US and align.error_after == 0
    bs2 = {s.t_true: s.error for s in trace.samples if s.node == "bs2"}
    assert bs2[0] == bs2[MS] == TICKS_PER_US
    assert bs2[2 * MS] == 0


def test_ribs_step_inside_a_device_exchange_reaches_only_later_stamps():
    # bs2 (1 us off) aligns by two-way RIBS over 300 m while its UE, 600 m
    # away, runs its first exchange: the step lands between t1 and t4
    raw = base_config()
    raw["nodes"][2:] = [
        {"id": "bs2", "role": "base_station", "position": [300, 0], "clock": {"theta0": "1 us"}},
        {"id": "ue1", "role": "ue", "attach_to": "bs2", "position": [900, 0]},
    ]
    raw["sync_plan"] = {"enabler": "ribs_ue", "resync_period": "100 ms",
                        "bs_alignment": {"mode": "ribs", "ribs_mode": "two_way"}}
    cfg = validate_config(raw)
    scenario = build_scenario(cfg)
    trace = run_scenario(scenario, cfg.duration)
    (step,) = [c for c in trace.corrections if c.node == "bs2"]
    sync = next(c for c in trace.corrections if c.node == "ue1")
    prop = propagation_ticks(600.0)
    t_back = 2 * prop + MS
    assert 0 < step.t_true < t_back and step.delta == TICKS_PER_US
    bs2, ue = SteppingClock(scenario.clocks["bs2"]), ClockState(scenario.clocks["ue1"])
    bs2.step(step.t_true, step.delta)
    record = ExchangeRecord(
        t1=local_time(bs2, 0),
        t2=local_time(ue, prop),
        t3=local_time(ue, prop + MS),
        t4=local_time(bs2, t_back),
    )
    assert sync.delta == twoway_offset(record).offset == -TICKS_PER_US // 2


def test_sib_stamp_reads_a_bs_realigned_inside_the_window():
    # the BS drifts 5 ppm and is realigned every 10 ms; the UE sits at the BS
    # (no delay, TA index 0, no quantization), so each UE correction must
    # leave it at the BS error at transmission, counted from the last
    # realignment before it, not from the one at the round's start
    raw = base_config()
    raw["nodes"][1]["clock"] = {"skew_ppm": 5.0}
    raw["nodes"][2]["position"] = [0, 0]
    raw["sync_plan"].update(
        sib={"granularity": 0, "si_window": "80 ms", "stamp_mode": "at_transmit"},
        bs_alignment={"mode": "perfect", "realign_period": "10 ms"},
    )
    cfg = validate_config(raw)
    scenario = build_scenario(cfg)
    trace = run_scenario(scenario, cfg.duration)
    bs = ClockState(scenario.clocks["bs1"])
    realigned = [c.t_true for c in trace.corrections if c.node == "bs1"]
    syncs = [c for c in trace.corrections if c.node == "ue1"]
    for sync in syncs:
        last = max(t for t in realigned if t < sync.t_true)
        assert sync.error_after == clock_error(bs, sync.t_true) - clock_error(bs, last)
    round_starts = range(0, cfg.duration + 1, 100 * MS)
    assert any(sync.t_true - max(r for r in round_starts if r <= sync.t_true) > 10 * MS for sync in syncs)


def test_sib_uses_the_ta_index_held_at_arrival():
    # 125 m: the initial TA index floors 1.6 steps to 1, the 500 ms refresh
    # rounds the remaining 0.6 step up to index 2. A round starting 6,400
    # ticks before the refresh lands 6,400 ticks after it
    tau = propagation_ticks(125.0)
    assert 2 * tau == 8 * TA_STEP_TICKS // 5
    period = (500 * MS - tau // 2) // 5
    raw = base_config(duration="600 ms")
    raw["nodes"][2:] = [{"id": "ue1", "role": "ue", "attach_to": "bs1", "position": [125, 0]}]
    raw["sync_plan"].update(ta_timer_ms=500, resync_period=f"{period} ticks")
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    assert trace.ta_index["ue1"] == 2
    errors = {c.t_true: c.error_after for c in trace.corrections if c.node == "ue1"}
    assert errors[5 * period + tau] == 2 * HALF_TA_STEP_TICKS - tau
    assert errors[4 * period + tau] == HALF_TA_STEP_TICKS - tau


def test_a_ta_command_is_in_force_for_a_landing_at_its_tick():
    # as above, with round 4 starting one propagation delay before the 500 ms
    # TA refresh: it lands at the refresh, and adopts the refreshed index 2
    tau = propagation_ticks(125.0)
    period = (500 * MS - tau) // 4
    assert 4 * period + tau == 500 * MS
    raw = base_config(duration="600 ms")
    raw["nodes"][2:] = [{"id": "ue1", "role": "ue", "attach_to": "bs1", "position": [125, 0]}]
    raw["sync_plan"].update(ta_timer_ms=500, resync_period=f"{period} ticks")
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    errors = {c.t_true: c.error_after for c in trace.corrections if c.node == "ue1"}
    assert errors[3 * period + tau] == HALF_TA_STEP_TICKS - tau
    assert errors[500 * MS] == 2 * HALF_TA_STEP_TICKS - tau


def test_overlapping_sib_rounds_each_land_their_own_broadcast():
    # 5 ms rounds with a 40 ms SI window: a round often lands after later
    # rounds have started. Each landing sets the UE to its own broadcast (BS
    # stamp noise only, on-grid TA), and steps the clock the UE reads then
    raw = base_config()
    raw["nodes"][1]["clock"] = {"stamp_noise": 300}
    raw["sync_plan"].update(resync_period="5 ms",
                            sib={"granularity": 0, "si_window": "40 ms", "stamp_mode": "at_transmit"})
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    # replay: every round's scheduling delay, then the stamp noise of the
    # rounds that land, in the order they are sent
    rng = derive_stream(cfg.seed, "sib/bs1")
    sent = [k * 5 * MS + rng.integers(0, 40 * MS + 1) for k in range(cfg.duration // (5 * MS) + 1)]
    landings = {at + TA_STEP_TICKS: (k, rng.gauss_ticks(300))
                for at, k in sorted((at, k) for k, at in enumerate(sent)) if at + TA_STEP_TICKS <= cfg.duration}
    syncs = [c for c in trace.corrections if c.node == "ue1"]
    assert [c.t_true for c in syncs] == sorted(landings)
    assert [c.error_after for c in syncs] == [landings[c.t_true][1] for c in syncs]
    assert [c.delta for c in syncs[1:]] == [a.error_after - b.error_after for a, b in zip(syncs, syncs[1:])]
    rounds = [landings[c.t_true][0] for c in syncs]
    assert rounds != sorted(rounds)   # some round lands after a later one


def same_tick_trace():
    """UE at the BS with 1 ppm skew and no SI window: every SIB correction
    lands exactly on a sampling and a delivery instant."""
    raw = base_config(workload={"command_period": "10 ms", "targets": ["ue1"]})
    raw["nodes"][2].update(position=[0, 0], clock={"skew_ppm": 1.0})
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    corrections = [c for c in trace.corrections if c.node == "ue1"]
    assert len(corrections) == 6 and all(c.delta != 0 for c in corrections[1:])
    return trace, corrections


def test_sample_at_correction_tick_reads_corrected_clock():
    trace, corrections = same_tick_trace()
    ue1 = {s.t_true: s.error for s in trace.samples if s.node == "ue1"}
    assert [ue1[c.t_true] for c in corrections] == [c.error_after for c in corrections]


def test_delivery_at_correction_tick_reads_corrected_clock():
    trace, corrections = same_tick_trace()
    offset = {d.true_arrival: d.local_stamp - d.true_arrival for d in trace.deliveries}
    assert [offset[c.t_true] for c in corrections] == [c.error_after for c in corrections]


@pytest.mark.parametrize("cfg", [
    pytest.param(lambda: validate_config(base_config(
        link={"loss_prob": 0.2},
        sync_plan={"resync_period": "50 ms", "ta_timer_ms": 500,
                   "sib": {"granularity": "1 us", "si_window": "5 ms"}},
        workload={"command_period": "10 ms", "targets": ["ue1", "ue2"]},
    )), id="sib-two-ues"),
    pytest.param(lambda: load_config(CONFIG_DIR / "heterogeneous.yaml"), id="heterogeneous"),
    pytest.param(lambda: load_config(CONFIG_DIR / "two-bs.yaml"), id="two-bs"),
])
def test_each_stream_label_derived_once_per_run(cfg, monkeypatch, fresh_caches):
    cfg = cfg()
    scenario = build_scenario(cfg)
    labels = Counter()
    derive = scenario_module.derive_stream

    def counting(root_seed, label):
        labels[label] += 1
        return derive(root_seed, label)

    monkeypatch.setattr(scenario_module, "derive_stream", counting)
    run_scenario(scenario, cfg.duration)
    assert labels
    assert [label for label, n in labels.items() if n > 1] == []
    # a second run reuses each cell's schedule and the BS side: it derives
    # every other label once more
    first = Counter(labels)
    run_scenario(scenario, cfg.duration)
    base_stations = {node.id for node in cfg.nodes.values() if node.role is Role.BASE_STATION}
    kept = {label for label in first   # a cell's schedule's, and the BS side's (exchange/ of a two-way RIBS BS)
            if label.startswith(("sib/", "loss/", "ta/")) or label.partition("/")[2] in base_stations}
    assert labels == first + Counter(label for label in first if label not in kept)


@pytest.mark.parametrize("ribs_mode, ribs_labels", [
    ("listen_only", {"ribs": 1}), ("listen_ta", {"ribs": 1, "ribs_helper": 1}), ("two_way", {"exchange": 1}),
])
def test_stream_derivations_do_not_grow_with_the_rounds(ribs_mode, ribs_labels, monkeypatch, fresh_caches):
    # two SIB16 cells, bs2 RIBS-aligned to bs1, at two horizons with 11 and
    # 101 rounds of each kind: every draw site derives one stream per
    # (kind, node), so each label kind is derived as often at both
    derive = scenario_module.derive_stream
    counts = []
    for duration in ("100 ms", "1000 ms"):
        raw = base_config(duration=duration, link={"loss_prob": 0.1})
        raw["nodes"][1]["clock"] = {"stamp_noise": 31}
        raw["nodes"].insert(2, {"id": "bs2", "role": "base_station", "position": [600, 0],
                                "clock": {"stamp_noise": 31}})
        raw["nodes"].append({"id": "ue3", "role": "ue", "attach_to": "bs2", "position": [900, 0]})
        raw["sync_plan"].update(resync_period="10 ms", ta_noise_sigma=200, ta_wrong_bin_prob=0.1,
                                sib={"granularity": "1 us", "si_window": "5 ms", "stamp_mode": "at_transmit"},
                                bs_alignment={"mode": "ribs", "ribs_mode": ribs_mode, "realign_period": "10 ms"})
        cfg = validate_config(raw)
        scenario = build_scenario(cfg)
        kinds = Counter()
        monkeypatch.setattr(scenario_module, "derive_stream",
                            lambda seed, label: kinds.update([label.partition("/")[0]]) or derive(seed, label))
        run_scenario(scenario, cfg.duration)
        counts.append(kinds)
    assert counts[0] == counts[1] == {"sib": 2, "loss": 3, "ta": 3, **ribs_labels}


def test_init_streams_derived_only_for_a_clock_with_a_range(monkeypatch, fresh_caches):
    raw = base_config()
    raw["nodes"][2]["clock"] = {"theta0": "2 us", "skew_ppm": 3}
    raw["nodes"][3]["clock"] = {"skew_ppm": {"dist": "uniform", "low": -5, "high": 5}}
    cfg = validate_config(raw)
    labels = []
    derive = scenario_module.derive_stream
    monkeypatch.setattr(scenario_module, "derive_stream", lambda seed, label: labels.append(label) or
                        derive(seed, label))
    scenario = build_scenario(cfg)
    assert labels == ["init/ue2"]
    assert scenario.clocks["ue1"] == ClockParams(theta0=2 * TICKS_PER_US, skew_y=3e-6)
    assert scenario.clocks["ue2"].skew_y == cfg.nodes["ue2"].clock.draw(derive_stream(cfg.seed, "init/ue2")).skew_y


def test_a_fleet_sized_cell_schedule_is_compact_and_read_only(traced_peak, fresh_caches):
    # 100 devices hearing 41 rounds, the last sent too late to land: 4,000 landings
    # of 18 bytes and 40 landed rounds of 16
    props = tuple(propagation_ticks(50 + 15 * i) for i in range(100))
    devices = tuple(f"ue{i:03d}" for i in range(100))
    args = (1, "bs1", devices, props, 400 * MS, 10 * MS, 10 * MS, StampMode.AT_TRANSMIT, 31.0, 0.0, 500 * MS, 100.0, 0.0)
    scenario_module.cell_schedule(*args)   # the seed words stay cached: the peak is the schedule's own
    kept = []
    peak = traced_peak(lambda: kept.append(scenario_module.cell_schedule(*args)))
    (schedule,) = kept
    arrays = [value for value in schedule if isinstance(value, np.ndarray)]
    assert len(schedule.at) == 4000 and len(schedule.stamped_at) == 40
    assert [array.dtype for array in arrays] == [np.uint8, np.int64, np.int64, np.uint8, np.int64, np.float64]
    assert not any(array.flags.writeable for array in arrays)
    assert sum(array.nbytes for array in arrays) == 4000 * 18 + 40 * 16
    assert peak <= 2**19   # building it: its streams, TA lists and (slot x device) arrays


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.stem)
def test_bundled_runs_read_every_clock_in_int64(path, monkeypatch, fresh_caches):
    # every trajectory a bundled run leaves is int64, and its bases and errors
    # lie within the bounds clocks.py proves for every config that validates.
    # On empty caches, so that the run steps its BSs, not installs them
    runners = _kept_runners(monkeypatch)
    cfg = load_config(path)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    (runner,) = runners
    assert {node: clock.trajectory.base.dtype for node, clock in runner.clocks.items()} == \
        dict.fromkeys(runner.clocks, np.dtype(np.int64))
    assert max(abs(base) for clock in runner.clocks.values() for base in clock.trajectory.base.tolist()) \
        <= 2**61 + 2**54
    assert trace.errors.dtype == np.int64 and np.abs(trace.errors).max() < 2**61


def _kept_runners(monkeypatch) -> list:
    """The runners of the runs made after this call, as they end."""
    runners = []

    class Kept(scenario_module._Runner):
        def run(self):
            runners.append(self)
            return super().run()

    monkeypatch.setattr(scenario_module, "_Runner", Kept)
    return runners


# --- the BS side, kept per process -------------------------------------------------


def _two_bs(alignment: dict, **overrides) -> dict:
    """base_config with bs2 900 m from bs1, its clock fixed, ue2 in its cell."""
    raw = base_config(**overrides)
    raw["nodes"].insert(2, {"id": "bs2", "role": "base_station", "position": [900, 0],
                            "clock": {"theta0": "2 us", "skew_ppm": 0.05, "stamp_noise": 31}})
    raw["nodes"][-1]["attach_to"] = "bs2"
    raw["sync_plan"]["bs_alignment"] = alignment
    return raw


def _counted_bs_steps(monkeypatch) -> list:
    """The runs after this call that step their BSs, as their seeds."""
    seeds = []
    step = scenario_module._Runner.step_base_stations

    def counted(self):
        seeds.append(self.seed)
        step(self)

    monkeypatch.setattr(scenario_module._Runner, "step_base_stations", counted)
    return seeds


def test_a_sweeps_second_point_reads_no_bs_clock(monkeypatch, fresh_caches):
    # two points of one repetition of a granularity sweep: the second installs
    # the kept BS side and stamps, so set_readings steps no BS and stamps
    # reads no BS clock
    base = load_config(CONFIG_DIR / "single-bs.yaml")
    spec = load_sweep_spec(CONFIG_DIR / "sweeps" / "sib-granularity.yaml")
    points = [validate_config(replace_config_value(base.raw, spec.path, value)) for value in spec.values[:2]]
    stepped, stamped = [], []
    set_readings, stamps = scenario_module.set_readings, scenario_module.stamps

    def recorded_set_readings(clocks, *args):
        stepped.append(clocks)
        set_readings(clocks, *args)

    def recorded_stamps(clocks, *args):
        stamped.append(clocks)
        return stamps(clocks, *args)

    monkeypatch.setattr(scenario_module, "set_readings", recorded_set_readings)
    monkeypatch.setattr(scenario_module, "stamps", recorded_stamps)
    traces = []
    for cfg in points:
        scenario = build_scenario(cfg, root_seed=7)
        bs = scenario.clocks["bs1"]
        stepped.clear(), stamped.clear()
        traces.append(run_scenario(scenario, cfg.duration))
        bs_steps, bs_stamps = ([clocks for clocks in calls if any(clock.params is bs for clock in clocks)]
                               for calls in (stepped, stamped))
        assert (len(bs_steps), len(bs_stamps)) == ((1, 1) if cfg is points[0] else (0, 0))
    assert traces[0].stepped[0].trajectory is traces[1].stepped[0].trajectory


@pytest.mark.parametrize("alignment, shared", [
    ({"mode": "perfect", "realign_period": "100 ms"}, True),
    ({"mode": "fixed_error", "error": "0.5 us"}, True),
    ({"mode": "ribs", "ribs_mode": "listen_only", "realign_period": "100 ms"}, False),
], ids=["perfect", "fixed-error", "ribs"])
def test_a_steered_bs_side_is_shared_across_seeds_and_a_ribs_one_is_not(alignment, shared, monkeypatch,
                                                                         fresh_caches):
    # steering draws nothing: repetition seeds share it; RIBS draws its rounds' noise
    seeds = _counted_bs_steps(monkeypatch)
    cfg = validate_config(_two_bs(alignment))
    traces = [run_scenario(build_scenario(cfg, root_seed=seed), cfg.duration) for seed in (1, 2, 1)]
    assert seeds == ([1] if shared else [1, 2])
    assert len(scenario_module._BS_SIDES.entries) == len(seeds)
    bs2 = [trace.stepped[1].trajectory for trace in traces]
    assert bs2[2] is bs2[0] and (bs2[1] is bs2[0]) == shared


def test_a_kept_bs_side_and_its_stamps_are_read_only(fresh_caches):
    cfg = validate_config(_two_bs({"mode": "ribs", "ribs_mode": "two_way", "realign_period": "100 ms"}))
    run_scenario(build_scenario(cfg), cfg.duration)
    (side,) = scenario_module._BS_SIDES.entries.values()
    stamps = list(scenario_module._BS_STAMPS.entries.values())
    assert [len(trajectory.installed_at) for trajectory in side.trajectory] == [6, 5]   # bs2's last round lands late
    assert len(stamps) == 2
    for array in [array for trajectory in side.trajectory for array in trajectory[:2]] + stamps:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_a_kept_bs_side_keeps_its_lost_syncs(monkeypatch, fresh_caches):
    # RIBS two-way rounds whose stamps 5 ms of noise reverses are lost syncs, of
    # the BS side alone here. A run that installs the kept side counts the same
    seeds = _counted_bs_steps(monkeypatch)
    raw = _two_bs({"mode": "ribs", "ribs_mode": "two_way", "realign_period": "4 ms"})
    raw["nodes"][1]["clock"] = {"stamp_noise": "5 ms"}
    raw["nodes"][2]["clock"]["stamp_noise"] = "5 ms"
    cfg = validate_config(raw)
    lost = [run_scenario(build_scenario(cfg), cfg.duration).lost_sync for _ in range(2)]
    assert len(seeds) == 1 and lost[0] == lost[1] > 0


def test_a_bs_side_past_the_byte_cap_is_not_kept(monkeypatch, fresh_caches):
    # with the cap just below the BS side, no run keeps it, so each steps the
    # BSs, with the same trace; each cell's stamps, smaller, are still kept
    cfg = validate_config(_two_bs({"mode": "perfect", "realign_period": "100 ms"}))
    seeds = _counted_bs_steps(monkeypatch)
    kept = run_scenario(build_scenario(cfg), cfg.duration)
    side = scenario_module._nbytes(next(iter(scenario_module._BS_SIDES.entries.values())))
    scenario_module._BS_SIDES.cache_clear()
    scenario_module._BS_STAMPS.cache_clear()
    monkeypatch.setattr(scenario_module, "_SCHEDULE_CACHE_BYTES", side - 1)
    capped = [run_scenario(build_scenario(cfg), cfg.duration) for _ in range(2)]
    assert len(seeds) == 3 and len(scenario_module._BS_SIDES.entries) == 0
    assert [stamps.nbytes for stamps in scenario_module._BS_STAMPS.entries.values()] == [40, 40]
    for trace in capped:
        assert trace.errors.tolist() == kept.errors.tolist()
        assert trace.correction_log.tolist() == kept.correction_log.tolist()


def test_a_run_without_a_workload_shares_one_read_only_empty_delivery_array(tmp_path):
    # pmu-fault.yaml has no workload: its runs return the same empty array,
    # which nothing writes to on the way to report.json and trace.json
    cfg = load_config(CONFIG_DIR / "pmu-fault.yaml")
    first, second = (run_scenario(build_scenario(cfg), cfg.duration) for _ in range(2))
    assert first.deliveries is second.deliveries is scenario_module.NO_DELIVERIES
    assert len(first.deliveries) == 0 and first.deliveries.dtype == scenario_module.DELIVERY_DTYPE
    assert not first.deliveries.flags.writeable
    with pytest.raises(ValueError):
        first.deliveries.local_stamp[...] = 0
    assert main(["run", "--config", str(CONFIG_DIR / "pmu-fault.yaml"), "--trace", "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "trace.json").read_text())["deliveries"] == []


def test_two_way_enablers_keep_no_ta_state(monkeypatch, fresh_caches):
    # heterogeneous.yaml runs dedicated two-way with a 500 ms TA timer, which
    # nothing reads: no TA stream is derived and no TA index is kept
    cfg = load_config(CONFIG_DIR / "heterogeneous.yaml")
    scenario = build_scenario(cfg)
    labels = []
    derive = scenario_module.derive_stream

    def recording(root_seed, label):
        labels.append(label)
        return derive(root_seed, label)

    monkeypatch.setattr(scenario_module, "derive_stream", recording)
    trace = run_scenario(scenario, cfg.duration)
    assert any(label.startswith("exchange/") for label in labels)
    assert [label for label in labels if label.startswith("ta/")] == []
    assert trace.ta_index == {}


@pytest.mark.parametrize("resync_period", ("100 ms", "10 ms"))
def test_a_device_draws_its_exchanges_in_at_most_two_calls(monkeypatch, resync_period):
    # heterogeneous.yaml runs dedicated two-way with a uniform extra delay:
    # each device draws every delay it may use in one call on
    # exchange_delay/{device}, and the stamp noise of every exchange it sends
    # in one on exchange/{device}, however many exchanges it sends
    calls = Counter()
    for name in ("random", "uniform", "normal", "integers", "gauss_ticks"):
        def counting(self, *args, _draw=getattr(RngStream, name), **kwargs):
            calls[self.label] += 1
            return _draw(self, *args, **kwargs)
        monkeypatch.setattr(RngStream, name, counting)
    raw = load_config(CONFIG_DIR / "heterogeneous.yaml").raw
    cfg = validate_config(dict(raw, sync_plan=dict(raw["sync_plan"], resync_period=resync_period)))
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    exchanges = Counter(c.node for c in trace.corrections if c.kind == "two_way")
    assert set(exchanges) == {"ue1", "ue2", "gw1"} and min(exchanges.values()) >= 10
    for device in exchanges:
        assert calls[f"exchange_delay/{device}"] == calls[f"exchange/{device}"] == 1


def test_gateway_relay_and_legacy_corrections():
    cfg = load_config(CONFIG_DIR / "heterogeneous.yaml")
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    relay = [c for c in trace.corrections if c.kind == "gw_relay"]
    assert {c.node for c in relay} == {"ld1", "ld2"}


# --- PMU fault probe -------------------------------------------------------------


def pmu_stamps(fault_position, line_length, wave_speed, theta_b: int = 0):
    """Stamp a line fault with the initial clocks of a two-PMU scenario."""
    raw = {
        "schema_version": 1,
        "seed": 3,
        "duration": "1 s",
        "nodes": [
            {"id": "ref", "role": "reference"},
            {"id": "pmu_a", "role": "pmu"},
            {"id": "pmu_b", "role": "pmu", "clock": {"theta0": theta_b}},
        ],
    }
    scenario = build_scenario(validate_config(raw))
    return fault_wave_stamps(
        ClockState(scenario.clocks["pmu_a"]),
        ClockState(scenario.clocks["pmu_b"]),
        fault_position,
        line_length,
        wave_speed,
        rng_a=derive_stream(scenario.seed, "fault/pmu_a"),
        rng_b=derive_stream(scenario.seed, "fault/pmu_b"),
    )


def test_fault_at_middle_with_perfect_clocks():
    t_a, t_b = pmu_stamps(300.0, 600.0, 3.0e8)
    assert t_a == t_b


def test_fault_at_line_end():
    t_a, t_b = pmu_stamps(0.0, 600.0, 3.0e8)
    assert t_a == 0
    assert t_b == round(600.0 / 3.0e8 * TICKS_PER_SECOND)  # 2 us


def test_pmu_offset_passes_through():
    offset = TICKS_PER_US
    t_a, t_b = pmu_stamps(300.0, 600.0, 3.0e8, theta_b=offset)
    assert t_b - t_a == offset


def test_fault_stamps_read_each_pmu_clock_when_the_wave_arrives():
    # both PMUs sit 500 m from the BS, so their first SIB corrections land
    # together; the probe fires 10 ticks earlier and its waves arrive 1 us later
    raw = {
        "schema_version": 1,
        "seed": 3,
        "duration": "10 ms",
        "nodes": [
            {"id": "ref", "role": "reference"},
            {"id": "bs1", "role": "base_station", "position": [300, 400]},
            {"id": "pmu_a", "role": "pmu", "attach_to": "bs1", "position": [0, 0]},
            {"id": "pmu_b", "role": "pmu", "attach_to": "bs1", "position": [600, 0],
             "clock": {"theta0": "1 us"}},
        ],
        "sync_plan": {"resync_period": "10 ms", "sib": {"granularity": 0, "si_window": 0}},
        "fault_probe": {"line_length_m": 600, "fault_position_m": 300,
                        "at": f"{propagation_ticks(500.0) - 10} ticks"},
    }
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    after = {c.node: c.error_after for c in trace.corrections if c.t_true == propagation_ticks(500.0)}
    arrival = trace.fault.t_fault + propagation_ticks(300.0)
    assert after["pmu_b"] != TICKS_PER_US   # the correction changes pmu_b's clock
    assert trace.fault.stamp_a - arrival == after["pmu_a"]
    assert trace.fault.stamp_b - arrival == after["pmu_b"]


def test_in_run_fault_probe_recorded():
    cfg = load_config(CONFIG_DIR / "pmu-fault.yaml")
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    assert trace.fault is not None
    assert trace.fault.t_fault == TICKS_PER_SECOND
    assert {trace.fault.pmu_a, trace.fault.pmu_b} == {"pmu_a", "pmu_b"}
