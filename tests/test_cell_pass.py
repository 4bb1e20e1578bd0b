"""The cell-wide passes against one-at-a-time references: SIB16 landings
and their relays against ClockState.set landing by landing, the correction
log read off the finished clocks against the steps logged as they were set,
and command deliveries against one delay draw and one stamp call per
command."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from airsync.clocks import ClockState, stamp
from airsync.config import Role, validate_config
from airsync.engine import derive_stream
from airsync.protocols import delay_estimate_from_index, gw_relay_sync, quantize_broadcast_time, sib16_broadcast
from airsync.scenario import BS_ALIGN, DELIVERY_DTYPE, GW_RELAY, SIB16, _Runner, build_scenario, ta_indices


class _Logged(ClockState):
    """A clock that appends a CORRECTION_DTYPE row to ``log`` at each set, as
    the step is taken."""

    def __init__(self, params, node, kind, log):
        super().__init__(params)
        self.node, self.kind, self.log = node, kind, log

    def set(self, at, reading):
        delta = super().set(at, reading)
        self.log.append((at, self.node, delta, self.kind, reading - at))
        return delta


class _LandingByLanding(_Runner):
    """A run whose SIB16 pass sets each landing on its own: each device in
    turn draws its losses one round at a time, then lands its rounds in
    (arrival, round) order with ClockState.set, and a gateway relays each
    reading it adopts as it lands, one relay draw at a time. Every clock
    logs its own steps as they are set, so ``rows`` is the correction log
    as the steps were taken, BS alignment included."""

    def __init__(self, scenario, duration):
        super().__init__(scenario, duration)
        self.logged = []
        kinds = {Role.BASE_STATION: BS_ALIGN, Role.LEGACY: GW_RELAY}
        self.clocks = {node: _Logged(clock.params, self.node_index.get(node), kinds.get(self.nodes[node].role, SIB16),
                                     self.logged) for node, clock in self.clocks.items()}
        self.relay_streams = {child: derive_stream(self.seed, f"relay/{child}")
                              for children in self.relays.values() for child in children}

    @property
    def rows(self):
        """The logged steps, stable-sorted by t_true."""
        return sorted(self.logged, key=lambda row: row[0])

    def relay(self, gateway):
        pass   # done landing by landing

    def sib_syncs(self, bs):
        if not self.attached[bs]:
            return
        broadcasts = []
        for round_no, at in enumerate(self.rounds(self.plan.resync_period)):
            rng = derive_stream(self.seed, f"sib/{bs}/{round_no}")
            broadcasts.append((sib16_broadcast(self.plan.sib.si_window, self.plan.sib.stamp_mode, rng, at), rng))
        stamped = {}
        loss_prob = self.config.link.loss_prob
        for device in self.attached[bs]:
            ta = ta_indices(self.seed, device, self.prop(bs, device), self.duration, self.plan.ta_timer_period,
                            self.plan.ta_noise_sigma, self.plan.ta_wrong_bin_prob)
            self.ta_index[device] = ta[-1]
            heard = list(range(len(broadcasts)))
            if loss_prob:
                loss = derive_stream(self.seed, f"loss/{device}")
                heard = [round_no for round_no in heard if loss.random() >= loss_prob]
                self.lost_sync += len(broadcasts) - len(heard)
            prop = self.prop(bs, device)
            for arrival, round_no in sorted((broadcasts[r][0].sent_at + prop, r) for r in heard):
                if arrival > self.duration:
                    break
                broadcast, rng = broadcasts[round_no]
                if round_no not in stamped:
                    stamped[round_no] = stamp(self.clocks[bs], broadcast.stamped_at, rng)
                reading = (quantize_broadcast_time(stamped[round_no], self.plan.sib.granularity)
                           + delay_estimate_from_index(ta[arrival // self.plan.ta_timer_period]))
                self.clocks[device].set(arrival, reading)
                for child in self.relays.get(device, ()):
                    relayed = gw_relay_sync(np.array([reading], dtype=object), self.plan.gw_relay_sigma,
                                            self.relay_streams[child])
                    self.clocks[child].set(arrival, relayed.item())


def _clock(draw, noise):
    return {"theta0": f"{draw(st.integers(-10**6, 10**6))} ticks", "skew_ppm": draw(st.sampled_from((0, 3.5, -20))),
            "drift_per_s": draw(st.sampled_from((0, 1e-7))), "stamp_noise": draw(st.sampled_from((0, noise)))}


@st.composite
def sib_cells(draw):
    """Small ta_sib16 configs. On the millisecond scale runs pass a TA timer
    expiry and rounds may overlap; on the tick scale periods of a few ticks
    and delays of a tick or two make devices land rounds at one tick."""
    ticks = draw(st.booleans())
    unit = "ticks" if ticks else "ms"
    resync = draw(st.integers(1, 5) if ticks else st.sampled_from((20, 25, 50, 60, 80)))
    periodicity = 12 if ticks else 80
    nodes = [{"id": "ref", "role": "reference"}]
    bs_ids = [f"bs{i}" for i in range(1, draw(st.integers(1, 2)) + 1)]
    # a node at the BS with no scheduling delay lands on the round's tick, so
    # also on a TA timer expiry
    spot = (lambda: [draw(st.sampled_from((0, 0.01, 0.02))), 0]) if ticks else \
        (lambda: draw(st.just([0, 0]) | st.tuples(st.integers(0, 2000), st.integers(-500, 500)).map(list)))
    for bs in bs_ids:
        nodes.append({"id": bs, "role": "base_station", "position": [0, 0] if bs == "bs1" else spot(),
                      "clock": _clock(draw, 31)})
    for i in range(draw(st.integers(1, 4))):
        role = draw(st.sampled_from(("ue", "pmu", "gateway")))
        nodes.append({"id": f"d{i}", "role": role, "attach_to": draw(st.sampled_from(bs_ids)), "position": spot(),
                      "clock": _clock(draw, 308)})
        if role == "gateway":
            for k in range(draw(st.integers(1, 2))):
                nodes.append({"id": f"d{i}_legacy{k}", "role": "legacy_device", "attach_to": f"d{i}",
                              "clock": _clock(draw, 0)})
    plan = {
        "enabler": "ta_sib16", "resync_period": f"{resync} {unit}", "ta_timer_ms": 500,
        "ta_noise_sigma": draw(st.sampled_from((0, 20_000))), "ta_wrong_bin_prob": draw(st.sampled_from((0, 0.3))),
        "gw_relay_sigma": draw(st.sampled_from((0, 922))),
        "sib": {"granularity": draw(st.sampled_from((0, "4 ticks", "1 us"))),
                "periodicity": f"{periodicity} {unit}",
                # up to several resync periods
                "si_window": f"{draw(st.just(0) | st.integers(0, periodicity))} {unit}",
                "stamp_mode": draw(st.sampled_from(("at_transmit", "at_schedule")))},
        "bs_alignment": draw(st.sampled_from(({"mode": "perfect"}, {"mode": "fixed_error", "error": "0.5 us"},
                                              {"mode": "ribs", "ribs_mode": "listen_only"}))),
    }
    duration = draw(st.integers(20, 90) if ticks else st.integers(400, 1100))
    return {"schema_version": 1, "seed": draw(st.integers(0, 2**31)), "duration": f"{duration} {unit}",
            "sampling_grid": f"{draw(st.integers(1, 7))} {unit}", "nodes": nodes, "sync_plan": plan,
            "link": {"loss_prob": draw(st.sampled_from((0, 0.3)))}}


def _run(runner_type, config):
    runner = runner_type(build_scenario(config), config.duration)
    return runner, runner.run()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=sib_cells())
def test_the_cell_pass_equals_landing_by_landing(raw):
    config = validate_config(raw)
    cell, trace = _run(_Runner, config)
    reference, expected = _run(_LandingByLanding, config)
    assert ({node: (c.installed_at, c.correction) for node, c in cell.clocks.items()}
            == {node: (c.installed_at, c.correction) for node, c in reference.clocks.items()})
    assert trace.correction_log.tolist() == reference.rows
    assert trace.lost_sync == expected.lost_sync
    assert list(trace.ta_index.items()) == list(expected.ta_index.items())
    assert np.array_equal(trace.errors, expected.errors)


# --- deliveries ---------------------------------------------------------------------------


def _one_command_at_a_time(runner):
    """(node, grid_index, true_arrival, local_stamp) rows of the run's
    deliveries, from one delay draw and one stamp call per command."""
    workload = runner.config.workload
    if workload is None:
        return []
    dist, duration = runner.config.link.extra_delay, runner.duration
    grid = range(workload.grid_phase, duration + 1, workload.command_period)
    rows = []
    for node, target in enumerate(workload.targets):
        parent = runner.nodes[target].attach_to
        lead = runner.prop(parent, target) if parent else 0
        delays = derive_stream(runner.seed, f"delivery/{target}")
        next_delay = {
            "none": lambda: 0,
            "uniform": lambda: delays.integers(dist.low, dist.high + 1),
            "normal": lambda: max(0, round(delays.normal(dist.mean, dist.sigma))),
        }[dist.kind]
        arrivals = [(at + lead + delay, k) for k, at in enumerate(grid) for delay in [next_delay()]]
        stamps = derive_stream(runner.seed, f"delivery_stamp/{target}")
        rows += [(node, k, arrival, stamp(runner.clocks[target], arrival, stamps))
                 for arrival, k in sorted(arrivals) if arrival <= duration]
    return sorted(rows, key=lambda row: (row[2], row[0], row[1]))


def _delivery_config(targets, extra_delay=None, far=False):
    ue = {"role": "ue", "attach_to": "bs1", "clock": {"theta0": "3 us", "skew_ppm": 4, "stamp_noise": 308}}
    nodes = [
        {"id": "ref", "role": "reference"},
        {"id": "bs1", "role": "base_station", "position": [0, 0], "clock": {"stamp_noise": 31}},
        dict(ue, id="ue1", position=[300, 40]),
        dict(ue, id="ue2", position=[-120, 900], clock={"theta0": "-2 us", "skew_ppm": -7}),   # no stamp noise
        # 40 km out: a command arrives 133 us after its grid point, past the run's end
        dict(ue, id="ue3", position=[40_000 if far else 10, 0]),
    ]
    raw = {"schema_version": 1, "seed": 17, "duration": "40 ms", "sampling_grid": "1 ms", "nodes": nodes,
           "sync_plan": {"enabler": "ta_sib16", "resync_period": "10 ms",
                         "sib": {"granularity": "1 us", "si_window": "5 ms"}}}
    if targets:
        raw["workload"] = {"command_period": "1 ms", "grid_phase": "39950 us" if far else 0, "targets": targets}
    if extra_delay:
        raw["link"] = {"extra_delay": extra_delay}
    return validate_config(raw)


DELIVERY_CASES = {
    "no-arrival-within-the-run": (_delivery_config(["ue1", "ue3"], far=True), lambda rows: {r[0] for r in rows} == {0}),
    "zero-stamp-noise": (_delivery_config(["ue2", "ue1"]), lambda rows: {r[0] for r in rows} == {0, 1}),
    "single-target": (_delivery_config(["ue1"]), lambda rows: len(rows) == 40),
    "reordering-delays": (_delivery_config(["ue1", "ue2", "ue3"], {"dist": "uniform", "low": 0, "high": "3 ms"}),
                          lambda rows: len(rows) > 100),
    # 2**62 is about 4.6e18 ticks: many delays lie past it, and no command arrives
    "normal-past-2**62": (_delivery_config(["ue1", "ue2"], {"dist": "normal", "mean": 4e18, "sigma": 1e18}),
                          lambda rows: rows == []),
    "no-workload": (_delivery_config([]), lambda rows: rows == []),
}


@pytest.mark.parametrize("case", DELIVERY_CASES)
def test_cell_wide_deliveries_equal_one_command_at_a_time(case):
    config, check = DELIVERY_CASES[case]
    runner = _Runner(build_scenario(config), config.duration)
    deliveries = runner.run().deliveries
    expected = _one_command_at_a_time(runner)
    assert deliveries.dtype == DELIVERY_DTYPE
    assert deliveries.tolist() == expected
    assert check(expected)
