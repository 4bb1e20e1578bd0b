"""The one-pass step sites against one-at-a-time references: SIB16
landings and their relays against SteppingClock.set landing by landing, the
correction log read off the finished clocks against the steps logged as
they were set, two-way exchanges and RIBS alignment against one exchange at
a time, and command deliveries against one delay draw and one stamp call
per command."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from airsync.clocks import ClockParams, stamp
from airsync.config import Role, validate_config
from airsync.engine import derive_stream
from airsync.protocols import gw_relay_sync
from airsync.scenario import BS_ALIGN, DELIVERY_DTYPE, GW_RELAY, SIB16, _Runner, build_scenario
from airsync.timebase import MAX_TICKS, TICKS_PER_MS, TICKS_PER_SECOND
from stepwise import OneAtATime, SteppingClock, steps_of


class _Logged(SteppingClock):
    """A clock that appends a CORRECTION_DTYPE row to ``log`` at each set, as
    the step is taken."""

    def __init__(self, params, node, kind, log):
        super().__init__(params)
        self.node, self.kind, self.log = node, kind, log

    def set(self, at, reading):
        delta = super().set(at, reading)
        self.log.append((at, self.node, delta, self.kind, reading - at))
        return delta


class _LandingByLanding(OneAtATime):
    """A run whose SIB16 pass sets each landing on its own (OneAtATime), and
    whose gateways relay each reading they adopt as it lands, one relay draw
    at a time. Every clock logs its own steps as they are set, so ``rows``
    is the correction log as the steps were taken, BS alignment included."""

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

    def land(self, device, at, reading):
        super().land(device, at, reading)
        for child in self.relays.get(device, ()):
            relayed = gw_relay_sync(np.array([reading], dtype=object), self.plan.gw_relay_sigma,
                                    self.relay_streams[child])
            self.clocks[child].set(at, relayed.item())


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
    assert ({node: steps_of(c) for node, c in cell.clocks.items()}
            == {node: steps_of(c) for node, c in reference.clocks.items()})
    assert trace.correction_log.tolist() == reference.rows
    assert trace.lost_sync == expected.lost_sync
    assert list(trace.ta_index.items()) == list(expected.ta_index.items())
    assert np.array_equal(trace.errors, expected.errors)


# --- two-way exchanges and RIBS alignment -------------------------------------------------


def _twoway_clock(draw, duration: int) -> dict:
    """An ordinary clock, or one at the edges a ``duration``-tick run
    validates: its phase, skew, drift or stamp noise at or near the limits,
    so that its readings, stamps and steps reach the bounds of the int64
    sums (clocks.py)."""
    if draw(st.integers(0, 2)):   # one clock in three at the edges
        return {"theta0": f"{draw(st.integers(-10**6, 10**6))} ticks", "skew_ppm": draw(st.sampled_from((0, 3.5, -20))),
                "drift_per_s": draw(st.sampled_from((0, 1e-7))),
                "stamp_noise": draw(st.sampled_from((0, 308, "1 ms")))}   # 1 ms reverses many exchanges' stamps
    drift_limit = 2 * MAX_TICKS * TICKS_PER_SECOND / duration**2
    return {"theta0": f"{draw(st.sampled_from((MAX_TICKS, -MAX_TICKS)) | st.integers(-MAX_TICKS, MAX_TICKS))} ticks",
            "skew_ppm": draw(st.sampled_from((999.9, -999.9, 0))),
            "drift_per_s": draw(st.sampled_from((0.0, drift_limit, -drift_limit, drift_limit / 3))),
            "stamp_noise": f"{draw(st.sampled_from((0, MAX_TICKS)) | st.integers(0, MAX_TICKS))} ticks"}


@st.composite
def twoway_runs(draw):
    """Small configs on the millisecond scale whose steps come from two-way
    exchanges (both device enablers) or RIBS alignment, two-way or
    listening, also beside a SIB16 cell. Exchanges take 1 ms plus two
    propagation and any extra delays, so with realign periods down to
    500 us RIBS rounds overlap; a node may sit at its BS (no propagation
    delay), so that t4 shares a tick with a step of the BS."""
    duration = draw(st.integers(6, 40)) * TICKS_PER_MS
    error = draw(st.sampled_from(("0.5 us", f"{MAX_TICKS} ticks", f"-{MAX_TICKS} ticks")))
    alignment = dict(draw(st.sampled_from(({"mode": "ribs", "ribs_mode": "two_way"},
                                           {"mode": "ribs", "ribs_mode": "listen_only"},
                                           {"mode": "ribs", "ribs_mode": "listen_ta"}, {"mode": "perfect"},
                                           {"mode": "fixed_error", "error": error}))),
                     realign_period=draw(st.sampled_from(("500 us", "700 us", "1 ms", "2 ms", "5 ms"))))
    spot = lambda: draw(st.just([0, 0]) | st.tuples(st.integers(0, 3000), st.integers(-500, 500)).map(list))
    nodes = [{"id": "ref", "role": "reference"},
             {"id": "bs1", "role": "base_station", "position": [0, 0], "clock": _twoway_clock(draw, duration)}]
    bs_ids = ["bs1"]
    if draw(st.integers(0, 3)):
        nodes.append({"id": "bs2", "role": "base_station", "position": spot(), "clock": _twoway_clock(draw, duration)})
        bs_ids.append("bs2")
    for i in range(draw(st.integers(0, 3))):
        role = draw(st.sampled_from(("ue", "pmu", "gateway")))
        nodes.append({"id": f"d{i}", "role": role, "attach_to": draw(st.sampled_from(bs_ids)), "position": spot(),
                      "clock": _twoway_clock(draw, duration)})
        if role == "gateway":
            nodes.append({"id": f"d{i}_legacy", "role": "legacy_device", "attach_to": f"d{i}",
                          "clock": _twoway_clock(draw, duration)})
    extra_delay = draw(st.sampled_from(({"dist": "none"}, {"dist": "uniform", "low": 0, "high": "3 ms"},
                                        {"dist": "normal", "mean": "1 ms", "sigma": "500 us"})))
    plan = {"enabler": draw(st.sampled_from(("dedicated_two_way", "ribs_ue", "ta_sib16"))),
            "resync_period": draw(st.sampled_from(("1 ms", "1500 us", "2 ms", "3 ms"))),
            "gw_relay_sigma": draw(st.sampled_from((0, 922, f"{MAX_TICKS} ticks"))), "bs_alignment": alignment}
    return {"schema_version": 1, "seed": draw(st.integers(0, 2**31)), "duration": f"{duration} ticks",
            "sampling_grid": "1 ms", "nodes": nodes, "sync_plan": plan,
            "link": {"loss_prob": draw(st.sampled_from((0, 0.3))), "extra_delay": extra_delay}}


def _outcome(runner):
    """What a run gives: its trajectories, correction log, lost syncs and
    errors."""
    trace = runner.run()
    return ({node: steps_of(c) for node, c in runner.clocks.items()}, trace.correction_log.tolist(), trace.lost_sync,
            trace.errors.tolist())


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=twoway_runs())
def test_the_exchange_pass_equals_one_exchange_at_a_time(raw):
    config = validate_config(raw)
    passed = _outcome(_Runner(build_scenario(config), config.duration))
    assert passed == _outcome(OneAtATime(build_scenario(config), config.duration))


class _Drawn:
    """Stands in for an exchange's stream: each stamp noise it is asked for
    is the next of ``noise``."""

    def __init__(self, noise):
        self.noise = iter(noise)

    def gauss_ticks(self, sigma):
        return next(self.noise)


_T = TICKS_PER_MS   # the turnaround
# at, delay_forward, delay_back, landing: the first exchange stamps t2 at 100, t3
# at 100 + _T, t4 at 200 + _T, and lands at 300 + _T; the second starts 1 tick later
_SENT = ((0, 100, 100, 300 + _T), (301 + _T, 100, 100, 2 * (300 + _T) + 1))

_NOISE = 14 * MAX_TICKS   # about the largest stamp noise a validated sigma draws (clocks.py)

# initiator phase, responder phase, then per exchange its t1 to t4 noise
EDGE_EXCHANGES = {
    # the responder's phase at its bound: its reads at t2, t3 and the landing the largest
    "read-at-landing": (0, MAX_TICKS, [[0, 0, 0, 0]]),
    # t2 and t3 read the largest noise low, t1 and t4 high, off a phase at its bound
    "reading": (MAX_TICKS, 0, [[_NOISE, -_NOISE, -_NOISE, _NOISE]]),
    # a step of 2 * MAX_TICKS, each phase at its bound
    "delta": (-MAX_TICKS, MAX_TICKS, [[0, 0, 0, 0]]),
    # 5 ms of noise on t1 puts t4 before it: a lost sync, then a step
    "reversed": (0, 5000, [[5 * TICKS_PER_MS, 0, 0, 0], [0, 0, 0, 0]]),
}


def _exchange(runner, noise: list, exchange: str):
    """ue1's trajectory, and the lost syncs, after bs1 starts an exchange
    with it per entry of ``noise`` (the exchange's t1 to t4 stamp noise), at
    the instants _SENT gives: in one pass, or one exchange at a time."""
    sent = [(*timing, tuple(n)) for timing, n in zip(_SENT, noise)]
    if exchange == "pass":
        at, forward, back, landing = (np.array(column, dtype=np.int64) for column in zip(*_SENT[:len(noise)]))
        runner.exchanges("bs1", "ue1", at, forward, back, landing, np.array(noise, dtype=float))
    else:
        for at, forward, back, landing, n in sent:
            runner.twoway_step("bs1", "ue1", at, forward, back, _Drawn(n), landing)
    return steps_of(runner.clocks["ue1"]), runner.lost_sync


@pytest.mark.parametrize("case", EDGE_EXCHANGES)
def test_the_exchange_pass_checks_what_stamp_and_set_checked(case):
    # each stamp as local_time plus its noise, and at each step the read and
    # the reading, at the edges of the validated range: the int64 pass gives
    # what exact one-at-a-time stamps and sets give
    initiator, responder, noise = EDGE_EXCHANGES[case]
    config = validate_config({"schema_version": 1, "seed": 1, "duration": "10 ms", "nodes": [
        {"id": "ref", "role": "reference"}, {"id": "bs1", "role": "base_station", "position": [0, 0]},
        {"id": "ue1", "role": "ue", "attach_to": "bs1", "position": [0, 0]}], "sync_plan": {"enabler": "ribs_ue"}})
    scenario = build_scenario(config)
    scenario = scenario._replace(clocks=dict(scenario.clocks, bs1=ClockParams(theta0=initiator),
                                             ue1=ClockParams(theta0=responder)))
    passed = _exchange(_Runner(scenario, config.duration), noise, "pass")
    assert passed == _exchange(OneAtATime(scenario, config.duration), noise, "one at a time")
    (steps, _), lost = passed
    assert (len(steps), lost) == ((1, 1) if case == "reversed" else (1, 0))


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
