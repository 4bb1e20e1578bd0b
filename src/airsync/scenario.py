"""Scenario execution.

This module only runs configs; config.py owns their types, defaults and
rules. A validated config already holds the node graph (reference source,
base stations, UEs, gateways, legacy devices, PMUs), the link model and the
synchronization plan. Building a scenario only draws each node's clock
parameters. Running it gives each node one clock, drives an event loop that
only steps clocks (inter-BS alignment, TA upkeep, per-device OTA sync,
gateway relay), then reads samples, deliveries and the fault probe from them
into the trace records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional

import numpy as np

from .clocks import ClockParams, ClockState, clock_error, local_times, stamp, stamps
from .config import ATTACHED_ROLES, DEVICE_ROLES, BsAlignmentMode, Enabler, Node, Role, ScenarioConfig
from .engine import Event, RngStream, Simulator, derive_stream
from .errors import InvalidGeometryError, TickOverflowError
from .protocols import (
    Broadcast,
    RibsMode,
    SyncResult,
    apply_ta_command,
    compute_ta_initial,
    compute_ta_update,
    gw_relay_sync,
    measure_rtt,
    ribs_align,
    ribs_landing,
    sib16_broadcast,
    sib16_sync_cycle,
    step_clock,
    twoway_exchange,
    twoway_offset,
)
from .timebase import TA_STEP_TICKS, TICKS_PER_SECOND, propagation_ticks


@dataclass
class Scenario:
    """A validated config plus what building adds: the root seed and each
    node's drawn clock parameters."""

    config: ScenarioConfig
    seed: int
    clocks: dict[str, ClockParams]


# --- trace records -----------------------------------------------------------


@dataclass(frozen=True)
class CorrectionEvent:
    t_true: int
    node: str
    delta: int
    kind: str     # sib16 | two_way | gw_relay | bs_align
    error_after: int


@dataclass(frozen=True)
class FaultStamps:
    t_fault: int
    pmu_a: str
    pmu_b: str
    stamp_a: int
    stamp_b: int


@dataclass
class RawTrace:
    """What one run leaves for analysis.

    ``samples`` and ``deliveries`` are numpy record arrays, built column by
    column. ``samples`` (t_true, node, error) is instant-major: row
    ``i * len(sampled) + j`` is node ``sampled[j]`` (the non-reference nodes,
    in config order) at the i-th sampling instant, so ``samples.error``
    reshapes into an (instants x nodes) matrix; an error is the local reading
    minus reference time, in ticks. ``deliveries`` (node, grid_index,
    grid_point, true_arrival, local_stamp) has one row per delivered command,
    in stamp order, and none without a workload. ``devices`` holds the
    device node ids.
    """

    sampled: tuple[str, ...]
    samples: np.recarray
    deliveries: np.recarray
    devices: frozenset[str]
    corrections: list[CorrectionEvent]
    ta_index: dict[str, int]
    lost_sync: int
    fault: Optional[FaultStamps]
    dispatched: int


# --- construction --------------------------------------------------------------


def link_propagation(a: Node, b: Node) -> int:
    if a.position is None or b.position is None:
        return 0
    return propagation_ticks(math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1]))


def build_scenario(config: ScenarioConfig, root_seed: Optional[int] = None) -> Scenario:
    """Draw every node's clock parameters, once, from its labeled stream.

    The config is already validated, graph included. Construction is pure:
    the same (config, seed) always produces an identical initial state.
    """
    seed = config.seed if root_seed is None else root_seed
    clocks = {
        node_id: node.clock.draw(derive_stream(seed, f"init/{node_id}"))
        for node_id, node in config.nodes.items()
    }
    return Scenario(config=config, seed=seed, clocks=clocks)


# --- execution -------------------------------------------------------------------


class _Runner:
    """One scenario run; owns each node's clock, TA state and correction log.

    Each node has one ClockState for the whole run, started from its drawn
    parameters. Only clock steps are events; observations read the clocks.

    Each stream label is derived at most once per run. Persistent labels
    (``ta/``, ``loss/``, ``exchange/``, ``relay/``) come from :meth:`rng` and
    keep drawing for the whole run; one-shot labels (a round's broadcast or
    alignment, a target's delivery delays and stamps, the fault probe) are
    derived where they are used and dropped.
    """

    def __init__(self, scenario: Scenario, duration: int):
        self.config = scenario.config
        self.duration = duration
        self.seed = scenario.seed
        self.sim = Simulator()
        self.plan = self.config.sync_plan
        self.nodes = self.config.nodes
        self.clocks = {node: ClockState(params) for node, params in scenario.clocks.items()}
        self.ta_index: dict[str, int] = {}
        self.streams: dict[str, RngStream] = {}
        self.corrections: list[CorrectionEvent] = []
        self.lost_sync = 0
        self.base_stations = [n.id for n in self.nodes.values() if n.role is Role.BASE_STATION]
        self.attached: dict[str, list[str]] = {bs: [] for bs in self.base_stations}
        self.gw_children: dict[str, list[str]] = {}
        for node in self.nodes.values():
            if node.role in ATTACHED_ROLES and node.attach_to in self.attached:
                self.attached[node.attach_to].append(node.id)
            elif node.role is Role.LEGACY:
                self.gw_children.setdefault(node.attach_to, []).append(node.id)
        nodes = self.nodes   # closing over self instead would hold the runner in a reference cycle
        self.prop = cache(lambda a, b: link_propagation(nodes[a], nodes[b]))

    def rng(self, label: str) -> RngStream:
        """The run's persistent stream for ``label``, derived on first use."""
        stream = self.streams.get(label)
        if stream is None:
            stream = self.streams[label] = derive_stream(self.seed, label)
        return stream

    def set_clock(self, node: str, kind: str, result: SyncResult) -> None:
        """Step ``node``'s clock now by ``result``: the only clock change in a run.

        Logs the correction and relays a gateway's new time into its wired
        domain.
        """
        at = self.sim.now
        self.clocks[node].step(at, result.correction)
        self.corrections.append(CorrectionEvent(at, node, result.correction, kind, result.error))
        for child in self.gw_children.get(node, ()):  # only gateways have children
            self.set_clock(child, "gw_relay", gw_relay_sync(
                self.clocks[node], self.clocks[child], self.plan.gw_relay_sigma, self.rng(f"relay/{child}"), at=at
            ))

    def land(self, node: str, kind: str, at: int, measure: Callable[[], SyncResult]) -> None:
        """Schedule a sync landing on ``node`` at ``at``: ``measure`` then reads each stamp from
        a clock at its own instant, and ``node``'s clock steps by the delta."""

        def apply(sim: Simulator, _event: Event) -> None:
            self.set_clock(node, kind, measure())

        self.sim.at(at, apply, kind="apply_sync", target=node)

    # -- alignment --

    def align_base_stations(self, sim: Simulator, event: Event) -> None:
        align = self.plan.bs_alignment
        round_no = event.payload
        for i, bs in enumerate(self.base_stations):
            if align.mode is BsAlignmentMode.RIBS and i > 0:
                self.ribs_sync(self.base_stations[0], bs, round_no, sim.now)
            else:  # steered directly: the anchor to 0, others to their offset (0 unless FIXED_ERROR)
                clock = self.clocks[bs]
                delta = clock_error(clock, sim.now) - (align.error if i > 0 else 0)
                self.set_clock(bs, "bs_align", step_clock(clock, delta, sim.now))
        if align.realign_period:
            next_at = sim.now + align.realign_period
            if next_at <= self.duration:
                sim.at(next_at, self.align_base_stations, kind="bs_align", payload=round_no + 1)

    def ribs_sync(self, anchor: str, bs: str, round_no: int, at: int) -> None:
        mode = self.plan.bs_alignment.ribs_mode
        prop = self.prop(anchor, bs)
        helper_index = None
        if mode is RibsMode.LISTEN_TA:
            rtt = measure_rtt(
                prop, self.plan.ta_noise_sigma, self.plan.ta_wrong_bin_prob,
                derive_stream(self.seed, f"ribs_helper/{bs}/{round_no}"),
            )
            helper_index = compute_ta_initial(rtt).value
        self.land(bs, "bs_align", ribs_landing(mode, at, prop, prop, self.plan.turnaround), partial(
            ribs_align, mode, self.clocks[anchor], self.clocks[bs], prop,
            derive_stream(self.seed, f"ribs/{bs}/{round_no}"), helper_ta_index=helper_index,
            at=at, turnaround=self.plan.turnaround,
        ))

    # -- timing advance maintenance --

    def ta_step(self, sim: Simulator, event: Event) -> None:
        """Initial TA command on attach, an update at every timer expiry."""
        device = event.target
        rtt = measure_rtt(
            self.prop(self.nodes[device].attach_to, device),
            self.plan.ta_noise_sigma,
            self.plan.ta_wrong_bin_prob,
            self.rng(f"ta/{device}"),
        )
        current = self.ta_index.get(device)
        if current is None:
            command = compute_ta_initial(rtt)
        else:
            command = compute_ta_update(rtt - current * TA_STEP_TICKS)
        self.ta_index[device] = apply_ta_command(current, command)
        next_at = sim.now + self.plan.ta_timer_period
        if next_at <= self.duration:
            sim.at(next_at, self.ta_step, kind="ta_refresh", target=device)

    # -- per-round OTA sync --

    def sync_round(self, sim: Simulator, event: Event) -> None:
        bs = event.target
        round_no = event.payload
        link = self.config.link
        sib = self.plan.enabler is Enabler.TA_SIB16
        if sib:
            # one broadcast per (BS, round), heard by every attached device
            rng = derive_stream(self.seed, f"sib/{bs}/{round_no}")
            broadcast = sib16_broadcast(self.plan.sib, rng, sim.now)
            bs_value: list[int] = []
        for device in self.attached[bs]:
            if link.loss_prob > 0 and self.rng(f"loss/{device}").random() < link.loss_prob:
                self.lost_sync += 1
                continue
            if sib:
                self.sib_sync(bs, device, broadcast, rng, bs_value)
            else:
                self.twoway_sync(bs, device, sim.now)
        next_at = sim.now + self.plan.resync_period
        if next_at <= self.duration:
            sim.at(next_at, self.sync_round, kind="sync_round", target=bs, payload=round_no + 1)

    def sib_sync(self, bs: str, device: str, broadcast: Broadcast, rng: RngStream, value: list[int]) -> None:
        prop = self.prop(bs, device)

        def measure() -> SyncResult:
            if not value:   # the BS stamps once, at the round's first landing (each follows stamped_at)
                value.append(stamp(self.clocks[bs], broadcast.stamped_at, rng))
            return sib16_sync_cycle(
                broadcast, value[0], self.clocks[device], self.plan.sib,
                self.ta_index.get(device), prop,
            )

        self.land(device, "sib16", broadcast.sent_at + prop, measure)

    def twoway_sync(self, bs: str, device: str, at: int) -> None:
        rng = self.rng(f"exchange/{device}")
        prop = self.prop(bs, device)
        if self.plan.enabler is Enabler.DEDICATED_TWO_WAY:
            # dynamically scheduled signaling: an independent queueing draw in
            # each direction, which is exactly what makes the path asymmetric
            delay_forward, delay_back = (prop + int(d) for d in self.config.link.extra_delay.draw(rng, 2))
        else:
            delay_forward = delay_back = prop

        def measure() -> SyncResult:
            offset = twoway_offset(twoway_exchange(
                self.clocks[bs], self.clocks[device], at, delay_forward, delay_back, self.plan.turnaround, rng,
            )).offset
            return step_clock(self.clocks[device], offset, self.sim.now)

        self.land(device, "two_way", at + delay_forward + self.plan.turnaround + delay_back + prop, measure)

    # -- assembly --

    def run(self) -> RawTrace:
        sim = self.sim
        sim.at(0, self.align_base_stations, kind="bs_align", payload=0)
        for bs in self.base_stations:
            for device in self.attached[bs]:
                sim.at(0, self.ta_step, kind="attach", target=device)
        for bs in self.base_stations:
            if self.attached[bs]:
                sim.at(0, self.sync_round, kind="sync_round", target=bs, payload=0)
        dispatched = sim.run_until(self.duration)
        sampled = tuple(n.id for n in self.nodes.values() if n.role is not Role.REFERENCE)
        return RawTrace(
            sampled=sampled, samples=self.sample(sampled), deliveries=self.deliver(),
            devices=frozenset(n.id for n in self.nodes.values() if n.role in DEVICE_ROLES),
            corrections=self.corrections, ta_index=self.ta_index, lost_sync=self.lost_sync,
            fault=self.probe_fault() if self.config.fault_probe is not None else None, dispatched=dispatched,
        )

    # -- observation, after the run: samples, deliveries and the fault probe, read from the clocks --

    def sample(self, sampled: tuple[str, ...]) -> np.recarray:
        """Each node of ``sampled`` at each sampling instant, instant-major."""
        instants = np.arange(0, self.duration + 1, self.config.sampling_grid, dtype=np.int64)
        samples = np.recarray((len(instants), len(sampled)), dtype=[
            ("t_true", np.int64), ("node", np.array(sampled, dtype=str).dtype), ("error", np.int64),
        ])
        samples.t_true = instants[:, None]
        samples.node = sampled
        for j, node in enumerate(sampled):
            local = local_times(self.clocks[node], instants)
            samples.error[:, j] = local - instants
            if np.any(samples.error[:, j] > local):   # local - t wrapped below INT64_MIN
                raise TickOverflowError(f"clock error of {node!r} outside the signed 64-bit range")
        return samples.ravel()

    def deliver(self) -> np.recarray:
        """Each workload command that arrives within the run, stamped by its
        target's clock on arrival; ordered by arrival, target, grid index.

        Each target's delays come from its own stream in grid order, and its
        stamps from its own stream in its own arrival order."""
        workload = self.config.workload
        targets = workload.targets if workload is not None else ()
        late = self.duration + 1   # a later arrival is not delivered
        grid = (np.arange(workload.grid_phase, late, workload.command_period, dtype=np.int64) if targets
                else np.empty(0, dtype=np.int64))
        arrival = np.full((len(targets), len(grid)), late, dtype=np.int64)
        local_stamp = np.empty_like(arrival)
        for i, target in enumerate(targets):
            parent = self.nodes[target].attach_to
            delay = self.config.link.extra_delay.draw(derive_stream(self.seed, f"delivery/{target}"), len(grid))
            # the propagation delay is clipped at the run's end and the extra delay at
            # 2**62 ticks (past any duration validate_config admits), then compared with
            # the room left rather than added, so no int64 sum or cast can wrap
            lead = min(self.prop(parent, target) if parent else 0, late)
            delay = np.minimum(delay, 2**62).astype(np.int64)
            arrives = np.flatnonzero(delay <= self.duration - lead - grid)
            arrival[i, arrives] = grid[arrives] + lead + delay[arrives]
            arrives = arrives[np.argsort(arrival[i, arrives], kind="stable")]
            if len(arrives):
                local_stamp[i, arrives] = stamps(self.clocks[target], arrival[i, arrives],
                                                 derive_stream(self.seed, f"delivery_stamp/{target}"))
        index, k = np.nonzero(arrival < late)
        order = np.lexsort((k, index, arrival[index, k]))
        index, k = index[order], k[order]
        names = np.array(targets, dtype=str)
        deliveries = np.recarray(len(k), dtype=[
            ("node", names.dtype), ("grid_index", np.int64), ("grid_point", np.int64),
            ("true_arrival", np.int64), ("local_stamp", np.int64),
        ])
        deliveries.node = names[index]   # one column at a time: a single temporary is alive
        deliveries.grid_index = k
        deliveries.grid_point = grid[k]
        deliveries.true_arrival = arrival[index, k]
        deliveries.local_stamp = local_stamp[index, k]
        return deliveries

    def probe_fault(self) -> FaultStamps:
        probe = self.config.fault_probe
        probe_at = self.duration if probe.at is None else probe.at
        pmu_a, pmu_b = probe.pmu_ids
        stamp_a, stamp_b = fault_wave_stamps(
            self.clocks[pmu_a], self.clocks[pmu_b],
            probe.fault_position_m, probe.line_length_m, probe.wave_speed_mps, at=probe_at,
            rng_a=derive_stream(self.seed, f"fault/{pmu_a}"),
            rng_b=derive_stream(self.seed, f"fault/{pmu_b}"),
        )
        return FaultStamps(probe_at, pmu_a, pmu_b, stamp_a, stamp_b)


def run_scenario(scenario: Scenario, duration: int) -> RawTrace:
    """Execute one scenario for ``duration`` ticks, with its own seed, and
    return the raw trace."""
    if duration <= 0:
        raise ValueError("duration must be > 0")
    return _Runner(scenario, duration).run()


# --- fault probe -------------------------------------------------------------------


def fault_wave_stamps(
    clock_a: ClockState,
    clock_b: ClockState,
    fault_position: float,
    line_length: float,
    wave_speed: float,
    rng_a: RngStream,
    rng_b: RngStream,
    at: int = 0,
) -> tuple[int, int]:
    """True wave arrivals at the two line ends, each stamped by its PMU's clock as it reads then."""
    if line_length <= 0 or not 0 <= fault_position <= line_length or wave_speed <= 0:
        raise InvalidGeometryError(
            f"fault at {fault_position} m on a {line_length} m line "
            f"(wave speed {wave_speed} m/s)"
        )
    arrival_a = at + round(fault_position / wave_speed * TICKS_PER_SECOND)
    arrival_b = at + round((line_length - fault_position) / wave_speed * TICKS_PER_SECOND)
    return stamp(clock_a, arrival_a, rng_a), stamp(clock_b, arrival_b, rng_b)

