"""Scenario execution.

This module only runs configs; config.py owns their types, defaults and
rules. A validated config already holds the node graph (reference source,
base stations, UEs, gateways, legacy devices, PMUs), the link model and the
synchronization plan. Building a scenario only draws each node's clock
parameters. Running it gives each node one clock and steps the clocks down
the sync tree, parent first: the anchor BS, the other BSs (steered or
RIBS-aligned to the anchor), then each BS's devices (SIB16 with TA, the
whole cell in one array pass, or two-way, each device's exchanges in one
pass), then each gateway's legacy devices. Every site computes a clock's
readings first and installs all its steps with one clocks.set_readings
call. A read at instant t sees every step installed at or before t.
Samples, deliveries and the fault probe are then read from the finished
clocks, all nodes at once, into the trace records. The trace keeps
the finished trajectories of the clocks the sync tree steps, and the
correction log is read off them only when it is asked for (trace.json and
tests ask; the report does not).
A step whose delta or error after it passes the signed 64-bit range is
recorded as the clock installs it and raised once the sync phase is over.

A SIB16 cell's draws read no clock: which rounds each device hears and when
they land, its TA indices, and each broadcast's scheduling delay and BS
stamp noise. cell_schedule computes them from the seed and the few config
values they depend on, and keeps the last few schedules per process, so the
points of a sweep whose value leaves them unchanged (the granularity, say)
share them. The run then only reads the BS clock at the stamp instants, in
one bulk read, quantizes, and installs the devices' readings. A cached schedule is what a
fresh one would be, so the cache changes no draw and no output.

The BS side is kept the same way. What BS alignment leaves (each BS's
trajectory and overflow, and the syncs its RIBS rounds lost) depends only on
hashable config values: the duration, the BSs (id, clock parameters,
position), the alignment plan and, under RIBS alone, which draws, the seed
and what its rounds take. A SIB16 cell's BS stamps depend on those, the
cell's schedule and whether the granularity lies below clocks._SMALL. Both
are kept per process under those keys, read-only and bounded in bytes, so
the points of a granularity sweep step a steered BS once and read its stamps
once per repetition seed; a run with a kept key installs them instead.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from functools import cache, wraps
from typing import NamedTuple, Optional

import numpy as np

from .clocks import (
    _SMALL, ClockParams, ClockState, Trajectory, broadcast_stamps, clock_errors, in_tick_range, local_times,
    read_steps, set_readings, stamp, stamps, unstepped_readings, whole,
)
from .config import ATTACHED_ROLES, DEVICE_ROLES, BsAlignmentMode, Enabler, Node, Role, ScenarioConfig, Workload
from .engine import RngStream, derive_stream
from .errors import CausalityViolationError, TickOverflowError
from .protocols import (
    ExchangeRecord,
    RibsMode,
    StampMode,
    apply_ta_command,
    compute_ta_initial,
    compute_ta_update,
    delay_estimate_from_index,
    gw_relay_sync,
    measure_rtt,
    quantize_broadcast_time,
    sib16_broadcast,
    twoway_offset,
)
from .timebase import INT64_MAX, TA_STEP_TICKS, TICKS_PER_SECOND, propagation_ticks


class Scenario(NamedTuple):
    """A validated config plus what building adds: the root seed and each
    node's drawn clock parameters."""

    config: ScenarioConfig
    seed: int
    clocks: dict[str, ClockParams]


# --- trace records -----------------------------------------------------------

CORRECTION_KINDS = ("sib16", "two_way", "gw_relay", "bs_align")
SIB16, TWO_WAY, GW_RELAY, BS_ALIGN = range(len(CORRECTION_KINDS))   # a correction's kind index

# packed: 28 bytes a delivery, 29 a correction
DELIVERY_DTYPE = np.dtype([
    ("node", np.int32), ("grid_index", np.int64), ("true_arrival", np.int64), ("local_stamp", np.int64),
])
NO_DELIVERIES = np.recarray(0, dtype=DELIVERY_DTYPE)   # every run without a workload shares it
NO_DELIVERIES.flags.writeable = False
CORRECTION_DTYPE = np.dtype([
    ("t_true", np.int64), ("node", np.int32), ("delta", np.int64), ("kind", np.int8), ("error_after", np.int64),
])


class CorrectionEvent(NamedTuple):
    """One row of ``RawTrace.corrections``."""

    t_true: int
    node: str
    delta: int
    kind: str     # sib16 | two_way | gw_relay | bs_align
    error_after: int


class SteppedClock(NamedTuple):
    """A clock the sync tree steps, as read_steps reads it: its finished
    trajectory and its parameters. Then the keys that place its steps in the
    correction log: the node's index in ``sampled``, its group (a BS, or a
    device with its legacy devices), its place in the group, its kind."""

    trajectory: Trajectory
    params: ClockParams
    node: int
    group: int
    member: int
    kind: int


class FaultStamps(NamedTuple):
    t_fault: int
    pmu_a: str
    pmu_b: str
    stamp_a: int
    stamp_b: int


class RawTrace(NamedTuple):
    """What one run leaves for analysis, as integer columns: no row holds a
    string or a Python object.

    ``errors[i, j]`` is node ``sampled[j]`` (the non-reference nodes, in
    config order) at sampling instant ``instants[i]``: its local reading
    minus reference time, in ticks. ``deliveries`` has one row per delivered
    command, in stamp order, and none without a workload: ``node`` indexes
    ``workload.targets``, and the command's grid point is
    ``workload.grid_point(grid_index)``. ``stepped`` holds the finished
    trajectories of the clocks the sync tree steps (every BS, device and
    legacy device), in log order. ``devices`` holds the device node ids and
    ``ta_index`` each SIB16 device's final TA index.

    ``correction_log`` is built on each access, from ``stepped``; the
    statistics never read it. ``samples`` and ``corrections`` are row views
    of the same data, built on each access, with ids as Python strings.
    """

    sampled: tuple[str, ...]
    instants: np.ndarray        # int64
    errors: np.ndarray          # int64, instants x sampled
    workload: Optional[Workload]
    deliveries: np.recarray     # DELIVERY_DTYPE
    stepped: tuple[SteppedClock, ...]
    devices: frozenset[str]
    ta_index: dict[str, int]
    lost_sync: int
    fault: Optional[FaultStamps]

    @property
    def samples(self) -> np.recarray:
        """(t_true, node, error) rows, instant-major: row ``i * len(sampled) + j``
        is ``errors[i, j]``."""
        rows = np.recarray(self.errors.shape, dtype=[("t_true", np.int64), ("node", object), ("error", np.int64)])
        rows.t_true = self.instants[:, None]
        rows.node = np.array(self.sampled, dtype=object)
        rows.error = self.errors
        return rows.ravel()

    @property
    def correction_log(self) -> np.ndarray:
        """Every clock step as a CORRECTION_DTYPE row, ordered by (t_true,
        group, step, member): steps at one tick as computed (BSs, then
        devices, a gateway's step just before its relays of it). Its ``node``
        indexes ``sampled`` and its ``kind`` indexes CORRECTION_KINDS."""
        which, at, delta, error = read_steps(self.stepped)
        keys = [(stepped.node, stepped.group, stepped.member, stepped.kind) for stepped in self.stepped]
        node, group, member, kind = np.array(keys, dtype=np.int64).reshape(-1, 4)[which].T
        step = np.arange(len(which)) - np.searchsorted(which, which)   # each clock's steps are contiguous
        order = np.lexsort((member, step, group, at))   # a legacy device's k-th step relays its gateway's k-th
        log = np.empty(len(which), dtype=CORRECTION_DTYPE)
        for name, column in zip(CORRECTION_DTYPE.names, (at, node, delta, kind, error)):
            log[name] = column[order]   # in range: the run checked each step as the clock installed it
        return log

    @property
    def corrections(self) -> list[CorrectionEvent]:
        """``correction_log`` as one CorrectionEvent a row."""
        log = self.correction_log
        return [CorrectionEvent(t, self.sampled[node], delta, CORRECTION_KINDS[kind], error)
                for t, node, delta, kind, error in zip(*(log[name].tolist() for name in log.dtype.names))]


# --- construction --------------------------------------------------------------


def link_propagation(a: Node, b: Node) -> int:
    if a.position is None or b.position is None:
        return 0
    return propagation_ticks(math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1]))


def build_scenario(config: ScenarioConfig, root_seed: Optional[int] = None) -> Scenario:
    """Draw every node's clock parameters, once, from its labeled stream
    (``init/{node}``, derived only for a clock with a uniform range).

    The config is already validated, graph included. Construction is pure:
    the same (config, seed) always produces an identical initial state.
    """
    seed = config.seed if root_seed is None else root_seed
    clocks = {
        node_id: node.clock.draw(derive_stream(seed, f"init/{node_id}") if node.clock.drawn else None)
        for node_id, node in config.nodes.items()
    }
    return Scenario(config=config, seed=seed, clocks=clocks)


# --- a SIB16 cell's schedule: its draws, which read no clock --------------------------


def heard_rounds(seed: int, device: str, rounds: int, loss_prob: float) -> np.ndarray:
    """Which of ``rounds`` rounds reach ``device``, as a mask; each round
    draws its loss from ``loss/{device}``, in round order, unless
    ``loss_prob`` is 0."""
    if loss_prob == 0:
        return np.ones(rounds, dtype=bool)
    return derive_stream(seed, f"loss/{device}").random(rounds) >= loss_prob


def ta_indices(seed: int, device: str, prop: int, duration: int, period: int, noise_sigma: float,
               wrong_bin_prob: float) -> list[int]:
    """``device``'s TA index from each TA timer expiry on: the initial
    command on attach, then an update at every expiry within the run, each
    from one RTT measurement drawn from ``ta/{device}``."""
    rng = derive_stream(seed, f"ta/{device}")
    indices: list[int] = []
    current = None
    for _ in range(0, duration + 1, period):
        rtt = measure_rtt(prop, noise_sigma, wrong_bin_prob, rng)
        command = compute_ta_initial(rtt) if current is None else compute_ta_update(rtt - current * TA_STEP_TICKS)
        current = apply_ta_command(current, command)
        indices.append(current)
    return indices


class CellSchedule(NamedTuple):
    """What a SIB16 cell's run draws, before any clock is read: which device
    lands which round when, with which TA estimate, and what the BS stamps.

    Landings are device-major, each device's in (arrival, round) order; the
    landed rounds, those some device lands, are in (sent_at, round) order.
    Every array is read-only; the index columns take the smallest unsigned
    type that holds them."""

    lost_sync: int                # rounds lost, over the cell's devices
    ta_index: tuple[int, ...]     # each device's final TA index
    device: np.ndarray            # per landing: the device's index in the cell
    at: np.ndarray                # int64: its true instant
    ta_delay: np.ndarray          # int64: the device's TA one-way estimate then
    landed: np.ndarray            # the index of its round among the landed rounds
    stamped_at: np.ndarray        # int64, per landed round: the true instant the BS stamps it
    noise: np.ndarray             # float64, whole: the BS stamp noise then (a draw may pass int64)


_SCHEDULE_CACHE_SIZE = 64         # values each memo keeps per process (README, "Randomness")
_SCHEDULE_CACHE_BYTES = 1 << 18   # the largest value kept, in array bytes: 64 keep at most 16 MiB


def _frozen(array: np.ndarray, dtype=np.int64) -> np.ndarray:
    array = array.astype(dtype)
    array.flags.writeable = False
    return array


def _nbytes(value) -> int:
    """The bytes of the arrays ``value`` holds, in tuples nested at any depth."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    return sum(map(_nbytes, value)) if isinstance(value, tuple) else 0


class _Kept:
    """Values kept per process under their arguments, as
    ``lru_cache(_SCHEDULE_CACHE_SIZE, typed=True)`` keeps them, except that a
    value whose arrays pass _SCHEDULE_CACHE_BYTES is not kept. Typed: a float
    seed names other streams than the int it equals."""

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()

    def get(self, args: tuple):
        key = (*args, *map(type, args))
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
        return value

    def keep(self, args: tuple, value):
        if _nbytes(value) <= _SCHEDULE_CACHE_BYTES:
            self.entries[(*args, *map(type, args))] = value
            if len(self.entries) > _SCHEDULE_CACHE_SIZE:
                self.entries.popitem(last=False)
        return value

    def cache_clear(self) -> None:
        self.entries.clear()


def _keep_small(draw):
    """``draw``, memoized in a _Kept."""
    kept = _Kept()

    @wraps(draw)
    def cached(*args):
        value = kept.get(args)
        return kept.keep(args, draw(*args)) if value is None else value

    cached.cache_clear = kept.cache_clear
    cached.kept = kept.entries
    return cached


@_keep_small
def cell_schedule(seed: int, bs: str, devices: tuple[str, ...], props: tuple[int, ...], duration: int,
                  resync_period: int, si_window: int, stamp_mode: StampMode, stamp_noise_sigma: float,
                  loss_prob: float, ta_timer_period: int, ta_noise_sigma: float,
                  ta_wrong_bin_prob: float) -> CellSchedule:
    """The schedule of ``bs``'s cell, whose ``devices`` lie ``props`` ticks
    away: a pure function of its arguments, kept for the last
    _SCHEDULE_CACHE_SIZE cells a process asked for whose arrays take at
    most _SCHEDULE_CACHE_BYTES.

    A round's broadcast is drawn once for the cell from ``sib/{bs}/{round}``:
    its scheduling delay, then, if some device lands it, the BS stamp noise.
    Each device lands the rounds in the same (sent_at, round) order, shifted
    by its own propagation delay, so slot k of the (slot x device) arrays is
    the k-th round of that order for all of them."""
    late = duration + 1
    rounds = range(0, late, resync_period)
    streams = [derive_stream(seed, f"sib/{bs}/{round_no}") for round_no in range(len(rounds))]
    broadcasts = [sib16_broadcast(si_window, stamp_mode, rng, at) for rng, at in zip(streams, rounds)]
    # a send or a delay past the run is clipped to its end: that landing is past it either way
    sent = np.array([min(broadcast.sent_at, late) for broadcast in broadcasts], dtype=np.int64)
    order = np.argsort(sent, kind="stable")
    arrival = sent[order, None] + np.array([min(prop, late) for prop in props], dtype=np.int64)
    lands = np.stack([heard_rounds(seed, device, len(rounds), loss_prob) for device in devices], axis=1)
    lost_sync = lands.size - int(np.count_nonzero(lands))
    lands = lands[order] & (arrival <= duration)
    ta = [ta_indices(seed, device, prop, duration, ta_timer_period, ta_noise_sigma, ta_wrong_bin_prob)
          for device, prop in zip(devices, props)]
    landed = lands.any(axis=1)   # the slots some device lands
    stamped = order[landed].tolist()
    device, slot = np.nonzero(lands.T)   # device-major: each device's landings in order
    at = arrival[slot, device]
    return CellSchedule(
        lost_sync=lost_sync, ta_index=tuple(indices[-1] for indices in ta),
        device=_frozen(device, np.min_scalar_type(len(devices) - 1)), at=_frozen(at),
        ta_delay=_frozen(delay_estimate_from_index(np.array(ta, dtype=np.int64))[device, at // ta_timer_period]),
        landed=_frozen(np.cumsum(landed)[slot] - 1, np.min_scalar_type(max(len(stamped) - 1, 0))),
        stamped_at=_frozen(np.array([broadcasts[r].stamped_at for r in stamped], dtype=np.int64)),
        noise=_frozen(np.array([streams[r].gauss_ticks(stamp_noise_sigma) for r in stamped], dtype=float), float),
    )


# --- the BS side: what the BSs come to before any device syncs -----------------------


class BaseStationSide(NamedTuple):
    """What a run's BS alignment leaves: each BS's finished trajectory and
    overflow, in config order, and the syncs its RIBS rounds lost. Every
    array is read-only."""

    trajectory: tuple[Trajectory, ...]
    overflow: tuple[frozenset[str], ...]
    lost_sync: int


_BS_SIDES = _Kept()    # BaseStationSides, under _Runner.base_station_key
_BS_STAMPS = _Kept()   # a SIB16 cell's BS stamps, under its BS side's key, its schedule's and the grid's size


def _read_only(trajectory: Trajectory) -> Trajectory:
    for array in trajectory[:2]:
        array.flags.writeable = False
    return trajectory


# --- execution -------------------------------------------------------------------


def _stamp_noise(rng: RngStream, initiator_sigma: float, responder_sigma: float) -> tuple[int, int, int, int]:
    """A two-way exchange's t1 to t4 stamp noise, drawn in stamp order: the
    initiator's at t1, the responder's at t2 and t3, the initiator's at t4."""
    return tuple(rng.gauss_ticks(sigma) for sigma in (initiator_sigma, responder_sigma, responder_sigma,
                                                      initiator_sigma))


class _Runner:
    """One scenario run; owns each node's clock and TA state.

    Each node has one ClockState for the whole run, started from its drawn
    parameters: the run's one record of its steps. The run walks the sync
    tree parent-first (the BSs, each BS's devices, each gateway's legacy
    devices), so every node's steps are computed in time order from its
    parent's finished trajectory and installed at once. The observations
    read the clocks, and the trace keeps the stepped ones' trajectories for
    its correction log. A step site only
    records a step past the 64-bit range (ClockState.overflow); run raises
    it after the sync phase, a delta before an error after, as building the
    log there would.

    Each stream label is derived at most once per run: a node's ``loss/``,
    ``exchange/`` and ``relay/`` streams where its steps are computed, and
    one-shot labels (a round's alignment, a target's delivery delays and
    stamps, the fault probe) where they are used; a ``loss/``, ``delivery/``
    or ``delivery_stamp/`` stream that would draw nothing is not derived.
    A SIB16 cell's labels (``sib/``, and its devices' ``loss/`` and ``ta/``)
    are derived by cell_schedule, once per schedule in a process: a run
    whose cell has the same schedule as an earlier run's, such as another
    point of a sweep over the granularity, reuses it and derives none.
    """

    def __init__(self, scenario: Scenario, duration: int):
        self.config = scenario.config
        self.duration = duration
        self.seed = scenario.seed
        self.plan = self.config.sync_plan
        self.nodes = self.config.nodes
        self.clocks = {node: ClockState(params) for node, params in scenario.clocks.items()}
        self.ta_index: dict[str, int] = {}
        self.sampled = tuple(n.id for n in self.nodes.values() if n.role is not Role.REFERENCE)
        self.node_index = {node: i for i, node in enumerate(self.sampled)}
        self.lost_sync = 0
        self.base_stations = [n.id for n in self.nodes.values() if n.role is Role.BASE_STATION]
        self.attached: dict[str, list[str]] = {bs: [] for bs in self.base_stations}
        self.relays: dict[str, list[str]] = {}   # a gateway's legacy devices
        for node in self.nodes.values():
            if node.role in ATTACHED_ROLES and node.attach_to in self.attached:
                self.attached[node.attach_to].append(node.id)
            elif node.role is Role.LEGACY:
                self.relays.setdefault(node.attach_to, []).append(node.id)
        nodes = self.nodes   # closing over self instead would hold the runner in a reference cycle
        self.prop = cache(lambda a, b: link_propagation(nodes[a], nodes[b]))
        self.side_key: Optional[tuple] = None   # set when the BS side comes through _BS_SIDES

    def rounds(self, period: int) -> range:
        """The start of every round of a ``period`` cadence within the run."""
        return range(0, self.duration + 1, period)

    # -- alignment --

    def base_station_key(self) -> tuple:
        """What the BS side depends on, as hashable config values: the run's
        duration; each BS in config order as its id (which names its ``ribs/``
        streams), clock parameters (and their types) and position; the
        alignment plan; and under RIBS, which alone draws, the seed and what
        its rounds take (the turnaround, and the helper's TA measurement)."""
        plan = self.plan
        stations = tuple((bs, params, tuple(map(type, params)), self.nodes[bs].position)
                         for bs in self.base_stations for params in [self.clocks[bs].params])
        ribs = ((self.seed, plan.turnaround, plan.ta_noise_sigma, plan.ta_wrong_bin_prob)
                if plan.bs_alignment.mode is BsAlignmentMode.RIBS else ())
        return (self.duration, stations, plan.bs_alignment, *ribs)

    def align_base_stations(self) -> None:
        """Steps the BSs (step_base_stations), or installs what an earlier run
        with the same base_station_key stepped them to: the BS side is kept
        per process in _BS_SIDES, read-only. A run that raises keeps none."""
        key = self.base_station_key()
        side = _BS_SIDES.get(key)
        clocks = [self.clocks[bs] for bs in self.base_stations]
        if side is None:
            before = self.lost_sync
            self.step_base_stations()
            _BS_SIDES.keep(key, BaseStationSide(tuple(_read_only(clock.trajectory) for clock in clocks),
                                                tuple(clock.overflow for clock in clocks), self.lost_sync - before))
        else:
            for clock, trajectory, overflow in zip(clocks, side.trajectory, side.overflow):
                clock.trajectory, clock.overflow = trajectory, overflow
            self.lost_sync += side.lost_sync
        self.side_key = key

    def step_base_stations(self) -> None:
        """Each alignment round steers the anchor (the first BS) to read true
        time and each other BS true time plus its offset (0 unless
        FIXED_ERROR), or RIBS-aligns it to the anchor; the anchor goes first,
        since RIBS reads its finished trajectory."""
        align = self.plan.bs_alignment
        rounds = np.arange(0, self.duration + 1, align.realign_period or self.duration + 1,   # or one, at 0
                           dtype=np.int64)
        ribs = align.mode is BsAlignmentMode.RIBS
        steered = self.base_stations[:1] if ribs else self.base_stations
        # a reading past int64 stays exact, for set_readings to reject
        offset = np.array([0] + [align.error] * (len(steered) - 1),
                          dtype=object if abs(align.error) > INT64_MAX - self.duration else np.int64)
        set_readings([self.clocks[bs] for bs in steered], np.repeat(np.arange(len(steered)), len(rounds)),
                     np.tile(rounds, len(steered)), (offset[:, None] + rounds).ravel())
        for bs in self.base_stations[1:] if ribs else ():
            self.ribs_syncs(self.base_stations[0], bs, rounds.tolist())

    def ribs_syncs(self, anchor: str, bs: str, rounds: list[int]) -> None:
        """``bs`` aligns to the anchor in each of ``rounds`` whose step lands
        within the run: by a two-way exchange, stepped at t4, or by listening
        to the anchor's signal stamped at the round's start, stepped when it
        arrives. Round k draws its stamp noise from ``ribs/{bs}/{k}``, and under
        LISTEN_TA its helper's RTT from ``ribs_helper/{bs}/{k}``."""
        plan, mode = self.plan, self.plan.bs_alignment.ribs_mode
        prop = self.prop(anchor, bs)
        lag = prop + (plan.turnaround + prop if mode is RibsMode.TWO_WAY else 0)   # from a round's start to its step
        sent = [(round_no, at) for round_no, at in enumerate(rounds) if at + lag <= self.duration]
        if not sent:
            return
        streams = [derive_stream(self.seed, f"ribs/{bs}/{round_no}") for round_no, _ in sent]
        if mode is RibsMode.TWO_WAY:
            sigmas = self.clocks[anchor].params.stamp_noise_sigma, self.clocks[bs].params.stamp_noise_sigma
            self.exchanges(anchor, bs, [(at, prop, prop, at + lag, _stamp_noise(rng, *sigmas))
                                        for (_, at), rng in zip(sent, streams)])
            return
        at = np.array([at for _, at in sent], dtype=np.int64)
        noise = np.array([rng.gauss_ticks(self.clocks[anchor].params.stamp_noise_sigma) for rng in streams])
        reading = broadcast_stamps(self.clocks[anchor], at, noise, 0)
        if mode is RibsMode.LISTEN_TA:
            helper = [compute_ta_initial(measure_rtt(prop, plan.ta_noise_sigma, plan.ta_wrong_bin_prob, derive_stream(
                self.seed, f"ribs_helper/{bs}/{round_no}"))).value for round_no, _ in sent]
            reading = reading + delay_estimate_from_index(np.array(helper, dtype=np.int64))
        set_readings([self.clocks[bs]], np.zeros(len(at), dtype=np.intp), at + prop, reading)

    def exchanges(self, initiator: str, node: str, sent: list[tuple]) -> None:
        """Steps ``node`` by the two-way exchanges ``initiator`` starts with it,
        each (at, delay_forward, delay_back, landing, noise) with ``noise`` the
        t1 to t4 stamp noise drawn for it, in landing order. t1 and t4 are read
        off the initiator's finished trajectory; t2, t3 and the landing are
        ``node``'s unstepped readings plus the correction in force then, that
        of the last exchange it stepped by at or before that instant (RIBS
        rounds may overlap). Each stamp is range-checked as stamp() checks
        it, and so are the read and the reading at each step. An exchange
        whose stamps come out of order (a step inside it, or stamp noise)
        steps nothing and counts as a lost sync; any other steps ``node`` at
        its landing by the offset it measured."""
        if not sent:
            return
        at, forward, back, landing, noise = zip(*sent)
        t2 = [t + delay for t, delay in zip(at, forward)]
        t3 = [t + self.plan.turnaround for t in t2]
        t4 = [t + delay for t, delay in zip(t3, back)]
        count, clock = len(sent), self.clocks[node]
        ends = local_times([self.clocks[initiator]], np.array([*at, *t4], dtype=np.int64)[:, None])[:, 0].tolist()
        unstepped = unstepped_readings(clock, np.array([*t2, *t3, *landing], dtype=np.int64))
        stepped, correction, reading = [], [0], []   # the steps' landings, the correction from each on, the readings

        def read(t: int, k: int) -> int:
            return in_tick_range(unstepped[k] + correction[bisect_right(stepped, t)])

        for k, (n1, n2, n3, n4) in enumerate(noise):
            record = ExchangeRecord(in_tick_range(ends[k] + n1), in_tick_range(read(t2[k], k) + n2),
                                    in_tick_range(read(t3[k], count + k) + n3), in_tick_range(ends[count + k] + n4))
            try:
                offset = twoway_offset(record).offset
            except CausalityViolationError:
                self.lost_sync += 1
                continue
            reading.append(in_tick_range(read(landing[k], 2 * count + k) - offset))
            stepped.append(landing[k])
            correction.append(reading[-1] - unstepped[2 * count + k])
        set_readings([clock], np.zeros(len(stepped), dtype=np.intp), np.array(stepped, dtype=np.int64),
                     np.array(reading, dtype=np.int64))

    # -- per-device OTA sync --

    def sib_syncs(self, bs: str) -> None:
        """Every device of ``bs`` adopts each broadcast it hears and receives
        within the run, in (arrival, round) order, with the TA index in force
        at arrival. Its cell's schedule (cell_schedule) says which, when and
        with which TA estimate; the BS stamps each landed round once, and the
        readings are the quantized stamps plus those estimates.

        The stamps are kept per process in _BS_STAMPS, read-only, under the BS
        side's key, the schedule's and whether the granularity lies below
        clocks._SMALL, its one effect on them; a run whose BS side did not come
        through _BS_SIDES reads them afresh."""
        devices = self.attached[bs]
        if not devices:
            return
        plan, clock = self.plan, self.clocks[bs]
        args = (self.seed, bs, tuple(devices), tuple(self.prop(bs, device) for device in devices), self.duration,
                plan.resync_period, plan.sib.si_window, plan.sib.stamp_mode, clock.params.stamp_noise_sigma,
                self.config.link.loss_prob, plan.ta_timer_period, plan.ta_noise_sigma, plan.ta_wrong_bin_prob)
        schedule = cell_schedule(*args)
        self.lost_sync += schedule.lost_sync
        self.ta_index.update(zip(devices, schedule.ta_index))
        key = None if self.side_key is None else (*self.side_key, *args, plan.sib.granularity < _SMALL)
        stamped = None if key is None else _BS_STAMPS.get(key)
        if stamped is None:
            stamped = broadcast_stamps(clock, schedule.stamped_at, schedule.noise, plan.sib.granularity)
            stamped.flags.writeable = False
            if key is not None:
                _BS_STAMPS.keep(key, stamped)
        # int64 stamps leave room for the floor and a TA estimate; exact ints need none
        reading = quantize_broadcast_time(stamped, plan.sib.granularity)[schedule.landed] + schedule.ta_delay
        set_readings([self.clocks[node] for node in devices], schedule.device, schedule.at, reading)

    def twoway_syncs(self, bs: str, device: str) -> None:
        """``device``'s exchanges with ``bs``, at most one in flight: a heard
        round sends one unless it starts before the previous exchange lands
        (or the run ends first). An exchange draws its delays, then its stamp
        noise, and steps the device when the measured offset has travelled
        back to it: one propagation delay after t4."""
        rng = derive_stream(self.seed, f"exchange/{device}")
        prop = self.prop(bs, device)
        rounds = self.rounds(self.plan.resync_period)
        heard = heard_rounds(self.seed, device, len(rounds), self.config.link.loss_prob)
        self.lost_sync += len(rounds) - int(np.count_nonzero(heard))
        sigmas = self.clocks[bs].params.stamp_noise_sigma, self.clocks[device].params.stamp_noise_sigma
        sent, landing = [], 0   # of the last exchange sent
        for round_no in np.flatnonzero(heard).tolist():
            at = rounds[round_no]
            if at < landing:
                continue
            if self.plan.enabler is Enabler.DEDICATED_TWO_WAY:
                # dynamically scheduled signaling: an independent queueing draw in
                # each direction, which is exactly what makes the path asymmetric
                delay_forward, delay_back = (prop + int(d) for d in self.config.link.extra_delay.draw(rng, 2))
            else:
                delay_forward = delay_back = prop
            landing = at + delay_forward + self.plan.turnaround + delay_back + prop
            if landing > self.duration:
                break
            sent.append((at, delay_forward, delay_back, landing, _stamp_noise(rng, *sigmas)))
        self.exchanges(bs, device, sent)

    def relay(self, gateway: str) -> None:
        """Each legacy device of ``gateway`` adopts every reading the gateway
        adopted, when it did, plus one draw of its ``relay/`` noise per step."""
        children = self.relays.get(gateway)
        if not children:
            return
        _, at, _, error = read_steps([self.clocks[gateway]])
        reading = whole(at) + error
        relayed = [gw_relay_sync(reading, self.plan.gw_relay_sigma, derive_stream(self.seed, f"relay/{child}"))
                   for child in children]
        set_readings([self.clocks[child] for child in children], np.repeat(np.arange(len(children)), len(at)),
                     np.tile(at, len(children)), np.concatenate(relayed))

    # -- assembly --

    def run(self) -> RawTrace:
        self.align_base_stations()
        for bs in self.base_stations:
            if self.plan.enabler is Enabler.TA_SIB16:
                self.sib_syncs(bs)
            else:
                for device in self.attached[bs]:
                    self.twoway_syncs(bs, device)
            for device in self.attached[bs]:
                self.relay(device)
        for name in ("delta", "error_after"):
            if any(name in clock.overflow for clock in self.clocks.values()):
                raise TickOverflowError(f"a correction's {name} falls outside the signed 64-bit range")
        instants = np.arange(0, self.duration + 1, self.config.sampling_grid, dtype=np.int64)
        return RawTrace(
            sampled=self.sampled, instants=instants, errors=self.sample(instants),
            workload=self.config.workload, deliveries=self.deliver(), stepped=self.stepped(),
            devices=frozenset(n.id for n in self.nodes.values() if n.role in DEVICE_ROLES),
            ta_index=self.ta_index, lost_sync=self.lost_sync,
            fault=self.probe_fault() if self.config.fault_probe is not None else None,
        )

    def stepped(self) -> tuple[SteppedClock, ...]:
        """The trajectories of the clocks that step, with their log keys, in
        evaluation order: a group is a BS, or a device then its legacy
        devices."""
        device_kind = SIB16 if self.plan.enabler is Enabler.TA_SIB16 else TWO_WAY
        groups = [[(bs, BS_ALIGN)] for bs in self.base_stations]
        groups += [[(device, device_kind), *((legacy, GW_RELAY) for legacy in self.relays.get(device, ()))]
                   for bs in self.base_stations for device in self.attached[bs]]
        return tuple(SteppedClock(self.clocks[node].trajectory, self.clocks[node].params, self.node_index[node],
                                  group, member, kind)
                     for group, members in enumerate(groups) for member, (node, kind) in enumerate(members))

    # -- observation, after the run: samples, deliveries and the fault probe, read from the clocks --

    def sample(self, instants: np.ndarray) -> np.ndarray:
        """The (instants x sampled) error matrix: each sampled node's reading
        minus true time at each instant."""
        errors, wrapped = clock_errors([self.clocks[node] for node in self.sampled], instants[:, None])
        if len(wrapped):
            raise TickOverflowError(f"clock error of {self.sampled[wrapped[0]]!r} outside the signed 64-bit range")
        return errors

    def deliver(self) -> np.recarray:
        """Each workload command that arrives within the run, stamped by its
        target's clock on arrival; ordered by arrival, target, grid index.

        Each target's delays come from its own stream in grid order, and its
        stamps from its own stream in its own arrival order. The targets are
        the columns of (grid x target) arrays."""
        workload = self.config.workload
        if workload is None:
            return NO_DELIVERIES
        targets, extra_delay = workload.targets, self.config.link.extra_delay
        late = self.duration + 1   # a later arrival is not delivered
        grid = np.arange(workload.grid_phase, late, workload.command_period, dtype=np.int64)[:, None]
        lead = np.array([min(self.prop(self.nodes[target].attach_to, target) if self.nodes[target].attach_to else 0,
                             late) for target in targets], dtype=np.int64)
        delay = 0
        if extra_delay.kind != "none":   # otherwise a delivery/ stream would draw nothing
            delay = np.empty((len(grid), len(targets)), dtype=np.int64)
            for j, target in enumerate(targets):
                delay[:, j] = np.minimum(extra_delay.draw(derive_stream(self.seed, f"delivery/{target}"), len(grid)),
                                         2**62)
        # the propagation delay is clipped at the run's end and the extra delay at
        # 2**62 ticks (past any duration validate_config admits), then at the room
        # left, so a command arriving after the run lands at `late` and no int64 sum
        # or cast can wrap
        arrival = grid + lead + np.minimum(delay, self.duration - lead - grid + 1)
        del delay
        count = np.count_nonzero(arrival < late, axis=0)
        # each target's arrivals first in its column, in arrival order, ties in grid order
        order = None
        if np.any(arrival[1:] < arrival[:-1]):   # some delay reorders a target's commands
            order = np.argsort(arrival, axis=0, kind="stable")
            arrival = np.take_along_axis(arrival, order, axis=0)
        stamped = np.arange(len(grid))[:, None] < count
        clocks = [self.clocks[target] for target in targets]
        rngs = [derive_stream(self.seed, f"delivery_stamp/{target}") if n and clock.params.stamp_noise_sigma else None
                for target, clock, n in zip(targets, clocks, count.tolist())]
        local_stamp = stamps(clocks, arrival, rngs, where=stamped)
        index, k = np.nonzero(stamped.T)   # in (target, arrival) order, which a stable sort keeps among ties
        del stamped
        cell = k * len(targets) + index   # flat index into the (grid x target) arrays
        del index, k
        cell = cell[np.argsort(arrival.ravel()[cell], kind="stable")]
        deliveries = np.recarray(len(cell), dtype=DELIVERY_DTYPE)
        deliveries.node = cell % len(targets)   # one column at a time: a single temporary is alive
        deliveries.grid_index = cell // len(targets) if order is None else order.ravel()[cell]
        deliveries.true_arrival = arrival.ravel()[cell]
        deliveries.local_stamp = local_stamp.ravel()[cell]
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
    arrival_a = at + round(fault_position / wave_speed * TICKS_PER_SECOND)
    arrival_b = at + round((line_length - fault_position) / wave_speed * TICKS_PER_SECOND)
    return stamp(clock_a, arrival_a, rng_a), stamp(clock_b, arrival_b, rng_b)

