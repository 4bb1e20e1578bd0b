"""Scenario execution.

This module only runs configs; config.py owns their types, defaults and
rules. A validated config already holds the node graph (reference source,
base stations, UEs, gateways, legacy devices, PMUs), the link model and the
synchronization plan. Building a scenario only draws each node's clock
parameters. Running it gives each node one clock and steps the clocks down
the sync tree, parent first: the anchor BS, the other BSs (steered or
RIBS-aligned to the anchor; a two-way RIBS BS's exchanges in one pass),
then each BS's devices (SIB16 with TA, the whole cell in one array pass, or
two-way, each device's exchanges in the same pass), then each gateway's
legacy devices. Every site computes a clock's readings first and installs
all its steps with one clocks.set_readings call. A read at instant t sees
every step installed at or before t. Samples, deliveries and the fault
probe are then read from the finished clocks, all nodes at once, into the
trace records. The trace keeps
the finished trajectories of the clocks the sync tree steps, and the
correction log is read off them only when it is asked for (trace.json and
tests ask; the report does not). Every sum here is in int64: clocks.py says
why none can wrap.

A SIB16 cell's draws read no clock: which rounds each device hears and when
they land, its TA indices, and the broadcasts' scheduling delays and BS
stamp noise, each drawn in one call from the BS's one stream. cell_schedule
computes them from the seed and the few config values they depend on, and
the last few schedules are kept per process, so the points of a sweep whose
value leaves them unchanged (the granularity, say) share them. The run then
only reads the BS clock at the stamp instants, in one bulk read, quantizes,
and installs the devices' readings. A cached schedule is what a fresh one
would be, so the cache changes no draw and no output.

The BS side is kept the same way. What BS alignment leaves (each BS's
trajectory, and the syncs its RIBS rounds lost) depends only on hashable
config values: the duration, the BSs (id, clock parameters, position), the
alignment plan and, under RIBS alone, which draws, the seed and what its
rounds take. A SIB16 cell's BS stamps depend on those and the cell's
schedule. Both are kept per process under those keys, read-only and bounded
in bytes, so the points of a granularity sweep step a steered BS once and
read its stamps once per repetition seed; a run with a kept key installs
them instead.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import cache
from typing import NamedTuple, Optional

import numpy as np

from .clocks import (
    ClockParams, ClockState, Trajectory, clock_errors, local_times, read_steps, set_readings, stamp, stamps,
    unstepped_readings,
)
from .config import ATTACHED_ROLES, DEVICE_ROLES, BsAlignmentMode, Enabler, Node, Role, ScenarioConfig, Workload
from .engine import RngStream, derive_stream
from .protocols import (
    RibsMode,
    StampMode,
    apply_ta_command,
    compute_ta_initial,
    compute_ta_update,
    delay_estimate_from_index,
    gw_relay_sync,
    measure_rtt,
    quantize_broadcast_time,
)
from .timebase import TA_STEP_TICKS, TICKS_PER_SECOND, propagation_ticks


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


class DeliveryColumns(NamedTuple):
    """Deliveries as (grid x target) int64 matrices: column j holds
    ``workload.targets[j]``'s commands by arrival (ties in grid order), the
    first ``count[j]`` delivered; ``grid_index`` is None if row k is command k."""

    arrival: np.ndarray
    local_stamp: np.ndarray
    grid_index: Optional[np.ndarray]
    count: np.ndarray


class RawTrace(NamedTuple):
    """What one run leaves for analysis, as integer columns: no row holds a
    string or a Python object.

    ``errors[i, j]`` is node ``sampled[j]`` (the non-reference nodes, in
    config order) at sampling instant ``instants[i]``: its local reading
    minus reference time, in ticks. ``delivered`` holds the deliveries, and
    is None without a workload. ``stepped`` holds the finished trajectories
    of the clocks the sync tree steps (every BS, device and legacy device),
    in log order. ``devices`` holds the device node ids and ``ta_index``
    each SIB16 device's final TA index.

    ``correction_log`` and ``deliveries`` are built on each access, from
    ``stepped`` and ``delivered``; the statistics read neither. ``samples``
    and ``corrections`` are row views of the same data, built on each
    access, with ids as Python strings.
    """

    sampled: tuple[str, ...]
    instants: np.ndarray        # int64
    errors: np.ndarray          # int64, instants x sampled
    workload: Optional[Workload]
    delivered: Optional[DeliveryColumns]
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
    def deliveries(self) -> np.recarray:
        """DELIVERY_DTYPE rows of the deliveries, by arrival, target, grid index."""
        if self.delivered is None:
            return NO_DELIVERIES
        arrival, local_stamp, grid_index, count = self.delivered
        targets = arrival.shape[1]
        index, k = np.nonzero(np.arange(len(arrival)) < count[:, None])   # a stable sort keeps this order in ties
        cell = k * targets + index   # flat index
        del index, k
        cell = cell[np.argsort(arrival.ravel()[cell], kind="stable")]
        rows = np.recarray(len(cell), dtype=DELIVERY_DTYPE)
        rows.node = cell % targets   # one column at a time: a single temporary is alive
        rows.grid_index = cell // targets if grid_index is None else grid_index.ravel()[cell]
        rows.true_arrival = arrival.ravel()[cell]
        rows.local_stamp = local_stamp.ravel()[cell]
        return rows

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
    noise: np.ndarray             # float64, whole: the BS stamp noise then


_SCHEDULE_CACHE_SIZE = 64         # values each memo keeps per process (README, "Randomness")
_SCHEDULE_CACHE_BYTES = 1 << 18   # the largest value kept, in array bytes: 64 keep at most 16 MiB


def _grid(start: int, stop: int, step: int) -> np.ndarray:
    """range(start, stop, step) as int64. np.arange would count its points
    in float64, which drops the last one when it lies near 2**53. A step past
    ``stop``, which may pass int64, leaves one point."""
    count = len(range(start, stop, step))
    return np.arange(count, dtype=np.int64) * min(step, stop) + start if count else np.empty(0, dtype=np.int64)


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


_SCHEDULES = _Kept()   # CellSchedules, under cell_schedule's arguments


def cell_schedule(seed: int, bs: str, devices: tuple[str, ...], props: tuple[int, ...], duration: int,
                  resync_period: int, si_window: int, stamp_mode: StampMode, stamp_noise_sigma: float,
                  loss_prob: float, ta_timer_period: int, ta_noise_sigma: float,
                  ta_wrong_bin_prob: float) -> CellSchedule:
    """The schedule of ``bs``'s cell, whose ``devices`` lie ``props`` ticks
    away: a pure function of its arguments, which _Runner.sib_syncs keeps in
    _SCHEDULES.

    The cell's broadcasts are drawn once for the cell from ``sib/{bs}``:
    every round's scheduling delay in one call, then the BS stamp noise of
    the rounds some device lands, in (sent_at, round) order. Each device
    lands the rounds in that order, shifted by its own propagation delay,
    so slot k of the (slot x device) arrays is the k-th round of that order
    for all of them."""
    late = duration + 1
    start = _grid(0, late, resync_period)
    rng = derive_stream(seed, f"sib/{bs}")
    delay = rng.integers(0, si_window + 1, len(start)) if si_window > 0 else 0
    # a send past the run is clipped to its end: that landing is past it either way
    sent = start + np.minimum(delay, late - start)
    order = np.argsort(sent, kind="stable")
    arrival = sent[order, None] + np.array([min(prop, late) for prop in props], dtype=np.int64)
    lands = np.stack([heard_rounds(seed, device, len(start), loss_prob) for device in devices], axis=1)
    lost_sync = lands.size - int(np.count_nonzero(lands))
    lands = lands[order] & (arrival <= duration)
    ta = [ta_indices(seed, device, prop, duration, ta_timer_period, ta_noise_sigma, ta_wrong_bin_prob)
          for device, prop in zip(devices, props)]
    landed = lands.any(axis=1)   # the slots some device lands
    stamped = order[landed]
    device, slot = np.nonzero(lands.T)   # device-major: each device's landings in order
    at = arrival[slot, device]
    return CellSchedule(
        lost_sync=lost_sync, ta_index=tuple(indices[-1] for indices in ta),
        device=_frozen(device, np.min_scalar_type(len(devices) - 1)), at=_frozen(at),
        ta_delay=_frozen(delay_estimate_from_index(np.array(ta, dtype=np.int64))[device, at // ta_timer_period]),
        landed=_frozen(np.cumsum(landed)[slot] - 1, np.min_scalar_type(max(len(stamped) - 1, 0))),
        stamped_at=_frozen((start if stamp_mode is StampMode.AT_SCHEDULE else sent)[stamped]),
        noise=_frozen(rng.gauss_ticks(stamp_noise_sigma, len(stamped)), float),
    )


# --- the BS side: what the BSs come to before any device syncs -----------------------


class BaseStationSide(NamedTuple):
    """What a run's BS alignment leaves: each BS's finished trajectory, in
    config order, and the syncs its RIBS rounds lost. Every array is
    read-only."""

    trajectory: tuple[Trajectory, ...]
    lost_sync: int


_BS_SIDES = _Kept()    # BaseStationSides, under _Runner.base_station_key
_BS_STAMPS = _Kept()   # a SIB16 cell's BS stamps, under its BS side's key and its schedule's


def _read_only(trajectory: Trajectory) -> Trajectory:
    for array in trajectory[:2]:
        array.flags.writeable = False
    return trajectory


# --- execution -------------------------------------------------------------------


def _stamp_sigmas(initiator_sigma: float, responder_sigma: float, count: int) -> np.ndarray:
    """The stamp noise σ of ``count`` two-way exchanges, t1 to t4 each: the
    initiator's at t1 and t4, the responder's at t2 and t3."""
    return np.tile(np.array([initiator_sigma, responder_sigma, responder_sigma, initiator_sigma]), (count, 1))


class _Runner:
    """One scenario run; owns each node's clock and TA state.

    Each node has one ClockState for the whole run, started from its drawn
    parameters: the run's one record of its steps. The run walks the sync
    tree parent-first (the BSs, each BS's devices, each gateway's legacy
    devices), so every node's steps are computed in time order from its
    parent's finished trajectory and installed at once. The observations
    read the clocks, and the trace keeps the stepped ones' trajectories for
    its correction log.

    Every stream is one per (kind, node), ``{kind}/{node}``, derived at
    most once per run where the node's steps (or its deliveries, or the
    fault probe's stamps) are computed, however many rounds it draws for:
    each distribution is drawn in one call. A ``loss/``, ``exchange_delay/``,
    ``exchange/``, ``delivery/`` or ``delivery_stamp/`` stream that would
    draw nothing is not derived. A SIB16 cell's labels (``sib/``, and its
    devices' ``loss/`` and ``ta/``) are derived by cell_schedule, once per
    schedule kept in _SCHEDULES: a run whose cell has the same schedule as an
    earlier run's, such as another point of a sweep over the granularity,
    reuses it and derives none. Nor does a run whose BS side comes through
    _BS_SIDES derive a RIBS BS's ``ribs/``, ``ribs_helper/`` or
    ``exchange/``.
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
        duration; each BS in config order as its id (which names its RIBS
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
                                                self.lost_sync - before))
        else:
            for clock, trajectory in zip(clocks, side.trajectory):
                clock.trajectory = trajectory
            self.lost_sync += side.lost_sync
        self.side_key = key

    def step_base_stations(self) -> None:
        """Each alignment round steers the anchor (the first BS) to read true
        time and each other BS true time plus its offset (0 unless
        FIXED_ERROR), or RIBS-aligns it to the anchor; the anchor goes first,
        since RIBS reads its finished trajectory."""
        align = self.plan.bs_alignment
        rounds = _grid(0, self.duration + 1, align.realign_period or self.duration + 1)   # or one, at 0
        ribs = align.mode is BsAlignmentMode.RIBS
        steered = self.base_stations[:1] if ribs else self.base_stations
        offset = np.array([0] + [align.error] * (len(steered) - 1), dtype=np.int64)
        set_readings([self.clocks[bs] for bs in steered], np.repeat(np.arange(len(steered)), len(rounds)),
                     np.tile(rounds, len(steered)), (offset[:, None] + rounds).ravel())
        for bs in self.base_stations[1:] if ribs else ():
            self.ribs_syncs(self.base_stations[0], bs, rounds)

    def ribs_syncs(self, anchor: str, bs: str, rounds: np.ndarray) -> None:
        """``bs`` aligns to the anchor in each of the int64 ``rounds`` whose
        step lands within the run. Under TWO_WAY by the two-way exchanges of
        twoway, each stepped when the measured offset has travelled back to
        it, one propagation delay after t4; a round that starts while an
        exchange is in flight sends nothing. Listening, by the anchor's
        signal stamped at the round's start, stepped when it arrives: the
        stamp noise of every such round is one draw from ``ribs/{bs}``, and
        under LISTEN_TA the helper's RTTs are drawn in round order from
        ``ribs_helper/{bs}``."""
        plan, mode = self.plan, self.plan.bs_alignment.ribs_mode
        if mode is RibsMode.TWO_WAY:
            self.twoway(anchor, bs, rounds.tolist(), np.zeros((len(rounds), 2), dtype=np.int64))
            return
        prop = self.prop(anchor, bs)
        at = rounds[rounds <= self.duration - prop]
        if not len(at):
            return
        anchor_clock = self.clocks[anchor]
        noise = derive_stream(self.seed, f"ribs/{bs}").gauss_ticks(anchor_clock.params.stamp_noise_sigma, len(at))
        reading = stamps([anchor_clock], at[:, None], noise[:, None])[:, 0]
        if mode is RibsMode.LISTEN_TA:
            helper = derive_stream(self.seed, f"ribs_helper/{bs}")
            index = [compute_ta_initial(measure_rtt(prop, plan.ta_noise_sigma, plan.ta_wrong_bin_prob, helper)).value
                     for _ in range(len(at))]
            reading = reading + delay_estimate_from_index(np.array(index, dtype=np.int64))
        set_readings([self.clocks[bs]], np.zeros(len(at), dtype=np.intp), at + prop, reading)

    def twoway(self, initiator: str, node: str, starts: list[int], delays: np.ndarray) -> None:
        """``node``'s two-way exchanges with ``initiator``, at most one in
        flight: of the ascending ``starts``, each sends one unless it starts
        before the previous exchange lands (or the run ends first). The k-th
        exchange sent takes row k of ``delays``, its extra (forward, back)
        delays, int64. The stamp noise of every exchange sent, t1 to t4 each,
        is one draw from ``exchange/{node}``, not derived when every σ is 0.
        An exchange steps ``node`` when the measured offset has travelled
        back to it: one propagation delay after t4 (exchanges)."""
        turnaround, prop = self.plan.turnaround, self.prop(initiator, node)
        extra_spans = iter(delays.sum(axis=1, dtype=np.uint64).tolist())
        span = 3 * prop + turnaround   # from an exchange's start to its landing, but for the extra delays
        sent, landing = [], 0   # the starts of the exchanges sent; the last one's landing
        for at in starts:
            if at >= landing:
                landing = at + span + next(extra_spans)
                if landing > self.duration:
                    break
                sent.append(at)
        if not sent:
            return
        count, at = len(sent), np.array(sent, dtype=np.int64)
        forward, back = prop + delays[:count, 0], prop + delays[:count, 1]
        sigma = _stamp_sigmas(self.clocks[initiator].params.stamp_noise_sigma,
                              self.clocks[node].params.stamp_noise_sigma, count)
        noise = np.zeros((count, 4))
        if sigma.any():
            noise = derive_stream(self.seed, f"exchange/{node}").gauss_ticks(sigma)
        self.exchanges(initiator, node, at, forward, back, at + forward + turnaround + back + prop, noise)

    def exchanges(self, initiator: str, node: str, at: np.ndarray, forward, back, landing: np.ndarray,
                  noise: np.ndarray) -> None:
        """Steps ``node`` by the two-way exchanges ``initiator`` starts with it
        at the int64 instants ``at``, none before the previous one lands: each
        with its int64 ``forward`` and ``back`` delays and ``landing``, and its
        t1 to t4 stamp noise, a row of ``noise``. t1 and t4 are read off the
        initiator's finished trajectory; t2, t3 and the read at the landing
        are ``node``'s unstepped readings plus the correction in force then,
        that of the last exchange it stepped by. An exchange whose stamps come
        out of order (a step inside it, or stamp noise) steps nothing and
        counts as a lost sync; any other steps ``node`` at its landing by the
        offset it measured, trunc(((t2 - t1) - (t4 - t3)) / 2).

        With X the stamps' t2 + t3 - t1 - t4 less the correction c in force
        (the last step's, at t2, t3 and the landing alike), a step's
        correction is c - trunc((2c + X) / 2): the walk is that recurrence,
        and the out-of-order test does not depend on c."""
        count, clock = len(at), self.clocks[node]
        if not count:
            return
        t2 = at + forward
        t3 = t2 + self.plan.turnaround
        ends = stamps([self.clocks[initiator]], np.concatenate((at, t3 + back))[:, None],
                      noise[:, ::3].T.reshape(-1, 1))
        first, last = ends[:count, 0], ends[count:, 0]   # the t1 and t4 stamps
        unstepped = unstepped_readings(clock, np.concatenate((t2, t3, landing)))
        u2, u3, u_landing = unstepped[:count], unstepped[count:2 * count], unstepped[2 * count:]
        middle = noise[:, 1:3].astype(np.int64)
        a, b = u2 + middle[:, 0], u3 + middle[:, 1]   # the t2 and t3 stamps less the correction in force
        x = a + b - first - last
        ok = (last >= first) & (b >= a)
        c = 0   # each step's correction in turn: -floor(X / 2), or -ceil(X / 2) when 2c + X < 0
        taken = np.array([c := -((xk + (2 * c + xk < 0)) >> 1) for xk in x[ok].tolist()], dtype=np.int64)
        steps = np.flatnonzero(ok)
        self.lost_sync += count - len(steps)
        set_readings([clock], np.zeros(len(steps), dtype=np.intp), landing[steps], u_landing[steps] + taken)

    # -- per-device OTA sync --

    def sib_syncs(self, bs: str) -> None:
        """Every device of ``bs`` adopts each broadcast it hears and receives
        within the run, in (arrival, round) order, with the TA index in force
        at arrival. Its cell's schedule (cell_schedule) says which, when and
        with which TA estimate; the BS stamps each landed round once, and the
        readings are the quantized stamps plus those estimates.

        The schedule is kept per process in _SCHEDULES under its arguments, and
        the stamps in _BS_STAMPS, read-only, under the BS side's key and the
        schedule's; a run whose BS side did not come through _BS_SIDES reads
        them afresh."""
        devices = self.attached[bs]
        if not devices:
            return
        plan, clock = self.plan, self.clocks[bs]
        args = (self.seed, bs, tuple(devices), tuple(self.prop(bs, device) for device in devices), self.duration,
                plan.resync_period, plan.sib.si_window, plan.sib.stamp_mode, clock.params.stamp_noise_sigma,
                self.config.link.loss_prob, plan.ta_timer_period, plan.ta_noise_sigma, plan.ta_wrong_bin_prob)
        schedule = _SCHEDULES.get(args)
        if schedule is None:
            schedule = _SCHEDULES.keep(args, cell_schedule(*args))
        self.lost_sync += schedule.lost_sync
        self.ta_index.update(zip(devices, schedule.ta_index))
        key = None if self.side_key is None else (*self.side_key, *args)
        stamped = None if key is None else _BS_STAMPS.get(key)
        if stamped is None:
            stamped = stamps([clock], schedule.stamped_at[:, None], schedule.noise[:, None])[:, 0]
            stamped.flags.writeable = False
            if key is not None:
                _BS_STAMPS.keep(key, stamped)
        reading = quantize_broadcast_time(stamped, plan.sib.granularity)[schedule.landed] + schedule.ta_delay
        set_readings([self.clocks[node] for node in devices], schedule.device, schedule.at, reading)

    def twoway_syncs(self, bs: str, device: str) -> None:
        """``device``'s exchanges with ``bs`` (twoway), over the rounds it
        hears. Under DEDICATED_TWO_WAY each heard round has a pair of extra
        delays, forward and back, all drawn at once from
        ``exchange_delay/{device}``, and the k-th exchange sent takes pair k."""
        plan, extra = self.plan, self.config.link.extra_delay
        rounds = self.rounds(plan.resync_period)
        heard = np.flatnonzero(heard_rounds(self.seed, device, len(rounds), self.config.link.loss_prob))
        self.lost_sync += len(rounds) - len(heard)
        delays = np.zeros((len(heard), 2), dtype=np.int64)
        if plan.enabler is Enabler.DEDICATED_TWO_WAY and extra.kind != "none":
            # dynamically scheduled signaling: an independent queueing draw in
            # each direction, which is exactly what makes the path asymmetric
            delays = extra.draw(derive_stream(self.seed, f"exchange_delay/{device}"), 2 * len(heard)).reshape(-1, 2)
        # a period past the run, which may pass int64, has one round, at 0
        self.twoway(bs, device, (heard * min(plan.resync_period, self.duration + 1)).tolist(), delays)

    def relay(self, gateway: str) -> None:
        """Each legacy device of ``gateway`` adopts every reading the gateway
        adopted, when it did, plus one draw of its ``relay/`` noise per step."""
        children = self.relays.get(gateway)
        if not children:
            return
        _, at, _, error = read_steps([self.clocks[gateway]])
        reading = at + error
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
        instants = _grid(0, self.duration + 1, self.config.sampling_grid)
        return RawTrace(
            sampled=self.sampled, instants=instants, errors=self.sample(instants),
            workload=self.config.workload, delivered=self.deliver(), stepped=self.stepped(),
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
        return clock_errors([self.clocks[node] for node in self.sampled], instants[:, None])

    def deliver(self) -> Optional[DeliveryColumns]:
        """Each workload command, stamped by its target's clock on arrival, in
        per-target columns.

        Each target's delays come from its own stream in grid order, and its
        stamp noise from its own stream in its own arrival order. A command
        that is not delivered is read at ``late`` and not counted."""
        workload = self.config.workload
        if workload is None:
            return None
        targets, extra_delay = workload.targets, self.config.link.extra_delay
        late = self.duration + 1   # a later arrival is not delivered
        grid = _grid(workload.grid_phase, late, workload.command_period)[:, None]
        lead = np.array([min(self.prop(self.nodes[target].attach_to, target) if self.nodes[target].attach_to else 0,
                             late) for target in targets], dtype=np.int64)
        arrival = np.zeros((len(grid), len(targets)), dtype=np.int64)
        if extra_delay.kind != "none":   # otherwise a delivery/ stream would draw nothing
            for j, target in enumerate(targets):
                arrival[:, j] = extra_delay.draw(derive_stream(self.seed, f"delivery/{target}"), len(grid))
        # a command arriving after the run lands at `late`; no sum wraps: delays < 2**62, the rest < 2**55
        arrival += grid
        arrival += lead
        np.minimum(arrival, late, out=arrival)
        count = np.count_nonzero(arrival < late, axis=0)
        grid_index = None
        if np.any(arrival[1:] < arrival[:-1]):   # some delay reorders a target's commands
            grid_index = np.argsort(arrival, axis=0, kind="stable")
            arrival = np.take_along_axis(arrival, grid_index, axis=0)
        clocks = [self.clocks[target] for target in targets]
        local_stamp = local_times(clocks, arrival)
        for j, (target, clock, n) in enumerate(zip(targets, clocks, count.tolist())):
            if n and clock.params.stamp_noise_sigma:
                local_stamp[:n, j] += derive_stream(self.seed, f"delivery_stamp/{target}").gauss_ticks(
                    clock.params.stamp_noise_sigma, n).astype(np.int64)
        return DeliveryColumns(arrival, local_stamp, grid_index, count)

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

