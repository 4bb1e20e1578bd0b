"""One-step-at-a-time references for the run's one-pass step sites.

A run computes each clock's readings first and installs them all with one
clocks.set_readings call. The references here step a clock one step at a
time instead: SteppingClock.set reads the clock as stepped so far and takes
one step, twoway_exchange stamps one exchange off the clocks as stepped so
far, and OneAtATime runs BS alignment, SIB16 landings and the two-way
exchanges that way.
The tests pin the passes against them. delivery_columns lays delivery rows
out as the per-target columns a run keeps, for traces built from rows.
"""

import numpy as np

from airsync.clocks import ClockParams, ClockState, Trajectory, in_tick_range, local_time, stamp
from airsync.config import BsAlignmentMode, Enabler
from airsync.engine import derive_stream
from airsync.errors import CausalityViolationError
from airsync.protocols import (
    ExchangeRecord, RibsMode, StampMode, compute_ta_initial, delay_estimate_from_index, measure_rtt,
    quantize_broadcast_time, twoway_offset,
)
from airsync.scenario import DeliveryColumns, _Runner, heard_rounds, ta_indices


def delivery_columns(rows, targets) -> DeliveryColumns:
    """The per-target columns of (node, grid_index, true_arrival,
    local_stamp) delivery rows, each node an id of ``targets``: each
    target's rows in arrival order, ties in the rows' order. A column's cells
    past its count are zeros, which no reader reads."""
    columns = [sorted((row[1:] for row in rows if row[0] == target), key=lambda row: row[1]) for target in targets]
    cells = np.zeros((3, max(map(len, columns), default=0), len(targets)), dtype=np.int64)
    for j, column in enumerate(columns):
        cells[:, :len(column), j] = np.array(column, dtype=np.int64).reshape(-1, 3).T
    grid_index, arrival, local_stamp = cells
    return DeliveryColumns(arrival, local_stamp, grid_index, np.array([len(c) for c in columns], dtype=np.int64))


class SteppingClock(ClockState):
    """A ClockState that also takes one step at a time, rebuilding its
    trajectory at each, with its bases as exact Python ints (an object
    array), so that no reference sum can wrap; ``installed_at`` and
    ``correction`` list its steps' instants and the total correction in
    force from each on."""

    __slots__ = ()

    def __init__(self, params=ClockParams()):
        self.params = params
        self.trajectory = Trajectory(np.empty(0, dtype=np.int64), np.array([params.theta0], dtype=object))

    @property
    def installed_at(self) -> list[int]:
        return self.trajectory.installed_at.tolist()

    @property
    def correction(self) -> list[int]:
        return [base - self.params.theta0 for base in self.trajectory.base[1:].tolist()]

    def step(self, at: int, delta: int) -> None:
        """From true time ``at`` on, every reading drops by a further ``delta``."""
        installed_at, base = self.trajectory
        if len(installed_at) and at < installed_at[-1]:
            raise ValueError(f"step at {at} before the last step at {installed_at[-1]}")
        self.trajectory = Trajectory(np.array([*installed_at.tolist(), at], dtype=np.int64),
                                     np.array([*base.tolist(), int(base[-1]) - delta], dtype=object))

    def set(self, at: int, reading: int) -> int:
        """Step the clock so that it reads ``reading`` at true time ``at``, and
        return the step taken (the old reading then minus ``reading``)."""
        delta = local_time(self, at) - in_tick_range(reading)
        self.step(at, delta)
        return delta


def steps_of(clock) -> tuple[list[int], list[int]]:
    """A clock's trajectory as exact values: its step instants and its bases."""
    installed_at, base = clock.trajectory
    return installed_at.tolist(), base.tolist()


def twoway_exchange(initiator, responder, at: int, delay_forward: int, delay_back: int, turnaround: int,
                    rng) -> ExchangeRecord:
    """One two-way transfer; each stamp reads its side's clock at its instant."""
    t_recv = at + delay_forward
    t_reply = t_recv + turnaround
    t_back = t_reply + delay_back
    return ExchangeRecord(
        t1=stamp(initiator, at, rng),
        t2=stamp(responder, t_recv, rng),
        t3=stamp(responder, t_reply, rng),
        t4=stamp(initiator, t_back, rng),
    )


def ribs_align(bs_a, inter_bs_delay: int, rng, helper_ta_index=None, at: int = 0) -> tuple[int, int]:
    """When BS-B, listening to BS-A's signal stamped at ``at``, aligns to it
    (on arrival, ``inter_bs_delay`` later), and the reading it adopts then:
    the stamp, plus the helper's TA delay estimate if it has a helper."""
    reading = stamp(bs_a, at, rng)
    if helper_ta_index is not None:
        reading += delay_estimate_from_index(helper_ta_index)
    return at + inter_bs_delay, reading


class OneAtATime(_Runner):
    """A run whose BS alignment, SIB16 landings and two-way exchanges step
    each clock one step at a time, in round order, each stamp read off the
    clocks as stepped so far and each draw taken as it is used. Its clocks
    are SteppingClocks."""

    def __init__(self, scenario, duration):
        super().__init__(scenario, duration)
        self.clocks = {node: SteppingClock(state.params) for node, state in self.clocks.items()}

    def align_base_stations(self):
        align = self.plan.bs_alignment
        rounds = self.rounds(align.realign_period) if align.realign_period else range(1)
        for i, bs in enumerate(self.base_stations):
            if align.mode is BsAlignmentMode.RIBS and i > 0:
                self.ribs_sync(self.base_stations[0], bs, rounds)
                continue
            for at in rounds:
                self.clocks[bs].set(at, at + (align.error if i > 0 else 0))

    def ribs_sync(self, anchor, bs, rounds):
        """``bs``'s RIBS rounds one at a time. A listening round stamps the
        anchor with the next noise of ``ribs/{bs}`` and, under LISTEN_TA,
        measures the helper's RTT with the next draws of ``ribs_helper/{bs}``.
        A two-way round sends unless an exchange is in flight, stamping with
        the next noise of ``exchange/{bs}``."""
        mode = self.plan.bs_alignment.ribs_mode
        prop = self.prop(anchor, bs)
        noise = derive_stream(self.seed, f"ribs/{bs}")
        helper = derive_stream(self.seed, f"ribs_helper/{bs}")
        exchange = derive_stream(self.seed, f"exchange/{bs}")
        landing = 0
        for at in rounds:
            if mode is RibsMode.TWO_WAY:
                if at < landing:
                    continue
                landing = at + 3 * prop + self.plan.turnaround
                if landing > self.duration:
                    return
                self.twoway_step(anchor, bs, at, prop, prop, exchange, landing)
                continue
            if at + prop > self.duration:
                return
            helper_index = None
            if mode is RibsMode.LISTEN_TA:
                rtt = measure_rtt(prop, self.plan.ta_noise_sigma, self.plan.ta_wrong_bin_prob, helper)
                helper_index = compute_ta_initial(rtt).value
            self.clocks[bs].set(*ribs_align(self.clocks[anchor], prop, noise, helper_index, at))

    def sib_syncs(self, bs):
        """Landing by landing. Each round draws its scheduling delay from
        ``sib/{bs}``, in round order. Each device draws its losses one round
        at a time and lists the rounds it lands, in (arrival, round) order.
        The BS then stamps each round some device lands, in (sent_at, round)
        order, with the next noise of ``sib/{bs}``, and each device in turn
        lands its rounds (land), each with the TA index in force then."""
        devices = self.attached[bs]
        if not devices:
            return
        plan, loss_prob = self.plan, self.config.link.loss_prob
        rng = derive_stream(self.seed, f"sib/{bs}")
        rounds = self.rounds(plan.resync_period)
        window = plan.sib.si_window
        sent = [at + (rng.integers(0, window + 1) if window else 0) for at in rounds]
        lands = {}
        for device in devices:
            heard = range(len(rounds))
            if loss_prob:
                loss = derive_stream(self.seed, f"loss/{device}")
                heard = [round_no for round_no in heard if loss.random() >= loss_prob]
                self.lost_sync += len(rounds) - len(heard)
            prop = self.prop(bs, device)
            lands[device] = sorted((sent[r] + prop, r) for r in heard if sent[r] + prop <= self.duration)
        landed = sorted({(sent[r], r) for landings in lands.values() for _, r in landings})
        stamped = {r: stamp(self.clocks[bs], rounds[r] if plan.sib.stamp_mode is StampMode.AT_SCHEDULE else sent_at,
                            rng)
                   for sent_at, r in landed}
        for device in devices:
            ta = ta_indices(self.seed, device, self.prop(bs, device), self.duration, plan.ta_timer_period,
                            plan.ta_noise_sigma, plan.ta_wrong_bin_prob)
            self.ta_index[device] = ta[-1]
            for arrival, r in lands[device]:
                self.land(device, arrival, quantize_broadcast_time(stamped[r], plan.sib.granularity)
                          + delay_estimate_from_index(ta[arrival // plan.ta_timer_period]))

    def land(self, device, at, reading):
        """``device`` adopts a broadcast's ``reading`` on landing at ``at``."""
        self.clocks[device].set(at, reading)

    def twoway_step(self, initiator, node, at, delay_forward, delay_back, rng, landing):
        """``node`` steps at ``landing`` by the offset the exchange measured,
        unless its stamps came out of order: a lost sync."""
        clock = self.clocks[node]
        record = twoway_exchange(self.clocks[initiator], clock, at, delay_forward, delay_back,
                                 self.plan.turnaround, rng)
        try:
            offset = twoway_offset(record).offset
        except CausalityViolationError:
            self.lost_sync += 1
            return
        clock.set(landing, local_time(clock, landing) - offset)

    def twoway_syncs(self, bs, device):
        """One exchange at a time: each exchange sent draws its pair of extra
        delays from ``exchange_delay/{device}`` (only under DEDICATED_TWO_WAY
        with a drawn delay) and its t1 to t4 stamp noise from
        ``exchange/{device}`` as it stamps."""
        rng = derive_stream(self.seed, f"exchange/{device}")
        delays = derive_stream(self.seed, f"exchange_delay/{device}")
        drawn = self.plan.enabler is Enabler.DEDICATED_TWO_WAY and self.config.link.extra_delay.kind != "none"
        prop = self.prop(bs, device)
        rounds = self.rounds(self.plan.resync_period)
        heard = heard_rounds(self.seed, device, len(rounds), self.config.link.loss_prob)
        self.lost_sync += len(rounds) - int(np.count_nonzero(heard))
        landing = 0
        for round_no in np.flatnonzero(heard).tolist():
            at = rounds[round_no]
            if at < landing:
                continue
            delay_forward = delay_back = prop
            if drawn:
                delay_forward, delay_back = (prop + int(d) for d in self.config.link.extra_delay.draw(delays, 2))
            landing = at + delay_forward + self.plan.turnaround + delay_back + prop
            if landing > self.duration:
                return
            self.twoway_step(bs, device, at, delay_forward, delay_back, rng, landing)
