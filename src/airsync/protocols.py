"""Over-the-air synchronization enablers.

Covers the cellular timing-advance loop (initial 11-bit and 6-bit update
commands on a 16*Ts grid), broadcast absolute-time distribution with limited
granularity and a scheduling window (SIB16-style), the two-way timestamped
exchange (PTP-like device signaling, and RIBS inter-BS alignment in its
two-way mode), RIBS alignment by listening to the anchor's reference
signals, and the gateway relay into a wired local domain.

Sign convention throughout: a clock's error is local reading minus the
reference at the same true instant. Each enabler gives the reading its node
adopts, and when: a SIB16 device the quantized BS stamp plus its TA one-way
estimate at arrival, a RIBS listener the anchor's stamp (plus a helper's TA
estimate) on arrival, a two-way responder its own reading at landing less
the offset twoway_offset measures. scenario.py computes every node's
readings, and clocks.set_readings takes the steps.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .engine import RngStream
from .errors import CausalityViolationError, NegativeTaStateError, NoTaStateError
from .timebase import TA_STEP_TICKS

TA_INITIAL_MAX = 1282
TA_UPDATE_MAX = 63
TA_UPDATE_NOOP = 31

class TaKind(Enum):
    INITIAL = "initial"
    UPDATE = "update"


class _TaFields(NamedTuple):
    kind: TaKind
    value: int


class TaCommand(_TaFields):
    """Quantized timing-advance command.

    Initial commands carry an absolute index in [0, 1282] (advance =
    value * 16*Ts); update commands carry a value in [0, 63] adjusting the
    current timing by (value - 31) * 16*Ts.
    """

    __slots__ = ()

    def __new__(cls, kind: TaKind, value: int):
        limit = TA_INITIAL_MAX if kind is TaKind.INITIAL else TA_UPDATE_MAX
        if not 0 <= value <= limit:
            raise ValueError(f"{kind.value} TA value {value} outside [0, {limit}]")
        return super().__new__(cls, kind, value)


class StampMode(Enum):
    AT_SCHEDULE = "at_schedule"
    AT_TRANSMIT = "at_transmit"


class SibConfig(NamedTuple):
    """Broadcast-time configuration: quantization step, cadence, window."""

    granularity: int
    periodicity: int
    si_window: int
    stamp_mode: StampMode


class ExchangeRecord(NamedTuple):
    """Four timestamps of a two-way transfer; t1/t4 on the initiator clock."""

    t1: int
    t2: int
    t3: int
    t4: int


# --- timing advance ---------------------------------------------------------


def compute_ta_initial(rtt_measured: int) -> TaCommand:
    """Initial TA from a measured round trip: floor to the 16*Ts grid, clamp."""
    return TaCommand(TaKind.INITIAL, min(rtt_measured // TA_STEP_TICKS, TA_INITIAL_MAX))


def compute_ta_update(misalignment: int) -> TaCommand:
    """Update command correcting a signed uplink misalignment (nearest step)."""
    steps = round(misalignment / TA_STEP_TICKS)
    return TaCommand(TaKind.UPDATE, max(0, min(TA_UPDATE_NOOP + steps, TA_UPDATE_MAX)))


def apply_ta_command(current_index: Optional[int], command: TaCommand) -> int:
    """Fold a command into the cumulative TA index (clamped at zero).

    Initial commands set the index; updates shift it by (value - 31).
    """
    if command.kind is TaKind.INITIAL:
        return command.value
    if current_index is None:
        raise NoTaStateError("update command received with no TA state")
    return max(0, current_index + command.value - TA_UPDATE_NOOP)


def delay_estimate_from_index(ta_index):
    """One-way propagation estimate from a cumulative TA index (an int, or an
    int64 array of them): N * 8*Ts."""
    if np.min(ta_index) < 0:
        raise NegativeTaStateError(f"cumulative TA index {np.min(ta_index)} < 0")
    return ta_index * TA_STEP_TICKS // 2


def one_way_delay_estimate(ta: TaCommand, current_ta_state: Optional[int] = None) -> int:
    """One-way delay implied by applying ``ta`` on top of the current index.

    Half the quantized round trip; the quantization residual relative to the
    true one-way delay lies in [0, 8*Ts) for floor-quantized initial
    commands.
    """
    if ta.kind is TaKind.INITIAL:
        index = ta.value
    else:
        if current_ta_state is None:
            raise NoTaStateError("update command requires a current TA index")
        index = current_ta_state + ta.value - TA_UPDATE_NOOP
    if index < 0:
        raise NegativeTaStateError(f"cumulative TA index {index} < 0")
    return delay_estimate_from_index(index)


def measure_rtt(
    true_one_way: int,
    noise_sigma: float,
    wrong_bin_prob: float,
    rng: RngStream,
) -> int:
    """Round-trip measurement with Gaussian error and occasional bin slips.

    With probability ``wrong_bin_prob`` the result lands one full TA step
    (16*Ts) off, sign equiprobable; the result never goes below zero.
    """
    rtt = 2 * true_one_way + rng.gauss_ticks(noise_sigma)
    if wrong_bin_prob > 0 and rng.random() < wrong_bin_prob:
        rtt += TA_STEP_TICKS if rng.random() < 0.5 else -TA_STEP_TICKS
    return max(0, rtt)


# --- broadcast time (SIB16-style) -------------------------------------------


def quantize_broadcast_time(t, granularity: int):
    """Truncate a time value, or an array of them, to the broadcast
    granularity grid (0 = exact)."""
    if granularity == 0:
        return t
    return (t // granularity) * granularity


# --- two-way exchange --------------------------------------------------------


def _div2_trunc(value: int) -> tuple[int, bool]:
    """Halve toward zero; flag a half-tick remainder instead of rounding it away."""
    quotient = abs(value) // 2
    if value < 0:
        quotient = -quotient
    return quotient, (value % 2 != 0)


class TwowayResult(NamedTuple):
    offset: int                 # responder minus initiator clock offset
    mean_path_delay: int
    offset_half_tick: bool
    delay_half_tick: bool


def twoway_offset(rec: ExchangeRecord) -> TwowayResult:
    """Offset and mean path delay of a two-way exchange.

    offset = ((t2-t1) - (t4-t3)) / 2, delay = ((t2-t1) + (t4-t3)) / 2.
    Integer halving truncates toward zero; dropped half ticks are flagged so
    exactness audits can reconstruct the numerator.
    """
    if rec.t4 < rec.t1 or rec.t3 < rec.t2:
        raise CausalityViolationError(
            f"timestamps not causally ordered: {rec}"
        )
    forward = rec.t2 - rec.t1
    backward = rec.t4 - rec.t3
    offset, offset_half = _div2_trunc(forward - backward)
    delay, delay_half = _div2_trunc(forward + backward)
    return TwowayResult(offset, delay, offset_half, delay_half)


# --- inter-BS alignment -------------------------------------------------------


class RibsMode(Enum):
    """How BS-B aligns to the anchor BS-A. Listening, BS-B adopts A's
    reference signal, stamped at the round's start, when it arrives one
    propagation delay later: as-is under LISTEN_ONLY, which leaves the delay
    as residual error, or plus a helper UE's TA-derived delay estimate under
    LISTEN_TA (the helper co-located with BS-B). TWO_WAY is a two-way
    exchange that A starts, and B steps when the offset A measured at t4
    reaches it, one propagation delay later."""

    LISTEN_ONLY = "listen_only"
    LISTEN_TA = "listen_ta"
    TWO_WAY = "two_way"


# --- gateway relay -------------------------------------------------------------


def gw_relay_sync(gw_readings: np.ndarray, local_domain_error_sigma: float, rng: RngStream) -> np.ndarray:
    """The readings a legacy device adopts as its gateway, just synced over
    the air to read each of the int64 ``gw_readings`` in turn, relays its
    time into the wired domain: the gateway's own error plus a Gaussian
    local-domain term, one draw after another from ``rng``."""
    return gw_readings + rng.gauss_ticks(local_domain_error_sigma, len(gw_readings)).astype(np.int64)
