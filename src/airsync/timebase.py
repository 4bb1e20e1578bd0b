"""Integer tick timebase.

The simulated timeline counts ticks of 1/(30.72 GHz) s (~32.552 ps). This
rate makes the LTE sampling period Ts exactly 1000 ticks, the TA step 16*Ts
exactly 16000 ticks, and every millisecond-scale period an exact integer, so
scheduling arithmetic never touches floating point. Conversions to and from
seconds happen only at I/O boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import TickOverflowError

TICKS_PER_SECOND = 30_720_000_000
TICKS_PER_MS = 30_720_000
TICKS_PER_US = 30_720

TS_TICKS = 1000                      # LTE basic time unit Ts (~32.55 ns)
TA_STEP_TICKS = 16 * TS_TICKS        # TA quantum 16*Ts
HALF_TA_STEP_TICKS = TA_STEP_TICKS // 2

UINT64_MAX = 2**64 - 1
INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

LIGHT_SPEED_MPS = 3.0e8

# Integer ticks per unit, kept as exact rationals so unit parsing can reject
# values that do not land on the tick grid (1 ns = 30.72 ticks, for example).
_UNIT_TICKS: dict[str, Fraction] = {
    "s": Fraction(TICKS_PER_SECOND),
    "ms": Fraction(TICKS_PER_MS),
    "us": Fraction(TICKS_PER_US),
    "µs": Fraction(TICKS_PER_US),
    "ns": Fraction(TICKS_PER_SECOND, 10**9),
    "ticks": Fraction(1),
    "tick": Fraction(1),
}

_PARSE_CACHE_SIZE = 1024   # time strings whose tick value is kept per process


def ticks_to_seconds(ticks: int | float) -> float:
    return ticks / TICKS_PER_SECOND


def ticks_to_ns(ticks: int | float) -> float:
    return ticks * 1e9 / TICKS_PER_SECOND


def parse_ticks(value: int | float | str, *, allow_negative: bool = False) -> int:
    """Parse a time quantity into exact integer ticks.

    Accepts a bare integer (ticks) or a string with a unit suffix such as
    "80 ms", "0.5 us", "31 ticks". Quantities that are not an exact integer
    number of ticks are rejected rather than rounded. A string's ticks are
    kept per process (_parse_text), keyed on the text alone.
    """
    if isinstance(value, bool):
        raise ValueError("expected a time quantity, got a boolean")
    if isinstance(value, int):
        ticks = value
    elif isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{value} is not an integer number of ticks")
        ticks = int(value)
    elif isinstance(value, str):
        ticks = _parse_text(value)
    else:
        raise ValueError(f"expected a time quantity, got {type(value).__name__}")
    if not allow_negative and ticks < 0:
        raise ValueError(f"negative time quantity {value!r} not allowed here")
    if not (INT64_MIN <= ticks <= UINT64_MAX):
        raise TickOverflowError(f"{value!r} exceeds the 64-bit tick range")
    return ticks


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse_text(value: str) -> int:
    """The exact ticks of a time string: its number as a Fraction times its
    unit's ticks, which must be whole. Raises ValueError, never kept."""
    text = value.strip()
    parts = text.split()
    if len(parts) == 2:
        number, unit = parts
    else:
        # allow "80ms" without a space
        idx = len(text)
        while idx > 0 and (text[idx - 1].isalpha() or text[idx - 1] == "µ"):
            idx -= 1
        number, unit = text[:idx].strip(), text[idx:]
    if not number or unit not in _UNIT_TICKS:
        raise ValueError(
            f"cannot parse time quantity {value!r}; expected '<number> "
            f"<unit>' with unit in {sorted(set(_UNIT_TICKS) - {'tick'})}"
        )
    try:
        quantity = Fraction(number)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad numeric value in {value!r}") from exc
    scaled = quantity * _UNIT_TICKS[unit]
    if scaled.denominator != 1:
        raise ValueError(
            f"{value!r} is not an integer number of ticks "
            f"({float(scaled):.3f}); use an explicit 'ticks' value"
        )
    return int(scaled)


def propagation_ticks(distance_m: float) -> int:
    """Line-of-sight propagation delay over ``distance_m``, rounded to the nearest tick."""
    return round(distance_m * TICKS_PER_SECOND / LIGHT_SPEED_MPS)
