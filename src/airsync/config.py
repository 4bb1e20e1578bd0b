"""Declarative scenario configuration: the whole config schema.

YAML/JSON in, validated ScenarioConfig out. This module owns every config
type (node roles, link, sync plan, workload, fault probe), every default and
every rule. Each section's table ``{key: (default, parser)}`` is the only
place a default is stated; the types carry none. Time quantities carry unit
suffixes and must land exactly on the tick grid (rejected otherwise, never
rounded); unknown keys are rejected with full field paths. Every check
lives here, the rules of the node graph included, so a config that
validates also builds and runs. The resolved dictionary (defaults filled
in) is kept alongside the typed config so reports can embed it and sweeps
can rewrite any field by path.
"""

from __future__ import annotations

import copy
import math
import re
from enum import Enum
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np
import yaml

from .clocks import ClockParams
from .engine import RngStream
from .errors import InvalidConfigError, TickOverflowError
from .metrics import BUILTIN_PRESETS, RequirementPreset
from .protocols import RibsMode, SibConfig, StampMode
from .timebase import INT64_MAX, MAX_TICKS, TICKS_PER_MS, TICKS_PER_SECOND, parse_ticks

SCHEMA_VERSION = 1

# libyaml's loader where PyYAML was built with it: the same mappings, parsed in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_DIST_KEYS = {"dist", "low", "high"}   # a clock parameter's range: only uniform exists
_REQUIRED = object()   # table default of a key that must be present


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise InvalidConfigError(
            f"{path}.{key}" if path else key,
            f"unknown key (allowed: {sorted(allowed)})",
        )


class _Section:
    """One config mapping, read through its table ``{key: (default, parser)}``.

    Construction rejects a non-mapping and unknown keys. ``section[key]``
    parses one field: a missing key reads as the table's default, and the
    parser gets the value and the field's full path. Fields are read in the
    order a section asks for them, so cross-field rules sit between reads.
    """

    def __init__(self, raw: Any, path: str, table: dict[str, tuple[Any, Callable]]):
        if not isinstance(raw, dict):
            raise InvalidConfigError(path, f"expected a mapping, got {type(raw).__name__}")
        _check_keys(raw, set(table), path)
        self.raw = raw
        self.path = path
        self.table = table

    def __getitem__(self, key: str) -> Any:
        default, parse = self.table[key]
        path = f"{self.path}.{key}" if self.path else key
        if default is _REQUIRED and key not in self.raw:
            raise InvalidConfigError(path, "required")
        return parse(self.raw.get(key, default), path)

    def read(self) -> dict[str, Any]:
        """Every field, parsed in table order."""
        return {key: self[key] for key in self.table}

    def only_with(self, used: bool, keys: tuple[str, ...], what: str) -> None:
        """Reject any of ``keys`` given where the model would ignore it (``used`` false)."""
        for key in keys:
            if not used and key in self.raw:
                raise InvalidConfigError(f"{self.path}.{key}", f"only used with {what}")


# --- field parsers: (value, path) -> parsed value ---------------------------------


def _time(value: Any, path: str, *, allow_negative: bool = False) -> int:
    try:
        return parse_ticks(value, allow_negative=allow_negative)
    except (ValueError, TickOverflowError) as exc:
        raise InvalidConfigError(path, str(exc)) from None


def _positive_time(value: Any, path: str) -> int:
    ticks = _time(value, path)
    if ticks <= 0:
        raise InvalidConfigError(path, "must be > 0")
    return ticks


def _bounded(parse: Callable, bound: int, unit: str = "ticks") -> Callable:
    """``parse``, rejecting a value of magnitude above ``bound``."""

    def parse_bounded(value: Any, path: str) -> Any:
        parsed = parse(value, path)
        if abs(parsed) > bound:
            raise InvalidConfigError(path, f"must be within ±{bound} {unit}")
        return parsed

    return parse_bounded


def _nonnegative_ticks(value: Any, path: str, bound: float = math.inf) -> float:
    """A mean or std dev of at most ``bound``: bare numbers are ticks
    (fractional ok), strings exact. The bound is checked on the value as
    given, before the float it becomes could round it onto the bound."""
    if isinstance(value, bool):
        raise InvalidConfigError(path, "expected a number or time quantity")
    if isinstance(value, (int, float)):
        _number(value, path)   # finite
        ticks = value
        if ticks < 0:
            raise InvalidConfigError(path, "must be >= 0")
    else:
        ticks = _time(value, path)
    if ticks > bound:
        raise InvalidConfigError(path, f"must be <= {bound} ticks")
    return float(ticks)


def _sigma(value: Any, path: str) -> float:
    return _nonnegative_ticks(value, path, INT64_MAX)   # a normal draw with such a std dev is finite, whatever its mean


def _noise_sigma(value: Any, path: str) -> float:
    return _nonnegative_ticks(value, path, MAX_TICKS)   # noise a reading sums (clocks.py)


def _probability(value: Any, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 <= value <= 1:
        raise InvalidConfigError(path, f"expected a probability in [0, 1], got {value!r}")
    return float(value)


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise InvalidConfigError(path, f"expected a number, got {value!r}")
    try:
        # YAML 1.1 reads "3.0e8" as a string (it wants e+8); be forgiving
        number = float(value)
    except (ValueError, OverflowError):
        raise InvalidConfigError(path, f"expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise InvalidConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _optional(parse: Callable) -> Callable:
    """A parser that lets an absent (None) optional field through."""
    return lambda value, path: None if value is None else parse(value, path)


def _raw(value: Any, path: str) -> Any:
    return value


def _choice(options: dict[str, Any], what: str, *, listed: bool = True) -> Callable:
    """A parser for one of the named ``options``."""

    def parse(value: Any, path: str) -> Any:
        if isinstance(value, str) and value in options:
            return options[value]
        allowed = f" (allowed: {sorted(options)})" if listed else ""
        raise InvalidConfigError(path, f"unknown {what} {value!r}{allowed}")

    return parse


def _by_value(enum) -> dict[str, Any]:
    return {member.value: member for member in enum}


def _check(ok: Callable[[Any], bool], message: str, convert: Callable = lambda v: v) -> Callable:
    """A parser that keeps any value ``ok`` accepts, after ``convert``."""

    def parse(value: Any, path: str) -> Any:
        if not ok(value):
            raise InvalidConfigError(path, message)
        return convert(value)

    return parse


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _str_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _check_uniform(low: Any, high: Any, path: str) -> None:
    """A uniform range's bounds, drawn as integers(low, high + 1): that bound must fit int64."""
    if high < low:
        raise InvalidConfigError(path, "uniform range needs high >= low")
    if high >= INT64_MAX:
        raise InvalidConfigError(f"{path}.high", f"must be below INT64_MAX = {INT64_MAX} ticks")


# --- node roles -------------------------------------------------------------------


class Role(Enum):
    REFERENCE = "reference"
    BASE_STATION = "base_station"
    UE = "ue"
    GATEWAY = "gateway"
    LEGACY = "legacy_device"
    PMU = "pmu"


DEVICE_ROLES = (Role.UE, Role.GATEWAY, Role.LEGACY, Role.PMU)
ATTACHED_ROLES = (Role.UE, Role.GATEWAY, Role.PMU)
_ROLES = _by_value(Role)


# --- clock parameter specs ----------------------------------------------------


class ScalarOrDist(NamedTuple):
    """Fixed value or a uniform range, drawn once per node at build time."""

    value: float = 0.0
    low: float = 0.0
    high: float = 0.0
    uniform: bool = False
    integer: bool = False   # values stay Python ints: never rounded through a float

    def draw(self, rng: Optional[RngStream]) -> float:
        if not self.uniform:
            return self.value
        if self.integer:
            return rng.integers(self.low, self.high + 1)
        return rng.uniform(self.low, self.high)


def _scalar_or_dist(parse: Callable, *, integer: bool = False) -> Callable:
    """A parser for a value that may also be given as a uniform range."""

    def parse_field(raw: Any, path: str) -> ScalarOrDist:
        if not isinstance(raw, dict):
            return ScalarOrDist(value=parse(raw, path), integer=integer)
        _check_keys(raw, _DIST_KEYS, path)
        kind = raw.get("dist")
        if kind != "uniform":
            raise InvalidConfigError(f"{path}.dist", f"only 'uniform' supported, got {kind!r}")
        if "low" not in raw or "high" not in raw:
            raise InvalidConfigError(path, "uniform distribution needs 'low' and 'high'")
        low = parse(raw["low"], f"{path}.low")
        high = parse(raw["high"], f"{path}.high")
        _check_uniform(low, high, path)
        return ScalarOrDist(low=low, high=high, uniform=True, integer=integer)

    return parse_field


class ClockSpec(NamedTuple):
    theta0: ScalarOrDist
    skew_y: ScalarOrDist
    drift_a: ScalarOrDist
    stamp_noise_sigma: float

    @property
    def drawn(self) -> bool:
        """Whether some field is a uniform range: only then does draw read its stream."""
        return self.theta0.uniform or self.skew_y.uniform or self.drift_a.uniform

    def draw(self, rng: Optional[RngStream]) -> ClockParams:
        return ClockParams(
            theta0=self.theta0.draw(rng),
            skew_y=self.skew_y.draw(rng),
            drift_a=self.drift_a.draw(rng),
            stamp_noise_sigma=self.stamp_noise_sigma,
        )


def _phase_offset(value: Any, path: str) -> int:
    return _time(value, path, allow_negative=True)


MAX_ABS_SKEW = 1e-3


def _ppm(value: Any, path: str) -> float:
    skew = _number(value, path) * 1e-6
    if abs(skew) >= MAX_ABS_SKEW:
        raise InvalidConfigError(path, f"|skew| must stay below {MAX_ABS_SKEW * 1e6:.0f} ppm")
    return skew


_CLOCK = {
    "theta0": (0, _scalar_or_dist(_phase_offset, integer=True)),
    "skew_ppm": (0.0, _scalar_or_dist(_ppm)),
    "drift_per_s": (0.0, _scalar_or_dist(_number)),
    "stamp_noise": (0, _noise_sigma),
}


def _parse_clock(raw: Any, path: str) -> ClockSpec:
    s = _Section(raw, path, _CLOCK)
    return ClockSpec(
        theta0=s["theta0"],
        skew_y=s["skew_ppm"],
        drift_a=s["drift_per_s"],
        stamp_noise_sigma=s["stamp_noise"],
    )


_DEFAULT_CLOCK = _parse_clock({}, "clock")   # every _CLOCK default: a node with no clock given
# the reference is true time: it has no clock to give defaults to
_CLOCK_DEFAULTS = {role: (None, _parse_clock) for role in _ROLES if role != Role.REFERENCE.value}


def _parse_clock_defaults(raw: Any, path: str) -> dict[str, ClockSpec]:
    s = _Section(raw, path, _CLOCK_DEFAULTS)
    return {role: s[role] for role in s.raw}  # validated eagerly, in input order


# --- nodes ------------------------------------------------------------------------


class Node(NamedTuple):
    """One node of the scenario graph; its clock parameters are drawn at build."""

    id: str
    role: Role
    position: Optional[tuple[float, float]]
    attach_to: Optional[str]
    clock: ClockSpec


# with |x|, |y| <= 1e15 m, two nodes are at most 2.9e17 ticks apart: an int64 delay
_coordinate = _bounded(_number, 10**15, "m")


def _position(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidConfigError(path, "expected [x, y] in meters")
    return (_coordinate(value[0], f"{path}[0]"), _coordinate(value[1], f"{path}[1]"))


_NODE = {
    "id": (None, _check(lambda v: isinstance(v, str) and v != "",
                        "node id must be a non-empty string")),
    "role": (None, _choice(_ROLES, "role")),
    "position": (None, _optional(_position)),
    "attach_to": (None, _optional(_check(lambda v: isinstance(v, str),
                                         "expected a node id string"))),
    "clock": (None, _optional(_parse_clock)),
}


def _parse_node(raw: Any, path: str, default_clocks: dict[str, ClockSpec]) -> Node:
    s = _Section(raw, path, _NODE)
    fields = s.read()
    s.only_with(fields["role"] is not Role.REFERENCE, ("position", "clock"),
                "non-reference nodes (the reference is true time)")
    if fields["clock"] is None:
        fields["clock"] = default_clocks.get(fields["role"].value, _DEFAULT_CLOCK)
    return Node(**fields)


def _parse_nodes(raw: Any, path: str, default_clocks: dict[str, ClockSpec]) -> list[Node]:
    if not isinstance(raw, list) or not raw:
        raise InvalidConfigError(path, "expected a non-empty list of nodes")
    return [_parse_node(node, f"{path}[{i}]", default_clocks) for i, node in enumerate(raw)]


def _index_nodes(nodes: list[Node]) -> dict[str, Node]:
    """Nodes by id, once the graph holds together: one reference, and every
    device attached to a parent of the right role, with the positions
    propagation needs."""
    by_id: dict[str, Node] = {}
    for i, node in enumerate(nodes):
        if node.id in by_id:
            raise InvalidConfigError(f"nodes[{i}].id", f"duplicate node id {node.id!r}")
        by_id[node.id] = node

    references = sum(node.role is Role.REFERENCE for node in nodes)
    if references != 1:
        raise InvalidConfigError(
            "nodes", f"exactly one reference node required, found {references}"
        )

    for i, node in enumerate(nodes):
        path = f"nodes[{i}]"
        if node.attach_to is None:
            if node.role in (Role.UE, Role.GATEWAY):
                raise InvalidConfigError(
                    f"{path}.attach_to",
                    f"{node.role.value} {node.id!r} must attach to a base station",
                )
            if node.role is Role.LEGACY:
                raise InvalidConfigError(
                    f"{path}.attach_to", f"legacy device {node.id!r} must attach to a gateway"
                )
        elif node.role in (Role.REFERENCE, Role.BASE_STATION):
            raise InvalidConfigError(f"{path}.attach_to", f"{node.role.value} nodes do not attach")
        else:
            parent = by_id.get(node.attach_to)
            if parent is None:
                raise InvalidConfigError(f"{path}.attach_to", f"unknown node {node.attach_to!r}")
            wanted = Role.GATEWAY if node.role is Role.LEGACY else Role.BASE_STATION
            if parent.role is not wanted:
                raise InvalidConfigError(
                    f"{path}.attach_to",
                    f"{node.role.value} must attach to a {wanted.value}, "
                    f"{node.attach_to!r} is a {parent.role.value}",
                )
        # an unattached PMU is its own timing source and needs no position
        attached = node.role in ATTACHED_ROLES and node.attach_to is not None
        if (node.role is Role.BASE_STATION or attached) and node.position is None:
            raise InvalidConfigError(
                f"{path}.position", f"{node.role.value} {node.id!r} needs a position"
            )
    return by_id


# --- link / plan / workload / fault probe -------------------------------------------


class DelayDistribution(NamedTuple):
    """Extra (scheduling/queueing) delay on top of propagation, in ticks."""

    kind: str      # none | uniform | normal
    low: int
    high: int
    mean: float
    sigma: float

    def draw(self, rng: RngStream, size: int) -> np.ndarray:
        """``size`` successive delays in ticks, as int64, each clipped at
        2**62: past any instant a run reads, so such a delay moves its
        arrival past the run either way."""
        if self.kind == "uniform":
            delay = rng.integers(self.low, self.high + 1, size)
        elif self.kind == "normal":
            delay = np.maximum(0.0, np.rint(rng.normal(self.mean, self.sigma, size)))
        else:
            return np.zeros(size, dtype=np.int64)
        return np.minimum(delay, 2**62).astype(np.int64, copy=False)


_DELAY = {
    "dist": ("none", _choice({k: k for k in ("none", "uniform", "normal")},
                             "distribution", listed=False)),
    "low": (0, _time),
    "high": (0, _time),
    "mean": (0, _nonnegative_ticks),
    "sigma": (0, _sigma),
}


def _parse_delay_dist(raw: Any, path: str) -> DelayDistribution:
    s = _Section(raw, path, _DELAY)
    kind = s["dist"]
    s.only_with(kind == "uniform", ("low", "high"), "dist: uniform")
    s.only_with(kind == "normal", ("mean", "sigma"), "dist: normal")
    low, high = s["low"], s["high"]   # both 0 unless dist: uniform
    _check_uniform(low, high, path)
    return DelayDistribution(kind, low=low, high=high, mean=s["mean"], sigma=s["sigma"])


class LinkModel(NamedTuple):
    extra_delay: DelayDistribution
    loss_prob: float


_LINK = {
    "extra_delay": ({"dist": "none"}, _parse_delay_dist),
    "loss_prob": (0.0, _probability),
}


def _parse_link(raw: Any, path: str) -> LinkModel:
    return LinkModel(**_Section(raw, path, _LINK).read())


_SIB = {
    "stamp_mode": (StampMode.AT_TRANSMIT.value, _choice(_by_value(StampMode), "mode")),
    "granularity": ("10 ms", _bounded(_time, MAX_TICKS)),
    "periodicity": ("80 ms", _time),
    "si_window": ("40 ms", _bounded(_time, INT64_MAX)),   # drawn as integers(0, si_window + 1)
}


def _parse_sib(raw: Any, path: str) -> SibConfig:
    sib = SibConfig(**_Section(raw, path, _SIB).read())
    if sib.si_window > sib.periodicity:
        raise InvalidConfigError(f"{path}.si_window", "must not exceed periodicity")
    return sib


class BsAlignmentMode(Enum):
    PERFECT = "perfect"
    FIXED_ERROR = "fixed_error"
    RIBS = "ribs"


class BsAlignment(NamedTuple):
    mode: BsAlignmentMode
    error: int
    ribs_mode: Optional[RibsMode]
    realign_period: Optional[int]


_ALIGN = {
    "mode": ("perfect", _choice(_by_value(BsAlignmentMode), "mode", listed=False)),
    "error": (0, _bounded(lambda value, path: _time(value, path, allow_negative=True), MAX_TICKS)),
    "ribs_mode": ("two_way", _choice(_by_value(RibsMode), "RIBS mode", listed=False)),
    "realign_period": (None, _optional(_time)),
}


def _parse_alignment(raw: Any, path: str) -> BsAlignment:
    s = _Section(raw, path, _ALIGN)
    mode = s["mode"]
    s.only_with(mode is BsAlignmentMode.FIXED_ERROR, ("error",), "mode: fixed_error")
    s.only_with(mode is BsAlignmentMode.RIBS, ("ribs_mode",), "mode: ribs")
    return BsAlignment(
        mode=mode,
        error=s["error"],
        ribs_mode=s["ribs_mode"] if mode is BsAlignmentMode.RIBS else None,
        realign_period=s["realign_period"],
    )


class Enabler(Enum):
    TA_SIB16 = "ta_sib16"
    RIBS_UE = "ribs_ue"
    DEDICATED_TWO_WAY = "dedicated_two_way"


class SyncPlan(NamedTuple):
    enabler: Enabler
    ta_timer_period: int   # ticks
    resync_period: int
    ta_noise_sigma: float
    ta_wrong_bin_prob: float
    sib: SibConfig
    bs_alignment: BsAlignment
    gw_relay_sigma: float
    turnaround: int = TICKS_PER_MS   # a model constant, not a config field


TA_TIMER_PERIODS_MS = (500, 750, 1280, 1920, 2560, 5120, 10240)   # the standard TA timer set

_PLAN = {
    "enabler": (Enabler.TA_SIB16.value, _choice(_by_value(Enabler), "enabler")),
    "ta_timer_ms": (10240, _check(
        lambda v: _is_int(v) and v in TA_TIMER_PERIODS_MS,
        f"expected an integer number of ms from {TA_TIMER_PERIODS_MS}",
        lambda v: v * TICKS_PER_MS,
    )),
    "resync_period": ("80 ms", _positive_time),
    "ta_noise_sigma": (0, _sigma),
    "ta_wrong_bin_prob": (0.0, _probability),
    "sib": ({}, _parse_sib),
    "bs_alignment": ({}, _parse_alignment),
    "gw_relay_sigma": (0, _noise_sigma),
}


def _parse_plan(raw: Any, path: str) -> SyncPlan:
    section = _Section(raw, path, _PLAN)
    fields = section.read()
    section.only_with(fields["enabler"] is Enabler.TA_SIB16, ("sib",), "enabler: ta_sib16")
    fields["ta_timer_period"] = fields.pop("ta_timer_ms")
    return SyncPlan(**fields)


class Workload(NamedTuple):
    """Isochronous command deliveries on an ideal grid."""

    command_period: int
    targets: tuple[str, ...]
    grid_phase: int
    phase_mode: str   # median | fixed

    def grid_point(self, grid_index):
        """The commanded instant of command ``grid_index`` (an int or an int64 array)."""
        return self.grid_phase + grid_index * self.command_period


_WORKLOAD = {
    "command_period": ("1 ms", _bounded(_positive_time, INT64_MAX)),
    "targets": (None, _check(
        lambda v: _str_list(v) and v != [], "expected a non-empty list of node ids", tuple
    )),
    "phase_mode": ("median", _check(lambda v: v in ("median", "fixed"),
                                    "must be 'median' or 'fixed'")),
    "grid_phase": (0, _time),
}


def _parse_workload(raw: Any, path: str) -> Workload:
    return Workload(**_Section(raw, path, _WORKLOAD).read())


class FaultProbe(NamedTuple):
    line_length_m: float
    fault_position_m: float
    wave_speed_mps: float
    sync_error_bound: Optional[int]
    at: Optional[int]
    pmu_ids: Optional[tuple[str, str]]


_PROBE = {
    "line_length_m": (None, _number),
    "fault_position_m": (None, _number),
    "wave_speed_mps": (3.0e8, _number),
    "sync_error_bound": (None, _optional(_time)),
    "at": (None, _optional(_time)),
    "pmu": (None, _optional(
        _check(lambda v: _str_list(v) and len(v) == 2, "expected exactly two PMU node ids", tuple)
    )),
}


def _parse_probe(raw: Any, path: str) -> FaultProbe:
    s = _Section(raw, path, _PROBE)
    length, position, speed = s["line_length_m"], s["fault_position_m"], s["wave_speed_mps"]
    if length <= 0 or speed <= 0 or not 0 <= position <= length:
        raise InvalidConfigError(
            path, "need 0 <= fault_position_m <= line_length_m and positive speed"
        )
    return FaultProbe(
        line_length_m=length,
        fault_position_m=position,
        wave_speed_mps=speed,
        sync_error_bound=s["sync_error_bound"],
        at=s["at"],
        pmu_ids=s["pmu"],
    )


def _last_wave_arrival(probe: FaultProbe, duration: int) -> int:
    """When the fault wave reaches the farther line end, as
    scenario.fault_wave_stamps rounds it: rejected past MAX_TICKS."""
    if probe.at is not None and probe.at > duration:
        raise InvalidConfigError("fault_probe.at", "must be within the run duration")
    at = duration if probe.at is None else probe.at
    farther = max(probe.fault_position_m, probe.line_length_m - probe.fault_position_m)
    crossing = farther / probe.wave_speed_mps * TICKS_PER_SECOND
    if not crossing < 2 * MAX_TICKS or at + round(crossing) > MAX_TICKS:   # inf or NaN first, then exactly
        raise InvalidConfigError("fault_probe.wave_speed_mps",
                                 f"the wave must reach both line ends by MAX_TICKS = {MAX_TICKS} ticks (about 81.4 h)")
    return at + round(crossing)


def _resolve_pmus(probe: FaultProbe, nodes: dict[str, Node]) -> FaultProbe:
    """The probe with its two PMUs named: as given, else the graph's only two."""
    pmu_ids = probe.pmu_ids or tuple(n.id for n in nodes.values() if n.role is Role.PMU)
    if len(pmu_ids) != 2:
        raise InvalidConfigError("fault_probe", f"need exactly two PMU nodes, found {len(pmu_ids)}")
    for pmu in pmu_ids:
        if pmu not in nodes or nodes[pmu].role is not Role.PMU:
            raise InvalidConfigError("fault_probe.pmu", f"{pmu!r} is not a PMU node")
    return probe._replace(pmu_ids=pmu_ids)


# --- top level ------------------------------------------------------------------


class ScenarioConfig(NamedTuple):
    """A validated scenario: everything a run needs except the drawn clocks.

    Frozen, so the runs of a sweep point can share one.
    """

    nodes: dict[str, Node]
    link: LinkModel
    sync_plan: SyncPlan
    workload: Optional[Workload]
    presets: list[RequirementPreset]
    duration: int
    sampling_grid: int
    seed: int
    fault_probe: Optional[FaultProbe]
    raw: dict


def _schema_version(value: Any, path: str) -> int:
    if value != SCHEMA_VERSION:
        raise InvalidConfigError(path, f"expected {SCHEMA_VERSION}, got {value!r}")
    return value


def _seed(value: Any, path: str) -> int:
    if not _is_int(value):
        raise InvalidConfigError(path, f"expected an integer, got {value!r}")
    return value


def _presets(value: Any, path: str) -> list[RequirementPreset]:
    if not isinstance(value, list):
        raise InvalidConfigError(path, "expected a list of preset names")
    for i, name in enumerate(value):
        if not isinstance(name, str) or name not in BUILTIN_PRESETS:
            raise InvalidConfigError(
                f"{path}[{i}]", f"unknown preset {name!r} (see 'airsync presets')"
            )
    return [BUILTIN_PRESETS[name] for name in value]


_TOP = {
    "schema_version": (None, _schema_version),
    "duration": (_REQUIRED, _positive_time),
    "sampling_grid": ("1 ms", _positive_time),
    "seed": (0, _seed),
    "clock_defaults": ({}, _parse_clock_defaults),
    "nodes": (None, _raw),
    "presets": ([], _presets),
    "workload": (None, _optional(_parse_workload)),
    "fault_probe": (None, _optional(_parse_probe)),
    "link": ({}, _parse_link),
    "sync_plan": ({}, _parse_plan),
}


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate a raw mapping into a ScenarioConfig (strict, path-diagnosed).

    This is the only place a config is checked: field rules first, then the
    rules of the node graph, each naming the offending field path.
    """
    top = _Section(copy.copy(raw), "", _TOP)   # only the top level takes writes (the defaults)
    top["schema_version"]
    # reports embed this resolved mapping: the input plus top-level defaults
    for key, (default, _parse) in _TOP.items():
        if default is not _REQUIRED:
            top.raw.setdefault(key, copy.deepcopy(default))

    duration = top["duration"]
    sampling_grid = top["sampling_grid"]
    if duration > MAX_TICKS:
        raise InvalidConfigError("duration", f"must not exceed MAX_TICKS = {MAX_TICKS} ticks (about 81.4 h)")
    if sampling_grid > duration:
        raise InvalidConfigError("sampling_grid", "must not exceed duration")
    seed = top["seed"]
    default_clocks = top["clock_defaults"]
    nodes = _parse_nodes(top["nodes"], "nodes", default_clocks)
    presets = top["presets"]
    workload = top["workload"]
    fault_probe = top["fault_probe"]
    latest = duration   # the latest instant a clock is read
    if fault_probe is not None:
        latest = max(duration, _last_wave_arrival(fault_probe, duration))
    # a drift within it keeps its term of a reading, a/2 * t_s * t, within MAX_TICKS up to t = latest
    drift_limit = 2 * MAX_TICKS * TICKS_PER_SECOND / latest**2
    clocks = [(f"clock_defaults.{role}", spec) for role, spec in default_clocks.items()]
    for path, clock in clocks + [(f"nodes[{i}].clock", node.clock) for i, node in enumerate(nodes)]:
        theta0, drift = clock.theta0, clock.drift_a   # a fixed value leaves low = high = 0, a range leaves value = 0
        if max(abs(theta0.value), abs(theta0.low), abs(theta0.high)) > MAX_TICKS:
            raise InvalidConfigError(f"{path}.theta0", f"|theta0| must be <= MAX_TICKS = {MAX_TICKS} ticks")
        if max(abs(drift.value), abs(drift.low), abs(drift.high)) > drift_limit:
            raise InvalidConfigError(f"{path}.drift_per_s", "|drift_per_s| must be <= 2 * MAX_TICKS * "
                                     f"TICKS_PER_SECOND / T**2 = {drift_limit:.6g}, with T = {latest} ticks, "
                                     "the latest instant a clock is read")
    link = top["link"]
    sync_plan = top["sync_plan"]

    by_id = _index_nodes(nodes)
    if workload is not None:
        for target in workload.targets:
            if target not in by_id or by_id[target].role not in DEVICE_ROLES:
                raise InvalidConfigError("workload.targets", f"{target!r} is not a device node")
    if fault_probe is not None:
        fault_probe = _resolve_pmus(fault_probe, by_id)

    return ScenarioConfig(
        nodes=by_id,
        link=link,
        sync_plan=sync_plan,
        workload=workload,
        presets=presets,
        duration=duration,
        sampling_grid=sampling_grid,
        seed=seed,
        fault_probe=fault_probe,
        raw=top.raw,
    )


def _read_text(path: str | Path, field: str) -> str:
    """The UTF-8 text of the file at ``path``: an input path that names no
    readable UTF-8 file is rejected at ``field``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(field, f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def load_config(path: str | Path) -> ScenarioConfig:
    text = _read_text(path, "config")
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise InvalidConfigError("", f"cannot parse {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfigError("", f"{path}: top level must be a mapping")
    return validate_config(raw)


# --- parameter paths (sweeps) -----------------------------------------------------

_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)$")


def _split_path(path: str) -> list[str | int]:
    tokens: list[str | int] = []
    for part in path.split("."):
        match = _PATH_TOKEN.match(part)
        if not match:
            raise InvalidConfigError("sweep.path", f"malformed path segment {part!r}")
        tokens.append(match.group(1))
        for idx in re.findall(r"\[(\d+)\]", match.group(2)):
            tokens.append(int(idx))
    return tokens


def _walk(raw: dict, tokens: list[str | int], path: str):
    current: Any = raw
    for token in tokens[:-1]:
        try:
            current = current[token]
        except (KeyError, IndexError, TypeError):
            raise InvalidConfigError("sweep.path", f"{path!r} does not resolve in the config") from None
    return current


def get_config_value(raw: dict, path: str) -> Any:
    tokens = _split_path(path)
    container = _walk(raw, tokens, path)
    try:
        return container[tokens[-1]]
    except (KeyError, IndexError, TypeError):
        raise InvalidConfigError("sweep.path", f"{path!r} does not resolve in the config") from None


def set_config_value(raw: dict, path: str, value: Any) -> None:
    tokens = _split_path(path)
    container = _walk(raw, tokens, path)
    last = tokens[-1]
    if isinstance(container, dict):
        container[last] = value
    elif isinstance(container, list) and isinstance(last, int) and 0 <= last < len(container):
        container[last] = value
    else:
        raise InvalidConfigError("sweep.path", f"cannot set {path!r}")


def replace_config_value(raw: dict, path: str, value: Any) -> dict:
    """A copy of ``raw`` with ``path`` set to ``value``, leaving ``raw`` as it
    is. Only the dicts and lists along the path are copied; the copy shares
    the rest with ``raw``, which ``validate_config`` only reads."""
    tokens = _split_path(path)
    top = current = dict(raw)
    for token in tokens[:-1]:
        try:
            child = current[token]
        except (KeyError, IndexError, TypeError):
            break   # set_config_value names the path
        if not isinstance(child, (dict, list)):
            break
        current[token] = copy.copy(child)
        current = current[token]
    set_config_value(top, path, value)
    return top


class SweepSpec(NamedTuple):
    path: str
    values: tuple
    repetitions: int


def _sweep_path(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidConfigError(path, "required parameter path string")
    _split_path(value)
    return value


_SWEEP = {
    "path": (None, _sweep_path),
    "values": (None, _check(
        lambda v: isinstance(v, list) and v != [], "expected a non-empty list of values", tuple
    )),
    "repetitions": (1, _check(lambda v: _is_int(v) and v >= 1, "expected an integer >= 1")),
}


def parse_sweep_spec(raw: Any) -> SweepSpec:
    spec = SweepSpec(**_Section(raw, "sweep", _SWEEP).read())
    for i, value in enumerate(spec.values):
        if value in spec.values[:i]:   # a sweep groups its rows by ==: the two would merge into one
            raise InvalidConfigError(f"sweep.values[{i}]", f"repeats an earlier value {value!r}")
    return spec


def load_sweep_spec(path: str | Path) -> SweepSpec:
    text = _read_text(path, "sweep")
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise InvalidConfigError("sweep", f"cannot parse {path}: {exc}") from None
    return parse_sweep_spec(raw)
