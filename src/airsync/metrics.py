"""Post-run analysis: offset statistics, jitter, fault localization, verdicts.

Pure functions over a run's trace columns. The sampled errors are read once
as an (instants x nodes) matrix: per-node statistics are percentiles of the
absolute error in a node's column; pairwise statistics take, in each row
(sampling instant), the worst spread between any two device columns, max
minus min (common-mode error cancels by construction). Jitter is the
variation of delivery stamps around the commanded grid points, never the
constant offset.

The report is composed of one function per section: per_node_report,
device_error_report, pairwise_report, jitter_report, fault_report and
check_requirements. build_report calls them all; a caller that needs fewer
sections (a sweep row) calls only those. Each allocates and frees its own
float64 buffer, so one is alive at a time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InsufficientNodesError, InsufficientSamplesError
from .timebase import TICKS_PER_US, ticks_to_seconds

if TYPE_CHECKING:   # annotations only: config imports this module, scenario imports config
    from .config import Workload
    from .scenario import RawTrace

US = TICKS_PER_US


class RequirementPreset(NamedTuple):
    """Application sync/jitter bounds; reliability/latency kept as notes only."""

    name: str
    device_sync_bound: int                 # pairwise budget, ticks
    per_device_bound: Optional[int] = None  # +-X per-device form, ticks
    jitter_bound: Optional[int] = None      # peak-to-peak, ticks
    notes: str = ""


# A "+-X" per-device accuracy statement becomes a 2X pairwise budget
# (worst-case opposite signs); both numbers are carried.
BUILTIN_PRESETS: dict[str, RequirementPreset] = {
    p.name: p
    for p in (
        RequirementPreset(
            "tsn-factory",
            device_sync_bound=2 * 500 * US // 1000,
            per_device_bound=500 * US // 1000,
            jitter_bound=1 * US,
            notes="1 ms cycle time, 99.999% reliability (metadata only)",
        ),
        RequirementPreset(
            "grid-fault-protection",
            device_sync_bound=20 * US,
            jitter_bound=None,
            notes="line differential protection; <10 ms latency, >99.99% (metadata only)",
        ),
        RequirementPreset(
            "grid-monitoring",
            device_sync_bound=2 * US,
            per_device_bound=1 * US,
            notes="PMU fault localization; 500-1000 ms latency, ~99% (metadata only)",
        ),
        RequirementPreset(
            "lte-tdd-small",
            device_sync_bound=3 * US,
            per_device_bound=3 * US // 2,
            notes="cell radius <= 3 km",
        ),
        RequirementPreset(
            "lte-tdd-large",
            device_sync_bound=10 * US,
            per_device_bound=5 * US,
            notes="cell radius > 3 km",
        ),
        RequirementPreset(
            "mbms",
            device_sync_bound=10 * US,
            per_device_bound=5 * US,
            notes="intercell time difference",
        ),
    )
}


class Verdict(NamedTuple):
    preset: str
    passed: Optional[bool]          # None when a required measurement is missing
    measured_pairwise: Optional[int]
    pairwise_bound: int
    measured_jitter: Optional[int]
    jitter_bound: Optional[int]


class MetricsReport(NamedTuple):
    per_node: dict[str, dict]
    device_error: Optional[dict]
    pairwise: Optional[dict]
    jitter: Optional[dict]
    fault: Optional[dict]
    verdicts: list[Verdict]


_QUANTILES = {"p50": 0.5, "p95": 0.95, "p99": 0.99}


def _percentiles(values: Sequence[float] | np.ndarray) -> dict:
    """p50/p95/p99, max and count of ``values`` (flattened), from a float copy."""
    return _percentiles_in_place(np.array(values, dtype=float))


def _percentiles_in_place(arr: np.ndarray) -> dict:
    """``_percentiles`` of a float64 array that it reorders: pass a buffer that
    no caller keeps.

    The percentiles follow numpy's default ``linear`` rule (Hyndman-Fan type
    7) and equal ``np.percentile(values, [50, 95, 99])`` bit for bit: the
    virtual index is vi = (n-1)*q, the two order statistics around it come
    from one partial sort, and they are interpolated in the same float
    operations as numpy's ``_lerp``.
    """
    arr = arr.reshape(-1)
    last = arr.size - 1
    brackets = {}
    for key, q in _QUANTILES.items():
        vi = last * q
        below = math.floor(vi)
        # numpy reads the top order statistic at the top end, with its
        # weight measured from index -1
        brackets[key] = (last, last, vi + 1) if vi >= last else (below, below + 1, vi - below)
    # numpy's own kth set (0 and the top included), so that keys that compare
    # equal but differ in sign (0.0, -0.0) land where numpy's partition puts them
    kth = sorted({0, last}.union(*(b[:2] for b in brackets.values())))
    arr.partition(kth)
    order = dict(zip(kth, arr[kth].tolist()))
    stats = {}
    for key, (below, above, g) in brackets.items():
        a, b = order[below], order[above]
        stats[key] = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
    stats["max"] = order[last]
    stats["n"] = last + 1
    return stats


def pairwise_offset_stats(errors: np.ndarray, columns: Optional[Sequence[int]] = None) -> dict:
    """Worst pairwise offset per instant, summarized over instants.

    ``errors`` is an (instants x nodes) matrix in ticks, of which the nodes
    ``columns`` (default: all) take part. A row's spread, max - min, lies in
    [0, 2**64), so it is taken exactly in uint64; the row max and min are
    folded in column by column, so the matrix is never copied. The spread
    overwrites the max, and its float copy the min: two column-sized buffers
    in all.
    """
    columns = range(errors.shape[1]) if columns is None else columns
    if len(columns) < 2:
        raise InsufficientNodesError("pairwise statistics need >=2 sampled nodes")
    high = errors[:, columns[0]].copy()
    low = high.copy()
    for j in columns[1:]:
        np.maximum(high, errors[:, j], out=high)
        np.minimum(low, errors[:, j], out=low)
    spread = np.subtract(high.view(np.uint64), low.view(np.uint64), out=high.view(np.uint64))
    magnitude = low.view(float)
    magnitude[...] = spread
    return _percentiles_in_place(magnitude)


def jitter_stats(deliveries: np.recarray, workload: Workload) -> dict:
    """Deviation of each delivery stamp from its commanded grid point.

    ``deliveries`` holds a run's delivery columns (``RawTrace.deliveries``):
    ``node`` indexes ``workload.targets``.

    Deviations are centered per target node on that node's median deviation
    (robust grid-phase estimate, absorbing constant path offsets) unless the
    workload pins the phase; percentiles are of absolute centered deviation,
    and peak-to-peak is their full spread. Constant offsets are not jitter.
    """
    if len(deliveries) < 2:
        raise InsufficientSamplesError("jitter statistics need >=2 deliveries")
    deviation = workload.grid_point(deliveries.grid_index)
    np.subtract(deliveries.local_stamp, deviation, out=deviation)
    deviation = deviation.astype(float)
    if workload.phase_mode == "median":
        # the deviations grouped by target, which changes no statistic below
        # (a stable sort of target indices this small is a radix sort); each
        # group is centred on its middle order statistics, found by a partial
        # sort of its own: an even group takes (lo + hi) / 2, as np.median does
        counts = np.bincount(deliveries.node).tolist()
        target = deliveries.node.astype(np.min_scalar_type(len(counts) - 1))
        deviation = deviation[np.argsort(target, kind="stable")]
        stop = 0
        for count in counts:
            group = deviation[stop:stop + count]
            stop += count
            if count:
                lo, hi = (count - 1) // 2, count // 2
                group.partition(sorted({lo, hi}))
                group -= (group[lo] + group[hi]) / 2
    stats = _percentiles_in_place(np.abs(deviation))
    stats["peak_to_peak"] = float(deviation.max() - deviation.min())
    return stats


def fault_location_estimate(
    stamp_a: int, stamp_b: int, line_length_m: float, wave_speed_mps: float
) -> tuple[float, bool]:
    """Invert two wave-arrival stamps into a fault position estimate.

    x = (L - v * (tB - tA)) / 2, clamped to [0, L]; the flag reports when the
    raw estimate fell outside the line.
    """
    dt_seconds = ticks_to_seconds(stamp_b - stamp_a)
    raw = (line_length_m - wave_speed_mps * dt_seconds) / 2.0
    clamped = min(max(raw, 0.0), line_length_m)
    return clamped, raw != clamped


def localization_uncertainty(sync_error_bound: int, wave_speed_mps: float) -> float:
    """Full width (meters) of the location interval for offsets in [-b, +b]."""
    return wave_speed_mps * ticks_to_seconds(sync_error_bound)


def check_requirements(
    measured_pairwise: Optional[int],
    measured_jitter: Optional[int],
    presets: Sequence[RequirementPreset],
) -> list[Verdict]:
    """Pass/fail each preset; a verdict is None when its input is missing."""
    verdicts = []
    for preset in presets:
        checks: list[bool] = []
        incomplete = False
        if measured_pairwise is None:
            incomplete = True
        else:
            checks.append(measured_pairwise <= preset.device_sync_bound)
        if preset.jitter_bound is not None:
            if measured_jitter is None:
                incomplete = True
            else:
                checks.append(measured_jitter <= preset.jitter_bound)
        verdicts.append(
            Verdict(
                preset=preset.name,
                passed=None if incomplete else all(checks),
                measured_pairwise=measured_pairwise,
                pairwise_bound=preset.device_sync_bound,
                measured_jitter=measured_jitter,
                jitter_bound=preset.jitter_bound,
            )
        )
    return verdicts


def _device_columns(trace: RawTrace) -> list[int]:
    return [j for j, node in enumerate(trace.sampled) if node in trace.devices]


def per_node_report(trace: RawTrace) -> dict[str, dict]:
    """Percentiles of each sampled node's |error|, by node id; each column
    goes through one float64 buffer of one column's length."""
    magnitude = np.empty(len(trace.errors))
    return {node: _percentiles_in_place(np.abs(column, out=magnitude, dtype=float))
            for node, column in sorted(zip(trace.sampled, trace.errors.T))}


def device_error_report(trace: RawTrace) -> Optional[dict]:
    """Percentiles of |error| over every device sample, or None without one.
    The device columns' magnitudes fill one float64 buffer to be partitioned."""
    devices, errors = _device_columns(trace), trace.errors
    if not devices or not errors.size:
        return None
    magnitude = np.empty((len(devices), len(errors)))
    for row, j in enumerate(devices):   # an index: a row view left bound would keep the buffer
        np.abs(errors[:, j], out=magnitude[row], dtype=float)
    return _percentiles_in_place(magnitude)


def pairwise_report(trace: RawTrace) -> Optional[dict]:
    """pairwise_offset_stats over the device columns, or None below two devices."""
    devices = _device_columns(trace)
    return pairwise_offset_stats(trace.errors, devices) if len(devices) >= 2 else None


def jitter_report(trace: RawTrace, workload: Optional[Workload]) -> Optional[dict]:
    """jitter_stats of the run's deliveries, or None without a workload or
    two deliveries."""
    if workload is None or len(trace.deliveries) < 2:
        return None
    return jitter_stats(trace.deliveries, workload)


def fault_report(trace: RawTrace, fault_probe) -> Optional[dict]:
    """The fault probe's location estimate against the true position, or
    None without a probe."""
    if trace.fault is None or fault_probe is None:
        return None
    estimate, out_of_range = fault_location_estimate(
        trace.fault.stamp_a,
        trace.fault.stamp_b,
        fault_probe.line_length_m,
        fault_probe.wave_speed_mps,
    )
    fault = {
        "pmu_a": trace.fault.pmu_a,
        "pmu_b": trace.fault.pmu_b,
        "stamp_a": trace.fault.stamp_a,
        "stamp_b": trace.fault.stamp_b,
        "estimate_m": estimate,
        "true_position_m": fault_probe.fault_position_m,
        "deviation_m": estimate - fault_probe.fault_position_m,
        "out_of_range": out_of_range,
    }
    if fault_probe.sync_error_bound is not None:
        fault["sync_error_bound_ticks"] = fault_probe.sync_error_bound
        fault["uncertainty_m"] = localization_uncertainty(fault_probe.sync_error_bound, fault_probe.wave_speed_mps)
    return fault


def build_report(
    trace: RawTrace,
    workload: Optional[Workload] = None,
    presets: Sequence[RequirementPreset] = (),
    fault_probe=None,
) -> MetricsReport:
    """Assemble the full metrics report for one run."""
    # the device-sized buffer first: allocated in the other order, the two
    # buffers leave the process a larger heap (longhaul's peak RSS, +0.3 MB)
    device_error, per_node = device_error_report(trace), per_node_report(trace)
    pairwise, jitter = pairwise_report(trace), jitter_report(trace, workload)
    return MetricsReport(
        per_node=per_node,
        device_error=device_error,
        pairwise=pairwise,
        jitter=jitter,
        fault=fault_report(trace, fault_probe),
        verdicts=check_requirements(int(pairwise["max"]) if pairwise else None,
                                    int(jitter["peak_to_peak"]) if jitter else None, presets),
    )
