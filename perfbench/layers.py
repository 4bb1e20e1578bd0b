"""Per-layer metrics from the spans of one traced invocation.

A span's self time is its duration minus the durations of its direct child
spans. Each layer metric below sums the self time (or counts the calls) of
the spans named after one module of ``src/airsync/``; what no span covers
(interpreter start, imports, exit) is ``trace.unattributed_s``. See
README.md for which end-to-end metric each layer should move, and where.
"""

from __future__ import annotations

import numpy as np

from hooks import PROTOCOL_FNS

EVENT_KINDS = ("delivery", "sample", "sync_round", "apply_sync",
               "attach", "ta_refresh", "bs_align", "fault_probe")

# Disjoint groups of self time, for the share table; clock calls count
# towards the group of the span that made them.
GROUP_OF_SPAN = {
    "engine.run_until": "dispatch",
    "engine.schedule": "dispatch",
    "scenario.cb.sample": "observe",
    "scenario.cb.delivery": "observe",
    "engine.derive_stream": "rng",
    "engine.derive_seed": "rng",
    "metrics.report": "statistics",
    "metrics.pairwise": "statistics",
    "metrics.jitter": "statistics",
    "config.load": "setup",
    "config.validate": "setup",
    "scenario.build": "setup",
    "scenario.run": "setup",
    "cli.main": "io",
}
GROUPS = ("dispatch", "observe", "sync", "rng", "statistics", "setup", "io", "unattributed")


def _group(name: str) -> str:
    if name in GROUP_OF_SPAN:
        return GROUP_OF_SPAN[name]
    if name.startswith(("scenario.cb.", "protocols.")):
        return "sync"
    return "clocks" if name.startswith("clocks.") else "io"


def layer_metrics(header: dict, columns, wall_s: float) -> tuple[dict, dict]:
    """(per-layer metrics, self-time share of each group) for one invocation."""
    names = header["names"]
    name_of, parent, start, end = (np.frombuffer(c, dtype=np.int64) for c in columns)
    duration = (end - start).astype(np.float64)
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_ns = duration - child_time

    self_s = dict(zip(names, np.bincount(name_of, weights=self_ns, minlength=len(names)) / 1e9))
    calls = dict(zip(names, np.bincount(name_of, minlength=len(names)).tolist()))
    events = header["events"]
    sizes = header["trace_sizes"]

    def s(name: str) -> float:
        return float(self_s.get(name, 0.0))

    def n(name: str) -> int:
        return int(calls.get(name, 0))

    dispatched = sum(n(f"scenario.cb.{kind}") for kind in events)
    clock_spans = [name for name in names if name.startswith("clocks.")]
    traced_s = float(self_ns.sum()) / 1e9
    dispatch_s = s("engine.run_until") + s("engine.schedule")
    m = {
        "engine.dispatch_self_s": dispatch_s,
        "engine.us_per_event": dispatch_s / dispatched * 1e6 if dispatched else 0.0,
        "engine.events_scheduled": sum(events.values()),
        **{f"engine.events.{kind}": events.get(kind, 0) for kind in EVENT_KINDS},
        "engine.derive_stream_calls": n("engine.derive_stream"),
        "engine.derive_stream_s": s("engine.derive_stream"),
        "engine.derive_seed_calls": n("engine.derive_seed"),
        "engine.derive_seed_s": s("engine.derive_seed"),
        "clocks.calls": sum(n(name) for name in clock_spans),
        "clocks.self_s": sum(s(name) for name in clock_spans),
        **{f"scenario.cb.{kind}_s": s(f"scenario.cb.{kind}") for kind in EVENT_KINDS},
        "scenario.samples": sizes.get("samples", 0),
        "scenario.deliveries": sizes.get("deliveries", 0),
        "scenario.corrections": sizes.get("corrections", 0),
        "scenario.build_s": s("scenario.build"),
        "scenario.run_self_s": s("scenario.run"),
        "metrics.report_s": s("metrics.report"),
        "metrics.pairwise_s": s("metrics.pairwise"),
        "metrics.jitter_s": s("metrics.jitter"),
        "config.load_s": s("config.load"),
        "config.validate_s": s("config.validate"),
        "cli.self_s": s("cli.main"),
        "trace.unattributed_s": wall_s - traced_s,
        "trace.spans": len(duration),
    }
    for fn in PROTOCOL_FNS:
        m[f"protocols.{fn}_calls"] = n(f"protocols.{fn}")
        m[f"protocols.{fn}_s"] = s(f"protocols.{fn}")

    # shares: clock spans join the group of their caller
    group_of_name = np.array([_group(name) for name in names] or ["io"])
    groups = group_of_name[name_of]
    is_clock = groups == "clocks"
    groups[is_clock] = group_of_name[name_of[parent[is_clock]]]
    shares = {g: float(self_ns[groups == g].sum()) / 1e9 / wall_s for g in GROUPS[:-1]}
    shares["unattributed"] = (wall_s - traced_s) / wall_s
    return m, shares
