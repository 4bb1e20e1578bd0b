"""Span recording around airsync's public functions, installed from outside.

Nothing under ``src/`` is edited: each hook replaces a module attribute
(or a ``Simulator`` method) with a wrapper that records a span. A span is
(name, start, end, parent); spans stay in memory as flat integer arrays and
are written once, when the invocation ends. The run id is the invocation's
index, stored in the file header.

Functions are wrapped in every namespace that imported them, because
``from .clocks import stamp`` binds a separate name in each importing module.
A target that no longer exists is recorded as absent, not an error.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

# (span name, module, attribute): one entry per namespace that binds the name
FUNCTION_HOOKS = [
    ("cli.main", "airsync.cli", "main"),
    ("config.load", "airsync.cli", "load_config"),
    ("config.validate", "airsync.cli", "validate_config"),
    ("config.validate", "airsync.config", "validate_config"),
    ("scenario.build", "airsync.cli", "build_scenario"),
    ("scenario.run", "airsync.cli", "run_scenario"),
    ("metrics.report", "airsync.cli", "build_report"),
    ("metrics.pairwise", "airsync.metrics", "pairwise_offset_stats"),
    ("metrics.jitter", "airsync.metrics", "jitter_stats"),
    ("engine.derive_seed", "airsync.cli", "derive_seed"),
    ("engine.derive_seed", "airsync.engine", "derive_seed"),
    ("engine.derive_stream", "airsync.scenario", "derive_stream"),
    ("engine.derive_stream", "airsync.engine", "derive_stream"),
]
_CLOCK_FNS = {
    "airsync.scenario": ("clock_error", "stamp", "apply_offset_correction"),
    "airsync.protocols": ("local_time", "clock_error", "stamp", "apply_offset_correction"),
}
PROTOCOL_FNS = ("sib16_sync_cycle", "twoway_exchange", "gw_relay_sync", "measure_rtt", "ribs_align")
for _module, _fns in _CLOCK_FNS.items():
    FUNCTION_HOOKS += [(f"clocks.{fn}", _module, fn) for fn in _fns]
    FUNCTION_HOOKS += [(f"protocols.{fn}", _module, fn) for fn in PROTOCOL_FNS]


class Tracer:
    """In-memory span store for one invocation."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.events = Counter()
        self.trace_sizes = Counter()
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return spanned

    def write(self, path: Path) -> None:
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": len(self.start),
            "events": dict(self.events),
            "trace_sizes": dict(self.trace_sizes),
            "absent": self.absent,
        }
        with open(path, "wb") as fh:
            blob = json.dumps(header).encode()
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(fh)


def read_spans(path: Path):
    """Header dict and the four span columns (name id, parent, start ns, end ns)."""
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size))
        columns = []
        for _ in range(4):
            column = array("q")
            column.fromfile(fh, header["spans"])
            columns.append(column)
    return header, columns


def _resolve(module_name: str, attr: str):
    """(owner, final attribute name) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


def _patch(tracer: Tracer, module_name: str, attr: str, make) -> None:
    """Replace the target by ``make(target)``, or record it as absent."""
    target = _resolve(module_name, attr)
    if target is None:
        tracer.absent.append(f"{module_name}.{attr}")
        return
    owner, last = target
    setattr(owner, last, make(getattr(owner, last)))


def _counting_schedule(tracer: Tracer, schedule):
    """Count events by kind, and time each callback under a span for its kind.

    One spanned dispatcher per kind replaces the callback; the original waits
    in ``pending`` under the event's id (the event stays alive in the queue
    until it fires), so no closure is built per event.
    """
    push = tracer.wrap("engine.schedule", schedule)
    events = tracer.events
    pending: dict[int, object] = {}
    dispatchers: dict[str, object] = {}

    def dispatch(sim, event):
        return pending.pop(id(event))(sim, event)

    def counting(sim, event):
        kind = event.kind
        events[kind] += 1
        if event.callback is not None:
            dispatcher = dispatchers.get(kind)
            if dispatcher is None:
                dispatcher = dispatchers[kind] = tracer.wrap(f"scenario.cb.{kind}", dispatch)
            pending[id(event)] = event.callback
            event.callback = dispatcher
        return push(sim, event)

    return counting


def _sizing_run(tracer: Tracer, run_scenario):
    sizes = tracer.trace_sizes

    def sizing(*args, **kwargs):
        trace = run_scenario(*args, **kwargs)
        for field in ("samples", "deliveries", "corrections"):
            sizes[field] += len(getattr(trace, field, ()))
        return trace

    return sizing


def install(tracer: Tracer) -> None:
    """Wrap every hook target that exists; record the others as absent."""
    for name, module_name, attr in FUNCTION_HOOKS:
        _patch(tracer, module_name, attr, lambda fn, name=name: tracer.wrap(name, fn))
    _patch(tracer, "airsync.engine", "Simulator.run_until",
           lambda fn: tracer.wrap("engine.run_until", fn))
    _patch(tracer, "airsync.engine", "Simulator.schedule",
           lambda fn: _counting_schedule(tracer, fn))
    _patch(tracer, "airsync.cli", "run_scenario", lambda fn: _sizing_run(tracer, fn))
