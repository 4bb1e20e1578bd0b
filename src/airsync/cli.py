"""Command-line front end: run, sweep, presets.

Exit codes: 0 success, 2 configuration/usage error, 1 runtime error. Every
report embeds the fully resolved config and the seed actually used, and the
CSV rendering of a report carries exactly the same values as the JSON one
(flattened key paths), so either file replays and cross-checks the other.
Outputs contain no timestamps: identical config+seed means byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import numpy as np

from . import __version__
from .config import (
    ScenarioConfig,
    get_config_value,
    load_config,
    load_sweep_spec,
    replace_config_value,
    validate_config,
)
from .engine import derive_seed
from .errors import AirsyncError, InvalidConfigError
from .metrics import BUILTIN_PRESETS, build_report, device_error_report, fault_report, jitter_report, pairwise_report
from .scenario import CORRECTION_KINDS, RawTrace, build_scenario, run_scenario
from .timebase import parse_ticks, ticks_to_ns

SEED_ENV_VAR = "AIRSYNC_SEED"


def _resolve_seed(cli_seed: Optional[int], config_seed: int) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidConfigError("seed", f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    return config_seed


_escape = json.encoder.encode_basestring_ascii   # a str's JSON text, as json.dumps writes it


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


_PLAIN = {str: _escape, int: int.__repr__, float: _float_text}   # the JSON text of a leaf of exactly these types


def _leaf_text(obj: Any) -> str:
    """A leaf's JSON text: None, a bool, an int, a float or a str as json.dumps
    writes it (a subclass as its base), an Enum as its value (a scalar), any
    other object as its str()."""
    if hasattr(obj, "value") and type(obj).__module__ != "builtins":   # an Enum
        obj = obj.value
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    return _escape(obj if isinstance(obj, str) else str(obj))


RENDER_CHUNK = 4096   # JSON pieces a rendering holds before it writes them: bounds its memory


def _render(obj: Any, write: Callable[[str], Any]) -> list[tuple[str, str]]:
    """One walk of ``obj``: writes its JSON text, indented by two with sorted
    keys as ``json.dumps(indent=2, sort_keys=True)`` writes it, to ``write`` in
    pieces of about RENDER_CHUNK, and returns its leaves as (flattened key
    path, JSON text) rows, sorted: ``a.b``, ``a[0].b``; an empty dict or list
    is no leaf. A record (a NamedTuple) is the dict of its fields, a dict key
    is its str() (of keys equal as str, the last one's value is kept), a tuple
    is a list, and a leaf's text is _leaf_text's."""
    pieces: list[str] = []
    rows: list[tuple[str, str]] = []
    append, add_row = pieces.append, rows.append

    def value(obj: Any, path: str, newline: str) -> None:
        # ``newline`` is a line break and the indentation of obj's own line
        if isinstance(obj, tuple) and hasattr(obj, "_asdict"):   # a record, before its tuple reading
            obj = obj._asdict()
        if isinstance(obj, dict):
            prefix = f"{path}." if path else ""
            items = [(f"{_escape(key)}: ", prefix + key, item)
                     for key, item in sorted({str(key): item for key, item in obj.items()}.items())]
            opening, close = "{", "}"
        elif isinstance(obj, (list, tuple)):
            items = [("", f"{path}[{i}]", item) for i, item in enumerate(obj)]
            opening, close = "[", "]"
        else:
            text = _leaf_text(obj)
            append(text)
            add_row((path, text))
            return
        if not items:
            append(opening + close)
            return
        inner = newline + "  "
        separator = opening + inner
        for label, key, item in items:
            append(separator + label)
            plain = _PLAIN.get(type(item))
            if plain is None:
                value(item, key, inner)
            else:   # a plain leaf, written here
                text = plain(item)
                append(text)
                add_row((key, text))
            separator = "," + inner
            if len(pieces) >= RENDER_CHUNK:
                write("".join(pieces))
                pieces.clear()
        append(newline + close)

    value(obj, "", "\n")
    write("".join(pieces))
    rows.sort()
    return rows


def _dump_json(obj: Any) -> str:
    pieces: list[str] = []
    _render(obj, pieces.append)
    return "".join(pieces) + "\n"


TRACE_CHUNK_ROWS = 1024   # rows rendered at a time: bounds the trace writer's memory


@functools.cache
def _decimal_tables() -> tuple[np.ndarray, np.ndarray]:
    """The trace kernel's tables, built on the first trace write: by index
    ``r``, the ASCII text of a 4-digit group, 0-padded; by ``10_000 + r``,
    the text of ``r`` as a number's leading group, its leading zeros 0 bytes
    (and none at all for 0, above the leading group); and by a number's
    sign, its lead cell: ``0`` for zero, a minus sign for a negative."""
    r = np.arange(10_000, dtype=np.uint16)
    text = np.zeros((2, 10_000, 4), dtype=np.uint8)
    for i, power in enumerate((1000, 100, 10, 1)):
        text[0, :, i] = r // power % 10 + ord("0")
        text[1, :, i] = np.where(r >= power, text[0, :, i], 0)
    return text.view(np.uint32).ravel(), np.array([ord("0"), 0, ord("-")], dtype=np.uint32)


def _cells(low: int, high: int) -> int:
    """4-byte cells that hold the decimal text of any int from ``low`` to
    ``high``: a lead cell, then its digits."""
    return 1 + (len(str(max(-low, high))) + 3) // 4


def _decimal(values: np.ndarray, out: np.ndarray) -> None:
    """Fills ``out``, (len(values), cells) uint32 with at least _cells of the
    values' extremes, with the decimal text of int64 ``values``: a row's
    bytes, 0 bytes dropped, are its value's text. The first cell holds a
    minus sign or a lone zero, and the digits are right-aligned in 4-digit
    groups."""
    groups, leads = _decimal_tables()
    leads.take(np.sign(values), out=out[:, 0], mode="wrap")
    magnitude = np.abs(values).view(np.uint64)   # INT64_MIN's too: 2**63
    group, top = np.empty_like(magnitude), np.empty(len(values), dtype=bool)
    for cell in range(out.shape[1] - 1, 0, -1):
        np.divmod(magnitude, 10_000, out=(magnitude, group))
        np.add(group, 10_000, out=group, where=np.equal(magnitude, 0, out=top))   # the leading group or above
        groups.take(group, out=out[:, cell], mode="clip")


def _table_rows(columns: list, units: int, per_unit: int, step: int) -> Iterator[bytes]:
    """One trace.json table's rows as ASCII bytes, in chunks of ``step``
    units of ``per_unit`` rows: each row ``,\\n    [\\n      ``, its cells
    joined by ``,\\n      ``, then ``\\n    ]``, but the first row, which has
    no comma. A column is (source, texts). Int64 cells, when ``texts`` is
    None or a non-decreasing function that maps them: ``source`` holds one
    a row, (units, per_unit), or one a unit, shared by its rows. Otherwise
    JSON texts, picked by ``source``, one a row, or by the row's place in
    its unit when ``source`` is None.

    A row's layout is fixed once: each cell's slot, in 4-byte cells, is as
    wide as its column's widest text, found from the column's extremes, and
    the row's constant text is laid once into a (step, per_unit, row)
    buffer that every chunk reuses. A chunk fills the slots, then drops the
    0 bytes that pad them. No text holds a 0 byte: JSON escapes it. A
    shared column is rendered ``step * per_unit`` units at a time."""
    def padded(text: bytes) -> np.ndarray:
        return np.frombuffer(text + bytes(-len(text) % 4), dtype=np.uint32)

    head, between, tail = padded(b",\n    [\n      "), padded(b",\n      "), padded(b"\n    ]")
    rows = [[head] for _ in range(per_unit)]
    slots = []   # offset, width, source, and texts or mapping of each slot a chunk fills
    for i, (source, texts) in enumerate(columns):
        for row in rows:
            row += [between] if i else []
        offset = sum(map(len, rows[0]))
        if isinstance(texts, (list, tuple)):
            longest = max(len(text) for text in texts)
            table = np.stack([padded(text.encode("ascii").ljust(longest, b"\0")) for text in texts])
            width = table.shape[1]
        else:
            ends = [int(source.min()), int(source.max())]
            table, width = texts, _cells(*(ends if texts is None else map(texts, ends)))
        for j, row in enumerate(rows):
            row.append(table[j] if source is None else np.zeros(width, dtype=np.uint32))
        if source is not None:
            slots.append((offset, width, source, table))
    template = np.stack([np.concatenate(row + [tail]) for row in rows])
    buffer = bytearray(min(step, units) * template.nbytes)
    view = np.frombuffer(buffer, dtype=np.uint32).reshape(-1, *template.shape)
    view[:] = template
    buffer[0] = 0   # the first row's comma, dropped with the padding
    block = step * per_unit   # a shared column's units rendered at once, as many as a chunk's rows
    rendered = {offset: np.empty((min(block, units), width), dtype=np.uint32)
                for offset, width, source, _ in slots if per_unit > 1 and source.ndim == 1}
    for start in range(0, units, step):
        out = view[:units - start]
        for offset, width, source, table in slots:
            cells = out[:, :, offset:offset + width]
            if offset in rendered:   # one a unit, shared by its rows
                if start % block == 0:
                    values = source[start:start + block]
                    _decimal(values if table is None else table(values), rendered[offset][:len(values)])
                cells[:] = rendered[offset][start % block:][:len(out), None]
            elif isinstance(table, np.ndarray):
                np.take(table, source[start:start + len(out)], axis=0, out=cells.reshape(-1, width))
            else:
                values = source[start:start + len(out)].reshape(-1)
                _decimal(values if table is None else table(values), cells.reshape(-1, width))
        view[len(out):] = 0   # rows past the last one: dropped with the padding
        yield buffer.translate(None, b"\0")
        buffer[0] = ord(",")


def _trace_json(trace: RawTrace) -> Iterator[bytes]:
    """trace.json in ASCII pieces, rendered straight from the trace's
    columns: the text of ``_dump_json`` of {"samples", "deliveries",
    "corrections"}, each a list of rows, without building the rows as Python
    objects. Each table goes through _table_rows: an id or a kind is
    JSON-encoded once, and its index column picks the text. A samples row is
    an instant and a sampled node, so a samples chunk holds whole instants,
    one at least; a node's id is laid into the buffer once, and each
    instant's text is rendered once and shared by its rows."""
    workload = trace.workload
    sampled, targets, kinds = ([json.dumps(name) for name in names] for names in (
        trace.sampled, workload.targets if workload is not None else (), CORRECTION_KINDS))
    log, deliveries, errors = trace.correction_log, trace.deliveries, trace.errors
    tables = (   # name, units, rows a unit, columns
        ("corrections", len(log), 1, [(log["t_true"], None), (log["node"], sampled), (log["delta"], None),
                                      (log["kind"], kinds), (log["error_after"], None)]),
        ("deliveries", len(deliveries), 1, [
            (deliveries.node, targets), (deliveries.grid_index, None),
            (deliveries.grid_index, workload.grid_point if workload is not None else None),
            (deliveries.true_arrival, None), (deliveries.local_stamp, None)]),
        ("samples", len(errors) if sampled else 0, len(sampled),
         [(trace.instants, None), (None, sampled), (errors, None)]),
    )
    yield b"{\n"
    for i, (name, units, per_unit, columns) in enumerate(tables):
        yield (b",\n" if i else b"") + f'  "{name}": ['.encode()
        if units:
            yield from _table_rows(columns, units, per_unit, max(TRACE_CHUNK_ROWS // per_unit, 1))
        yield b"\n  ]" if units else b"]"
    yield b"\n}\n"


def _prepare_out_dir(out: str) -> Path:
    out_dir = Path(out)
    if (out_dir / "manifest.json").exists():
        raise InvalidConfigError(
            "out", f"{out_dir} already holds results; refusing to overwrite"
        )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file in its way, say
        raise InvalidConfigError("out", f"cannot create {out_dir}: {exc.strerror}") from None
    return out_dir


def _write_outputs(out_dir: Path, name: str, payload: dict, fmt: str) -> list[str]:
    """Writes ``payload`` as ``name``.json and/or ``name``.csv, from one
    _render walk: the JSON text goes to its file in pieces as the walk makes
    them, and the CSV holds the walk's rows (key path, the leaf's JSON text)
    under a ``key,value`` header, so it carries the JSON's leaf text."""
    written = []
    if fmt in ("json", "both"):
        with open(out_dir / f"{name}.json", "w", encoding="utf-8") as handle:
            rows = _render(payload, handle.write)
            handle.write("\n")
        written.append(f"{name}.json")
    else:
        rows = _render(payload, lambda text: None)
    if fmt in ("csv", "both"):
        with open(out_dir / f"{name}.csv", "w", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["key", "value"])
            writer.writerows(rows)
        written.append(f"{name}.csv")
    return written


def _write_manifest(out_dir: Path, command: str, written: list[str]) -> None:
    """Written last, once every output is: a manifest marks ``out_dir`` as
    complete, and ``_prepare_out_dir`` refuses to write over it."""
    manifest = {
        "schema_version": 1,
        "tool": {"name": "airsync", "version": __version__},
        "command": command,
        "outputs": sorted(written + ["manifest.json"]),
    }
    (out_dir / "manifest.json").write_text(_dump_json(manifest), encoding="utf-8")


def _metric_summary(device_error: Optional[dict], pairwise: Optional[dict], jitter: Optional[dict],
                    fault: Optional[dict]) -> dict:
    """Headline per-run values used in sweep rows, from the report sections
    of those names."""
    summary: dict[str, Any] = {}
    if device_error:
        summary["device_error_p99_ticks"] = device_error["p99"]
        summary["device_error_max_ticks"] = device_error["max"]
    if pairwise:
        summary["pairwise_max_ticks"] = pairwise["max"]
        summary["pairwise_p99_ticks"] = pairwise["p99"]
    if jitter:
        summary["jitter_peak_to_peak_ticks"] = jitter["peak_to_peak"]
    if fault:
        summary["fault_estimate_m"] = fault["estimate_m"]
        summary["fault_deviation_m"] = fault["deviation_m"]
        if "uncertainty_m" in fault:
            summary["fault_uncertainty_m"] = fault["uncertainty_m"]
    return summary


def _simulate(config: ScenarioConfig, seed: int) -> RawTrace:
    return run_scenario(build_scenario(config, root_seed=seed), config.duration)


def _execute(config: ScenarioConfig, seed: int):
    trace = _simulate(config, seed)
    report = build_report(
        trace,
        workload=config.workload,
        presets=config.presets,
        fault_probe=config.fault_probe,
    )
    return report, trace


def _sweep_row(config: ScenarioConfig, seed: int) -> dict:
    """A sweep point's headline values: only the report sections that
    _metric_summary reads, by the functions build_report composes."""
    trace = _simulate(config, seed)
    return _metric_summary(device_error_report(trace), pairwise_report(trace),
                           jitter_report(trace, config.workload), fault_report(trace, config.fault_probe))


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    seed = _resolve_seed(args.seed, config.seed)
    out_dir = _prepare_out_dir(args.out)
    report, trace = _execute(config, seed)
    payload = {
        "schema_version": 1,
        "seed": seed,
        "config": config.raw,
        "metrics": {
            "per_node": report.per_node,
            "device_error": report.device_error,
            "pairwise": report.pairwise,
            "jitter": report.jitter,
            "fault": report.fault,
            "lost_sync": trace.lost_sync,
            "samples": trace.errors.size,
        },
        "verdicts": report.verdicts,
    }
    written = _write_outputs(out_dir, "report", payload, args.format)
    if args.trace:
        with open(out_dir / "trace.json", "wb") as handle:
            handle.writelines(_trace_json(trace))
        written.append("trace.json")
    _write_manifest(out_dir, "run", written)
    for verdict in report.verdicts:
        status = {True: "PASS", False: "FAIL", None: "n/a"}[verdict.passed]
        print(f"{verdict.preset}: {status}")
    print(f"wrote {', '.join(written)} to {out_dir}")
    return 0


def _sweep_sort_key(value: Any):
    try:
        return (0, parse_ticks(value))
    except (ValueError, AirsyncError):
        pass
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, value)
    return (1, str(value))


def cmd_sweep(args: argparse.Namespace) -> int:
    base = load_config(args.config)
    spec = load_sweep_spec(args.sweep)
    get_config_value(base.raw, spec.path)  # path must resolve before any run
    if spec.path == "seed":   # a point runs the --seed or repetition seed, whatever its config says
        raise InvalidConfigError("sweep.path", "the seed cannot be swept; use --seed or repetitions")
    base_seed = _resolve_seed(args.seed, base.seed)
    out_dir = _prepare_out_dir(args.out)

    # seeds depend only on the repetition, so every swept value sees
    # identical draws and points stay comparable
    seeds = ([derive_seed(base_seed, f"rep/{rep}") for rep in range(spec.repetitions)]
             if spec.repetitions > 1 else [base_seed])
    rows, aggregates = [], []
    ordered = sorted(spec.values, key=_sweep_sort_key)
    for value in ordered:
        # once per value: its repetitions share it
        config = validate_config(replace_config_value(base.raw, spec.path, value))
        group = []
        for rep, seed in enumerate(seeds):
            group.append({"value": value, "repetition": rep, "seed": seed, **_sweep_row(config, seed)})
        rows += group
        agg: dict[str, Any] = {"value": value, "repetitions": len(group)}
        for key in sorted({k for r in group for k in r} - {"value", "repetition", "seed"}):
            values = [r[key] for r in group if key in r]
            agg[f"mean_{key}"] = sum(values) / len(values)
        aggregates.append(agg)

    payload = {
        "schema_version": 1,
        "seed": base_seed,
        "config": base.raw,
        "sweep": {"path": spec.path, "values": list(ordered), "repetitions": spec.repetitions},
        "rows": rows,
        "aggregates": aggregates,
    }
    written = _write_outputs(out_dir, "sweep", payload, args.format)
    _write_manifest(out_dir, "sweep", written)
    print(f"{len(rows)} runs over {len(ordered)} values; wrote {', '.join(written)} to {out_dir}")
    return 0


def cmd_presets(args: argparse.Namespace) -> int:
    presets = [p._asdict() for p in BUILTIN_PRESETS.values()]
    if args.json:
        print(_dump_json({"presets": presets}), end="")
        return 0
    header = f"{'name':<22} {'pairwise':>12} {'per-device':>12} {'jitter':>10}  notes"
    print(header)
    print("-" * len(header))
    for p in BUILTIN_PRESETS.values():
        pairwise = f"{ticks_to_ns(p.device_sync_bound) / 1000:.1f} us"
        per_device = (
            f"±{ticks_to_ns(p.per_device_bound) / 1000:.1f} us"
            if p.per_device_bound is not None else "-"
        )
        jitter = (
            f"{ticks_to_ns(p.jitter_bound) / 1000:.1f} us"
            if p.jitter_bound is not None else "-"
        )
        print(f"{p.name:<22} {pairwise:>12} {per_device:>12} {jitter:>10}  {p.notes}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airsync",
        description="Deterministic simulator of over-the-air device-level time synchronization",
    )
    parser.add_argument("--version", action="version", version=f"airsync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write a metrics report")
    run.add_argument("--config", required=True, help="scenario config file (YAML/JSON)")
    run.add_argument("--seed", type=int, default=None,
                     help=f"root seed (overrides {SEED_ENV_VAR} and the config)")
    run.add_argument("--out", required=True, help="results directory (one per invocation)")
    run.add_argument("--format", choices=["csv", "json", "both"], default="both")
    run.add_argument("--trace", action="store_true", help="also export per-sample trace")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run a parameter sweep over a base config")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--sweep", required=True, help="sweep spec file (path/values/repetitions)")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--format", choices=["csv", "json", "both"], default="both")
    sweep.set_defaults(func=cmd_sweep)

    presets = sub.add_parser("presets", help="list built-in requirement presets")
    presets.add_argument("--json", action="store_true", help="machine-readable output")
    presets.set_defaults(func=cmd_presets)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        print(f"airsync: config error: {exc}", file=sys.stderr)
        return 2
    except AirsyncError as exc:
        print(f"airsync: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
