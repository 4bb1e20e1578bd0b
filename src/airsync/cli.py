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
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

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


def _trace_json(trace: RawTrace) -> Iterator[str]:
    """trace.json in pieces, rendered straight from the trace's columns: the
    text of ``_dump_json`` of {"samples", "deliveries", "corrections"}, each a
    list of rows, without building the rows as Python lists first.

    A chunk's cells, ints or JSON text, are interleaved into one flat list and
    filled into one ``%`` template, so a cell's text is never parsed. An id or
    a kind is JSON-encoded once, and its index column picks the text. A
    samples row is an instant and a sampled node, so a samples chunk holds
    whole instants, one at least: its template holds one instant's rows with
    the node ids written in (``%`` escaped), and each instant is formatted
    once, its text shared by the instant's rows."""
    workload = trace.workload
    sampled, targets, kinds = ([json.dumps(name) for name in names] for names in (
        trace.sampled, workload.targets if workload is not None else (), CORRECTION_KINDS))
    log, deliveries, errors = trace.correction_log, trace.deliveries, trace.errors
    row = "    [\n" + ",\n".join(["      %s"] * 5) + "\n    ]"
    instant = ",\n".join("    [\n      %s,\n      " + node.replace("%", "%%") + ",\n      %s\n    ]"
                         for node in sampled)

    def sample_cells(chunk: slice) -> list[list]:
        times = [str(t) for t in trace.instants[chunk].tolist()]
        return [cells for column in errors[chunk].T.tolist() for cells in (times, column)]

    tables = (   # name, length and chunk size (in rows, or instants for samples), template, a chunk's cell columns
        ("corrections", len(log), TRACE_CHUNK_ROWS, row, lambda chunk: [
            log["t_true"][chunk].tolist(), [sampled[i] for i in log["node"][chunk].tolist()],
            log["delta"][chunk].tolist(), [kinds[i] for i in log["kind"][chunk].tolist()],
            log["error_after"][chunk].tolist()]),
        ("deliveries", len(deliveries), TRACE_CHUNK_ROWS, row, lambda chunk: [
            [targets[i] for i in deliveries.node[chunk].tolist()], deliveries.grid_index[chunk].tolist(),
            workload.grid_point(deliveries.grid_index[chunk]).tolist(), deliveries.true_arrival[chunk].tolist(),
            deliveries.local_stamp[chunk].tolist()]),
        ("samples", len(errors) if sampled else 0, max(TRACE_CHUNK_ROWS // max(len(sampled), 1), 1),
         instant, sample_cells),
    )
    yield "{\n"
    for i, (name, length, step, template, cells) in enumerate(tables):
        yield (",\n" if i else "") + f'  "{name}": ['
        for start in range(0, length, step):
            columns = cells(slice(start, start + step))
            width, rows = len(columns), len(columns[0])
            flat = [None] * (width * rows)
            for j, column in enumerate(columns):
                flat[j::width] = column
            yield (",\n" if start else "\n") + ",\n".join([template] * rows) % tuple(flat)
        yield "\n  ]" if length else "]"
    yield "\n}\n"


def _prepare_out_dir(out: str) -> Path:
    out_dir = Path(out)
    if (out_dir / "manifest.json").exists():
        raise InvalidConfigError(
            "out", f"{out_dir} already holds results; refusing to overwrite"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
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
        with open(out_dir / "trace.json", "w", encoding="utf-8") as handle:
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
    except FileNotFoundError as exc:
        print(f"airsync: {exc}", file=sys.stderr)
        return 2
    except AirsyncError as exc:
        print(f"airsync: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
