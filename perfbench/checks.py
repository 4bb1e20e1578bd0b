"""Output checks applied to every timed invocation.

An invocation passes when the CLI exited 0, wrote every expected file, its
JSON and CSV renderings carry the same key/value pairs, and its counts match
what the generated input implies. The caller also requires every invocation
of a workload in one benchmark run to produce byte-identical outputs, which
it compares through ``digest``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Workload


def _flatten(obj, prefix: str = "") -> dict:
    """Key paths as the CSV rendering writes them: ``a.b``, ``a[0].b``."""
    rows: dict = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            rows.update(_flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            rows.update(_flatten(value, f"{prefix}[{i}]"))
    else:
        rows[prefix] = json.dumps(obj, sort_keys=True)
    return rows


def _csv_pairs(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["key", "value"]:
            raise ValueError(f"{path.name}: missing key,value header")
        return dict(reader)


def digest(out_dir: Path, workload: Workload) -> str:
    h = hashlib.sha256()
    for name in sorted(workload.outputs):
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def check(out_dir: Path, exit_code: int, workload: Workload) -> tuple[list[str], dict]:
    """(violations, headline values) for one invocation's output directory."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    missing = [name for name in workload.outputs if not (out_dir / name).is_file()]
    if missing:
        return [f"missing output {name}" for name in missing], {}
    try:
        return _check_contents(out_dir, workload)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"], {}


def _check_contents(out_dir: Path, workload: Workload) -> tuple[list[str], dict]:
    stem = "report" if workload.command == "run" else "sweep"
    payload = json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))
    violations = []
    if _flatten(payload) != _csv_pairs(out_dir / f"{stem}.csv"):
        violations.append(f"{stem}.json and {stem}.csv carry different values")

    if workload.command == "run":
        metrics = payload["metrics"]
        if "samples" in workload.expected and metrics["samples"] != workload.expected["samples"]:
            violations.append(
                f"metrics.samples is {metrics['samples']}, expected {workload.expected['samples']}"
            )
        headline = {
            "samples": metrics["samples"],
            "pairwise.max": (metrics.get("pairwise") or {}).get("max"),
            "jitter.peak_to_peak": (metrics.get("jitter") or {}).get("peak_to_peak"),
        }
    else:
        rows = payload["rows"]
        if "rows" in workload.expected and len(rows) != workload.expected["rows"]:
            violations.append(f"{len(rows)} sweep rows, expected {workload.expected['rows']}")
        headline = {
            "rows": len(rows),
            "pairwise.max": max((r.get("pairwise_max_ticks", 0) for r in rows), default=None),
            "fault_deviation_m.max": max(
                (abs(r.get("fault_deviation_m", 0)) for r in rows), default=None
            ),
        }
    return violations, headline
