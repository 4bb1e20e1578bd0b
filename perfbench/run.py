"""airsync benchmark: times the real CLI, one fresh child process per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet|longhaul|sweep --seed N --seconds S --trace 0|1

The workload's input files are generated from ``--seed`` (workloads.py). For
``--seconds`` the benchmark then runs the CLI on them again and again, one
child at a time, and checks every invocation's outputs (checks.py). With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json as medians
over the invocations; each timing is first divided by the time of a fixed
calibration child run right after it (calibrate.py), which cancels the
host's speed drift. With ``--trace 1`` it alternates traced and untraced
invocations and reports the per-layer metrics of BENCHMARK.json as medians
over the traced ones (layers.py), plus the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
CHILD_TIMEOUT_S = 120.0     # one invocation; a hung child is killed and counts as failed
RUN_LIMIT_S = 150.0         # no invocation starts after this; a run must end within 180 s
MIN_INVOCATIONS = 4
# calibrate.py's wall time on the reference machine (2-vCPU VM, Python 3.11.7,
# numpy 2.4.6); end-to-end timings are scaled to a host running at that speed
CALIBRATION_REFERENCE_S = 0.35
# children stay single-threaded: numpy's BLAS would otherwise start one thread per core
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Invocation:
    traced: bool
    run_s: float
    peak_rss_mb: float
    setup_s: float | None = None
    calibration_s: float | None = None
    dispatched: int = 0
    bytes_written: int = 0
    digest: str | None = None
    violations: list = field(default_factory=list)
    headline: dict = field(default_factory=dict)
    layers: dict | None = None
    shares: dict | None = None
    absent: list = field(default_factory=list)
    events: dict = field(default_factory=dict)


def spawn(argv: list, cwd: Path, stderr=subprocess.DEVNULL) -> tuple:
    """Run ``argv`` as a child: (spawn time, wall seconds, exit code, its rusage).

    Blocks in ``os.wait4``, so the wall time ends when the child exits, with
    no polling delay. A child still running after CHILD_TIMEOUT_S is killed.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr, cwd=cwd,
                            env={**os.environ, **CHILD_ENV})
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawned, time.monotonic() - spawned, proc.returncode, usage


def invoke(workload: workloads.Workload, run_dir: Path, index: int, traced: bool) -> Invocation:
    """Run the CLI once in a fresh child and check what it wrote."""
    out_dir = run_dir / f"inv{index:03d}"
    record = run_dir / f"inv{index:03d}.record"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(ROOT / "src"), str(record),
            str(index), "1" if traced else "0", "--",
            workload.command, *workload.args, "--out", str(out_dir)]
    with open(run_dir / f"inv{index:03d}.stderr", "w+b") as stderr:
        spawned, run_s, exit_code, usage = spawn(argv, run_dir, stderr)
        stderr.seek(0)
        err_text = stderr.read().decode(errors="replace").strip()

    inv = Invocation(traced=traced, run_s=run_s, peak_rss_mb=usage.ru_maxrss / 1024.0)
    inv.violations, inv.headline = checks.check(out_dir, exit_code, workload)
    if exit_code != 0 and err_text:
        inv.violations.append(err_text.splitlines()[-1])
    marker = record.with_suffix(".json")
    if marker.is_file():
        marks = json.loads(marker.read_text(encoding="utf-8"))
        if marks["sim_started"] is not None:
            inv.setup_s = marks["sim_started"] - spawned
        inv.dispatched = marks["dispatched"]
    if not inv.violations:
        inv.digest = checks.digest(out_dir, workload)
        inv.bytes_written = checks.bytes_written(out_dir)
        if traced:
            import hooks
            import layers

            header, columns = hooks.read_spans(record.with_suffix(".spans"))
            inv.layers, inv.shares = layers.layer_metrics(header, columns, run_s)
            inv.layers["cli.bytes_written"] = inv.bytes_written
            inv.absent = header["absent"]
            inv.events = header["events"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return inv


def calibrate(run_dir: Path) -> float:
    """Wall time of one calibrate.py child, the host-speed probe."""
    _, seconds, exit_code, _ = spawn([sys.executable, str(BENCH_DIR / "calibrate.py")], run_dir)
    if exit_code != 0:
        raise RuntimeError(f"calibrate.py exited with {exit_code}")
    return seconds


def measure(workload: workloads.Workload, run_dir: Path, seconds: float, trace: bool) -> list:
    """Invocations for ``seconds``.

    Untraced, each invocation is followed by a calibration child. Traced,
    traced and untraced invocations alternate (T U U T ...).
    """
    began = time.monotonic()
    invocations: list[Invocation] = []
    while True:
        traced = trace and len(invocations) % 4 in (0, 3)
        inv = invoke(workload, run_dir, len(invocations), traced)
        if not trace:
            inv.calibration_s = calibrate(run_dir)
        invocations.append(inv)
        elapsed = time.monotonic() - began
        typical = statistics.median(inv.run_s + (inv.calibration_s or 0.0) for inv in invocations)
        if elapsed + typical > RUN_LIMIT_S:
            break
        if len(invocations) >= MIN_INVOCATIONS and elapsed + typical > seconds:
            break
    return invocations


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        raise ValueError("no invocation produced a value to report")
    return float(statistics.median(values))


def host_speed(invocations: list) -> float:
    """Reference calibration time over this run's median one (> 1: host faster)."""
    return CALIBRATION_REFERENCE_S / median_of(inv.calibration_s for inv in invocations)


def scaled_median(invocations: list, key: str) -> float:
    """Median over invocations of a time divided by the calibration run right after it.

    Times CALIBRATION_REFERENCE_S, this is the time on a host running at the
    reference speed; the host's drift cancels, because it slows both alike.
    """
    return CALIBRATION_REFERENCE_S * median_of(
        getattr(inv, key) / inv.calibration_s
        for inv in invocations if getattr(inv, key) is not None
    )


def summarise(invocations: list, trace: bool) -> dict:
    """Metric medians: end-to-end over untraced invocations, per-layer over traced ones."""
    untraced = [inv for inv in invocations if not inv.traced]
    if not trace:
        return {
            "run_s": scaled_median(untraced, "run_s"),
            "setup_s": scaled_median(untraced, "setup_s"),
            "peak_rss_mb": median_of(inv.peak_rss_mb for inv in untraced),
        }
    traced = [inv for inv in invocations if inv.layers is not None]
    if not traced:
        raise ValueError("no traced invocation passed its checks")
    values = {name: median_of(inv.layers[name] for inv in traced) for name in traced[0].layers}
    values["trace.overhead_s"] = (median_of(inv.run_s for inv in traced)
                                  - median_of(inv.run_s for inv in untraced))
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: invoke() kills and reaps its child, main() removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "airsync" / "cli.py").is_file():
        print(f"perfbench: no airsync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    run_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload = workloads.GENERATORS[args.workload](args.seed, run_dir)
        # fills the byte-code cache, which users also have warm; not timed
        _, _, exit_code, _ = spawn([sys.executable, str(BENCH_DIR / "child.py"), str(ROOT / "src"),
                                    str(run_dir / "warm.record"), "0", "0", "--", "presets", "--json"],
                                   run_dir)
        if exit_code != 0:
            print(f"perfbench: airsync does not start (exit {exit_code})", file=sys.stderr)
            return 2
        invocations = measure(workload, run_dir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reference = next((inv.digest for inv in invocations if inv.digest), None)
    for inv in invocations:
        if inv.digest is not None and inv.digest != reference:
            inv.violations.append("outputs differ from the first invocation's")
    failed = sum(1 for inv in invocations if inv.violations)
    untraced = [inv for inv in invocations if not inv.traced]
    traced = [inv for inv in invocations if inv.traced and inv.layers is not None]

    try:
        values = summarise(invocations, bool(args.trace))
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        print(f"perfbench: metrics {sorted(set(values) ^ set(names))} are not both "
              "computed and declared in BENCHMARK.json", file=sys.stderr)
        return 1

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": reference,
        "headline": next(({**inv.headline, "events_dispatched": inv.dispatched}
                          for inv in invocations if inv.headline), {}),
        "events_by_kind": traced[0].events if traced else None,
        "absent_hooks": sorted({a for inv in traced for a in inv.absent}),
        "shares": {g: median_of(inv.shares[g] for inv in traced) for g in traced[0].shares}
        if traced else None,
        "host_speed": None if args.trace else host_speed(untraced),
        "invocations": [
            {"traced": inv.traced, "run_s": inv.run_s, "setup_s": inv.setup_s,
             "calibration_s": inv.calibration_s, "peak_rss_mb": inv.peak_rss_mb,
             "violations": inv.violations}
            for inv in invocations
        ],
    }
    report(summary, wanted, values, len(untraced), len(traced))
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "metrics": values}, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def report(summary: dict, wanted: list, values: dict, n_untraced: int, n_traced: int) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"untraced invocations {n_untraced}  traced invocations {n_traced}")
    print(f"report digest {summary['digest']}")
    if summary["host_speed"] is not None:
        wall = [inv["run_s"] for inv in summary["invocations"] if not inv["traced"]]
        print(f"host speed {summary['host_speed']:.4f} x reference; "
              f"unscaled wall run_s median {statistics.median(wall):.4f} s")
    for key, value in summary["headline"].items():
        print(f"  {key} = {value}")
    for inv in summary["invocations"]:
        for violation in inv["violations"]:
            print(f"  FAILED: {violation}")
    for name in summary["absent_hooks"]:
        print(f"  absent hook: {name} (its layer reads 0)")
    samples = n_traced if summary["trace"] else n_untraced
    for m in wanted:
        print(f"  {m['name']:34s} {values[m['name']]:14.6f} {m['unit']:6s} median of {samples}")
    if summary["shares"]:
        print("self-time share of traced wall time:")
        for group, share in summary["shares"].items():
            print(f"  {group:14s} {100 * share:6.1f} %")


if __name__ == "__main__":
    sys.exit(main())
