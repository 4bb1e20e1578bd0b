"""Informational pass, outside the gated benchmark; run on request.

    python3 perfbench/info.py [--seed N]

1. Runs each bundled config and both bundled sweep specs twice through the
   CLI, and checks the exit code, the output checks and that both runs wrote
   byte-identical files.
2. Runs a scale ladder of the fleet workload, UEs {3, 30, 100} x duration
   {2 s, 10 s}, once per cell, and prints run_s, peak_rss_mb and the events
   dispatched, so that growth in either dimension shows.

Prints a table and writes perfbench/.work/results/info.json. Exits 1 if a
bundled run fails a check or is not deterministic.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run as bench
import workloads

CONFIGS = bench.ROOT / "configs"
RUN_OUTPUTS = ("report.json", "report.csv", "manifest.json")
SWEEP_OUTPUTS = ("sweep.json", "sweep.csv", "manifest.json")
BUNDLED = [
    workloads.Workload("single-bs", "run", ("--config", str(CONFIGS / "single-bs.yaml")), RUN_OUTPUTS, {}),
    workloads.Workload("two-bs", "run", ("--config", str(CONFIGS / "two-bs.yaml")), RUN_OUTPUTS, {}),
    workloads.Workload("heterogeneous", "run",
                       ("--config", str(CONFIGS / "heterogeneous.yaml")), RUN_OUTPUTS, {}),
    workloads.Workload("pmu-fault", "run", ("--config", str(CONFIGS / "pmu-fault.yaml")), RUN_OUTPUTS, {}),
    workloads.Workload("pmu-sync-bound sweep", "sweep",
                       ("--config", str(CONFIGS / "pmu-fault.yaml"),
                        "--sweep", str(CONFIGS / "sweeps" / "pmu-sync-bound.yaml")), SWEEP_OUTPUTS, {}),
    workloads.Workload("sib-granularity sweep", "sweep",
                       ("--config", str(CONFIGS / "single-bs.yaml"),
                        "--sweep", str(CONFIGS / "sweeps" / "sib-granularity.yaml")), SWEEP_OUTPUTS, {}),
]
LADDER_UES = (3, 30, 100)
LADDER_DURATIONS_MS = (2000, 10_000)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not (bench.ROOT / "src" / "airsync" / "cli.py").is_file():
        print(f"info: no airsync sources under {bench.ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = bench.WORK_DIR / f"info-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results = {"bundled": [], "ladder": []}
    ok = True
    try:
        print(f"{'bundled input':24s} {'run_s':>7s} {'rss_mb':>7s} {'events':>8s}  status")
        for index, workload in enumerate(BUNDLED):
            first, second = (bench.invoke(workload, run_dir, 2 * index + k, False) for k in (0, 1))
            violations = first.violations + second.violations
            if not violations and first.digest != second.digest:
                violations.append("two runs wrote different outputs")
            ok = ok and not violations
            status = "; ".join(violations) or "ok, deterministic"
            print(f"{workload.name:24s} {first.run_s:7.3f} {first.peak_rss_mb:7.1f} "
                  f"{first.dispatched:8d}  {status}")
            results["bundled"].append({"name": workload.name, "run_s": first.run_s,
                                       "peak_rss_mb": first.peak_rss_mb, "events": first.dispatched,
                                       "digest": first.digest, "violations": violations})

        print(f"\n{'ladder cell':24s} {'run_s':>7s} {'rss_mb':>7s} {'events':>8s}")
        index = 100
        for ues in LADDER_UES:
            for duration_ms in LADDER_DURATIONS_MS:
                workload = workloads.fleet(args.seed, run_dir, ues=ues, duration_ms=duration_ms)
                inv = bench.invoke(workload, run_dir, index, False)
                index += 1
                cell = f"{ues} UE x {duration_ms / 1000:g} s"
                status = "; ".join(inv.violations)
                print(f"{cell:24s} {inv.run_s:7.3f} {inv.peak_rss_mb:7.1f} {inv.dispatched:8d}  {status}")
                results["ladder"].append({"ues": ues, "duration_ms": duration_ms, "run_s": inv.run_s,
                                          "peak_rss_mb": inv.peak_rss_mb, "events": inv.dispatched,
                                          "violations": inv.violations})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    out = bench.WORK_DIR / "results" / "info.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
