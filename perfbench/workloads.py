"""Seeded inputs for the benchmark workloads.

Each generator turns ``--seed`` into the YAML files the CLI reads: node
positions, per-node clock parameters, the config ``seed:`` and, for the
sweep, the swept values. The program sees only these files. Sizes are
chosen so that the amount of simulated work (events, samples, deliveries,
sweep points) does not depend on the seed; only the simulated values do.
The bundled ``configs/`` files are never read here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

TICKS_PER_MS = 30_720_000

FLEET_UES = 100
FLEET_DURATION_MS = 400
LONGHAUL_DURATION_MS = 20_000
SWEEP_VALUES = 40
SWEEP_REPETITIONS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand: run | sweep
    args: tuple           # CLI arguments after the subcommand, without --out
    outputs: tuple        # files the invocation must write
    expected: dict        # facts the outputs must show, see checks.py


def _clock(rng: random.Random, skew_ppm: float, stamp_noise: int) -> dict:
    return {
        "theta0": f"{rng.randint(-30_720_000, 30_720_000)} ticks",
        "skew_ppm": round(rng.uniform(-skew_ppm, skew_ppm), 6),
        "stamp_noise": stamp_noise,
    }


def _around(rng: random.Random, centre: tuple, r_min: float, r_max: float) -> list:
    radius = rng.uniform(r_min, r_max)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return [round(centre[0] + radius * math.cos(angle), 1),
            round(centre[1] + radius * math.sin(angle), 1)]


def _write(path: Path, data: dict) -> str:
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    return str(path)


def _samples(duration_ms: int, grid_ms: int, nodes: list) -> int:
    """Offset samples a run must record: every grid instant, every non-reference node."""
    sampled = sum(1 for n in nodes if n["role"] != "reference")
    return (duration_ms // grid_ms + 1) * sampled


def fleet(seed: int, work_dir: Path, ues: int = FLEET_UES,
          duration_ms: int = FLEET_DURATION_MS) -> Workload:
    """Many UEs on one cell: the event loop and per-device stream derivation."""
    rng = random.Random(f"fleet/{seed}")
    nodes = [
        {"id": "ref", "role": "reference"},
        {"id": "bs1", "role": "base_station", "position": [0.0, 0.0],
         "clock": _clock(rng, 0.05, 31)},
    ]
    targets = [f"ue{i:03d}" for i in range(ues)]
    for ue in targets:
        nodes.append({"id": ue, "role": "ue", "attach_to": "bs1",
                      "position": _around(rng, (0.0, 0.0), 50.0, 1500.0),
                      "clock": _clock(rng, 10.0, 308)})
    config = {
        "schema_version": 1,
        "seed": rng.randrange(2**31),
        "duration": f"{duration_ms} ms",
        "sampling_grid": "1 ms",
        "nodes": nodes,
        "sync_plan": {
            "enabler": "ta_sib16",
            "resync_period": "10 ms",
            "ta_timer_ms": 500,
            "ta_noise_sigma": 100,
            "sib": {"granularity": "0.1 us", "periodicity": "10 ms",
                    "si_window": "10 ms", "stamp_mode": "at_transmit"},
        },
        "workload": {"command_period": "1 ms", "targets": targets},
        "presets": ["tsn-factory"],
    }
    path = _write(work_dir / f"fleet-{ues}ue-{duration_ms}ms.yaml", config)
    return Workload(
        name="fleet",
        command="run",
        args=("--config", path),
        outputs=("report.json", "report.csv", "manifest.json"),
        expected={"samples": _samples(duration_ms, 1, nodes)},
    )


def longhaul(seed: int, work_dir: Path) -> Workload:
    """The heterogeneous shape (two cells, a gateway domain) over a long horizon."""
    rng = random.Random(f"longhaul/{seed}")
    bs2 = [round(rng.uniform(800.0, 1500.0), 1), round(rng.uniform(-200.0, 200.0), 1)]
    nodes = [
        {"id": "ref", "role": "reference"},
        {"id": "bs1", "role": "base_station", "position": [0.0, 0.0],
         "clock": _clock(rng, 0.05, 31)},
        {"id": "bs2", "role": "base_station", "position": bs2,
         "clock": _clock(rng, 0.05, 31)},
        {"id": "ue1", "role": "ue", "attach_to": "bs1",
         "position": _around(rng, (0.0, 0.0), 100.0, 600.0), "clock": _clock(rng, 10.0, 308)},
        {"id": "ue2", "role": "ue", "attach_to": "bs2",
         "position": _around(rng, tuple(bs2), 100.0, 600.0), "clock": _clock(rng, 10.0, 308)},
        {"id": "gw1", "role": "gateway", "attach_to": "bs1",
         "position": _around(rng, (0.0, 0.0), 20.0, 200.0), "clock": _clock(rng, 10.0, 308)},
        {"id": "ld1", "role": "legacy_device", "attach_to": "gw1", "clock": _clock(rng, 20.0, 0)},
        {"id": "ld2", "role": "legacy_device", "attach_to": "gw1", "clock": _clock(rng, 20.0, 0)},
    ]
    config = {
        "schema_version": 1,
        "seed": rng.randrange(2**31),
        "duration": f"{LONGHAUL_DURATION_MS} ms",
        "sampling_grid": "1 ms",
        "nodes": nodes,
        "link": {"extra_delay": {"dist": "uniform", "low": 0, "high": "5 ms"}},
        "sync_plan": {
            "enabler": "dedicated_two_way",
            "resync_period": "100 ms",
            "ta_timer_ms": 500,
            "bs_alignment": {"mode": "ribs", "ribs_mode": "two_way", "realign_period": "500 ms"},
            "gw_relay_sigma": 922,
        },
        "workload": {"command_period": "10 ms", "targets": ["ue1", "ue2", "ld1", "ld2"]},
        "presets": ["grid-monitoring", "grid-fault-protection"],
    }
    path = _write(work_dir / "longhaul.yaml", config)
    return Workload(
        name="longhaul",
        command="run",
        args=("--config", path, "--trace"),
        outputs=("report.json", "report.csv", "manifest.json", "trace.json"),
        expected={"samples": _samples(LONGHAUL_DURATION_MS, 1, nodes)},
    )


def sweep(seed: int, work_dir: Path) -> Workload:
    """Many short PMU runs: per-run fixed costs (validation, build, report)."""
    rng = random.Random(f"sweep/{seed}")
    line = round(rng.uniform(400.0, 1000.0), 1)
    nodes = [
        {"id": "ref", "role": "reference"},
        {"id": "bs1", "role": "base_station",
         "position": [round(rng.uniform(0.0, line), 1), round(rng.uniform(200.0, 600.0), 1)],
         "clock": _clock(rng, 0.05, 31)},
        {"id": "pmu_a", "role": "pmu", "attach_to": "bs1", "position": [0.0, 0.0],
         "clock": _clock(rng, 5.0, 308)},
        {"id": "pmu_b", "role": "pmu", "attach_to": "bs1", "position": [line, 0.0],
         "clock": _clock(rng, 5.0, 308)},
    ]
    config = {
        "schema_version": 1,
        "seed": rng.randrange(2**31),
        "duration": "1500 ms",
        "sampling_grid": "10 ms",
        "nodes": nodes,
        "sync_plan": {
            "enabler": "ta_sib16",
            "resync_period": "80 ms",
            "ta_timer_ms": 500,
            "sib": {"granularity": "1 us", "si_window": "40 ms", "stamp_mode": "at_transmit"},
        },
        "fault_probe": {
            "line_length_m": line,
            "fault_position_m": round(rng.uniform(0.1, 0.9) * line, 1),
            "wave_speed_mps": 3.0e8,
            "sync_error_bound": "1 us",
            "at": "1 s",
            "pmu": ["pmu_a", "pmu_b"],
        },
        "presets": ["grid-monitoring"],
    }
    # log-uniform granularities from 1 tick to 10 ms, all distinct
    values: set[int] = set()
    while len(values) < SWEEP_VALUES:
        values.add(round(10 ** rng.uniform(0.0, math.log10(10 * TICKS_PER_MS))))
    spec = {
        "path": "sync_plan.sib.granularity",
        "values": [f"{v} ticks" for v in sorted(values)],
        "repetitions": SWEEP_REPETITIONS,
    }
    config_path = _write(work_dir / "sweep-base.yaml", config)
    spec_path = _write(work_dir / "sweep-spec.yaml", spec)
    return Workload(
        name="sweep",
        command="sweep",
        args=("--config", config_path, "--sweep", spec_path),
        outputs=("sweep.json", "sweep.csv", "manifest.json"),
        expected={"rows": SWEEP_VALUES * SWEEP_REPETITIONS},
    )


GENERATORS = {"fleet": fleet, "longhaul": longhaul, "sweep": sweep}
