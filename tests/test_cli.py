"""CLI exit codes, report formats, determinism, sweeps, presets."""

import csv
import json
from pathlib import Path

import pytest
import yaml

from airsync.cli import main
from airsync.timebase import INT64_MAX, TICKS_PER_MS, TICKS_PER_US

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_yaml(path: Path, payload) -> Path:
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


def small_config(**overrides):
    raw = {
        "schema_version": 1,
        "seed": 123,
        "duration": "300 ms",
        "sampling_grid": "10 ms",
        "nodes": [
            {"id": "ref", "role": "reference"},
            {"id": "bs1", "role": "base_station", "position": [0, 0]},
            {"id": "ue1", "role": "ue", "attach_to": "bs1", "position": [140, 60],
             "clock": {"skew_ppm": 2.0}},
            {"id": "ue2", "role": "ue", "attach_to": "bs1", "position": [800, -120],
             "clock": {"skew_ppm": -4.0}},
        ],
        "sync_plan": {
            "resync_period": "50 ms",
            "sib": {"granularity": "1 us", "si_window": "10 ms"},
        },
        "workload": {"command_period": "10 ms", "targets": ["ue1", "ue2"]},
        "presets": ["tsn-factory"],
    }
    raw.update(overrides)
    return raw


def test_run_writes_reports(tmp_path, capsys):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert (out / "report.csv").exists()
    assert (out / "manifest.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 123
    assert report["config"]["duration"] == "300 ms"  # replayability contract
    assert "tsn-factory" in capsys.readouterr().out


def test_run_malformed_config_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "bad.yaml", small_config(sync_plan={"resink": 1}))
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "sync_plan.resink" in capsys.readouterr().err


def test_run_reversed_delay_range_exits_2(tmp_path, capsys):
    link = {"extra_delay": {"dist": "uniform", "low": "5 ms", "high": "1 ms"}}
    config = write_yaml(tmp_path / "bad.yaml", small_config(link=link))
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "link.extra_delay" in capsys.readouterr().err


PAST_THE_TICK_RANGE = "9223372036854775000 ticks"   # within the run's span of INT64_MAX


@pytest.mark.parametrize("clock_defaults, clock, path", [
    ({}, {"theta0": PAST_THE_TICK_RANGE}, "nodes[2].clock.theta0"),
    ({}, {"theta0": {"dist": "uniform", "low": 0, "high": PAST_THE_TICK_RANGE}}, "nodes[2].clock.theta0"),
    ({}, {"theta0": {"dist": "uniform", "low": f"-{PAST_THE_TICK_RANGE}", "high": 0}}, "nodes[2].clock.theta0"),
    ({"ue": {"theta0": PAST_THE_TICK_RANGE}}, None, "clock_defaults.ue.theta0"),   # ue1 on the defaults
], ids=["fixed", "uniform-high", "uniform-low", "clock-defaults"])
def test_run_phase_that_would_leave_the_tick_range_exits_2(tmp_path, capsys, clock_defaults, clock, path):
    raw = small_config(clock_defaults=clock_defaults)
    raw["nodes"][2]["clock"] = clock
    if clock is None:
        del raw["nodes"][2]["clock"]
    code = main(["run", "--config", str(write_yaml(tmp_path / "bad.yaml", raw)), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{path}: |theta0| must be <=" in capsys.readouterr().err


def test_run_phase_at_the_limit_runs(tmp_path):
    # |theta0| = INT64_MAX - 2 * duration, both signs: every reading stays in range
    limit = INT64_MAX - 2 * 300 * TICKS_PER_MS
    raw = small_config()
    raw["nodes"][2]["clock"] = {"theta0": f"{limit} ticks"}
    raw["nodes"][3]["clock"] = {"theta0": f"{-limit} ticks"}
    config = write_yaml(tmp_path / "edge.yaml", raw)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--trace"]) == 0


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")]) == 2


def test_run_twice_is_byte_identical(tmp_path):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out1), "--trace"]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2), "--trace"]) == 0
    for name in ["report.json", "report.csv", "manifest.json", "trace.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_and_json_reports_carry_identical_values(tmp_path):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())

    def flatten(obj, prefix=""):
        rows = {}
        if isinstance(obj, dict):
            for key, value in obj.items():
                rows.update(flatten(value, f"{prefix}.{key}" if prefix else key))
        elif isinstance(obj, list):
            for i, value in enumerate(obj):
                rows.update(flatten(value, f"{prefix}[{i}]"))
        else:
            rows[prefix] = obj
        return rows

    expected = flatten(report)
    with (out / "report.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["key", "value"]
    from_csv = {key: json.loads(value) for key, value in rows[1:]}
    assert from_csv == expected


def test_refuses_to_overwrite_results(tmp_path):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2


def test_seed_precedence_flag_over_env_over_config(tmp_path, monkeypatch):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())

    def run_seed(args, out):
        main(["run", "--config", str(config), "--out", str(out), *args])
        return json.loads((out / "report.json").read_text())["seed"]

    assert run_seed([], tmp_path / "o1") == 123
    monkeypatch.setenv("AIRSYNC_SEED", "777")
    assert run_seed([], tmp_path / "o2") == 777
    assert run_seed(["--seed", "9"], tmp_path / "o3") == 9


def test_sweep_pmu_bound_reproduces_uncertainty_table(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep",
        "--config", str(CONFIG_DIR / "pmu-fault.yaml"),
        "--sweep", str(CONFIG_DIR / "sweeps" / "pmu-sync-bound.yaml"),
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    rows = payload["rows"]
    assert len(rows) == 5
    widths = [row["fault_uncertainty_m"] for row in rows]
    assert widths == pytest.approx([60.0, 120.0, 180.0, 240.0, 300.0])
    assert rows[-1]["value"] == "1.0 us"


def test_sweep_granularity_dominance_same_seed(tmp_path):
    config = write_yaml(tmp_path / "cfg.yaml", small_config(duration="2 s"))
    spec = write_yaml(tmp_path / "spec.yaml", {
        "path": "sync_plan.sib.granularity",
        "values": ["10 ms", "1 us", "31 ticks"],
    })
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    by_value = {row["value"]: row for row in payload["rows"]}
    assert {row["seed"] for row in payload["rows"]} == {123}
    p99 = [by_value[v]["device_error_p99_ticks"] for v in ["10 ms", "1 us", "31 ticks"]]
    assert p99[0] >= p99[1] >= p99[2]


def test_sweep_empty_values_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "seed", "values": []})
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "sweep.values" in capsys.readouterr().err


def test_sweep_repeated_value_exits_2(tmp_path, capsys):
    # equal values would be grouped into one aggregate claiming twice the repetitions
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    spec = write_yaml(tmp_path / "spec.yaml", {
        "path": "sync_plan.sib.granularity", "values": ["1 us", "2 us", "1 us"], "repetitions": 2,
    })
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "sweep.values[2]: repeats an earlier value '1 us'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_unresolvable_path_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "sync_plan.warp", "values": [1]})
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "o")]) == 2


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ["tsn-factory", "grid-fault-protection", "grid-monitoring",
                  "lte-tdd-small", "lte-tdd-large", "mbms"]:
        assert name in out


def test_presets_json_matches_table(capsys):
    assert main(["presets", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    presets = {p["name"]: p for p in payload["presets"]}
    assert len(presets) == 6
    assert presets["tsn-factory"]["device_sync_bound"] == TICKS_PER_US
    assert presets["tsn-factory"]["jitter_bound"] == TICKS_PER_US
    assert presets["grid-fault-protection"]["device_sync_bound"] == 20 * TICKS_PER_US


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
