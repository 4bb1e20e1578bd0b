"""The trace as integer columns: what a run stores per observation, the row
views built from it, and trace.json, checked against each other."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from airsync.cli import main
from airsync.clocks import local_time
from airsync.config import validate_config
from airsync.scenario import RawTrace, build_scenario, run_scenario
from airsync.timebase import TICKS_PER_MS
from stepwise import SteppingClock

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_yaml(path: Path, payload) -> Path:
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


def run_cli(directory: Path, raw: dict, *flags: str) -> tuple[dict, dict]:
    """``airsync run --trace`` on ``raw``: its report.json and trace.json."""
    out = directory / "o"
    assert main(["run", "--config", str(write_yaml(directory / "cfg.yaml", raw)), "--out", str(out),
                 "--trace", *flags]) == 0
    return (json.loads((out / "report.json").read_text(encoding="utf-8")),
            json.loads((out / "trace.json").read_text(encoding="utf-8")))


def run_raw(raw: dict):
    config = validate_config(raw)
    scenario = build_scenario(config)
    return scenario, run_scenario(scenario, config.duration)


def fleet(ues: int) -> dict:
    """One cell of ``ues`` UEs, sampled and commanded every 1 ms for 100 ms."""
    return {
        "schema_version": 1, "seed": 5, "duration": "100 ms", "sampling_grid": "1 ms",
        "nodes": [{"id": "ref", "role": "reference"}, {"id": "bs1", "role": "base_station", "position": [0, 0]}]
        + [{"id": f"ue{i:03d}", "role": "ue", "attach_to": "bs1", "position": [100 + 50 * i, 0],
            "clock": {"skew_ppm": 3.0, "stamp_noise": 308}} for i in range(ues)],
        "sync_plan": {"resync_period": "10 ms", "sib": {"granularity": "0.1 us", "si_window": "10 ms"}},
        "workload": {"command_period": "1 ms", "targets": [f"ue{i:03d}" for i in range(ues)]},
    }


# --- what a run stores ------------------------------------------------------------------


def test_a_run_stores_integer_columns_only(tmp_path):
    # 8 bytes a sample error, 28 a delivery, and no string or object in any
    # stored column, so the trace cannot grow a string per row again
    raw = fleet(6)
    report, _ = run_cli(tmp_path, raw)
    _, trace = run_raw(raw)
    assert trace.errors.dtype == np.int64 and trace.errors.nbytes == 8 * report["metrics"]["samples"]
    assert trace.deliveries.dtype.itemsize == 28 and len(trace.deliveries) == 6 * 100
    columns = [value for value in trace._asdict().values() if isinstance(value, np.ndarray)]
    assert len(columns) == 3   # instants, errors, deliveries; the correction log is built on access
    for stepped in trace.stepped:   # the trajectories kept for the correction log
        assert stepped.trajectory.installed_at.dtype == stepped.trajectory.base.dtype == np.int64
        assert all(type(key) is int for key in stepped[2:])   # the log keys
    for column in columns:
        fields = column.dtype.fields
        kinds = {dtype.kind for dtype, *_ in fields.values()} if fields else {column.dtype.kind}
        assert kinds == {"i"}, column.dtype


def test_run_and_sweep_never_build_the_row_views(tmp_path, monkeypatch):
    # nor the correction log, but for trace.json, which builds it once
    def built(self):
        raise AssertionError("a row view was built")

    logs = []
    correction_log = RawTrace.correction_log
    monkeypatch.setattr(RawTrace, "samples", property(built))
    monkeypatch.setattr(RawTrace, "corrections", property(built))
    monkeypatch.setattr(RawTrace, "correction_log", property(lambda self: logs.append(correction_log.fget(self))
                                                             or logs[-1]))
    config = write_yaml(tmp_path / "cfg.yaml", fleet(3))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "sync_plan.resync_period",
                                               "values": ["5 ms", "20 ms"], "repetitions": 2})
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 0
    assert logs == []
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "traced"), "--trace"]) == 0
    assert len(logs) == 1 and len(logs[0]) > 0


def test_only_a_trace_write_builds_the_trace_kernels_tables(tmp_path):
    # in a fresh process: importing the CLI, a run without --trace and a
    # sweep build none of them, so neither pays for them
    config = write_yaml(tmp_path / "cfg.yaml", fleet(3))
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "sync_plan.resync_period", "values": ["5 ms", "20 ms"]})
    runs = [["run", "--config", str(config), "--out", str(tmp_path / "run")],
            ["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "sweep")],
            ["run", "--config", str(config), "--out", str(tmp_path / "traced"), "--trace"]]
    code = ("import contextlib, io\nfrom airsync import cli\nbuilt = [cli._decimal_tables.cache_info().currsize]\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "    built.append(cli._decimal_tables.cache_info().currsize)\n"
            "print(built)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[0, 0, 0, 1]"


def bs_error_past_max_ticks() -> dict:
    # bs2 set 9e18 ticks behind the reference, far past MAX_TICKS
    raw = yaml.safe_load((CONFIG_DIR / "two-bs.yaml").read_text())
    raw["duration"] = "300 ms"
    raw["sync_plan"]["bs_alignment"] = {"mode": "fixed_error", "error": "-9000000000000000000 ticks"}
    return raw


def test_a_bs_alignment_error_past_max_ticks_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "cfg.yaml", bs_error_past_max_ticks())
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "config error: sync_plan.bs_alignment.error: " in capsys.readouterr().err


def test_a_sweep_with_a_bs_alignment_error_past_max_ticks_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "cfg.yaml", bs_error_past_max_ticks())
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "sync_plan.sib.granularity", "values": ["1 us", "2 us"]})
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "config error: sync_plan.bs_alignment.error: " in capsys.readouterr().err


def test_an_id_ending_in_nul_stays_its_own_node(tmp_path):
    # "ue1\0" is not "ue1": its deliveries keep their id and form their own
    # jitter group, centred on their own median
    raw = yaml.safe_load((CONFIG_DIR / "single-bs.yaml").read_text())
    raw["duration"] = "300 ms"
    ue2 = next(node for node in raw["nodes"] if node["id"] == "ue2")
    ue2["id"] = raw["workload"]["targets"][1] = "ue1\0"
    report, written = run_cli(tmp_path, raw)
    _, trace = run_raw(raw)

    assert trace.workload.targets == ("ue1", "ue1\0", "ue3") and set(trace.deliveries.node.tolist()) == {0, 1, 2}
    assert {row[0] for row in written["deliveries"]} == {"ue1", "ue1\0", "ue3"}
    assert {row[1] for row in written["samples"]} >= {"ue1", "ue1\0"}
    assert {s.node for s in trace.samples} == set(trace.sampled) and "ue1\0" in trace.sampled
    assert {c.node for c in trace.corrections} >= {"ue1", "ue1\0"}
    assert sorted(report["metrics"]["per_node"]) == sorted(trace.sampled)

    def jitter(group_of) -> tuple:
        deviation: dict[str, list[int]] = {}
        for node, _k, grid_point, _arrival, stamp in written["deliveries"]:
            deviation.setdefault(group_of(node), []).append(stamp - grid_point)
        centred = np.concatenate([np.array(d, dtype=float) - np.median(d) for d in deviation.values()])
        return float(np.abs(centred).max()), float(centred.max() - centred.min()), len(deviation)

    *by_id, groups = jitter(lambda node: node)
    assert groups == 3
    assert by_id == [report["metrics"]["jitter"]["max"], report["metrics"]["jitter"]["peak_to_peak"]]
    *merged, _ = jitter(lambda node: node.rstrip("\0"))   # the two targets taken as one
    assert merged != by_id


# --- views, trace.json and clocks agree, on random small configs ----------------------------


IDS = ("ue1", "ue1\0", 'say "hi"', "Zürich-ü€😀", "%s", "{}", "b\\s", "\0")


@st.composite
def small_configs(draw) -> dict:
    enabler = draw(st.sampled_from(("ta_sib16", "dedicated_two_way", "ribs_ue")))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=5, max_size=5, unique=True))
    clock = st.fixed_dictionaries({
        "theta0": st.integers(-10**6, 10**6).map(lambda t: f"{t} ticks"),
        "skew_ppm": st.floats(-20, 20), "stamp_noise": st.sampled_from((0, 308)),
    })
    bs_ids = ["bs1", "bs2"][:draw(st.integers(1, 2))]
    nodes = [{"id": "ref", "role": "reference"}]
    nodes += [{"id": bs, "role": "base_station", "position": [draw(st.integers(0, 2000)), 0], "clock": draw(clock)}
              for bs in bs_ids]
    devices = []
    for device in ids[:draw(st.integers(1, 3))]:
        nodes.append({"id": device, "role": draw(st.sampled_from(("ue", "pmu"))),
                      "attach_to": draw(st.sampled_from(bs_ids)),
                      "position": [draw(st.integers(0, 2000)), draw(st.integers(-500, 500))], "clock": draw(clock)})
        devices.append(device)
    if draw(st.booleans()):
        gateway, legacy = ids[3:5]
        nodes.append({"id": gateway, "role": "gateway", "attach_to": bs_ids[0], "position": [50, 50],
                      "clock": draw(clock)})
        nodes.append({"id": legacy, "role": "legacy_device", "attach_to": gateway, "clock": draw(clock)})
        devices += [gateway, legacy]
    plan = {"enabler": enabler, "resync_period": f"{draw(st.sampled_from((5, 10, 20)))} ms",
            "gw_relay_sigma": draw(st.sampled_from((0, 922)))}
    if enabler == "ta_sib16":
        plan["sib"] = {"granularity": draw(st.sampled_from((0, "1 us"))), "si_window": "5 ms"}
    if len(bs_ids) > 1:
        plan["bs_alignment"] = draw(st.sampled_from((
            {"mode": "fixed_error", "error": "0.5 us"}, {"mode": "ribs", "ribs_mode": "two_way"})))
    raw = {
        "schema_version": 1, "seed": draw(st.integers(0, 2**31)),
        "duration": f"{draw(st.integers(10, 60))} ms", "sampling_grid": f"{draw(st.integers(1, 7))} ms",
        "nodes": nodes, "sync_plan": plan,
        "link": {"extra_delay": {"dist": "uniform", "low": 0, "high": f"{draw(st.integers(0, 3))} ms"}},
    }
    if draw(st.booleans()):
        raw["workload"] = {"command_period": f"{draw(st.integers(1, 5))} ms",
                           "grid_phase": draw(st.integers(0, 3 * TICKS_PER_MS)),
                           "targets": draw(st.lists(st.sampled_from(devices), min_size=1, unique=True))}
    return raw


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=small_configs())
def test_views_trace_json_and_clocks_agree(raw):
    with tempfile.TemporaryDirectory() as directory:
        report, written = run_cli(Path(directory), raw, "--format", "json")
    scenario, trace = run_raw(raw)

    assert report["metrics"]["samples"] == trace.errors.size == len(trace.samples)
    assert written["samples"] == [list(row) for row in trace.samples.tolist()]
    assert written["corrections"] == [list(c) for c in trace.corrections]
    assert len(trace.corrections) == len(trace.correction_log)
    workload = trace.workload   # no workload, no deliveries
    grid = range(workload.grid_phase, scenario.config.duration + 1, workload.command_period) if workload else ()
    assert written["deliveries"] == [[workload.targets[node], k, grid[k], arrival, stamp]
                                     for node, k, arrival, stamp in trace.deliveries.tolist()]

    # each error is the reading of the clock replayed from the correction log
    clocks = {node: SteppingClock(params) for node, params in scenario.clocks.items()}
    for c in trace.corrections:
        clocks[c.node].step(c.t_true, c.delta)
    for i, t in enumerate(trace.instants.tolist()):
        for j, node in enumerate(trace.sampled):
            assert trace.errors[i, j] == local_time(clocks[node], t) - t
