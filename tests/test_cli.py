"""CLI exit codes, report formats, determinism, sweeps, presets."""

import csv
import hashlib
import json
import math
from collections import Counter
from enum import Enum
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airsync import cli, engine, scenario
from airsync.cli import TRACE_CHUNK_ROWS, _trace_json, main
from airsync.clocks import ClockParams, local_time
from airsync.config import Workload, load_config, load_sweep_spec, replace_config_value, validate_config
from airsync.scenario import (
    CORRECTION_DTYPE, CORRECTION_KINDS, DeliveryColumns, RawTrace, SteppedClock, build_scenario, run_scenario,
)
from airsync.timebase import INT64_MAX, INT64_MIN, MAX_TICKS, TICKS_PER_MS, TICKS_PER_US
from stepwise import SteppingClock, delivery_columns

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


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unparsable_yaml_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration: [1 s\nnodes: {", encoding="utf-8")
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    args = (["run", "--config", str(bad)] if command == "run"
            else ["sweep", "--config", str(config), "--sweep", str(bad)])
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    assert f"cannot parse {bad}" in capsys.readouterr().err


def test_run_reversed_delay_range_exits_2(tmp_path, capsys):
    link = {"extra_delay": {"dist": "uniform", "low": "5 ms", "high": "1 ms"}}
    config = write_yaml(tmp_path / "bad.yaml", small_config(link=link))
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "link.extra_delay" in capsys.readouterr().err


def test_run_uniform_delay_past_the_int64_draw_exits_2(tmp_path, capsys):
    # integers(low, high + 1) cannot take a bound past INT64_MAX
    raw = yaml.safe_load((CONFIG_DIR / "single-bs.yaml").read_text())
    raw.update(duration="300 ms", link={"extra_delay": {"dist": "uniform", "low": 0, "high": "5e8 s"}})
    code = main(["run", "--config", str(write_yaml(tmp_path / "bad.yaml", raw)), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "link.extra_delay.high: must be below INT64_MAX" in capsys.readouterr().err


def _bundled(name: str, **overrides) -> dict:
    raw = yaml.safe_load((CONFIG_DIR / name).read_text())
    raw.update(overrides)
    return raw


def _sib(raw, window):
    raw["sync_plan"]["sib"].update(si_window=window, periodicity=window)


def _unread_drift(raw):
    """ld1 drifting at 1e300 per s, first read at the 500 ms sample: no relay steps it, no command reaches it."""
    raw["nodes"][6]["clock"] = {"drift_per_s": 1e300}
    raw["link"]["loss_prob"] = 1
    del raw["workload"]


# each of these validated and then died in the run with a raw traceback, not an AirsyncError
@pytest.mark.parametrize("name, edit, path", [
    ("single-bs.yaml", lambda raw: _sib(raw, f"{2**63} ticks"), "sync_plan.sib.si_window"),
    ("single-bs.yaml", lambda raw: raw["workload"].update(command_period="9223372036854775813 ticks"),
     "workload.command_period"),
    ("single-bs.yaml", lambda raw: raw["nodes"][3].update(position=[480, 1e300]), "nodes[3].position[1]"),
    ("heterogeneous.yaml", _unread_drift, "nodes[6].clock.drift_per_s"),
    ("heterogeneous.yaml", lambda raw: raw["link"].update(extra_delay={"dist": "normal", "sigma": 1.7976931348623157e308}),
     "link.extra_delay.sigma"),
    ("pmu-fault.yaml", lambda raw: raw["fault_probe"].update(wave_speed_mps=1e-300), "fault_probe.wave_speed_mps"),
], ids=["si-window", "command-period", "position", "drift", "delay-sigma", "wave-speed"])
def test_run_config_past_the_model_range_exits_2(tmp_path, capsys, name, edit, path):
    raw = _bundled(name, duration="1500 ms", sampling_grid="500 ms")
    edit(raw)
    code = main(["run", "--config", str(write_yaml(tmp_path / "bad.yaml", raw)), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda raw: _sib(raw, f"{INT64_MAX} ticks"),
    lambda raw: raw["workload"].update(command_period=f"{INT64_MAX} ticks"),
    lambda raw: raw["nodes"][3].update(position=[1e15, -1e15]),
], ids=["si-window", "command-period", "position"])
def test_run_at_the_edge_of_the_model_range_runs(tmp_path, edit):
    raw = _bundled("single-bs.yaml", duration="300 ms")
    edit(raw)
    config = write_yaml(tmp_path / "edge.yaml", raw)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--trace"]) == 0


MANIFEST_SHA256 = "0716d8c06d4270da0b5d5bfd42f97b5856e0d248b6606b1d6547428a6905a88b"
NO_DELIVERY_TRACE_SHA256 = "ade37925773d59c8da3cdf21c8175fe1f563c524654c28dcdde60a74f3ff95f9"

# single-bs.yaml under an extra delay: the digests are those of the files
# written when every delay and stamp was drawn one at a time
DELAYED = {
    # no command survives these; an int64 wrap or float cast in the arrivals
    # would count them as delivered
    "uniform-int64": ({"dist": "uniform", "low": 0, "high": f"{INT64_MAX - 1} ticks"}, {
        "report.csv": "673d3255a34d5494861ade5b71932ec9c150e5b62fbe0d539119ebe8a200118a",
        "report.json": "99bbf2f45b8b134af7048172891b5d7ebd91c3a73a8b8b55ddba1986445d6481",
        "trace.json": NO_DELIVERY_TRACE_SHA256,
    }),
    "normal-1e19": ({"dist": "normal", "mean": 1e19, "sigma": 10}, {
        "report.csv": "9b806b9611bb5e02d9352b0b75658b8fd5eaa613227f191e325dbaf97818cd6f",
        "report.json": "43a104061f5d77d6d4cf397dcfa46db7fd13ea2b71eed4fd39b73a09148d6148",
        "trace.json": NO_DELIVERY_TRACE_SHA256,
    }),
    # delays wider than the command period reorder each target's arrivals, and
    # some land past the run's end; stamps follow each target's arrival order
    "uniform-reordering": ({"dist": "uniform", "low": "10 ms", "high": "400 ms"}, {
        "report.csv": "45f97c8b8fe20618ef153583ff30a3bfb14881111aec310b62b10c38db937d9e",
        "report.json": "aefaeb0f3875f07bec474b05856ad09e4915d8aedc940fc006069d667ca9d384",
        "trace.json": "eb1001a70185242f057a4389a1b2a9147b87ec32c549c37511526ac0dd6f2d3d",
    }),
    "normal-reordering": ({"dist": "normal", "mean": "3 ms", "sigma": "2 ms"}, {
        "report.csv": "235c787fdf426c946919e5b88866a9435c20fc97b7b4314c176c2e9a5d3c4992",
        "report.json": "698e3ced5d5a305adbbfdb725adb304c5c688a6e4f582a0ed8406b2eb6cb0df2",
        "trace.json": "2b2f50717a870b8165474556460c2e940c65b3bccaf8c5643fcebabbfd289bad",
    }),
}


@pytest.mark.parametrize("case", DELAYED)
def test_delayed_commands_keep_their_outputs(tmp_path, case):
    extra_delay, digests = DELAYED[case]
    raw = yaml.safe_load((CONFIG_DIR / "single-bs.yaml").read_text())
    raw["link"] = {"extra_delay": extra_delay}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", raw)), "--out", str(out), "--trace"]) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert written == dict(digests, **{"manifest.json": MANIFEST_SHA256})


def test_exchanges_past_the_tick_counter_never_land(tmp_path):
    # a 1e19-tick delay each way puts every two-way exchange past the 64-bit
    # tick counter; like the commands under it, they are dropped, not an error
    raw = yaml.safe_load((CONFIG_DIR / "heterogeneous.yaml").read_text())
    raw.update(duration="300 ms", link={"extra_delay": {"dist": "normal", "mean": 1e19, "sigma": 1}})
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", raw)), "--out", str(out), "--trace"]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["corrections"] and {c[3] for c in trace["corrections"]} == {"bs_align"}
    assert trace["deliveries"] == []


def test_a_resync_period_past_the_tick_counter_sends_one_exchange(tmp_path):
    # a period of 2**63 ticks leaves one round, at 0: each device's one
    # exchange steps it once, and no round start is taken past int64
    raw = yaml.safe_load((CONFIG_DIR / "single-bs.yaml").read_text())
    del raw["sync_plan"]["sib"]
    raw["sync_plan"].update(enabler="dedicated_two_way", resync_period=f"{2**63} ticks")
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", raw)), "--out", str(out), "--trace"]) == 0
    two_way = Counter(c[1] for c in json.loads((out / "trace.json").read_text())["corrections"] if c[3] == "two_way")
    assert two_way and set(two_way.values()) == {1}


def test_overlapping_exchanges_keep_one_in_flight(tmp_path):
    # 5 ms rounds and 0-5 ms of scheduling delay each way: most exchanges are
    # still in flight when the next round starts, which then sends nothing.
    # Each landing removes the offset it measured, so no device over-corrects:
    # its error stays within half the delay spread, plus stamp noise
    raw = yaml.safe_load((CONFIG_DIR / "single-bs.yaml").read_text())
    del raw["sync_plan"]["sib"]
    raw["sync_plan"].update(enabler="dedicated_two_way", resync_period="5 ms")
    raw["link"] = {"extra_delay": {"dist": "uniform", "low": 0, "high": "5 ms"}}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", raw)), "--out", str(out), "--trace"]) == 0
    two_way = [c for c in json.loads((out / "trace.json").read_text())["corrections"] if c[3] == "two_way"]
    assert len(two_way) > 100
    assert max(abs(c[4]) for c in two_way) <= 5 * TICKS_PER_MS // 2 + TICKS_PER_US


def test_an_exchange_with_reversed_stamps_is_a_lost_sync(tmp_path):
    # bs2 starts 1.1 ms off and is RIBS-aligned 1 ms + 9 us in (three 3 us
    # propagation delays after its round starts), inside ue2's first exchange
    # (5 us each way), so that exchange reads t4 < t1: it steps nothing
    raw = yaml.safe_load((CONFIG_DIR / "two-bs.yaml").read_text())
    del raw["sync_plan"]["sib"]
    raw["sync_plan"]["enabler"] = "ribs_ue"
    raw["nodes"][2]["clock"] = {"theta0": "1.1 ms"}
    raw["nodes"][4]["position"] = [2400, 0]
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", raw)), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["metrics"]["lost_sync"] >= 1


def test_a_ribs_exchange_with_reversed_stamps_is_a_lost_sync(tmp_path):
    # 5 ms of BS stamp noise against a 1 ms turnaround: bs2's two-way RIBS
    # exchange at t=0 reads its stamps out of order, so it steps nothing
    raw = yaml.safe_load((CONFIG_DIR / "two-bs.yaml").read_text())
    raw["duration"] = "300 ms"
    raw["clock_defaults"]["base_station"]["stamp_noise"] = "5 ms"
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", raw)), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["metrics"]["lost_sync"] >= 1


def _reference_trace_json(trace: RawTrace) -> str:
    """trace.json as the generic JSON dump of the rows writes it."""
    payload = {
        "samples": trace.samples.tolist(),
        "deliveries": [[trace.workload.targets[node], k, trace.workload.grid_point(k), arrival, stamp]
                       for node, k, arrival, stamp in trace.deliveries.tolist()],
        "corrections": [[c.t_true, c.node, c.delta, c.kind, c.error_after] for c in trace.corrections],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _ids(names) -> tuple:
    return tuple(dict.fromkeys(names))


def _stepped(sampled: tuple, corrections) -> tuple:
    """Clocks whose correction log is ``corrections``, (t_true, node, delta,
    kind, error_after) rows in t_true order: one unskewed clock a row, whose
    phase, error_after + delta, one step of delta at t_true takes to
    error_after. A row's group is its index, which keeps the rows' order."""
    stepped = []
    for group, (t, node, delta, kind, error) in enumerate(corrections):
        clock = SteppingClock(ClockParams(theta0=error + delta))
        clock.step(t, delta)
        stepped.append(SteppedClock(clock.trajectory, clock.params, sampled.index(node), group, 0,
                                    CORRECTION_KINDS.index(kind)))
    return tuple(stepped)


def _trace(samples=(), deliveries=(), corrections=(), grid=range(0)) -> RawTrace:
    """A trace of these rows: samples (t_true, node, error), deliveries (node,
    grid_index, true_arrival, local_stamp) on the command ``grid``, and
    corrections (t_true, node, delta, kind, error_after), by _stepped.
    ``sampled`` is read off the first instant, then the correction nodes;
    the sample rows must follow the instant-major layout of ``RawTrace``."""
    sampled = _ids([node for _, node, _ in samples] + [c[1] for c in corrections])
    instants = [t for t, _, _ in samples[::max(len(sampled), 1)]]
    assert [node for _, node, _ in samples] == list(sampled) * len(instants)
    targets = _ids(d[0] for d in deliveries)
    trace = RawTrace(
        sampled=sampled, instants=np.array(instants, dtype=np.int64),
        errors=np.array([e for _, _, e in samples], dtype=np.int64).reshape(len(instants), len(sampled)),
        workload=Workload(command_period=grid.step, targets=targets, grid_phase=grid.start,
                          phase_mode="median") if targets else None,
        delivered=delivery_columns(deliveries, targets) if targets else None,
        stepped=_stepped(sampled, corrections),
        devices=frozenset(), ta_index={}, lost_sync=0, fault=None,
    )
    assert trace.correction_log.tolist() == [(t, sampled.index(node), delta, CORRECTION_KINDS.index(kind), error)
                                             for t, node, delta, kind, error in corrections]
    return trace


ODD_IDS = ('say "hi"', "back\\slash", "Zürich-ü€😀", "tab\there", "100%", "%s", "%%", "{}", "ue1\0", "\0")
TRACES = {
    "no-workload": _trace([(0, "ue1", 5), (0, "ue2", -7), (10, "ue1", 3), (10, "ue2", 0)], [],
                          [(0, "ue1", 12, "sib16", -1), (4, "ue2", -3, "two_way", 2)]),
    "no-corrections": _trace([(0, "ue1", 1)], [("ue1", 0, 11, 13), ("ue1", 1, 20, 21)], [], range(0, 20, 10)),
    "nothing": _trace(),
    "escaped-ids": _trace([(0, n, i) for i, n in enumerate(ODD_IDS)], [(n, 0, 1, 2) for n in ODD_IDS],
                          [(0, n, 1, CORRECTION_KINDS[i % 4], 0) for i, n in enumerate(ODD_IDS)], range(1)),
    "chunks": _trace([(t, n, t - 7) for t in range(TRACE_CHUNK_ROWS + 1) for n in ("ue1", "ue2")],
                     [("ue1", k, k + 1, k + 2) for k in range(TRACE_CHUNK_ROWS)], [], range(TRACE_CHUNK_ROWS)),
    "int64-extremes": _trace([(0, "a", INT64_MIN), (0, "b", INT64_MAX),
                              (INT64_MAX, "a", -1), (INT64_MAX, "b", INT64_MIN)],
                             [("a", 0, INT64_MAX, INT64_MIN)],
                             [(INT64_MAX, "a", INT64_MIN, "bs_align", INT64_MAX)], range(INT64_MIN, 0)),
}


@pytest.mark.parametrize("case", TRACES)
def test_trace_writer_matches_the_reference_dump(case):
    trace = TRACES[case]
    assert b"".join(_trace_json(trace)).decode() == _reference_trace_json(trace)


def _layout_trace(nodes: int, instants: int, deliveries: int, corrections: int) -> RawTrace:
    ids = [f"n{j}" for j in range(nodes)]
    return _trace([(10 * t, node, t - j) for t in range(instants) for j, node in enumerate(ids)],
                  [(ids[k % nodes], k, 10 * k + 3, 10 * k + 4) for k in range(deliveries)],
                  [(k, ids[k % nodes], -k, "sib16", k) for k in range(corrections)], range(0, 10 * deliveries, 10))


@pytest.mark.parametrize("sizes", [(4, 7, 6), (0, 7, 6), (4, 0, 6), (4, 7, 0)],
                         ids=["all-tables", "no-samples", "no-deliveries", "no-corrections"])
@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 5])
@pytest.mark.parametrize("nodes", range(1, 8))
def test_trace_writer_chunk_edges(monkeypatch, sizes, chunk_rows, nodes):
    # chunks that end mid-instant, and instants wider than a chunk: a samples
    # chunk then holds one whole instant, any other chunk at most chunk_rows rows
    monkeypatch.setattr(cli, "TRACE_CHUNK_ROWS", chunk_rows)
    trace = _layout_trace(nodes, *sizes)
    pieces = list(_trace_json(trace))
    assert b"".join(pieces).decode() == _reference_trace_json(trace)
    assert max(piece.count(b"    [\n") for piece in pieces) <= max(chunk_rows, nodes)


def test_trace_writer_working_set_does_not_grow_with_the_trace(traced_peak, monkeypatch):
    # 100,000 instants x 4 nodes, 100,000 deliveries and 100,000 corrections,
    # about 45 MB of text: rendering it holds one chunk's buffer and text at a
    # time, under a bound set for any length
    rows, sampled = 100_000, ("ue1", "ue2", "ue3", "ue4")
    draw = engine.derive_stream(5, "errors").integers
    log = np.empty(rows, dtype=CORRECTION_DTYPE)
    for name in ("t_true", "delta", "error_after"):
        log[name] = draw(-10**12, 10**12, size=rows)
    log["node"], log["kind"] = np.arange(rows) % len(sampled), np.arange(rows) % len(CORRECTION_KINDS)
    arrival, local_stamp = draw(0, 10**13, size=(2, rows // len(sampled), len(sampled)))
    arrival.sort(axis=0)   # each target's deliveries in arrival order
    trace = RawTrace(
        sampled=sampled, instants=np.arange(rows, dtype=np.int64) * TICKS_PER_MS,
        errors=draw(-10**9, 10**9, size=(rows, len(sampled))),
        workload=Workload(command_period=TICKS_PER_MS, targets=sampled, grid_phase=0, phase_mode="median"),
        delivered=DeliveryColumns(arrival, local_stamp, None, np.full(len(sampled), len(arrival))),
        stepped=(), devices=frozenset(sampled), ta_index={}, lost_sync=0, fault=None,
    )
    # the log and the delivery rows are built on access, from the trajectories
    # and the columns: built here, before the writer runs
    deliveries = trace.deliveries
    monkeypatch.setattr(RawTrace, "correction_log", property(lambda self: log))
    monkeypatch.setattr(RawTrace, "deliveries", property(lambda self: deliveries))
    written = []
    assert traced_peak(lambda: written.extend(len(piece) for piece in _trace_json(trace))) <= 2**19
    assert sum(written) > 45 * 10**6


INT64 = st.integers(INT64_MIN, INT64_MAX)
TEXT = st.text() | st.sampled_from(ODD_IDS)


@st.composite
def _layout_traces(draw) -> RawTrace:
    sampled = draw(st.lists(TEXT, min_size=1, max_size=6, unique=True))
    instants = draw(st.lists(INT64, max_size=8))
    phase, step = draw(INT64), draw(st.integers(1, INT64_MAX))
    # the last grid index that fits the int64 column and whose grid point fits int64
    last = min((INT64_MAX - phase) // step, INT64_MAX)
    kind = st.sampled_from(CORRECTION_KINDS)
    corrections = draw(st.lists(st.tuples(INT64, st.sampled_from(sampled), INT64, kind, INT64), max_size=8))
    return _trace([(t, node, draw(INT64)) for t in instants for node in sampled],
                  draw(st.lists(st.tuples(TEXT, st.integers(0, last), INT64, INT64), max_size=8)),
                  sorted(corrections, key=lambda c: c[0]),   # a correction log is in t_true order
                  range(phase, INT64_MAX, step))


@settings(max_examples=200, deadline=None)
@given(trace=_layout_traces(), chunk_rows=st.integers(1, 9))
def test_trace_writer_matches_the_reference_dump_on_random_traces(trace, chunk_rows):
    with mock.patch.object(cli, "TRACE_CHUNK_ROWS", chunk_rows):
        assert b"".join(_trace_json(trace)).decode() == _reference_trace_json(trace)


# the digit-count edges random int64 draws rarely hit
DIGIT_EDGES = st.sampled_from(sorted({0, INT64_MIN, INT64_MAX} | {sign * (10**k - less) for k in range(19)
                                                                   for less in (0, 1) for sign in (1, -1)}))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(DIGIT_EDGES | INT64, min_size=1, max_size=24), wider=st.integers(0, 2))
def test_an_int64_columns_text_is_its_str_at_any_width_that_holds_it(values, wider):
    cells = cli._cells(min(values), max(values)) + wider
    out = np.full((len(values), cells), 0x41414141, dtype=np.uint32)   # "AAAA" wherever nothing is written
    cli._decimal(np.array(values, dtype=np.int64), out)
    assert [row.tobytes().replace(b"\0", b"").decode() for row in out] == [str(value) for value in values]


def test_trace_json_of_odd_node_ids_matches_the_reference_dump(tmp_path):
    raw = small_config(workload=None)
    bs, ue1, ue2 = raw["nodes"][1:]
    bs["id"] = ue1["attach_to"] = ue2["attach_to"] = ODD_IDS[2]
    ue1["id"], ue2["id"] = ODD_IDS[0], ODD_IDS[1]
    config_path = write_yaml(tmp_path / "cfg.yaml", raw)
    out = tmp_path / "o"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--trace"]) == 0
    config = load_config(config_path)
    trace = run_scenario(build_scenario(config), config.duration)
    assert len(trace.corrections) and not len(trace.deliveries)
    assert (out / "trace.json").read_text(encoding="utf-8") == _reference_trace_json(trace)


PAST_THE_TICK_RANGE = "9223372036854775000 ticks"   # past MAX_TICKS, within the int64 range


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
    # |theta0| = MAX_TICKS, both signs: every reading stays in range
    raw = small_config()
    raw["nodes"][2]["clock"]["theta0"] = f"{MAX_TICKS} ticks"
    raw["nodes"][3]["clock"]["theta0"] = f"{-MAX_TICKS} ticks"
    config = write_yaml(tmp_path / "edge.yaml", raw)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o"), "--trace"]) == 0
    # and every sampled error is the scalar reading of the clock replayed from the correction log
    scenario_config = load_config(config)
    built = build_scenario(scenario_config)
    trace = run_scenario(built, scenario_config.duration)
    clocks = {node: SteppingClock(params) for node, params in built.clocks.items()}
    for c in trace.corrections:
        clocks[c.node].step(c.t_true, c.delta)
    assert trace.errors.tolist() == [[local_time(clocks[node], t) - t for node in trace.sampled]
                                     for t in trace.instants.tolist()]


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


# --- the one-walk report renderer, against the generic dump --------------------------


def _jsonable(obj):
    """The reference: a payload as the plain data json.dumps writes."""
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):   # a record, before its tuple reading
        return _jsonable(obj._asdict())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "value") and obj.__class__.__module__ != "builtins":  # Enum
        return obj.value
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _flatten(obj, prefix=""):
    """The reference: ``_jsonable``'s leaves as (flattened key path, value) rows."""
    rows = []
    if isinstance(obj, dict):
        for key in obj:
            rows.extend(_flatten(obj[key], f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            rows.extend(_flatten(item, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, obj))
    return rows


class _Pair(NamedTuple):
    first: object
    second: object


class _Kind(Enum):
    TEXT = "text"
    NUMBER = 7
    RATE = 0.5


_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
            | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
            | st.text(st.characters(min_codepoint=0, max_codepoint=0x2FFF), max_size=6) | st.sampled_from(_Kind))
_KEYS = (st.text(st.characters(min_codepoint=0, max_codepoint=0x2FFF), max_size=4) | st.integers(-3, 3)
         | st.booleans() | st.none() | st.sampled_from(_Kind) | st.floats(allow_nan=False))
_PAYLOADS = st.recursive(_SCALARS, lambda children: (
    st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, children, max_size=4) | st.builds(_Pair, children, children)), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(obj=_PAYLOADS, chunk=st.integers(1, 9))
@example(obj={1: "one", "1": [None], None: {}, "None": _Kind.RATE}, chunk=2)   # keys equal as str: the last is kept
def test_the_one_walk_renders_the_generic_dump_and_its_flattened_leaves(obj, chunk):
    writes = []
    with mock.patch.object(cli, "RENDER_CHUNK", chunk):
        rows = cli._render(obj, writes.append)
    reference = _jsonable(obj)
    assert "".join(writes) == json.dumps(reference, indent=2, sort_keys=True)
    assert rows == sorted((key, json.dumps(value)) for key, value in _flatten(reference))


@pytest.mark.parametrize("args", [[], ["--trace"], ["--format", "csv", "--trace"]],
                         ids=["report", "trace", "csv-trace"])
def test_manifest_lists_every_output(tmp_path, args):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), *args]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(path.name for path in out.iterdir())


def test_a_failed_trace_write_leaves_no_manifest(tmp_path, monkeypatch):
    def failing_trace_json(trace):
        yield b"{\n"
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "_trace_json", failing_trace_json)
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    out = tmp_path / "out"
    with pytest.raises(OSError):
        main(["run", "--config", str(config), "--out", str(out), "--trace"])
    assert (out / "report.json").exists() and not (out / "manifest.json").exists()
    monkeypatch.undo()
    assert main(["run", "--config", str(config), "--out", str(out), "--trace"]) == 0   # not marked complete


def test_refuses_to_overwrite_results(tmp_path):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2


# each of these ended in a traceback with exit 1
@pytest.mark.parametrize("command, bad, field, reason", [
    ("run", "directory", "config", "Is a directory"),
    ("run", "latin-1", "config", "can't decode byte 0xfc"),
    ("run", "missing", "config", "No such file or directory"),
    ("sweep", "directory", "sweep", "Is a directory"),
    ("sweep", "latin-1", "sweep", "can't decode byte 0xfc"),
    ("run", "file", "out", "File exists"),
    ("sweep", "file", "out", "File exists"),
], ids=["run-directory", "run-not-utf8", "run-missing", "sweep-directory", "sweep-not-utf8", "run-out-a-file",
        "sweep-out-a-file"])
def test_an_unreadable_input_path_exits_2(tmp_path, capsys, command, bad, field, reason):
    (tmp_path / "latin-1.yaml").write_bytes("duration: 1 s  # Zürich\n".encode("latin-1"))
    (tmp_path / "file").write_text("", encoding="utf-8")
    paths = {"config": write_yaml(tmp_path / "cfg.yaml", small_config()), "out": tmp_path / "o",
             "sweep": write_yaml(tmp_path / "spec.yaml", {"path": "duration", "values": ["100 ms"]})}
    paths[field] = {"directory": tmp_path, "latin-1": tmp_path / "latin-1.yaml", "missing": tmp_path / "none.yaml",
                    "file": tmp_path / "file"}[bad]
    argv = [command, "--config", str(paths["config"]), "--out", str(paths["out"])]
    assert main(argv + (["--sweep", str(paths["sweep"])] if command == "sweep" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"airsync: config error: {field}: cannot ") and reason in err


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


# sweep row key -> (report.json metrics section, field)
_ROW_METRICS = {
    "device_error_p99_ticks": ("device_error", "p99"),
    "device_error_max_ticks": ("device_error", "max"),
    "pairwise_max_ticks": ("pairwise", "max"),
    "pairwise_p99_ticks": ("pairwise", "p99"),
    "jitter_peak_to_peak_ticks": ("jitter", "peak_to_peak"),
}


def test_sweep_rows_equal_separate_runs_and_leave_the_base_config_alone(tmp_path):
    """The repetitions of a value share one validated config (frozen, as
    every record is: see test_config.py's test_records_are_immutable), the
    base mapping must stay as loaded, and every row must be what a separate
    run of that point gives."""
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    base = load_config(config)
    spec = write_yaml(tmp_path / "spec.yaml", {
        "path": "sync_plan.sib.granularity", "values": ["10 ms", "31 ticks"], "repetitions": 2,
    })
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["config"] == json.loads(json.dumps(base.raw))
    assert len(payload["rows"]) == 4 and len({row["seed"] for row in payload["rows"]}) == 2
    for i, row in enumerate(payload["rows"]):
        raw = small_config()
        raw["sync_plan"]["sib"]["granularity"] = row["value"]
        point = write_yaml(tmp_path / f"point{i}.yaml", raw)
        run_out = tmp_path / f"run{i}"
        assert main(["run", "--config", str(point), "--seed", str(row["seed"]), "--out", str(run_out)]) == 0
        metrics = json.loads((run_out / "report.json").read_text())["metrics"]
        assert set(row) - {"value", "repetition", "seed"} == set(_ROW_METRICS)
        for key, (section, field) in _ROW_METRICS.items():
            assert row[key] == metrics[section][field], (row["value"], row["repetition"], key)


# every sweep row key -> (report section, field)
_SWEEP_ROW_KEYS = {
    **_ROW_METRICS,
    "fault_estimate_m": ("fault", "estimate_m"),
    "fault_deviation_m": ("fault", "deviation_m"),
    "fault_uncertainty_m": ("fault", "uncertainty_m"),
}


@pytest.mark.parametrize("config_name, spec_name", [("pmu-fault.yaml", "pmu-sync-bound.yaml"),
                                                    ("single-bs.yaml", "sib-granularity.yaml")])
def test_bundled_sweep_rows_equal_the_full_report_of_their_point(config_name, spec_name, tmp_path):
    # a row computes only the sections it reports; they must read as the full report does
    config, spec = CONFIG_DIR / config_name, CONFIG_DIR / "sweeps" / spec_name
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "o")]) == 0
    rows = json.loads((tmp_path / "o" / "sweep.json").read_text())["rows"]
    base, spec = load_config(config), load_sweep_spec(spec)
    assert len(rows) == len(spec.values) * spec.repetitions
    for row in rows:
        report, _ = cli._execute(validate_config(replace_config_value(base.raw, spec.path, row["value"])), row["seed"])
        sections = report._asdict()
        expected = {key: sections[section][field] for key, (section, field) in _SWEEP_ROW_KEYS.items()
                    if sections[section] and field in sections[section]}
        assert {key: row[key] for key in row.keys() - {"value", "repetition", "seed"}} == expected


def test_a_sweep_over_mappings_exits_0(tmp_path):
    # a mapping is no time quantity: it sorts by its text, and the parse cache never sees it
    config = write_yaml(tmp_path / "cfg.yaml", small_config(link={"extra_delay": {"dist": "none"}}))
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "link.extra_delay", "values": [
        {"dist": "uniform", "low": 0, "high": "2 ms"}, {"dist": "uniform", "low": 0, "high": "1 ms"}]})
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "o")]) == 0
    rows = json.loads((tmp_path / "o" / "sweep.json").read_text())["rows"]
    assert [row["value"]["high"] for row in rows] == ["1 ms", "2 ms"]


def test_the_schedule_cache_keeps_no_schedule_past_its_byte_cap(tmp_path, monkeypatch, fresh_caches):
    # with the cap below some schedules, those are drawn again at each point,
    # which changes no byte of the sweep, and what is kept stays under the cap
    def nbytes(schedule) -> int:
        return sum(column.nbytes for column in schedule if isinstance(column, np.ndarray))

    config = write_yaml(tmp_path / "cfg.yaml", guard_config())
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "duration", "values": ["300 ms", "1200 ms"], "repetitions": 2})

    def sweep(name: str) -> bytes:
        assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "sweep.json").read_bytes()

    full = sweep("full")
    sizes = sorted(nbytes(schedule) for schedule in scenario._SCHEDULES.entries.values())
    assert len(sizes) == 4 and sizes[1] < sizes[2]   # two short-run schedules, two long-run ones
    scenario._SCHEDULES.cache_clear()
    monkeypatch.setattr(scenario, "_SCHEDULE_CACHE_BYTES", sizes[1])
    assert sweep("capped") == full
    kept = [nbytes(schedule) for schedule in scenario._SCHEDULES.entries.values()]
    assert kept == sizes[:2] and sum(kept) <= scenario._SCHEDULE_CACHE_SIZE * sizes[1]


def test_sweep_through_a_list_leaves_the_base_config_alone(tmp_path):
    """A point copies only the containers along the swept path; a path
    through the node list must not write into the loaded base mapping."""
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "nodes[2].clock.skew_ppm", "values": [-7.5, 9.0]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(out)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["config"] == json.loads(json.dumps(load_config(config).raw))
    assert payload["config"]["nodes"][2]["clock"] == {"skew_ppm": 2.0}
    for i, row in enumerate(payload["rows"]):
        raw = small_config()
        raw["nodes"][2]["clock"]["skew_ppm"] = row["value"]
        run_out = tmp_path / f"run{i}"
        assert main(["run", "--config", str(write_yaml(tmp_path / f"point{i}.yaml", raw)),
                     "--out", str(run_out)]) == 0
        metrics = json.loads((run_out / "report.json").read_text())["metrics"]
        assert row["pairwise_max_ticks"] == metrics["pairwise"]["max"], row["value"]


def test_sweep_runs_seed_sequence_once_per_seed_and_label(tmp_path, monkeypatch, fresh_caches):
    """A cell's labels (sib/, loss/, ta/) are derived once per schedule in a
    process, since the swept granularity leaves its schedule as it is; every
    other label once per point. The PCG64 seed words of each (seed, label)
    pair are computed once, and a warm second sweep writes the same bytes as
    the cold first one."""
    constructed, derived = [], []
    seed_sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda *a, **k: constructed.append(a) or seed_sequence(*a, **k))
    derive_stream = scenario.derive_stream
    monkeypatch.setattr(scenario, "derive_stream", lambda seed, label: derived.append((seed, label)) or
                        derive_stream(seed, label))
    raw = small_config(link={"loss_prob": 0.1})
    raw["nodes"][2]["clock"] = {"theta0": {"dist": "uniform", "low": "-1 us", "high": "1 us"}, "stamp_noise": 308}
    config = write_yaml(tmp_path / "cfg.yaml", raw)
    spec = write_yaml(tmp_path / "spec.yaml", {
        "path": "sync_plan.sib.granularity", "values": ["10 ms", "31 ticks"], "repetitions": 2,
    })
    outputs = []
    for name in ("cold", "warm"):
        assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "sweep.json").read_bytes())
    counts = Counter(derived)
    cell = [n for (_, label), n in counts.items() if label.startswith(("sib/", "loss/", "ta/"))]
    assert cell == [1] * 10   # 2 seeds x (sib/bs1, 2 loss/, 2 ta/): once per schedule
    assert sorted(counts.values())[len(cell):] == [4] * 4   # 2 seeds x (init/ue1, delivery_stamp/ue1): once per point
    assert len(constructed) == len(counts)
    assert outputs[0] == outputs[1]


def guard_config() -> dict:
    """A SIB16 cell in which every input of its schedule shows in the metrics."""
    raw = small_config(duration="1200 ms", link={"loss_prob": 0.2}, workload={"targets": ["ue1"]}, sync_plan={
        "resync_period": "20 ms", "ta_timer_ms": 500, "ta_noise_sigma": 2000, "ta_wrong_bin_prob": 0.1,
        "sib": {"granularity": "4 ticks", "si_window": "5 ms", "stamp_mode": "at_transmit"},
    })
    raw["nodes"][1]["clock"] = {"stamp_noise": 31}
    return raw


SCHEDULE_INPUTS = {   # each input of a cell's schedule, and two values that give it different schedules
    "sync_plan.resync_period": ["20 ms", "30 ms"],
    "sync_plan.sib.si_window": ["0 ms", "5 ms"],
    "sync_plan.sib.stamp_mode": ["at_schedule", "at_transmit"],
    "link.loss_prob": [0.1, 0.3],
    "sync_plan.ta_timer_ms": [500, 750],
    "sync_plan.ta_noise_sigma": [0, 5000],
    "sync_plan.ta_wrong_bin_prob": [0, 0.5],
    "nodes[2].position": [[140, 60], [900, 10]],
    "nodes[1].position": [[0, 0], [300, 0]],
    "duration": ["1000 ms", "1200 ms"],
    "nodes[1].clock.stamp_noise": [0, 5000],
    "nodes[3].id": ["ue2", "ue7"],   # a device's id names its loss/ and ta/ streams
    "nodes": [guard_config()["nodes"], [   # and the BS's its sib/ streams
        dict(node, **{key: "bs0" for key in ("id", "attach_to") if node.get(key) == "bs1"})
        for node in guard_config()["nodes"]]],
    "sync_plan.sib.granularity": ["4 ticks", "1 us"],   # not an input: the second value reuses the schedules
}


@pytest.mark.parametrize("path", SCHEDULE_INPUTS)
def test_a_sweep_through_a_schedule_input_equals_separate_runs(path, tmp_path, fresh_caches):
    # the first value's schedules are still cached when the second value runs;
    # a row must equal a run of its point on an empty cache
    raw = guard_config()
    config = write_yaml(tmp_path / "cfg.yaml", raw)
    spec = write_yaml(tmp_path / "spec.yaml", {"path": path, "values": SCHEDULE_INPUTS[path], "repetitions": 2})
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "o")]) == 0
    rows = json.loads((tmp_path / "o" / "sweep.json").read_text())["rows"]
    for row in rows:
        scenario._SCHEDULES.cache_clear()
        report, _ = cli._execute(validate_config(replace_config_value(raw, path, row["value"])), row["seed"])
        separate = {"value": row["value"], "repetition": row["repetition"], "seed": row["seed"],
                    **cli._metric_summary(report.device_error, report.pairwise, report.jitter, report.fault)}
        assert row == json.loads(json.dumps(separate))
    metrics = [{k: v for k, v in row.items() if k != "value"} for row in rows]
    assert metrics[:2] != metrics[2:]   # the two values differ, so a stale schedule would show


def bs_side_config() -> dict:
    """Two SIB16 cells whose BSs RIBS-align by listen_ta: every input of the
    BS side shows in the metrics. bs2 is 600 m from bs1 and stamps its round-0
    broadcast at 0, before the first RIBS round lands, so its phase shows."""
    raw = small_config(duration="500 ms", sampling_grid="1 ms", workload={"targets": ["ue1"]}, sync_plan={
        "resync_period": "20 ms", "ta_timer_ms": 500, "ta_noise_sigma": 2000, "ta_wrong_bin_prob": 0.1,
        "sib": {"granularity": "4 ticks", "si_window": "0 ms"},
        "bs_alignment": {"mode": "ribs", "ribs_mode": "listen_ta", "realign_period": "100 ms"},
    })
    raw["nodes"][1]["clock"] = {"stamp_noise": 31, "skew_ppm": 0.02}
    raw["nodes"].insert(2, {"id": "bs2", "role": "base_station", "position": [600, 0], "clock": {
        "theta0": "0.1 us", "skew_ppm": 0.05, "drift_per_s": 0, "stamp_noise": 31}})
    raw["nodes"][4].update(attach_to="bs2", position=[650, 40])   # ue2
    return raw


def _renamed(raw: dict, old: str, new: str) -> list:
    return [dict(node, **{key: new for key in ("id", "attach_to") if node.get(key) == old}) for node in raw["nodes"]]


BS_SIDE_INPUTS = {   # each input of the BS side: (path, values that give different BS sides)
    "theta0": ("nodes[2].clock.theta0", ["0.1 us", "40 us"]),
    "skew_ppm": ("nodes[2].clock.skew_ppm", [0.05, 20]),
    "drift_per_s": ("nodes[2].clock.drift_per_s", [0, 1e-4]),
    "stamp_noise": ("nodes[1].clock.stamp_noise", [31, 5000]),
    "position": ("nodes[2].position", [[600, 0], [1500, 0]]),
    "id": ("nodes", [bs_side_config()["nodes"], _renamed(bs_side_config(), "bs2", "bs7")]),   # names ribs/ streams
    "mode": ("sync_plan.bs_alignment", [{"mode": "perfect", "realign_period": "100 ms"},
                                        bs_side_config()["sync_plan"]["bs_alignment"]]),
    "error": ("sync_plan.bs_alignment", [{"mode": "fixed_error", "error": "0.5 us"},
                                         {"mode": "fixed_error", "error": "2 us"}]),
    "ribs_mode": ("sync_plan.bs_alignment.ribs_mode", ["listen_only", "listen_ta", "two_way"]),
    "realign_period": ("sync_plan.bs_alignment.realign_period", ["100 ms", "150 ms"]),
    "duration": ("duration", ["400 ms", "500 ms"]),
    "ta_noise_sigma": ("sync_plan.ta_noise_sigma", [0, 2000]),
    "ta_wrong_bin_prob": ("sync_plan.ta_wrong_bin_prob", [0, 0.5]),
}
BS_SIDE_NON_INPUTS = {   # not inputs: a later value's points reuse the first value's BS sides
    "granularity": ("sync_plan.sib.granularity", ["4 ticks", "1 us"]),
    "device-clock": ("nodes[3].clock", [{"skew_ppm": 2.0}, {"skew_ppm": -3.0, "theta0": "1 us"}]),
}


def _clear_run_caches() -> None:
    for cache in (scenario._SCHEDULES, scenario._BS_SIDES, scenario._BS_STAMPS):
        cache.cache_clear()


@pytest.mark.parametrize("case", [*BS_SIDE_INPUTS, *BS_SIDE_NON_INPUTS])
def test_a_sweep_through_a_bs_side_input_equals_separate_runs(case, tmp_path, monkeypatch, fresh_caches):
    # a row must equal a run of its point on emptied caches; an input's values
    # step the BSs as often as separate sweeps of each value, and a non-input's
    # later value steps them no more than the first value alone
    path, values = {**BS_SIDE_INPUTS, **BS_SIDE_NON_INPUTS}[case]
    raw = bs_side_config()
    config = write_yaml(tmp_path / "cfg.yaml", raw)
    steps = []
    step_base_stations = scenario._Runner.step_base_stations
    monkeypatch.setattr(scenario._Runner, "step_base_stations", lambda self: steps.append(self) or
                        step_base_stations(self))

    def sweep(name: str, swept: list) -> list:
        _clear_run_caches()
        steps.clear()
        spec = write_yaml(tmp_path / f"{name}.yaml", {"path": path, "values": swept, "repetitions": 2})
        assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / name / "sweep.json").read_text())["rows"]

    rows = sweep("all", values)
    stepped = len(steps)
    alone = [(sweep(f"value{i}", [value]), len(steps))[1] for i, value in enumerate(values)]
    assert stepped == (sum(alone) if case in BS_SIDE_INPUTS else alone[0])
    for row in rows:
        _clear_run_caches()
        report, _ = cli._execute(validate_config(replace_config_value(raw, path, row["value"])), row["seed"])
        separate = {"value": row["value"], "repetition": row["repetition"], "seed": row["seed"],
                    **cli._metric_summary(report.device_error, report.pairwise, report.jitter, report.fault)}
        assert row == json.loads(json.dumps(separate))
    metrics = [json.dumps({k: v for k, v in row.items() if k != "value"}) for row in rows]
    assert len(set(metrics[::2])) == len(values)   # the values differ, so a stale BS side would show


def test_sweep_empty_values_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "seed", "values": []})
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "sweep.values" in capsys.readouterr().err


def test_sweep_over_the_seed_exits_2(tmp_path, capsys):
    # each point runs the --seed or repetition seed, so swept seeds would write identical rows
    config = write_yaml(tmp_path / "cfg.yaml", small_config())
    spec = write_yaml(tmp_path / "spec.yaml", {"path": "seed", "values": [1, 2, 3]})
    assert main(["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "sweep.path: the seed cannot be swept" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    out = capsys.readouterr().out
    # every preset's fields, in the bytes the command has always printed
    assert hashlib.sha256(out.encode()).hexdigest() == "4406f87b4b2a1d88f4e163f4a7115884c64c6a5538a8bf444e999ba6b8a1fa8b"
    payload = json.loads(out)
    presets = {p["name"]: p for p in payload["presets"]}
    assert len(presets) == 6
    assert presets["tsn-factory"]["device_sync_bound"] == TICKS_PER_US
    assert presets["tsn-factory"]["jitter_bound"] == TICKS_PER_US
    assert presets["grid-fault-protection"]["device_sync_bound"] == 20 * TICKS_PER_US


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
