"""Config parsing: exact tick units, strict keys, path diagnostics, sweeps."""

import ast
import copy
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from airsync import cli, errors, timebase
from airsync.config import (
    _YAML_LOADER,
    TA_TIMER_PERIODS_MS,
    BsAlignmentMode,
    Enabler,
    get_config_value,
    parse_sweep_spec,
    replace_config_value,
    set_config_value,
    validate_config,
)
from airsync.errors import InvalidConfigError
from airsync.metrics import build_report
from airsync.protocols import (
    ExchangeRecord, RibsMode, StampMode, compute_ta_initial, twoway_offset,
)
from airsync.scenario import BaseStationSide, _Runner, build_scenario, cell_schedule, run_scenario
from airsync.timebase import MAX_TICKS, TICKS_PER_MS, TICKS_PER_SECOND, TICKS_PER_US, parse_ticks
from stepwise import OneAtATime, steps_of

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MS = TICKS_PER_MS


def minimal(**overrides):
    raw = {
        "schema_version": 1,
        "duration": "1 s",
        "nodes": [
            {"id": "ref", "role": "reference"},
            {"id": "bs", "role": "base_station", "position": [0, 0]},
            {"id": "ue", "role": "ue", "attach_to": "bs", "position": [100, 0]},
        ],
    }
    raw.update(overrides)
    return raw


# --- unit parsing -----------------------------------------------------------


def test_parse_ticks_units_exact():
    assert parse_ticks("80 ms") == 80 * TICKS_PER_MS
    assert parse_ticks("0.5 us") == TICKS_PER_US // 2
    assert parse_ticks("1 s") == 30_720_000_000
    assert parse_ticks("31 ticks") == 31
    assert parse_ticks("80ms") == 80 * TICKS_PER_MS
    assert parse_ticks(12345) == 12345


def test_parse_ticks_rejects_off_grid_values():
    # 1 ns = 30.72 ticks: not representable, must be rejected, not rounded
    with pytest.raises(ValueError):
        parse_ticks("1 ns")
    with pytest.raises(ValueError):
        parse_ticks("0.33 us")
    assert parse_ticks("125 ns") == 3840  # exact multiples of 1/30.72 GHz pass


def test_parse_ticks_rejects_garbage():
    for bad in ["", "fast", "10 parsecs", "ms", True, 1.5]:
        with pytest.raises(ValueError):
            parse_ticks(bad)


def test_parse_ticks_keeps_a_strings_ticks_and_nothing_else(fresh_caches):
    # the cache is keyed on the text alone: a value it cannot hash is still a
    # ValueError, the sign and range checks still run on a kept string, and a
    # rejected string is rejected again
    for unhashable in ({"dist": "none"}, ["1 ms"]):
        with pytest.raises(ValueError, match="expected a time quantity"):
            parse_ticks(unhashable)
    with pytest.raises(ValueError, match="boolean"):
        parse_ticks(True)
    assert parse_ticks("-5 ms", allow_negative=True) == parse_ticks("-5 ms", allow_negative=True) == -5 * TICKS_PER_MS
    with pytest.raises(ValueError):
        parse_ticks("-5 ms")
    for _ in range(2):
        with pytest.raises(ValueError, match="not an integer number of ticks"):
            parse_ticks("1 ns")
    info = timebase._parse_text.cache_info()
    assert (info.hits, info.currsize) == (2, 1)


def test_negative_times_only_where_allowed():
    with pytest.raises(ValueError):
        parse_ticks("-5 ms")
    assert parse_ticks("-5 ms", allow_negative=True) == -5 * TICKS_PER_MS


# --- schema validation ---------------------------------------------------------


def test_minimal_config_valid():
    cfg = validate_config(minimal())
    assert cfg.duration == 30_720_000_000
    assert cfg.sampling_grid == TICKS_PER_MS  # default 1 ms
    assert cfg.seed == 0


def test_unknown_top_level_key_rejected_with_path():
    with pytest.raises(InvalidConfigError) as info:
        validate_config(minimal(duraton="1 s"))
    assert "duraton" in str(info.value)


def test_unknown_nested_key_rejected_with_path():
    raw = minimal(sync_plan={"sib": {"granularityy": "1 us"}})
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert "sync_plan.sib.granularityy" in str(info.value)


def test_schema_version_required():
    raw = minimal()
    del raw["schema_version"]
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert "schema_version" in str(info.value)


def test_bad_role_names_path():
    raw = minimal()
    raw["nodes"][2]["role"] = "drone"
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert "nodes[2].role" in str(info.value)


def test_off_grid_duration_names_field():
    # off the tick grid, beyond the 64-bit tick range, too long to leave clock
    # phases room in it, or a sampling grid longer than the run
    for key, value in [("duration", "1 ns"), ("duration", "1e12 s"), ("duration", f"{2**62} ticks"),
                       ("sampling_grid", "2 s")]:
        with pytest.raises(InvalidConfigError) as info:
            validate_config(minimal(**{key: value}))
        assert info.value.path == key


def test_skew_bound_enforced():
    raw = minimal()
    raw["nodes"][2]["clock"] = {"skew_ppm": 1500}
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert "skew" in str(info.value)


def test_ta_timer_values():
    for period_ms in (500, 750, 1280, 1920, 2560, 5120, 10240):
        cfg = validate_config(minimal(sync_plan={"ta_timer_ms": period_ms}))
        assert cfg.sync_plan.ta_timer_period == period_ms * MS


def test_ta_timer_must_be_standard_value():
    # a float would put the timer's expiries off the integer tick timeline
    for value in (1000, 500.0, True, "500"):
        with pytest.raises(InvalidConfigError) as info:
            validate_config(minimal(sync_plan={"ta_timer_ms": value}))
        assert info.value.path == "sync_plan.ta_timer_ms"


def test_sib_config_validation():
    for sib, path in [({"si_window": "81 ms", "periodicity": "80 ms"}, "sync_plan.sib.si_window"),
                      ({"granularity": -1}, "sync_plan.sib.granularity")]:
        with pytest.raises(InvalidConfigError) as info:
            validate_config(minimal(sync_plan={"sib": sib}))
        assert info.value.path == path


def test_unknown_preset_rejected():
    with pytest.raises(InvalidConfigError) as info:
        validate_config(minimal(presets=["warp-drive"]))
    assert "presets[0]" in str(info.value)


def test_clock_defaults_applied_by_role():
    raw = minimal(clock_defaults={"ue": {"skew_ppm": 3.0}})
    cfg = validate_config(raw)
    assert cfg.nodes["ue"].clock.skew_y.value == pytest.approx(3e-6)


@pytest.mark.parametrize("edit, path", [
    (lambda raw: raw["nodes"][0].update(clock={"theta0": "5 ms", "skew_ppm": 50, "stamp_noise": 1000}),
     "nodes[0].clock"),
    (lambda raw: raw["nodes"][0].update(position=[0, 0]), "nodes[0].position"),
    (lambda raw: raw.update(clock_defaults={"reference": {"skew_ppm": 50}}), "clock_defaults.reference"),
], ids=["clock", "position", "clock-defaults"])
def test_reference_takes_no_clock_or_position(edit, path):
    # the reference is true time: none of these would change any result
    raw = minimal()
    edit(raw)
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert info.value.path == path


@pytest.mark.parametrize("theta0", [
    "9007199254740993 ticks",
    {"dist": "uniform", "low": "9007199254740993 ticks", "high": "9007199254740993 ticks"},
], ids=["fixed", "uniform"])
def test_phase_offset_beyond_max_ticks_rejected(theta0):
    # 2**53 + 1 ticks: one past the bound on every tick quantity a reading sums
    raw = minimal()
    raw["nodes"][2]["clock"] = {"theta0": theta0}
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert info.value.path == "nodes[2].clock.theta0"


def test_resolved_raw_contains_defaults():
    cfg = validate_config(minimal())
    assert cfg.raw["sampling_grid"] == "1 ms"
    assert cfg.raw["seed"] == 0


PROBE = {"line_length_m": 600, "fault_position_m": 300}


def test_every_default_resolved():
    raw = minimal(workload={"targets": ["ue"]}, fault_probe=PROBE)
    raw["nodes"] += [{"id": "pa", "role": "pmu"}, {"id": "pb", "role": "pmu"}]
    cfg = validate_config(raw)
    plan = cfg.sync_plan
    assert (plan.enabler.value, plan.resync_period, plan.ta_timer_period) == ("ta_sib16", 80 * MS, 10240 * MS)
    assert (plan.ta_noise_sigma, plan.ta_wrong_bin_prob, plan.gw_relay_sigma, plan.turnaround) == (0, 0, 0, MS)
    assert plan.sib._asdict() == {
        "granularity": 10 * MS, "periodicity": 80 * MS, "si_window": 40 * MS, "stamp_mode": StampMode.AT_TRANSMIT,
    }
    align = plan.bs_alignment
    assert (align.mode.value, align.error, align.ribs_mode, align.realign_period) == ("perfect", 0, None, None)
    assert {**cfg.link._asdict(), "extra_delay": cfg.link.extra_delay._asdict()} == {
        "extra_delay": {"kind": "none", "low": 0, "high": 0, "mean": 0, "sigma": 0}, "loss_prob": 0,
    }
    workload = cfg.workload
    assert (workload.targets, workload.command_period, workload.grid_phase, workload.phase_mode) == (
        ("ue",), MS, 0, "median")
    assert cfg.fault_probe.wave_speed_mps == 3.0e8


@pytest.mark.parametrize("edit, path, message", [
    pytest.param(lambda raw: raw["nodes"].append({"id": "ue", "role": "ue", "attach_to": "bs", "position": [1, 0]}),
                 "nodes[3].id", "duplicate node id 'ue'", id="duplicate-id"),
    pytest.param(lambda raw: raw["nodes"].append({"id": "ref2", "role": "reference"}),
                 "nodes", "exactly one reference node required, found 2", id="two-references"),
    pytest.param(lambda raw: raw["nodes"][0].update(role="pmu"),
                 "nodes", "exactly one reference node required, found 0", id="no-reference"),
    pytest.param(lambda raw: raw["nodes"][2].pop("attach_to"),
                 "nodes[2].attach_to", "ue 'ue' must attach to a base station", id="ue-unattached"),
    pytest.param(lambda raw: raw["nodes"].append({"id": "ld", "role": "legacy_device"}),
                 "nodes[3].attach_to", "legacy device 'ld' must attach to a gateway", id="legacy-unattached"),
    pytest.param(lambda raw: raw["nodes"][1].update(attach_to="ref"),
                 "nodes[1].attach_to", "base_station nodes do not attach", id="bs-attaches"),
    pytest.param(lambda raw: raw["nodes"][2].update(attach_to="bs9"),
                 "nodes[2].attach_to", "unknown node 'bs9'", id="unknown-parent"),
    pytest.param(lambda raw: raw["nodes"][2].update(attach_to="ref"),
                 "nodes[2].attach_to", "ue must attach to a base_station, 'ref' is a reference",
                 id="ue-under-reference"),
    pytest.param(lambda raw: raw["nodes"].append({"id": "ld", "role": "legacy_device", "attach_to": "bs"}),
                 "nodes[3].attach_to", "legacy_device must attach to a gateway, 'bs' is a base_station",
                 id="legacy-under-bs"),
    pytest.param(lambda raw: raw["nodes"][1].pop("position"),
                 "nodes[1].position", "base_station 'bs' needs a position", id="bs-position"),
    pytest.param(lambda raw: raw["nodes"].append({"id": "pmu", "role": "pmu", "attach_to": "bs"}),
                 "nodes[3].position", "pmu 'pmu' needs a position", id="attached-pmu-position"),
    pytest.param(lambda raw: raw.update(workload={"targets": ["ue", "bs"]}),
                 "workload.targets", "'bs' is not a device node", id="target-not-device"),
    pytest.param(lambda raw: raw.update(workload={"targets": ["ghost"]}),
                 "workload.targets", "'ghost' is not a device node", id="target-unknown"),
    pytest.param(lambda raw: raw.update(fault_probe=PROBE),
                 "fault_probe", "need exactly two PMU nodes, found 0", id="probe-pmu-count"),
    pytest.param(lambda raw: raw.update(fault_probe={**PROBE, "pmu": ["ue", "ref"]}),
                 "fault_probe.pmu", "'ue' is not a PMU node", id="probe-pmu-role"),
])
def test_graph_rules_rejected_at_validation(edit, path, message):
    raw = minimal()
    edit(raw)
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert (info.value.path, info.value.message) == (path, message)


@pytest.mark.parametrize("section, field, path", [
    pytest.param({"sync_plan": {"bs_alignment": {"mode": "ribs", "error": "1 us"}}}, None,
                 "sync_plan.bs_alignment.error", id="error-without-fixed-error"),
    pytest.param({"sync_plan": {"bs_alignment": {"mode": "fixed_error", "ribs_mode": "two_way"}}}, None,
                 "sync_plan.bs_alignment.ribs_mode", id="ribs-mode-without-ribs"),
    pytest.param({"sync_plan": {"enabler": "dedicated_two_way", "sib": {"granularity": "1 us"}}}, None,
                 "sync_plan.sib", id="sib-under-dedicated-two-way"),
    pytest.param({"sync_plan": {"enabler": "ribs_ue", "sib": {}}}, None,
                 "sync_plan.sib", id="sib-under-ribs-ue"),
    pytest.param({"link": {"extra_delay": {"dist": "normal", "low": 0}}}, None,
                 "link.extra_delay.low", id="low-without-uniform"),
    pytest.param({"link": {"extra_delay": {"dist": "none", "high": "1 ms"}}}, None,
                 "link.extra_delay.high", id="high-without-uniform"),
    pytest.param({"link": {"extra_delay": {"dist": "uniform", "high": "1 ms", "mean": 5}}}, None,
                 "link.extra_delay.mean", id="mean-without-normal"),
    pytest.param({"link": {"extra_delay": {"sigma": 5}}}, None,
                 "link.extra_delay.sigma", id="sigma-without-normal"),
    pytest.param({}, {"skew_ppm": {"dist": "uniform", "low": -1, "high": 1, "mean": 0}},
                 "nodes[2].clock.skew_ppm.mean", id="clock-range-mean"),
    pytest.param({}, {"theta0": {"dist": "uniform", "low": 0, "high": 9, "sigma": 1}},
                 "nodes[2].clock.theta0.sigma", id="clock-range-sigma"),
])
def test_fields_the_mode_ignores_rejected(section, field, path):
    raw = minimal(**section)
    if field is not None:
        raw["nodes"][2]["clock"] = field
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert info.value.path == path


def test_fault_probe_pmus_resolved_once():
    raw = minimal(fault_probe=PROBE)
    raw["nodes"] += [{"id": "pa", "role": "pmu"}, {"id": "pb", "role": "pmu"}]
    assert validate_config(raw).fault_probe.pmu_ids == ("pa", "pb")


def _with_probe_and_clock() -> dict:
    raw = minimal(fault_probe=dict(PROBE), sync_plan={})
    raw["nodes"] += [{"id": "pa", "role": "pmu"}, {"id": "pb", "role": "pmu"}]
    raw["nodes"][2]["clock"] = {}
    return raw


@pytest.mark.parametrize("path, value", [
    ("nodes[2].clock.stamp_noise", float("inf")),
    ("nodes[2].clock.drift_per_s", float("-inf")),
    ("nodes[2].clock.skew_ppm", float("nan")),
    ("nodes[2].position[0]", float("inf")),
    ("sync_plan.ta_noise_sigma", float("nan")),
    ("fault_probe.wave_speed_mps", float("nan")),
    ("fault_probe.line_length_m", "inf"),
    pytest.param("sync_plan.gw_relay_sigma", 10**400, id="sync_plan.gw_relay_sigma-huge-int"),
])
def test_non_finite_numbers_rejected(path, value):
    raw = _with_probe_and_clock()
    set_config_value(raw, path, value)
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert info.value.path == path


# the model takes these values as given: ClockParams, fault_wave_stamps,
# measure_rtt and the fault metrics no longer check them
@pytest.mark.parametrize("path, value, rejected_at", [
    ("nodes[2].clock.skew_ppm", -1000, "nodes[2].clock.skew_ppm"),
    ("nodes[2].clock.stamp_noise", -1, "nodes[2].clock.stamp_noise"),
    ("fault_probe.fault_position_m", 700, "fault_probe"),
    ("fault_probe.fault_position_m", -1, "fault_probe"),
    ("fault_probe.line_length_m", 0, "fault_probe"),
    ("fault_probe.wave_speed_mps", -1.0, "fault_probe"),
    ("fault_probe.sync_error_bound", "-1 us", "fault_probe.sync_error_bound"),
    ("sync_plan.ta_wrong_bin_prob", 1.5, "sync_plan.ta_wrong_bin_prob"),
])
def test_values_the_model_takes_as_given_rejected(path, value, rejected_at):
    raw = _with_probe_and_clock()
    set_config_value(raw, path, value)
    with pytest.raises(InvalidConfigError) as info:
        validate_config(raw)
    assert info.value.path == rejected_at


@pytest.mark.parametrize("module, not_loaded", [
    ("airsync.metrics", ("airsync.scenario", "airsync.config")),
    ("airsync.config", ("airsync.scenario",)),
    ("airsync.cli", ("numpy.random",)),
    ("airsync.cli", ("dataclasses",)),
], ids=["metrics", "config", "cli-numpy-random", "cli-dataclasses"])
def test_layering(module, not_loaded):
    """metrics <- config <- scenario: importing a lower layer loads no higher one.
    Nor does importing the CLI load numpy.random, which adds to every
    invocation's peak memory: the first stream derivation loads it. Nor
    dataclasses: a dataclass generates and compiles its methods at import,
    which every invocation would pay again."""
    code = f"import sys, {module}; print([m for m in {not_loaded!r} if m in sys.modules])"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


_SRC = Path(__file__).resolve().parent.parent / "src" / "airsync"
RECORD_TYPES = sorted(   # every NamedTuple under src/airsync/ but a private base
    (t for path in _SRC.glob("[!_]*.py") for module in [importlib.import_module(f"airsync.{path.stem}")]
     for t in vars(module).values() if isinstance(t, type) and issubclass(t, tuple)
     and t.__module__ == module.__name__ and not t.__name__.startswith("_")),
    key=lambda t: t.__name__)


@pytest.fixture(scope="module")
def one_record_of_each_type() -> dict:
    """One instance of every record type, by name, mostly from one run that
    makes them all."""
    raw = minimal(workload={"targets": ["ue"]}, fault_probe=PROBE, presets=["tsn-factory"])
    raw["nodes"] += [{"id": "pa", "role": "pmu"}, {"id": "pb", "role": "pmu"}]
    cfg = validate_config(raw)
    scenario = build_scenario(cfg)
    trace = run_scenario(scenario, cfg.duration)
    report = build_report(trace, cfg.workload, cfg.presets, cfg.fault_probe)
    node, plan = cfg.nodes["ue"], cfg.sync_plan
    exchange = ExchangeRecord(0, 10, 10 + MS, 20 + MS)
    records = [
        cfg, node, node.clock, node.clock.theta0, cfg.link, cfg.link.extra_delay, plan, plan.sib, plan.bs_alignment,
        cfg.workload, cfg.fault_probe, parse_sweep_spec({"path": "seed", "values": [1]}), cfg.presets[0],
        scenario, scenario.clocks["ue"], trace, trace.delivered, trace.stepped[0], trace.stepped[0].trajectory,
        trace.corrections[0], trace.fault, report, report.verdicts[0],
        compute_ta_initial(100), exchange, twoway_offset(exchange),
        cell_schedule(0, "bs", ("ue",), (0,), cfg.duration, plan.resync_period, plan.sib.si_window, plan.sib.stamp_mode,
                      0, 0, plan.ta_timer_period, 0, 0),
        BaseStationSide((trace.stepped[0].trajectory,), 0),
    ]
    return {type(record).__name__: record for record in records}


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_records_are_immutable(record_type, one_record_of_each_type):
    record = one_record_of_each_type[record_type.__name__]
    for name in record_type._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        assert getattr(record, name) is before


def test_every_error_type_is_raised():
    """An error type is raised somewhere under src/airsync/, or is the base of
    one that is (AirsyncError, which the CLI catches): none is dead."""
    src = Path(__file__).resolve().parent.parent / "src" / "airsync"
    raised = set()
    for module in src.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    types = [t for t in vars(errors).values() if isinstance(t, type) and t.__module__ == errors.__name__]
    live = {t.__name__ for t in types if t.__name__ in raised}
    live |= {base.__name__ for t in types if t.__name__ in live for base in t.__mro__[1:]}
    assert {t.__name__ for t in types} - live == set()


def _object_builders(tree: ast.AST) -> list[str]:
    """The function enclosing each call in ``tree`` that builds Python
    objects: np.frompyfunc(int, ...), or ``object`` among its arguments (a
    dtype=object, or an object field of a dtype list)."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    builders = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
        converts = getattr(node.func, "attr", None) == "frompyfunc" and getattr(node.args[0], "id", None) == "int"
        if converts or any(getattr(name, "id", None) == "object" for arg in arguments for name in ast.walk(arg)):
            scope = node
            while scope in parent and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parent[scope]
            builders.append(getattr(scope, "name", "<module>"))
    return builders


def test_no_module_imports_a_private_name_or_builds_ticks_as_objects():
    """No module under src/airsync/ imports a private (_-prefixed) name from
    another airsync module: each keeps its own rules. And ticks stay int64:
    no module builds Python objects in an array, but for the id column of
    RawTrace.samples."""
    src = Path(__file__).resolve().parent.parent / "src" / "airsync"
    private, builders = [], []
    for module in sorted(src.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        private += [f"{module.name}: {alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level   # relative: from another airsync module
                    for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")]
        builders += [f"{module.name}: {name}" for name in _object_builders(tree)]
    assert private == []
    assert set(builders) == {"scenario.py: samples"}
    assert _object_builders(ast.parse("def f(x):\n    return np.frompyfunc(int, 1, 1)(x).astype(object)")) == ["f", "f"]


def _stream_labels(tree: ast.AST) -> list[str]:
    """The label of each derive_stream call in ``tree``: an f-string's text
    with each replacement field written as {}, any other expression as its
    source."""
    labels = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "derive_stream":
            label = node.args[1]
            labels.append("".join(part.value if isinstance(part, ast.Constant) else "{}" for part in label.values)
                          if isinstance(label, ast.JoinedStr) else ast.unparse(label))
    return labels


NODE_LABEL = re.compile(r"[a-z_]+/\{\}")   # "{kind}/{node}"


def test_every_stream_label_names_a_kind_and_a_node():
    """A stream is derived per (kind, node), never per round or index: one
    stream per node draws each distribution in bulk."""
    src = Path(__file__).resolve().parent.parent / "src" / "airsync"
    labels = [label for module in sorted(src.glob("*.py"))
              for label in _stream_labels(ast.parse(module.read_text(encoding="utf-8")))]
    assert len(labels) >= 10
    assert [label for label in labels if not NODE_LABEL.fullmatch(label)] == []
    for per_round in ('derive_stream(seed, f"sib/{bs}/{round_no}")', 'derive_stream(seed, f"ribs/{bs}" + str(k))',
                      'engine.derive_stream(seed, "sib/bs1/0")'):
        assert not NODE_LABEL.fullmatch(_stream_labels(ast.parse(per_round))[0]), per_round


# --- every config that validates runs ----------------------------------------------

BUNDLED = {path.name: yaml.safe_load(path.read_text(encoding="utf-8"))
           for path in sorted(CONFIG_DIR.glob("*.yaml"))}


def _ticks(low: int = 0):
    """Tick counts in [low, 2**64 - 1], the model's, int64 and uint64 edges drawn often."""
    return (st.sampled_from([low, MAX_TICKS, MAX_TICKS + 1, 2**62, 2**63 - 1, 2**63, 2**64 - 1])
            | st.integers(low, 2**64 - 1))


TICKS = _ticks()
SIGNED_TICKS = st.tuples(TICKS, st.booleans()).map(lambda drawn: -drawn[0] if drawn[1] else drawn[0])
PERIODS = _ticks(MS)   # a 1-tick resync_period alone would enumerate ~10**10 rounds
HUGE = st.sampled_from([0.0, 1e300, -1e300, sys.float_info.max, -sys.float_info.max]) | st.floats(-1e300, 1e300)
SIGMAS = st.sampled_from([0.0, 1e300, sys.float_info.max]) | st.floats(0, 1e300) | TICKS.map(lambda n: f"{n} ticks")
PROBABILITIES = st.sampled_from([0, 0.5, 1])


def _uniform(bounds):
    return st.tuples(bounds, bounds).map(lambda b: {"dist": "uniform", "low": min(b), "high": max(b)})


def _alignment(mode: BsAlignmentMode, **fields):
    return st.fixed_dictionaries({"mode": st.just(mode.value), **fields}, optional={"realign_period": PERIODS})


FIELDS = {
    "sampling_grid": PERIODS,
    "seed": st.integers(-(2**64), 2**64),
    "sync_plan.enabler": st.sampled_from([e.value for e in Enabler]),
    "sync_plan.resync_period": PERIODS,
    "sync_plan.ta_timer_ms": st.sampled_from(TA_TIMER_PERIODS_MS),
    "sync_plan.ta_noise_sigma": SIGMAS,
    "sync_plan.ta_wrong_bin_prob": PROBABILITIES,
    "sync_plan.gw_relay_sigma": SIGMAS,
    # si_window <= periodicity: a drawn window meets its own bound, not the periodicity rule
    "sync_plan.sib": st.builds(
        lambda granularity, edges, mode: {"granularity": granularity, "si_window": min(edges),
                                          "periodicity": max(edges), "stamp_mode": mode},
        TICKS, st.tuples(TICKS, TICKS), st.sampled_from([m.value for m in StampMode])),
    "sync_plan.bs_alignment": (_alignment(BsAlignmentMode.PERFECT)
                               | _alignment(BsAlignmentMode.FIXED_ERROR, error=SIGNED_TICKS)
                               | _alignment(BsAlignmentMode.RIBS, ribs_mode=st.sampled_from([m.value for m in RibsMode]))),
    "link.loss_prob": PROBABILITIES,
    "link.extra_delay": (st.just({"dist": "none"}) | _uniform(TICKS)
                         | st.fixed_dictionaries({"dist": st.just("normal"), "mean": SIGMAS, "sigma": SIGMAS})),
    "workload.command_period": PERIODS,
    "workload.grid_phase": TICKS,
    "workload.phase_mode": st.sampled_from(["median", "fixed"]),
    "fault_probe.line_length_m": HUGE,
    "fault_probe.fault_position_m": HUGE,
    "fault_probe.wave_speed_mps": HUGE,
    "fault_probe.at": TICKS,
    "fault_probe.sync_error_bound": TICKS,
}
CLOCKS = st.fixed_dictionaries({}, optional={
    "theta0": SIGNED_TICKS | _uniform(SIGNED_TICKS),
    "skew_ppm": st.floats(-999.9, 999.9) | HUGE | _uniform(st.floats(-999.9, 999.9)),
    "drift_per_s": HUGE | _uniform(HUGE),
    "stamp_noise": SIGMAS,
})
NODE_FIELDS = st.fixed_dictionaries({}, optional={"position": st.lists(HUGE, min_size=2, max_size=2), "clock": CLOCKS})


def _put(raw: dict, path: str, value) -> None:
    """Set a dotted path in ``raw``, making each missing mapping on the way."""
    *parents, last = path.split(".")
    for key in parents:
        raw = raw.setdefault(key, {})
    raw[last] = value


@st.composite
def mutated_bundled_configs(draw) -> dict:
    """A bundled config, cut to at most 300 ms, with extreme values in a few fields and nodes."""
    raw = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    raw["duration"] = draw(st.integers(MS, 300 * MS))
    fields = [path for path in FIELDS if not path.startswith("fault_probe.") or "fault_probe" in raw]
    for path in draw(st.lists(st.sampled_from(fields), max_size=6, unique=True)):
        if path.startswith("workload.") and "workload" not in raw:
            raw["workload"] = {"targets": [next(node["id"] for node in raw["nodes"] if "attach_to" in node)]}
        _put(raw, path, draw(FIELDS[path]))
    nodes = raw["nodes"]   # nodes[0] is the reference in every bundled config
    for i in draw(st.lists(st.integers(1, len(nodes) - 1), max_size=3)):
        nodes[i].update(draw(NODE_FIELDS))
    plan = raw.setdefault("sync_plan", {})
    if plan.get("enabler", Enabler.TA_SIB16.value) != Enabler.TA_SIB16.value:
        plan.pop("sib", None)   # only ta_sib16 takes one
    return raw


@settings(max_examples=300, deadline=None)
@given(mutated_bundled_configs())
def test_every_config_that_validates_runs_to_the_end(raw):
    """validate_config is the only gate: a config it accepts runs, reports and
    writes its trace, with no exception at all."""
    try:
        config = validate_config(raw)
    except InvalidConfigError:
        return
    _report, trace = cli._execute(config, config.seed)
    for _chunk in cli._trace_json(trace):
        pass


# --- the model range: MAX_TICKS ----------------------------------------------------

_DRIFT_AT_MAX_TICKS = 2 * MAX_TICKS * TICKS_PER_SECOND / MAX_TICKS**2   # validate_config's limit at T = MAX_TICKS


def at_max_ticks(enabler: str, alignment: dict) -> dict:
    """A config with MAX_TICKS, or -MAX_TICKS, in every field validate_config
    bounds by it: the duration, each phase (fixed, both ends of a range, a
    role's default), the BS error, the granularity, the stamp and relay
    noise, and a fault wave that reaches its farther PMU at MAX_TICKS. The
    skew and the drift sit at their limits too."""
    edge = {"theta0": f"{MAX_TICKS} ticks", "skew_ppm": 999.9, "drift_per_s": _DRIFT_AT_MAX_TICKS,
            "stamp_noise": f"{MAX_TICKS} ticks"}
    negative = dict(edge, theta0=f"-{MAX_TICKS} ticks", skew_ppm=-999.9, drift_per_s=-_DRIFT_AT_MAX_TICKS)
    nodes = [
        {"id": "ref", "role": "reference"},
        {"id": "bs1", "role": "base_station", "position": [0, 0], "clock": dict(edge)},
        {"id": "bs2", "role": "base_station", "position": [900, 0], "clock": negative},
        {"id": "ue1", "role": "ue", "attach_to": "bs1", "position": [150, 0],
         "clock": dict(edge, theta0={"dist": "uniform", "low": f"-{MAX_TICKS} ticks", "high": f"{MAX_TICKS} ticks"})},
        {"id": "gw1", "role": "gateway", "attach_to": "bs2", "position": [1000, 30], "clock": dict(negative)},
        {"id": "ld1", "role": "legacy_device", "attach_to": "gw1"},   # on the legacy defaults
        {"id": "pa", "role": "pmu", "attach_to": "bs1", "position": [0, 50], "clock": dict(negative)},
        {"id": "pb", "role": "pmu", "attach_to": "bs2", "position": [900, 50], "clock": dict(edge)},
    ]
    plan = {"enabler": enabler, "resync_period": f"{MAX_TICKS // 5} ticks", "gw_relay_sigma": f"{MAX_TICKS} ticks",
            "bs_alignment": dict(alignment)}
    if enabler == Enabler.TA_SIB16.value:
        plan["sib"] = {"granularity": f"{MAX_TICKS} ticks", "periodicity": f"{MAX_TICKS // 5} ticks",
                       "si_window": f"{MAX_TICKS // 7} ticks"}
    # the wave crosses the 300 m line in 30,720 ticks (1 us)
    probe = {"line_length_m": 300, "fault_position_m": 0, "at": f"{MAX_TICKS - 30_720} ticks"}
    return {"schema_version": 1, "seed": 11, "duration": f"{MAX_TICKS} ticks",
            "sampling_grid": f"{MAX_TICKS // 8} ticks",
            "clock_defaults": {"legacy_device": dict(edge)}, "nodes": nodes, "sync_plan": plan,
            "workload": {"command_period": f"{MAX_TICKS // 3} ticks", "targets": ["ue1", "ld1"]},
            "link": {"extra_delay": {"dist": "uniform", "low": 0, "high": f"{MAX_TICKS // 10} ticks"}},
            "fault_probe": probe}


AT_MAX_TICKS = {
    "sib16-fixed-error": (Enabler.TA_SIB16.value, {"mode": "fixed_error", "error": f"{MAX_TICKS} ticks"}),
    "sib16-negative-error": (Enabler.TA_SIB16.value, {"mode": "fixed_error", "error": f"-{MAX_TICKS} ticks",
                                                      "realign_period": f"{MAX_TICKS // 3} ticks"}),
    "two-way-ribs-two-way": (Enabler.DEDICATED_TWO_WAY.value, {"mode": "ribs", "ribs_mode": "two_way",
                                                               "realign_period": f"{MAX_TICKS // 4} ticks"}),
    "ribs-ue-listen-ta": (Enabler.RIBS_UE.value, {"mode": "ribs", "ribs_mode": "listen_ta"}),
}


@pytest.mark.parametrize("case", AT_MAX_TICKS)
def test_a_config_at_max_ticks_runs_as_one_step_at_a_time(case):
    # the int64 run equals the reference that steps its clocks one at a time,
    # with exact bases: its trajectories, correction log, lost syncs, errors,
    # deliveries and fault stamps
    config = validate_config(at_max_ticks(*AT_MAX_TICKS[case]))
    outcomes = []
    for runner_type in (_Runner, OneAtATime):
        runner = runner_type(build_scenario(config), config.duration)
        trace = runner.run()
        outcomes.append(({node: steps_of(clock) for node, clock in runner.clocks.items()},
                         trace.correction_log.tolist(), trace.lost_sync, trace.errors.tolist(),
                         trace.deliveries.tolist(), trace.fault))
    assert outcomes[0] == outcomes[1]
    steps, log, _lost, errors, deliveries, fault = outcomes[0]
    assert len(log) and len(deliveries) and fault.t_fault == MAX_TICKS - 30_720
    assert max(abs(error) for row in errors for error in row) > MAX_TICKS


PAST_MAX_TICKS = {   # one field one tick past MAX_TICKS, and its path
    "duration": (lambda raw: raw.update(duration=f"{MAX_TICKS + 1} ticks"), "duration"),
    "theta0": (lambda raw: raw["nodes"][1]["clock"].update(theta0=f"{MAX_TICKS + 1} ticks"), "nodes[1].clock.theta0"),
    "theta0-low": (lambda raw: raw["nodes"][3]["clock"]["theta0"].update(low=f"-{MAX_TICKS + 1} ticks"),
                   "nodes[3].clock.theta0"),
    "theta0-high": (lambda raw: raw["nodes"][3]["clock"]["theta0"].update(high=f"{MAX_TICKS + 1} ticks"),
                    "nodes[3].clock.theta0"),
    "clock-defaults": (lambda raw: raw["clock_defaults"]["legacy_device"].update(theta0=f"-{MAX_TICKS + 1} ticks"),
                       "clock_defaults.legacy_device.theta0"),
    "bs-error": (lambda raw: raw["sync_plan"]["bs_alignment"].update(error=f"-{MAX_TICKS + 1} ticks"),
                 "sync_plan.bs_alignment.error"),
    "granularity": (lambda raw: raw["sync_plan"]["sib"].update(granularity=f"{MAX_TICKS + 1} ticks"),
                    "sync_plan.sib.granularity"),
    "stamp-noise": (lambda raw: raw["nodes"][2]["clock"].update(stamp_noise=f"{MAX_TICKS + 1} ticks"),
                    "nodes[2].clock.stamp_noise"),
    "relay-sigma": (lambda raw: raw["sync_plan"].update(gw_relay_sigma=f"{MAX_TICKS + 1} ticks"),
                    "sync_plan.gw_relay_sigma"),
    "fault-wave": (lambda raw: raw["fault_probe"].update(at=f"{MAX_TICKS - 30_719} ticks"),
                   "fault_probe.wave_speed_mps"),
}


@pytest.mark.parametrize("case", PAST_MAX_TICKS)
def test_one_tick_past_max_ticks_exits_2_at_its_path(case, tmp_path, capsys):
    raw = at_max_ticks(*AT_MAX_TICKS["sib16-fixed-error"])
    edit, path = PAST_MAX_TICKS[case]
    edit(raw)
    config = tmp_path / "past.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(mutated_bundled_configs())
def test_validating_a_mapping_leaves_it_as_it_was(raw):
    """validate_config copies only the top level, which takes the defaults,
    and reads every nested container without writing it."""
    before = copy.deepcopy(raw)
    try:
        config = validate_config(raw)
    except InvalidConfigError:
        config = None
    assert raw == before
    if config is not None:
        assert config.raw is not raw and config.raw.keys() >= raw.keys()


# --- parameter paths and sweeps ---------------------------------------------------


def test_get_and_set_by_path():
    cfg = validate_config(minimal(sync_plan={"sib": {"granularity": "10 ms"}}))
    assert get_config_value(cfg.raw, "sync_plan.sib.granularity") == "10 ms"
    set_config_value(cfg.raw, "sync_plan.sib.granularity", "1 us")
    assert validate_config(cfg.raw).sync_plan.sib.granularity == TICKS_PER_US
    assert get_config_value(cfg.raw, "nodes[2].id") == "ue"


def test_replace_copies_only_the_containers_along_the_path():
    raw = minimal(sync_plan={"sib": {"granularity": "10 ms"}})
    loaded = copy.deepcopy(raw)
    point = replace_config_value(raw, "nodes[2].position[0]", 7)
    assert raw == loaded and point["nodes"][2]["position"][0] == 7
    assert point["nodes"][1] is raw["nodes"][1] and point["sync_plan"] is raw["sync_plan"]
    assert point["nodes"] is not raw["nodes"] and point["nodes"][2] is not raw["nodes"][2]
    with pytest.raises(InvalidConfigError):
        replace_config_value(raw, "duration[0]", 7)
    assert raw == loaded


def test_path_that_does_not_resolve():
    cfg = validate_config(minimal())
    with pytest.raises(InvalidConfigError):
        get_config_value(cfg.raw, "sync_plan.nope.granularity")
    with pytest.raises(InvalidConfigError):
        get_config_value(cfg.raw, "nodes[9].id")


def test_sweep_spec_validation():
    spec = parse_sweep_spec({"path": "sync_plan.resync_period", "values": ["10 ms"], "repetitions": 3})
    assert spec.repetitions == 3
    with pytest.raises(InvalidConfigError):
        parse_sweep_spec({"path": "a.b", "values": []})
    with pytest.raises(InvalidConfigError):
        parse_sweep_spec({"values": [1]})
    with pytest.raises(InvalidConfigError):
        parse_sweep_spec({"path": "a.b", "values": [1], "repetitions": 0})


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.rglob("*.yaml")),
                         ids=lambda p: str(p.relative_to(CONFIG_DIR)))
def test_bundled_files_parse_to_the_safe_load_mapping(path):
    """Configs and sweep specs load through one module-level loader (libyaml's
    where PyYAML has it); it must give exactly yaml.safe_load's mapping, types
    included."""
    text = path.read_text(encoding="utf-8")
    assert repr(yaml.load(text, Loader=_YAML_LOADER)) == repr(yaml.safe_load(text))
