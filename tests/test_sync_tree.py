"""The sync tree evaluated parent-first: a seeded corpus of runs pinned as
data, the rules that order clock steps which meet at one tick, and the
correction log as a view of the finished clock trajectories."""

import hashlib
import random
from collections import Counter, defaultdict

from pathlib import Path

import pytest

from airsync.clocks import local_time
from airsync.config import load_config, validate_config
from airsync.engine import derive_stream
from airsync.protocols import ExchangeRecord, twoway_offset
from airsync.scenario import _Runner, build_scenario, link_propagation, run_scenario
from airsync.timebase import TICKS_PER_MS, TICKS_PER_US
from stepwise import OneAtATime, SteppingClock, steps_of

MS = TICKS_PER_MS
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ENABLERS = ("ta_sib16", "dedicated_two_way", "ribs_ue")
ALIGNMENTS = (
    {"mode": "perfect"},
    {"mode": "fixed_error", "error": "0.5 us"},
    {"mode": "ribs", "ribs_mode": "listen_only"},
    {"mode": "ribs", "ribs_mode": "listen_ta"},
    {"mode": "ribs", "ribs_mode": "two_way"},
)
PAIRS = len(ENABLERS) * len(ALIGNMENTS)
VARIANTS = ("colocated_lossy", "overlapping_rounds", "gateway_domain_and_pmus")
CORPUS_SIZE = PAIRS * len(VARIANTS)

# sha256 of corpus_summary() over each variant's configs, split in two by
# redrawn(). The kept configs' digests were computed with the heap-scheduled
# event loop that the parent-first evaluation replaced; except
# overlapping_rounds, whose two-way configs keep one exchange in flight where
# the loop let exchanges overlap. The redrawn configs' digests date from the
# move of a SIB16 cell's broadcasts and a RIBS BS's rounds onto one stream per
# BS, and of two-way RIBS onto one exchange in flight; one exchange (and one
# SIB16 landing) at a time (tests/stepwise.py) gives them too
CORPUS_SHA256 = {
    "colocated_lossy": {
        "kept": "76ff2e3ee433eeb340f84427dd4352fd64f4160507332cf237976b80a1942a4f",
        "redrawn": "b1790f9df10d7e5cad78dda6eb5d030029fe70268e81239cbdfc575f8248fe4c",
    },
    "overlapping_rounds": {
        "kept": "a61a6d50bd56faa25a0e6956ddba3c0760a5049b089180dcbbe6ce78959cf6b2",
        "redrawn": "86a1158a7ff9cdbd27d35bad55a1b0c4d962247fb3335c56528d2e2ddbcdf572",
    },
    "gateway_domain_and_pmus": {
        "kept": "8568d2f9eb09501985dafe2e3a61eb8a19df3d95967a80b9234f60e0e8b5b85e",
        "redrawn": "ef0675eee3247da27d7a1ac6c15d84ffc6f1930b682a3c9600df395631cec857",
    },
}


def _clock(rng: random.Random, phase_us: int, skew_ppm: float, noise: int) -> dict:
    return {"theta0": f"{rng.randint(-phase_us * TICKS_PER_US, phase_us * TICKS_PER_US)} ticks",
            "skew_ppm": round(rng.uniform(-skew_ppm, skew_ppm), 4),
            "stamp_noise": rng.choice((0, noise))}


def _near(rng: random.Random, x: float, spread: float) -> list:
    return [round(x + rng.uniform(-spread, spread), 1), round(rng.uniform(-spread, spread), 1)]


def corpus_config(index: int) -> dict:
    """Config ``index`` of the corpus: the (enabler, BS alignment) pair
    ``index % PAIRS`` under variant ``index // PAIRS`` of VARIANTS, with
    seeded positions, clocks and timings."""
    rng = random.Random(f"corpus/{index}")
    enabler = ENABLERS[index % len(ENABLERS)]
    alignment = dict(ALIGNMENTS[index // len(ENABLERS) % len(ALIGNMENTS)])
    variant = index // PAIRS
    bs2_x = 0.0 if variant == 0 else rng.uniform(300.0, 1500.0)
    nodes = [
        {"id": "ref", "role": "reference"},
        {"id": "bs1", "role": "base_station", "position": [0, 0], "clock": _clock(rng, 20, 0.5, 31)},
        {"id": "bs2", "role": "base_station", "position": [round(bs2_x, 1), 0],
         "clock": _clock(rng, 20, 0.5, 31)},
        {"id": "ue1", "role": "ue", "attach_to": "bs1",
         "position": [0, 0] if variant == 0 else _near(rng, 0.0, 600.0), "clock": _clock(rng, 200, 10.0, 308)},
        {"id": "ue2", "role": "ue", "attach_to": "bs2", "position": _near(rng, bs2_x, 600.0),
         "clock": _clock(rng, 200, 10.0, 308)},
    ]
    targets = ["ue1", "ue2"]
    raw = {"schema_version": 1, "seed": rng.randrange(2**31), "duration": "300 ms", "sampling_grid": "5 ms"}
    plan = {"enabler": enabler, "resync_period": f"{rng.choice((20, 40, 50))} ms",
            "ta_noise_sigma": rng.choice((0, 200)), "gw_relay_sigma": rng.choice((0, 922)),
            "sib": {"granularity": rng.choice((0, "1 us", "10 ms")), "periodicity": "80 ms",
                    "si_window": f"{rng.choice((0, 5, 15))} ms",
                    "stamp_mode": rng.choice(("at_transmit", "at_schedule"))}}
    link = {"extra_delay": {"dist": "uniform", "low": 0, "high": f"{rng.choice((0, 3, 8))} ms"}}
    alignment["realign_period"] = f"{rng.choice((30, 100))} ms"
    if variant == 0:
        link["loss_prob"] = 0.3
        alignment["realign_period"] = "2 ms"
    elif variant == 1:
        # each broadcast lands after later rounds started, and each exchange
        # is still in flight when the next rounds start
        plan["resync_period"] = {"ta_sib16": "10 ms", "dedicated_two_way": "2 ms", "ribs_ue": "500 us"}[enabler]
        plan["sib"]["si_window"] = "40 ms"
        link["extra_delay"] = {"dist": "normal", "mean": "2500 us", "sigma": "50 us"}
        alignment["realign_period"] = f"{rng.choice((1, 7))} ms"
    else:
        raw["duration"] = "600 ms"
        plan.update(ta_timer_ms=500, ta_wrong_bin_prob=0.2)
        nodes += [
            {"id": "gw1", "role": "gateway", "attach_to": "bs1", "position": _near(rng, 0.0, 200.0),
             "clock": _clock(rng, 200, 10.0, 308)},
            {"id": "ld1", "role": "legacy_device", "attach_to": "gw1", "clock": _clock(rng, 500, 20.0, 0)},
            {"id": "ld2", "role": "legacy_device", "attach_to": "gw1", "clock": _clock(rng, 500, 20.0, 0)},
            {"id": "pmu_a", "role": "pmu", "attach_to": "bs2", "position": [round(bs2_x, 1), 0],
             "clock": _clock(rng, 200, 5.0, 308)},
            {"id": "pmu_b", "role": "pmu", "attach_to": "bs2", "position": _near(rng, bs2_x, 400.0),
             "clock": _clock(rng, 200, 5.0, 308)},
        ]
        targets += ["ld1", "pmu_b"]
        raw["fault_probe"] = {"line_length_m": 800, "fault_position_m": round(rng.uniform(0, 800), 1),
                              "at": f"{rng.randint(0, 600)} ms"}
    if enabler != "ta_sib16":
        del plan["sib"]   # drawn all the same, so every later draw is unchanged
    plan["bs_alignment"] = alignment
    raw.update(nodes=nodes, link=link, sync_plan=plan,
               workload={"command_period": "5 ms", "targets": targets, "grid_phase": "1 ms"})
    return raw


def corpus_summary(trace) -> bytes:
    """The run's values, free of how the trace stores or orders them: sample
    errors, delivery columns, the corrections sorted, lost syncs and the
    fault stamps."""
    samples = trace.errors.ravel().tolist()
    d, workload = trace.deliveries, trace.workload
    deliveries = [[workload.targets[i] for i in d.node.tolist()], d.grid_index.tolist(),
                  workload.grid_point(d.grid_index).tolist(), d.true_arrival.tolist(), d.local_stamp.tolist()]
    corrections = sorted((c.t_true, c.node, c.kind, c.delta, c.error_after) for c in trace.corrections)
    fault = trace.fault and (trace.fault.t_fault, trace.fault.stamp_a, trace.fault.stamp_b)
    return repr((samples, deliveries, corrections, trace.lost_sync, fault)).encode()


def run_raw(raw: dict):
    cfg = validate_config(raw)
    return run_scenario(build_scenario(cfg), cfg.duration)


def redrawn(index: int) -> bool:
    """Whether config ``index`` of the corpus runs a SIB16 cell, aligns bs2
    by RIBS, or draws two-way extra delays (dedicated_two_way with a delay of
    nonzero width): the configs whose values moved when a cell's broadcasts
    and a RIBS BS's rounds each came to draw from one stream (and two-way
    RIBS to keep one exchange in flight), or earlier, when the extra delays
    left ``exchange/{device}`` for their own label."""
    raw = corpus_config(index)
    plan, delay = raw["sync_plan"], raw["link"]["extra_delay"]
    draws = delay["dist"] == "normal" or delay["high"] != "0 ms"
    return (plan["enabler"] == "ta_sib16" or plan["bs_alignment"]["mode"] == "ribs"
            or (plan["enabler"] == "dedicated_two_way" and draws))


def corpus_digest(variant: str, part: str, run) -> str:
    """sha256 of corpus_summary() of what ``run`` (a scenario and its
    duration to a trace) gives on the ``part`` ("kept" or "redrawn") of
    ``variant``'s configs."""
    digest = hashlib.sha256()
    first = VARIANTS.index(variant) * PAIRS
    for index in range(first, first + PAIRS):
        if redrawn(index) == (part == "redrawn"):
            cfg = validate_config(corpus_config(index))
            digest.update(corpus_summary(run(build_scenario(cfg), cfg.duration)))
    return digest.hexdigest()


def test_corpus_covers_every_enabler_alignment_and_variant():
    seen = Counter()
    for index in range(CORPUS_SIZE):
        plan = corpus_config(index)["sync_plan"]
        align = plan["bs_alignment"]
        seen[plan["enabler"], align["mode"], align.get("ribs_mode"), index // PAIRS] += 1
    assert len(seen) == CORPUS_SIZE >= 40
    # the kept part holds the two-way configs under steered BSs that draw no
    # extra delay, some in every variant
    kept = Counter((corpus_config(index)["sync_plan"]["enabler"], index // PAIRS)
                   for index in range(CORPUS_SIZE) if not redrawn(index))
    assert kept == {("ribs_ue", 0): 2, ("ribs_ue", 1): 2, ("ribs_ue", 2): 2, ("dedicated_two_way", 2): 1}


@pytest.mark.parametrize("variant", VARIANTS)
def test_corpus_runs_as_the_event_loop_ran_them(variant):
    assert corpus_digest(variant, "kept", run_scenario) == CORPUS_SHA256[variant]["kept"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_redrawn_corpus_runs_as_one_exchange_at_a_time_runs_it(variant):
    expected = CORPUS_SHA256[variant]["redrawn"]
    assert corpus_digest(variant, "redrawn", run_scenario) == expected
    one_at_a_time = lambda scenario, duration: OneAtATime(scenario, duration).run()
    assert corpus_digest(variant, "redrawn", one_at_a_time) == expected


def one_cell(bs_clock: dict, ue_clock: dict, sync_plan: dict) -> dict:
    """bs1 with ue1 sitting at it (no propagation delay), for 20 ms."""
    return {
        "schema_version": 1, "seed": 3, "duration": "20 ms", "sampling_grid": "1 ms",
        "nodes": [
            {"id": "ref", "role": "reference"},
            {"id": "bs1", "role": "base_station", "position": [0, 0], "clock": bs_clock},
            {"id": "ue1", "role": "ue", "attach_to": "bs1", "position": [0, 0], "clock": ue_clock},
        ],
        "sync_plan": sync_plan,
    }


def test_steps_at_one_tick_are_logged_parent_first():
    # bs2 sits at bs1 and listens to it every 2 ms, so its step lands at once;
    # ue1, also at bs1, lands a 1 ms exchange every 1 ms. At every even ms the
    # anchor's step, bs2's and ue1's share a tick, and the BSs come first
    raw = one_cell({}, {"skew_ppm": 5}, sync_plan={"enabler": "ribs_ue", "resync_period": "1 ms", "bs_alignment": {
        "mode": "ribs", "ribs_mode": "listen_ta", "realign_period": "2 ms"}})
    raw["nodes"].insert(2, {"id": "bs2", "role": "base_station", "position": [0, 0], "clock": {"theta0": "1 us"}})
    at_tick = defaultdict(list)
    for c in run_raw(raw).corrections:
        at_tick[c.t_true].append(c.node)
    shared = [nodes for nodes in at_tick.values() if len(nodes) == 3]
    assert len(shared) == 10
    assert all(nodes == ["bs1", "bs2", "ue1"] for nodes in shared)


@pytest.mark.parametrize("enabler", ("ta_sib16", "ribs_ue"))
def test_a_gateway_relays_before_a_later_device_steps_at_the_same_tick(enabler):
    # gw1 and ue1 sit at bs1 and land every 1 ms round at one tick; the legacy
    # devices come last in the config, yet each relay follows its gateway's
    # step, before ue1, which comes after gw1 in the config
    raw = one_cell({}, {"skew_ppm": -3}, sync_plan={"enabler": enabler, "resync_period": "1 ms",
                                                    "gw_relay_sigma": 922, "sib": {"si_window": "1 ms"}})
    if enabler != "ta_sib16":
        del raw["sync_plan"]["sib"]
    raw["nodes"][2:2] = [{"id": "gw1", "role": "gateway", "attach_to": "bs1", "position": [0, 0],
                          "clock": {"skew_ppm": 5}}]
    raw["nodes"] += [{"id": "ld1", "role": "legacy_device", "attach_to": "gw1", "clock": {"theta0": "1 us"}},
                     {"id": "ld2", "role": "legacy_device", "attach_to": "gw1", "clock": {"theta0": "-1 us"}}]
    at_tick = defaultdict(list)
    for c in run_raw(raw).corrections:
        at_tick[c.t_true].append(c.node)
    assert Counter(map(tuple, at_tick.values())) == {("gw1", "ld1", "ld2", "ue1"): 20, ("bs1",): 1}


def test_a_gateway_landing_two_rounds_at_one_tick_relays_each_in_turn():
    # tick scale, as tests/test_cell_pass.py's sib_cells: 2-tick rounds sent
    # up to 6 ticks late, so two rounds may reach gw1 (at bs1) at one tick.
    # Each of gw1's steps comes just before its relays of it: with no
    # wired-domain noise a relay reads what that step set. Seed 0 lands two
    # rounds at one tick three times, and three rounds once
    raw = {"schema_version": 1, "seed": 0, "duration": "40 ticks", "sampling_grid": "1 ticks", "nodes": [
        {"id": "ref", "role": "reference"},
        {"id": "bs1", "role": "base_station", "position": [0, 0]},
        {"id": "gw1", "role": "gateway", "attach_to": "bs1", "position": [0, 0], "clock": {"skew_ppm": 3.5}},
        {"id": "ld1", "role": "legacy_device", "attach_to": "gw1", "clock": {"theta0": "7 ticks"}},
        {"id": "ld2", "role": "legacy_device", "attach_to": "gw1", "clock": {"theta0": "-5 ticks"}},
    ], "sync_plan": {"enabler": "ta_sib16", "resync_period": "2 ticks", "gw_relay_sigma": 0, "sib": {
        "periodicity": "12 ticks", "si_window": "6 ticks", "granularity": 0, "stamp_mode": "at_schedule"}}}
    at_tick = defaultdict(list)
    for c in run_raw(raw).corrections:
        at_tick[c.t_true].append((c.node, c.error_after))
    twice = {tick: rows for tick, rows in at_tick.items() if len(rows) > 3}
    assert twice == {
        tick: [(node, error) for error in errors for node in ("gw1", "ld1", "ld2")]
        for tick, errors in ((5, (-3, -1)), (14, (-4, -2)), (32, (-6, -4, -2)), (37, (-3, -1)))
    }


def _replay_case(case: str):
    return validate_config(corpus_config(int(case[7:]))) if case.startswith("corpus-") else \
        load_config(CONFIG_DIR / f"{case}.yaml")


@pytest.mark.parametrize("case", [f"corpus-{index}" for index in range(CORPUS_SIZE)]
                         + sorted(path.stem for path in CONFIG_DIR.glob("*.yaml")))
def test_replaying_the_correction_log_rebuilds_every_trajectory(case, fresh_caches):
    # the log is a view of the finished clocks: stepping fresh clocks by its
    # rows, in order, gives each node's trajectory exactly, and each row's
    # error_after is the replayed clock's error just after its step. On empty
    # caches, so that the BS steps replayed are the ones this run took
    cfg = _replay_case(case)
    scenario = build_scenario(cfg)
    runner = _Runner(scenario, cfg.duration)
    trace = runner.run()
    replayed = {node: SteppingClock(params) for node, params in scenario.clocks.items()}
    for t_true, node, delta, _, error_after in trace.correction_log.tolist():
        clock = replayed[trace.sampled[node]]
        clock.step(t_true, delta)
        assert local_time(clock, t_true) - t_true == error_after
    assert len(trace.correction_log) > 0
    assert {node: steps_of(clock) for node, clock in replayed.items()} == \
        {node: steps_of(clock) for node, clock in runner.clocks.items()}


def test_an_exchange_reads_its_bs_as_stepped_at_the_same_tick():
    # bs1 drifts 5 ppm and is steered back every 0.5 ms; each of ue1's 1 ms
    # exchanges reads its t4 from bs1 at the very tick of such a step, and
    # sees it, as every read at a step's tick does
    raw = one_cell({"skew_ppm": 5}, {"theta0": "2 us", "skew_ppm": -3}, sync_plan={
        "enabler": "ribs_ue", "resync_period": "1 ms", "bs_alignment": {"mode": "perfect", "realign_period": "500 us"}})
    cfg = validate_config(raw)
    scenario = build_scenario(cfg)
    trace = run_scenario(scenario, cfg.duration)
    bs = SteppingClock(scenario.clocks["bs1"])
    for c in trace.corrections:
        if c.node == "bs1":
            bs.step(c.t_true, c.delta)
    exchanges = [c for c in trace.corrections if c.node == "ue1"]
    assert len(exchanges) == 20 and all(c.t_true in bs.installed_at for c in exchanges)
    ue = SteppingClock(scenario.clocks["ue1"])
    for c in exchanges:
        start = c.t_true - MS
        record = ExchangeRecord(t1=local_time(bs, start), t2=local_time(ue, start),
                                t3=local_time(ue, c.t_true), t4=local_time(bs, c.t_true))
        assert c.delta == twoway_offset(record).offset
        ue.step(c.t_true, c.delta)


def test_a_round_that_starts_while_an_exchange_is_in_flight_sends_nothing():
    # 2 ms rounds and about 2.5 ms each way: each exchange takes about 6 ms, so
    # the rounds starting while it is in flight send nothing, take no delays
    # and lose nothing. exchange_delay/ue1 holds a (forward, back) pair per
    # heard round, and the k-th exchange sent takes pair k: replaying that by
    # the rule gives every landing instant. exchange/ue1 holds the stamp
    # noise alone, four draws per exchange sent
    raw = one_cell({"stamp_noise": 31}, {"stamp_noise": 308}, sync_plan={
        "enabler": "dedicated_two_way", "resync_period": "2 ms"})
    raw["link"] = {"extra_delay": {"dist": "uniform", "low": "2400 us", "high": "2600 us"}}
    cfg = validate_config(raw)
    scenario = build_scenario(cfg)
    trace = run_scenario(scenario, cfg.duration)
    starts = range(0, cfg.duration + 1, 2 * MS)
    pairs = iter(cfg.link.extra_delay.draw(derive_stream(cfg.seed, "exchange_delay/ue1"), 2 * len(starts))
                 .reshape(-1, 2).tolist())
    landing, sent, skipped = 0, [], 0
    for start in starts:
        if start < landing:
            skipped += 1
            continue
        forward, back = next(pairs)
        landing = start + forward + MS + back
        if landing > cfg.duration:
            break
        sent.append((start, forward, back))
    assert skipped >= len(sent) >= 2
    steps = [c for c in trace.corrections if c.node == "ue1"]
    assert [c.t_true for c in steps] == [start + forward + MS + back for start, forward, back in sent]
    assert trace.lost_sync == 0
    # the stamp noise replayed from exchange/ue1 gives each step: the UE sits
    # at the BS, and both clocks read true time but for that noise and the
    # UE's correction so far
    noise, correction = derive_stream(cfg.seed, "exchange/ue1"), 0
    bs_sigma, ue_sigma = (scenario.clocks[node].stamp_noise_sigma for node in ("bs1", "ue1"))
    for step, (start, forward, back) in zip(steps, sent):
        n1, n2, n3, n4 = (noise.gauss_ticks(sigma) for sigma in (bs_sigma, ue_sigma, ue_sigma, bs_sigma))
        t2 = start + forward
        offset = twoway_offset(ExchangeRecord(start + n1, t2 + correction + n2, t2 + MS + correction + n3,
                                              t2 + MS + back + n4)).offset
        assert step.delta == offset
        correction -= offset


def test_a_two_way_ribs_step_lands_one_propagation_delay_after_t4():
    # bs2 sits 3 km from bs1 and realigns by two-way RIBS every 4 ms: bs1
    # stamps t1 at the round's start and t4 one turnaround and two propagation
    # delays later, and bs2 steps when the measured offset has travelled back
    # to it, one more propagation delay on. Neither clock drifts or is noisy,
    # so the offset is bs2's phase and each step leaves bs2 on true time
    raw = one_cell({}, {}, sync_plan={"enabler": "ta_sib16", "bs_alignment": {
        "mode": "ribs", "ribs_mode": "two_way", "realign_period": "4 ms"}})
    raw["nodes"].insert(2, {"id": "bs2", "role": "base_station", "position": [3000, 0], "clock": {"theta0": "3 us"}})
    cfg = validate_config(raw)
    prop = link_propagation(cfg.nodes["bs1"], cfg.nodes["bs2"])
    assert prop == 10 * TICKS_PER_US
    steps = [(c.t_true, c.error_after) for c in run_raw(raw).corrections if c.node == "bs2"]
    assert steps == [(start + 3 * prop + MS, 0) for start in range(0, cfg.duration - 3 * prop - MS + 1, 4 * MS)]
    assert len(steps) == 5


def test_two_way_ribs_rounds_shorter_than_an_exchange_remove_the_offset_once():
    # bs2 sits at bs1, 10 us ahead, and realigns by two-way RIBS every
    # 500 us, half an exchange (the 1 ms turnaround). A round that starts
    # while an exchange is in flight sends nothing and is no lost sync, so
    # each exchange measures what the one before left: bs2 steps every 1 ms
    # and reads true time from the first landing on. Two exchanges in flight
    # would both remove the 10 us, and bs2 would swing around true time
    raw = one_cell({}, {}, sync_plan={"enabler": "ta_sib16", "bs_alignment": {
        "mode": "ribs", "ribs_mode": "two_way", "realign_period": "500 us"}})
    raw["sampling_grid"] = "100 us"
    raw["nodes"].insert(2, {"id": "bs2", "role": "base_station", "position": [0, 0], "clock": {"theta0": "10 us"}})
    cfg = validate_config(raw)
    trace = run_scenario(build_scenario(cfg), cfg.duration)
    bs2 = trace.errors[:, trace.sampled.index("bs2")]
    assert bs2[trace.instants < MS].tolist() == [10 * TICKS_PER_US] * 10
    assert bs2[trace.instants >= MS].tolist() == [0] * 191
    assert [c.t_true for c in trace.corrections if c.node == "bs2"] == list(range(MS, cfg.duration + 1, MS))
    assert trace.lost_sync == 0


def test_a_ribs_exchange_with_reversed_stamps_steps_nothing_and_the_next_round_still_steps():
    # bs2 sits at bs1 and realigns by two-way RIBS every 4 ms. Both BSs read
    # exactly true time plus their phase, so a round's stamps are out of order
    # only by its stamp noise: t4 - t1 = 1 ms + n4 - n1, t3 - t2 = 1 ms + n3 - n2.
    # With 5 ms of noise many rounds are; each steps nothing and is a lost sync,
    # and the rounds after it still step bs2 when their exchange completes.
    # Seed 7 reverses the first, third and fourth of its five rounds
    raw = one_cell({"stamp_noise": "5 ms"}, {}, sync_plan={"enabler": "ta_sib16", "bs_alignment": {
        "mode": "ribs", "ribs_mode": "two_way", "realign_period": "4 ms"}})
    raw["seed"] = 7
    raw["nodes"].insert(2, {"id": "bs2", "role": "base_station", "position": [0, 0],
                            "clock": {"theta0": "3 us", "stamp_noise": "5 ms"}})
    cfg = validate_config(raw)
    scenario = build_scenario(cfg)
    trace = run_scenario(scenario, cfg.duration)
    sigma = scenario.clocks["bs2"].stamp_noise_sigma
    starts = range(0, cfg.duration - MS + 1, 4 * MS)
    # replay: the t1 to t4 noise of every round, one draw from exchange/bs2
    # (both BSs' stamp noise is 5 ms)
    noise = derive_stream(cfg.seed, "exchange/bs2").gauss_ticks(sigma, (len(starts), 4))
    in_order = [MS + n4 - n1 >= 0 and MS + n3 - n2 >= 0 for n1, n2, n3, n4 in noise.tolist()]
    assert any(not this and following for this, following in zip(in_order, in_order[1:]))
    steps = [c for c in trace.corrections if c.node == "bs2"]
    assert [c.t_true for c in steps] == [at + MS for at, ok in zip(starts, in_order) if ok]
    assert trace.lost_sync == in_order.count(False)
