"""Scheduler ordering, run_until semantics, and stream determinism."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from airsync.engine import Event, Simulator, derive_seed, derive_stream
from airsync.errors import PastEventError
from airsync.timebase import TICKS_PER_MS, TICKS_PER_SECOND


def _collect(log):
    def callback(sim, event):
        log.append(event.payload)
    return callback


def test_zero_delay_event_dispatches_before_later_events():
    sim = Simulator()
    log = []
    sim.schedule(Event(fire_at=10, callback=_collect(log), payload="late"))
    sim.schedule(Event(fire_at=0, callback=_collect(log), payload="now"))
    sim.run_until(100)
    assert log == ["now", "late"]


def test_equal_fire_at_dispatches_in_insertion_order():
    sim = Simulator()
    log = []
    for name in ["a", "b", "c"]:
        sim.schedule(Event(fire_at=5, callback=_collect(log), payload=name))
    sim.run_until(5)
    assert log == ["a", "b", "c"]


def test_past_event_rejected():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(PastEventError):
        sim.schedule(Event(fire_at=99, callback=lambda s, e: None))


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run_until(TICKS_PER_SECOND) == 0
    assert sim.now == TICKS_PER_SECOND


def test_run_until_dispatches_only_due_events():
    sim = Simulator()
    log = []
    for t in [10, 20, 30, 40]:
        sim.schedule(Event(fire_at=t, callback=_collect(log), payload=t))
    assert sim.run_until(30) == 3
    assert log == [10, 20, 30]
    assert sim.now == 30


def test_periodic_event_count_matches_arithmetic_oracle():
    period_ms, horizon_ms = 10240, 60000
    expected = horizon_ms // period_ms  # independent oracle: 5
    assert expected == 5

    sim = Simulator()
    fired = []

    def tick(sim, event):
        fired.append(sim.now)
        sim.schedule(Event(fire_at=sim.now + period_ms * TICKS_PER_MS, callback=tick))

    sim.schedule(Event(fire_at=period_ms * TICKS_PER_MS, callback=tick))
    sim.run_until(horizon_ms * TICKS_PER_MS)
    assert len(fired) == expected


def test_event_ids_monotonically_increase():
    sim = Simulator()
    ids = [sim.schedule(Event(fire_at=i)) for i in range(10)]
    assert ids == sorted(ids) and len(set(ids)) == 10


def test_dispatch_times_never_decrease():
    sim = Simulator()
    rng = derive_stream(99, "order-test")
    times = []

    def reschedule(sim, event):
        times.append(sim.now)
        if sim.now < 10_000:
            sim.schedule(Event(fire_at=sim.now + rng.integers(0, 50), callback=reschedule))

    for _ in range(20):
        sim.schedule(Event(fire_at=rng.integers(0, 100), callback=reschedule))
    sim.run_until(20_000)
    assert times == sorted(times)


def test_same_seed_and_label_reproduce_draws():
    a = derive_stream(1234, "ue3/ta_noise")
    b = derive_stream(1234, "ue3/ta_noise")
    assert [a.random() for _ in range(1000)] == [b.random() for _ in range(1000)]


def test_different_seeds_diverge():
    a = derive_stream(1, "x")
    b = derive_stream(2, "x")
    assert [a.random() for _ in range(16)] != [b.random() for _ in range(16)]


def test_different_labels_diverge():
    a = derive_stream(1, "a")
    b = derive_stream(1, "b")
    assert [a.random() for _ in range(16)] != [b.random() for _ in range(16)]


def test_derive_seed_is_stable():
    assert derive_seed(42, "rep/0") == derive_seed(42, "rep/0")
    assert derive_seed(42, "rep/0") != derive_seed(42, "rep/1")


def _list_entropy_generator(root_seed, label):
    """Reference derivation: the digest's eight words handed over as a list of ints."""
    digest = hashlib.sha256(f"{root_seed}/{label}".encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), label=st.text())
@example(seed=2**64 - 1, label="sib/bs\u00e9/\u65f6\u949f/\U0001f4e1")
@example(seed=0, label="")
def test_stream_derivation_equals_the_list_entropy_rule(seed, label):
    stream = derive_stream(seed, label)
    reference = _list_entropy_generator(seed, label)
    assert stream.integers(0, 2**62, 8).tolist() == reference.integers(0, 2**62, 8).tolist()
    assert stream.normal(0.0, 1.0, 8).tobytes() == reference.normal(0.0, 1.0, 8).tobytes()
