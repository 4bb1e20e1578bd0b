"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(work)`` calls ``work()`` and returns the most bytes it held
    at once beyond what was allocated before it, as tracemalloc counts them
    (numpy's array buffers included)."""
    def measure(work) -> int:
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            work()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
    return measure


@pytest.fixture
def fresh_caches():
    """Empties the per-process caches of derived streams, cell schedules, BS
    sides, BS stamps and parsed time strings, before the test and after it, so
    a test that counts derivations or clock calls, or patches a draw or a clock
    function, sees every derivation and every BS step, and leaves no patched
    draw behind."""
    from airsync import engine, scenario, timebase

    def clear():
        engine._pcg64_seed_words.cache_clear()
        scenario._SCHEDULES.cache_clear()
        scenario._BS_SIDES.cache_clear()
        scenario._BS_STAMPS.cache_clear()
        timebase._parse_text.cache_clear()

    clear()
    yield
    clear()
