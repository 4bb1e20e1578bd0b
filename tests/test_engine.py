"""Stream determinism."""

import hashlib

import numpy as np
from hypothesis import example, given, settings, strategies as st

from airsync import engine
from airsync.engine import derive_seed, derive_stream


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


def _draws(stream_or_generator, i):
    """Draw i of an interleaving: a few kinds, so a shared state would show."""
    return (stream_or_generator.integers(0, 2**62, 3).tolist() if i % 2
            else stream_or_generator.normal(0.0, 1.0, 3).tobytes())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), label=st.text(max_size=12), rounds=st.integers(1, 6))
def test_streams_of_one_label_are_independent_generators(seed, label, rounds):
    """The seed words of a (seed, label) pair are cached, the generator is
    not: two streams of the pair, derived one after the other and drawn in
    turn, each give the reference's whole sequence."""
    first, second = derive_stream(seed, label), derive_stream(seed, label)
    reference_first, reference_second = _list_entropy_generator(seed, label), _list_entropy_generator(seed, label)
    for i in range(rounds):
        assert _draws(first, i) == _draws(reference_first, i)
        assert _draws(second, i) == _draws(reference_second, i)


def test_a_label_derived_again_after_eviction_matches_the_reference():
    cache = engine._pcg64_seed_words
    cache.cache_clear()
    derive_stream(5, "ue1/ta")
    for i in range(cache.cache_info().maxsize):
        derive_stream(5, f"filler/{i}")
    assert cache.cache_info().currsize == cache.cache_info().maxsize
    misses = cache.cache_info().misses
    for i in range(2):   # evicted, so derived from the digest again; then a hit
        assert _draws(derive_stream(5, "ue1/ta"), i) == _draws(_list_entropy_generator(5, "ue1/ta"), i)
    assert cache.cache_info().misses == misses + 1


_PIN_SIGMA = np.array([[31.0, 0.0, 308.0], [308.0, 31.0, 0.0]])


def _pin_stream():
    return derive_stream(2026, "pin/bs1")


def test_numpy_keeps_its_random_streams():
    """The first draws of each RngStream method on one label, each form of a
    call from a fresh stream: every seeded output rests on them."""
    drawn = {
        "random": [_pin_stream().random(), *_pin_stream().random(3).tolist()],
        "uniform": [_pin_stream().uniform(-5, 5)],
        "normal": [_pin_stream().normal(1.0, 2.0), *_pin_stream().normal(1.0, 2.0, 3).tolist()],
        "integers": [_pin_stream().integers(0, 307201), *_pin_stream().integers(0, 307201, 3).tolist()],
        "gauss_ticks": [_pin_stream().gauss_ticks(308), *_pin_stream().gauss_ticks(308.0, 3).tolist(),
                        *_pin_stream().gauss_ticks(_PIN_SIGMA).ravel().tolist()],
    }
    assert drawn == {
        "random": [0.4343292588047539, 0.4343292588047539, 0.3210786963212583, 0.6289018382626993],
        "uniform": [-0.6567074119524605],
        "normal": [-0.17604629782517023, -0.17604629782517023, 0.10996391075025125, 0.9292731415270651],
        "integers": [80590, 80590, 133426, 43659],
        "gauss_ticks": [-181, -181.0, -137.0, -11.0, -18.0, 0.0, -137.0, -11.0, -36.0, 0.0],
    }, "numpy changed its random streams"


def test_bulk_draws_are_the_successive_scalar_draws():
    """A run draws each distribution of a node in one call; the one-at-a-time
    references draw the same values one call each."""
    for bulk, scalar in [
        (lambda s: s.gauss_ticks(308.0, 5), lambda s: [s.gauss_ticks(308.0) for _ in range(5)]),
        (lambda s: s.gauss_ticks(_PIN_SIGMA), lambda s: [s.gauss_ticks(v) for v in _PIN_SIGMA.ravel().tolist()]),
        (lambda s: s.integers(0, 307201, 5), lambda s: [s.integers(0, 307201) for _ in range(5)]),
        (lambda s: s.random(5), lambda s: [s.random() for _ in range(5)]),
    ]:
        assert bulk(_pin_stream()).ravel().tolist() == scalar(_pin_stream()), "numpy changed its random streams"
