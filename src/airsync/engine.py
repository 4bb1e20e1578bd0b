"""Labeled, seed-derived random streams.

Every random draw of a run comes from a stream named by a label, and the
same (root_seed, label) pair always reproduces the same draw sequence, so a
full run is a pure function of (config, seed). The derivation: the SHA-256
digest of "{root_seed}/{label}" is read as eight little-endian uint32 words,
which are the entropy of a numpy ``SeedSequence``; the four uint64 words it
generates seed a ``PCG64`` generator.

Those four words are computed once per (root_seed, label) per process and
kept in a bounded cache, so a sweep, which derives the same labels for every
point, runs ``SeedSequence`` once per pair. Each stream still gets its own
generator, seeded from exactly the words ``SeedSequence`` would hand it, so
the cache changes no draw. ``numpy.random`` is imported on the first
derivation, not with this module.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Optional

import numpy as np


def _label_digest(root_seed: int, label: str) -> bytes:
    """SHA-256 of "root_seed/label": the source of every derived seed."""
    return hashlib.sha256(f"{root_seed}/{label}".encode()).digest()


def derive_seed(root_seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for (root_seed, label), platform independent."""
    return int.from_bytes(_label_digest(root_seed, label)[:8], "little")


_SEED_WORDS_CACHE_SIZE = 4096   # (root_seed, label) pairs whose PCG64 seed words are kept


# typed: a bool or float seed prints differently from the int it equals
@functools.lru_cache(maxsize=_SEED_WORDS_CACHE_SIZE, typed=True)
def _pcg64_seed_words(root_seed: int, label: str) -> np.ndarray:
    """The four uint64 words that seed the PCG64 of (root_seed, label): what
    the SeedSequence of the label digest's words generates. Read-only, since
    every stream of the pair shares them."""
    # the digest's eight little-endian uint32 words are the SeedSequence
    # entropy; handing them over as one array skips numpy's per-int coercion
    words = np.frombuffer(_label_digest(root_seed, label), "<u4")
    state = np.random.SeedSequence(words.astype(np.uint32, copy=False)).generate_state(4, np.uint64)
    state.flags.writeable = False
    return state


@functools.cache
def _seed_words_type() -> type:
    """A numpy ``ISeedSequence`` that hands PCG64 precomputed seed words.
    Built on first use: importing ``numpy.random.bit_generator`` with this
    module would load ``numpy.random`` on every ``import airsync``."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words   # PCG64 asks for exactly these: four uint64 words

    return SeedWords


class RngStream:
    """Labeled random stream derived from a root seed.

    Distinct labels give statistically independent streams; the same
    (root_seed, label) pair yields an identical sequence on every run.
    """

    __slots__ = ("root_seed", "label", "_gen")

    def __init__(self, root_seed: int, label: str):
        self.root_seed, self.label = root_seed, label
        self._gen = np.random.Generator(np.random.PCG64(_seed_words_type()(_pcg64_seed_words(root_seed, label))))

    def __repr__(self) -> str:
        return f"RngStream(root_seed={self.root_seed!r}, label={self.label!r})"

    def random(self, size: Optional[int] = None):
        """One uniform draw in [0, 1) as a float, or a float64 array of ``size`` successive draws."""
        draw = self._gen.random(size)
        return draw if size is not None else float(draw)

    def uniform(self, low: float, high: float) -> float:
        return float(self._gen.uniform(low, high))

    def normal(self, mean: float, sigma: float, size: Optional[int] = None):
        """One draw as a float, or a float64 array of ``size`` successive draws."""
        draw = self._gen.normal(mean, sigma, size)
        return draw if size is not None else float(draw)

    def integers(self, low: int, high: int, size: Optional[int] = None):
        """Uniform integer in [low, high) as a plain Python int, or an int64
        array of ``size`` successive draws."""
        draw = self._gen.integers(low, high, size)
        return draw if size is not None else int(draw)

    def gauss_ticks(self, sigma, size: Optional[int] = None):
        """Zero-mean Gaussian draw rounded to the nearest tick, or a float64
        array of ``size`` successive ones (whole numbers). σ = 0 draws nothing.
        For an array ``sigma``, one such draw per entry, in C order, as a
        float64 array of its shape: the successive scalar draws, in one call."""
        if isinstance(sigma, np.ndarray):
            noise = np.zeros(sigma.shape)
            drawn = sigma != 0
            noise[drawn] = np.rint(self._gen.normal(0.0, sigma[drawn]))
            return noise
        if size is not None:
            return np.zeros(size) if sigma == 0 else np.rint(self._gen.normal(0.0, sigma, size))
        if sigma == 0:
            return 0
        return round(float(self._gen.normal(0.0, sigma)))


def derive_stream(root_seed: int, label: str) -> RngStream:
    return RngStream(root_seed=root_seed, label=label)
