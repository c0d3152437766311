"""Deterministic substreams for every pseudo-random draw in the toolkit.

Philox is counter-based, so independent streams come from keying rather than
jumping: each (seed, domain, index) triple owns its own stream and can be
re-derived from the recorded seed alone.

The (seed, domain, index) stream is the one a Philox keyed
[seed, domain << 32 | index] gives, from counter 0.  Point i of a simulated
SER curve draws from the (seed, DOMAIN_SIMULATOR, i) stream.  A curve's keys
are checked once, and one generator is re-keyed to each point's stream in
turn, which draws the same numbers as a fresh substream per point; a
comparison re-keys one generator for both of its arms.
"""
from __future__ import annotations

import functools

import numpy as np

from .core import ConfigError, check_int

ALGORITHM = "philox4x64"

# Domain tags keep streams for different purposes disjoint even when their
# indices coincide (level 0 vs SNR point 0, say).
DOMAIN_PERMUTATION_SELECTOR = 0
DOMAIN_LEVEL_BASE = 1
DOMAIN_SIMULATOR = 2

_MASK64 = (1 << 64) - 1


def check_seed(seed) -> int:
    """``seed`` itself if it is an int in [0, 2**64), the seeds a substream
    takes; ConfigError otherwise, before any stream is drawn."""
    if check_int(seed, "seed") > _MASK64:
        raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def _key(seed: int, domain: int, index: int) -> tuple[int, int]:
    """Philox key of the (seed, domain, index) stream, checked as substream says."""
    check_seed(seed)
    if not 0 <= int(index) < (1 << 32):
        raise ValueError(f"stream index out of range: {index}")
    return int(seed), (int(domain) << 32) | int(index)


def substream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Generator for the (seed, domain, index) stream.

    seed is refused as check_seed refuses it; index must fit in 32 bits.
    """
    key = np.array(_key(seed, domain, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@functools.cache
def _zero_key():
    """A seed sequence that hands a new Philox the all-zero key.  Without a
    seed, Philox would seed a SeedSequence from OS entropy, and _rekey
    overwrites its key anyway.  Built on first use, so that importing the
    toolkit does not load numpy.random."""

    class ZeroKey(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return ZeroKey()


def _generator() -> np.random.Generator:
    """A Philox Generator for _rekey to point at one stream after another."""
    return np.random.Generator(np.random.Philox(_zero_key()))


def _keys(seed: int, domain: int, count: int) -> list[tuple[int, int]]:
    """Philox keys of the streams substream(seed, domain, i) gives, for i in
    range(count), count >= 1; checked as substream checks them, once: the
    seed, and the last index, which bounds the others."""
    seed, last = _key(seed, domain, count - 1)
    return [(seed, key) for key in range(last - count + 1, last + 1)]


def _rekey(gen: np.random.Generator, key: tuple[int, int]) -> None:
    """Set ``gen``'s Philox to the state a new one keyed ``key`` starts in, so
    it draws what a new generator for that stream would; unchecked, since the
    key comes from _keys."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
