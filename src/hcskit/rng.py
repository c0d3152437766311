"""Deterministic substreams for every pseudo-random draw in the toolkit.

Philox is counter-based, so independent streams come from keying rather than
jumping: each (seed, domain, index) triple owns its own stream and can be
re-derived from the recorded seed alone.

The (seed, domain, index) stream is the one a Philox keyed
[seed, domain << 32 | index] gives, from counter 0.  Point i of a simulated
SER curve draws from the (seed, DOMAIN_SIMULATOR, i) stream; a curve re-keys
one generator to each point's stream in turn, which draws the same numbers as
a fresh substream per point.
"""
from __future__ import annotations

from typing import Iterator

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


def _substreams(seed: int, domain: int, count: int) -> Iterator[np.random.Generator]:
    """The streams substream(seed, domain, i) gives, for i in range(count).

    One Generator is re-keyed for each: its Philox is set to the state a new
    one keyed for that stream starts in, so no bit generator is built per
    stream.  Each yield re-keys the Generator the previous one returned.
    """
    gen = substream(seed, domain)
    for index in range(count):
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": _key(seed, domain, index)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen
