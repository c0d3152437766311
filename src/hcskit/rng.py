"""Deterministic substreams for every pseudo-random draw in the toolkit.

Philox is counter-based, so independent streams come from keying rather than
jumping: each (seed, domain, index) triple owns its own stream and can be
re-derived from the recorded seed alone.
"""
from __future__ import annotations

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


def substream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Generator for the (seed, domain, index) stream.

    seed is refused as check_seed refuses it; index must fit in 32 bits.
    """
    check_seed(seed)
    if not 0 <= int(index) < (1 << 32):
        raise ValueError(f"stream index out of range: {index}")
    key = np.array([seed, (int(domain) << 32) | int(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
