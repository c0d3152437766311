"""Permutation-table construction for saturating multi-level slot sets.

The frame's t slots are split into R contiguous blocks of size m = t/R,
where R is the largest per-frame demand.  Each user symbol is placed by
picking a block (driven by a per-level offset stream plus the symbol's
offset within the level) and a position inside it (a seeded permutation of
the block positions, shared by all users in a frame).  Block arithmetic
keeps distinct users in distinct blocks or distinct positions, so no two
users ever claim the same slot in the same frame; with a capacity-exact
roster every frame uses all t slots exactly once.

Sequence length is t*R frames.

The whole set is built in whole-array numpy steps.  Every frame's selector
rank is decoded at once (``unrank_permutations``): its factorial-base
digits are taken in uint64, since 20! - 1 fits, and a right-to-left fix-up
turns those digits into the permutation.  Each level then gets its (user,
frame, run) positions in one broadcast and its slots in one gather from the
decoded rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import rng
from .core import (
    ConfigError,
    HcsSequence,
    HcsSet,
    SystemConfig,
    check_instance,
    check_items,
)

# 21! does not fit the 64-bit selector entries, so block counts keep the
# permutation group at 20 elements or fewer.
MAX_GROUP_SIZE = 20


@dataclass(frozen=True)
class Cons1Params:
    """Derived construction parameters for a validated config.

    R       largest per-frame demand (block count)
    m       block size t/R, also the size of the permuted position group
    eta     per-level block-stride R/r_i
    omega   per-level starting position-group offset (prefix load / R)
    """

    R: int
    m: int
    eta: tuple[int, ...]
    omega: tuple[int, ...]
    seed: int


@dataclass(frozen=True, eq=False)
class DriverSequences:
    """Seeded driver streams, one frame entry each.

    selector    permutation rank per frame, in [0, m!)
    level_base  per level: base block offset per frame, in [0, eta_i).
                The shifted family for offset e within a level is derived as
                (base + e) mod eta_i, never drawn independently.
    """

    selector: np.ndarray
    level_base: tuple[np.ndarray, ...]


def cons1_params(config: SystemConfig) -> Cons1Params:
    """Validate the divisibility premises and derive block parameters.

    Each premise failure gets its own diagnostic so callers can tell which
    one to fix.
    """
    t = check_instance(config, SystemConfig, "config").t
    R = config.levels[-1].r
    if t % R != 0:
        raise ConfigError(
            f"largest per-frame demand {R} must divide the frame size {t}"
        )
    for i, lv in enumerate(config.levels):
        if R % lv.r != 0:
            raise ConfigError(
                f"per-frame demand of level {i} ({lv.r}) must divide the largest demand {R}"
            )
    if config.load > t:
        raise ConfigError(
            f"roster claims {config.load} slots per frame but the frame has only {t}"
        )
    m = t // R
    if m > MAX_GROUP_SIZE:
        raise ConfigError(
            f"block size t/R = {m} exceeds {MAX_GROUP_SIZE}: the permutation selector "
            f"alphabet ({m}!) would overflow 64-bit entries"
        )
    eta = []
    omega = []
    prefix = 0
    for i, lv in enumerate(config.levels):
        if prefix % R != 0:
            raise ConfigError(
                f"slot load of levels below level {i} ({prefix}) must be a multiple of "
                f"the largest demand {R}"
            )
        omega.append(prefix // R)
        eta.append(R // lv.r)
        prefix += lv.r * lv.u
    return Cons1Params(R=R, m=m, eta=tuple(eta), omega=tuple(omega), seed=config.seed)


def unrank_permutation(gamma: int, m: int) -> tuple[int, ...]:
    """The rank-gamma permutation of (0, ..., m-1) in lexicographic order.

    Decodes the factorial-base digits of gamma; rank 0 is the identity and
    rank m!-1 the full reversal.
    """
    if m < 1:
        raise ValueError(f"group size must be positive, got {m}")
    total = factorial(m)
    if not 0 <= gamma < total:
        raise ValueError(f"rank must lie in [0, {total}), got {gamma}")
    # object entries hold any Python int, so groups past 20 decode too
    return tuple(unrank_permutations(np.array([gamma], dtype=object), m)[0].tolist())


def unrank_permutations(ranks: np.ndarray, m: int) -> np.ndarray:
    """(len(ranks), m) int64 array: row i is the rank-ranks[i] permutation.

    ``ranks`` is a uint64 array of ranks in [0, m!) (20! - 1 fits), or an
    object array of Python ints.  Row i first holds the factorial-base digits
    of its rank, most significant first: digit k picks the k-th output as
    the digit-th smallest value not yet taken.  The right-to-left fix-up
    then turns those digits into values: each later entry at or above the
    entry at k moves up by one.
    """
    out = np.empty((len(ranks), m), dtype=np.int64)
    rest = ranks
    for k in range(m):
        place = factorial(m - 1 - k)
        out[:, k] = rest // place
        rest = rest % place
    for k in range(m - 2, -1, -1):
        tail = out[:, k + 1 :]
        tail += tail >= out[:, k : k + 1]
    return out


def derive_drivers(config: SystemConfig, params: Cons1Params | None = None) -> DriverSequences:
    """Draw the driver streams for a config from its seed.

    Deterministic: the selector and each level's base stream come from
    separately keyed counter-based substreams, so the same seed always
    reproduces the same drivers.
    """
    if params is None:
        params = cons1_params(config)
    length = config.t * params.R
    mfact = factorial(params.m)
    gen = rng.substream(params.seed, rng.DOMAIN_PERMUTATION_SELECTOR)
    selector = gen.integers(0, mfact, size=length, dtype=np.uint64)
    bases = []
    for i, eta in enumerate(params.eta):
        gi = rng.substream(params.seed, rng.DOMAIN_LEVEL_BASE, i)
        bases.append(gi.integers(0, eta, size=length, dtype=np.int64))
    return DriverSequences(selector=selector, level_base=tuple(bases))


def _driver_stream(stream, what: str, length: int, bound: int) -> np.ndarray:
    """``stream`` as an array of ``length`` ints in [0, bound); ConfigError otherwise."""
    arr = np.asarray(stream)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigError(f"{what} stream must be an integer array, got dtype {arr.dtype}")
    if arr.shape != (length,):
        raise ConfigError(f"{what} stream must have {length} entries, got shape {arr.shape}")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= bound):
        raise ConfigError(f"{what} entries must lie in [0, {bound})")
    return arr


def _check_drivers(drivers, params: Cons1Params, length: int) -> DriverSequences:
    """Injected ``drivers`` checked against the block parameters, selector as uint64."""
    check_instance(drivers, DriverSequences, "drivers")
    selector = _driver_stream(drivers.selector, "selector", length, factorial(params.m))
    bases = check_items(drivers.level_base, "level base streams")
    if len(bases) != len(params.eta):
        raise ConfigError(f"expected {len(params.eta)} level base streams, got {len(bases)}")
    return DriverSequences(
        selector=selector.astype(np.uint64),
        level_base=tuple(
            _driver_stream(base, f"level {i} base", length, eta)
            for i, (base, eta) in enumerate(zip(bases, params.eta))
        ),
    )


def construct1(config: SystemConfig, drivers: DriverSequences | None = None) -> HcsSet:
    """Build the permutation-table sequence set for a config.

    ``drivers`` is a test hook: injecting fixed streams makes the output a
    pure function of the block arithmetic.  Normal callers leave it None and
    get seed-derived streams.
    """
    params = cons1_params(config)
    length = config.t * params.R
    injected = drivers is not None
    if drivers is None:
        drivers = derive_drivers(config, params)
    else:
        drivers = _check_drivers(drivers, params, length)

    m = params.m
    perm_rows = unrank_permutations(drivers.selector, m)
    # each frame's permutation row twice over, so the position p + s of two
    # offsets p, s < m is read without a mod
    wide = np.concatenate([perm_rows, perm_rows], axis=1).ravel()
    row_start = np.arange(length) * (2 * m)

    sequences = []
    for i, lv in enumerate(config.levels):
        eta = params.eta[i]
        base = drivers.level_base[i].astype(np.int64, copy=False)
        users = np.arange(lv.u)
        # (user, frame) block of each user's run 0, shared by the users with
        # equal offset j % eta; run theta's block lies theta * eta further on
        offset = ((base + np.arange(min(lv.u, eta))[:, None]) % eta)[users % eta]
        # where run 0's position, (offset + omega + group) mod m, sits in wide
        first = offset + (params.omega[i] + users // eta)[:, None]
        first %= m
        first += row_start
        runs = np.arange(lv.r) * eta
        # (user, frame, run) slots of the whole level, gathered at once
        index = first[:, :, None] + runs % m
        frames = wide.take(index)
        # index now holds each slot's block, whose first slot is block * m
        np.add(offset[:, :, None], runs, out=index)
        index *= m
        frames += index
        for j in users.tolist():
            sequences.append(HcsSequence(level=i, user=j, frames=frames[j]))

    params_doc = {"seed": params.seed, "rng": rng.ALGORITHM}
    if injected:
        params_doc["drivers"] = "injected"
    return HcsSet(
        config=config,
        length=length,
        sequences=tuple(sequences),
        provenance={"kind": "c1", "params": params_doc},
    )
