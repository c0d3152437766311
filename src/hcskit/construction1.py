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
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import rng
from .core import ConfigError, HcsSequence, HcsSet, SystemConfig

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
    t = config.t
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
    avail = list(range(m))
    out = []
    g = int(gamma)
    for i in range(m - 1, -1, -1):
        d, g = divmod(g, factorial(i))
        out.append(avail.pop(d))
    return tuple(out)


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


def _check_drivers(drivers: DriverSequences, params: Cons1Params, length: int) -> None:
    if drivers.selector.shape != (length,):
        raise ConfigError(
            f"selector stream must have {length} entries, got {drivers.selector.shape}"
        )
    mfact = factorial(params.m)
    sel = np.asarray(drivers.selector, dtype=np.uint64)
    if sel.size and int(sel.max()) >= mfact:
        raise ConfigError(f"selector entries must lie in [0, {mfact})")
    if len(drivers.level_base) != len(params.eta):
        raise ConfigError(
            f"expected {len(params.eta)} level base streams, got {len(drivers.level_base)}"
        )
    for i, (base, eta) in enumerate(zip(drivers.level_base, params.eta)):
        b = np.asarray(base)
        if b.shape != (length,):
            raise ConfigError(f"level {i} base stream must have {length} entries")
        if b.size and (int(b.min()) < 0 or int(b.max()) >= eta):
            raise ConfigError(f"level {i} base entries must lie in [0, {eta})")


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
        _check_drivers(drivers, params, length)

    # one decoded permutation row per frame; ranks repeat, so each is decoded once
    ranks, which = np.unique(drivers.selector, return_inverse=True)
    table = np.array([unrank_permutation(int(g), params.m) for g in ranks], dtype=np.int64)
    perm_rows = table[which]

    frame_idx = np.arange(length)
    sequences = []
    for i, lv in enumerate(config.levels):
        eta = params.eta[i]
        om = params.omega[i]
        base = np.asarray(drivers.level_base[i], dtype=np.int64)
        for j in range(lv.u):
            eps = j % eta
            group = j // eta
            frames = np.empty((length, lv.r), dtype=np.int64)
            for theta in range(lv.r):
                block = (base + eps) % eta + theta * eta
                pos = (block + om + group) % params.m
                frames[:, theta] = perm_rows[frame_idx, pos] + block * params.m
            sequences.append(HcsSequence(level=i, user=j, frames=frames))

    params_doc = {"seed": params.seed, "rng": rng.ALGORITHM}
    if injected:
        params_doc["drivers"] = "injected"
    return HcsSet(
        config=config,
        length=length,
        sequences=tuple(sequences),
        provenance={"kind": "c1", "params": params_doc},
    )
