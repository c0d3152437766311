"""Iterated modular-affine construction for multi-level slot sets.

Start from the t cyclic shift rows c_k(b0) = (k + b0) mod t and extend n
times: each extension round multiplies the length by d and scales the row
values by powers of a unit g modulo t.  Row k at composite index
b = (a_n, ..., a_1, b0) (digits a in base d, remainder b0 in base t) is

    g^((a_n + ... + a_1) mod d) * (k + a_1 + b0) mod t

Distinct rows stay distinct at every index because g's powers are units,
so a roster mapped to disjoint row ranges is collision-free; each row also
visits every slot exactly d^n times per cycle.

When d is omitted it is the true multiplicative order of g.  An explicit d
(e.g. the unit-group size, for reproducing previously published tables
built with an overstated order) is taken as given and needs an explicit g;
all collision and occupancy properties hold for any d >= 1.  Provenance
records such a set as "compat" and a true-order one as "true-order".

The frames come in blocks of t, one per q = frame // t.  Within a block the
slots depend only on e(q) = digit-sum(q) mod d and the low digit a_1(q), so
e is built for all d^n blocks, one appended digit per round.  Up to d^2
blocks (n <= 2), each block's slots are computed directly.  Past that, each
sequence gets a table with one row of t slot tuples per (e, a_1) pair, and
its frames are gathered from that table.  Either way no table is larger
than the set: tables are computed in int64 a few blocks at a time, and a
sequence's blocks, in the set's slot dtype (core.slot_dtype), are joined
into the ``bytes`` that the set keeps as its table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    HcsSequence,
    HcsSet,
    SystemConfig,
    check_instance,
    check_int,
    frames_per_block,
    level_offsets,
    max_frames,
    slot_dtype,
)

# int64 cells one pass of _table takes, so its scratch stays near 64 KiB
# however long the set
TABLE_BLOCK_CELLS = 1 << 13
# table cells one gather of construct2 takes: gathers of 2**15 to 2**19 cells
# build the t = 16, n = 7 sets (4 MiB of uint8 tables) equally fast, and
# smaller ones cost more calls, so a gather stays near 128 KiB of uint8
GATHER_BLOCK_CELLS = 1 << 17


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return primes + [n] if n > 1 else primes


def _carmichael(t: int) -> int:
    """lambda(t), the largest multiplicative order of any unit modulo t."""
    lam = 1
    for p in _prime_factors(t):
        k = 0
        while t % p == 0:
            t //= p
            k += 1
        lam = math.lcm(lam, 2 ** (k - 2) if p == 2 and k >= 3 else p ** (k - 1) * (p - 1))
    return lam


def multiplicative_order(g: int, t: int) -> int:
    """Smallest d >= 1 with g^d = 1 mod t; g must be a unit modulo t.

    The order divides lambda(t), so it is lambda(t) with each prime factor
    taken out while g to the remaining power is still 1.
    """
    if t < 2:
        raise ValueError(f"modulus must be at least 2, got {t}")
    if math.gcd(g, t) != 1:
        raise ValueError(f"{g} is not a unit modulo {t}")
    order = _carmichael(t)
    for p in _prime_factors(order):
        while order % p == 0 and pow(g, order // p, t) == 1:
            order //= p
    return order


def find_generator(t: int) -> tuple[int, int]:
    """(g, d): the smallest unit of maximal multiplicative order modulo t.

    No unit's order exceeds lambda(t) and some unit's reaches it, so d is
    lambda(t) and the search stops at the first unit whose order it is.
    """
    if t < 2:
        raise ValueError(f"modulus must be at least 2, got {t}")
    most = _carmichael(t)
    g = next(u for u in range(1, t) if math.gcd(u, t) == 1 and multiplicative_order(u, t) == most)
    return g, most


@dataclass(frozen=True)
class Cons2Params:
    """Unit g, exponent modulus d, round count n, per-level row offsets."""

    g: int
    d: int
    n: int
    omega2: tuple[int, ...]


def cons2_params(
    config: SystemConfig,
    n: int,
    g: int | None = None,
    d: int | None = None,
) -> Cons2Params:
    t = check_instance(config, SystemConfig, "config").t
    if t < 2:
        raise ConfigError(f"frame size must be at least 2, got {t}")
    check_int(n, "round count", positive=True)
    omega2 = level_offsets(config)
    # d is exact before any unit is searched: a derived g's order is lambda(t)
    if g is None:
        if d is not None:
            raise ConfigError("an explicit exponent modulus d needs an explicit unit g")
        d = _carmichael(t)
    else:
        check_int(g, "unit", positive=True)
        if math.gcd(g, t) != 1:
            raise ConfigError(f"{g} is not a unit modulo {t}")
        if d is None:
            d = multiplicative_order(g, t)
        else:
            check_int(d, "exponent modulus", positive=True)
    frames = max_frames(t)
    room = frames // t
    # d >= 2 doubles the length each round, so n >= log2(room) rounds never fit
    if room == 0 or d > 1 and (n >= room.bit_length() or d**n > room):
        raise ConfigError(
            f"sequence length d^n*t = {d}^{n}*{t} exceeds the {frames}-frame guard; "
            f"pick fewer rounds or a smaller-order unit"
        )
    if g is None:
        g, d = find_generator(t)
    return Cons2Params(g=g, d=d, n=n, omega2=omega2)


def _table(rows: np.ndarray, a1: np.ndarray, mult: np.ndarray, t: int) -> np.ndarray:
    """The (len(a1), t, r) table ``(rows + a1[i]) * mult[i] mod t`` of the
    (t, r) array ``rows``, in ``slot_dtype(t)``, over one ``bytes`` object.

    It is computed a few blocks at a time in one int64 scratch of about
    TABLE_BLOCK_CELLS cells, written in place: a ufunc that broadcasts into
    a new array also allocates a buffer of about that array's size.  The
    blocks are cast to the slot dtype and joined.
    """
    dtype = slot_dtype(t)
    step = min(frames_per_block(TABLE_BLOCK_CELLS, rows.size), len(a1))
    scratch = np.empty((step,) + rows.shape, np.int64)
    parts = []
    for lo in range(0, len(a1), step):
        block = scratch[:len(a1) - lo]
        hi = lo + len(block)
        block[:] = rows
        block += a1[lo:hi, None, None]
        block *= mult[lo:hi, None, None]
        block %= t
        # every slot is below t, so the cast is exact
        parts.append(block.astype(dtype))
    return np.frombuffer(b"".join(parts), dtype).reshape((len(a1),) + rows.shape)


def construct2(
    config: SystemConfig,
    n: int,
    g: int | None = None,
    d: int | None = None,
) -> HcsSet:
    """Build the iterated modular-affine sequence set.

    An omitted d is g's true order (g is derived too if omitted); an explicit
    d is taken as given and needs an explicit g.

    Users are packed onto consecutive rows in level order: level i's user j
    owns rows offset + j*r_i .. offset + (j+1)*r_i - 1, where offset is the
    total slot load of the levels below i.
    """
    params = cons2_params(config, n, g=g, d=d)
    t = config.t
    length = params.d**n * t

    # block q = frame // t has exponent e(q) = digit-sum(q) mod d: append one
    # low digit per round (with d = 1 every digit is 0, so no round is run)
    e = np.zeros(1, dtype=np.int64)
    for _ in range(params.n if params.d > 1 else 0):
        e = (e[:, None] + np.arange(params.d)).ravel()
    e %= params.d
    a1 = np.arange(len(e)) % params.d
    # a block's rows depend only on (e, a1); past d^2 blocks, build one table
    # row per (e, a1) key and gather it, so the table never outgrows the set
    key = None
    if len(e) > params.d**2:
        key = e * params.d + a1
        e, a1 = np.divmod(np.arange(params.d**2), params.d)
    pow_g = np.array([pow(params.g, x, t) for x in range(params.d)], dtype=np.int64)
    mult = pow_g[e]

    sequences = []
    for i, lv in enumerate(config.levels):
        for j in range(lv.u):
            first_row = params.omega2[i] + j * lv.r
            # row + k at slot k of a block, before its shift a1 and unit power
            rows = np.arange(first_row, first_row + lv.r) + np.arange(t)[:, None]
            table = _table(rows, a1, mult, t)
            if key is not None:
                step = frames_per_block(GATHER_BLOCK_CELLS, table[0].size)
                parts = [table.take(key[lo:lo + step], axis=0) for lo in range(0, len(key), step)]
                table = np.frombuffer(b"".join(parts), table.dtype)
            sequences.append(HcsSequence(level=i, user=j, frames=table.reshape(length, lv.r)))

    mode = "true-order" if d is None else "compat"
    return HcsSet(
        config=config,
        length=length,
        sequences=tuple(sequences),
        provenance={
            "kind": "c2",
            "params": {"g": params.g, "d": params.d, "n": params.n, "mode": mode},
        },
    )
