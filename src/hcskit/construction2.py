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
slots depend only on e(q) = digit-sum(q) mod d and the low digit a_1(q),
so e is built for all d^n blocks, one appended digit per round.  Up to d^2
blocks (n <= 2), each block's slots are computed directly.  Past that, each
sequence gets a table with one row of t slot tuples per (e, a_1) pair, and
its frames are one gather from that table.  Either way no table is larger
than the set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, HcsSequence, HcsSet, SystemConfig, check_instance, check_int

# guard against accidental huge d^n * t allocations
MAX_LENGTH = 20_000_000


def multiplicative_order(g: int, t: int) -> int:
    """Smallest d >= 1 with g^d = 1 mod t; g must be a unit modulo t."""
    if t < 2:
        raise ValueError(f"modulus must be at least 2, got {t}")
    if math.gcd(g, t) != 1:
        raise ValueError(f"{g} is not a unit modulo {t}")
    x = g % t
    d = 1
    while x != 1:
        x = x * g % t
        d += 1
    return d


def find_generator(t: int) -> tuple[int, int]:
    """(g, d): the smallest unit of maximal multiplicative order modulo t."""
    if t < 2:
        raise ValueError(f"modulus must be at least 2, got {t}")
    best_g, best_d = 1, 1
    for g in range(1, t):
        if math.gcd(g, t) == 1:
            d = multiplicative_order(g, t)
            if d > best_d:
                best_g, best_d = g, d
    return best_g, best_d


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
    if config.load > t:
        raise ConfigError(
            f"roster claims {config.load} slots per frame but the frame has only {t}"
        )
    if g is None:
        if d is not None:
            raise ConfigError("an explicit exponent modulus d needs an explicit unit g")
        g, d = find_generator(t)
    else:
        check_int(g, "unit", positive=True)
        if math.gcd(g, t) != 1:
            raise ConfigError(f"{g} is not a unit modulo {t}")
        if d is None:
            d = multiplicative_order(g, t)
        else:
            check_int(d, "exponent modulus", positive=True)
    omega2 = []
    prefix = 0
    for lv in config.levels:
        omega2.append(prefix)
        prefix += lv.r * lv.u
    # d >= 2 doubles the length each round, so a long n fails before d**n is built
    if (d >= 2 and n >= MAX_LENGTH.bit_length()) or d**n * t > MAX_LENGTH:
        raise ConfigError(
            f"sequence length d^n*t = {d}^{n}*{t} exceeds the {MAX_LENGTH} guard; "
            f"pick fewer rounds or a smaller-order unit"
        )
    return Cons2Params(g=g, d=d, n=n, omega2=tuple(omega2))


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
    mult = pow_g[e][:, None, None]
    shift = (a1[:, None] + np.arange(t))[:, :, None]

    sequences = []
    for i, lv in enumerate(config.levels):
        for j in range(lv.u):
            first_row = params.omega2[i] + j * lv.r
            rows = np.arange(first_row, first_row + lv.r, dtype=np.int64)
            table = rows + shift
            table *= mult
            table %= t
            frames = (table if key is None else table.take(key, axis=0)).reshape(length, lv.r)
            sequences.append(HcsSequence(level=i, user=j, frames=frames))

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
