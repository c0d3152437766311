"""Capacity accounting for level rosters.

A frame of t slots can host at most t slot-claims per frame, so any roster
with per-level demands r_i and user counts u_i must satisfy
sum(r_i * u_i) <= t; rosters meeting it with equality waste no capacity.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    _INT64_MAX,
    ConfigError,
    HcsError,
    SystemConfig,
    check_instance,
    check_int,
    check_items,
)

# rosters an iteration turns into Python objects at a time
_ITER_BLOCK = 1 << 16


class EnumerationCapError(HcsError):
    """Roster enumeration would exceed the configured tuple cap."""


@dataclass(frozen=True)
class BoundReport:
    load: int
    capacity: int
    slack: int
    optimal: bool

    @property
    def feasible(self) -> bool:
        return self.slack >= 0

    def to_dict(self) -> dict:
        return {**asdict(self), "feasible": self.feasible}


@dataclass(frozen=True)
class UserCountTuple:
    """One feasible roster in an enumeration: user counts per level."""

    counts: tuple[int, ...]
    load: int
    optimal: bool


def check_bound(config: SystemConfig) -> BoundReport:
    """Slot-load accounting for a roster; never raises on over-capacity."""
    load = check_instance(config, SystemConfig, "config").load
    slack = config.t - load
    return BoundReport(load=load, capacity=config.t, slack=slack, optimal=slack == 0)


@dataclass(frozen=True, eq=False)
class Rosters:
    """Every roster of an enumeration, as columns.

    Row i of the (N, L) int64 table ``counts`` holds roster i's user count
    per level, rows in lexicographic order; ``load[i]`` is its slot load
    sum(r_j * u_j), int64 (Python ints in an object array for a frame of
    2**63 - 1 slots or more), and the bool ``optimal[i]`` says whether that
    load is the whole frame.  ``len()`` is N, and iteration yields a
    UserCountTuple of plain ints and bools per row.
    """

    counts: np.ndarray
    load: np.ndarray
    optimal: np.ndarray

    def __len__(self) -> int:
        return len(self.load)

    def __iter__(self) -> Iterator[UserCountTuple]:
        for lo in range(0, len(self), _ITER_BLOCK):
            block = slice(lo, lo + _ITER_BLOCK)
            yield from map(
                UserCountTuple,
                map(tuple, self.counts[block].tolist()),
                self.load[block].tolist(),
                self.optimal[block].tolist(),
            )


def enumerate_user_counts(
    t: int,
    level_values: Sequence[int],
    cap: int = 10_000_000,
) -> Rosters:
    """All user-count tuples fitting in t slots, in lexicographic order.

    level_values are the per-level slot demands (positive ints, strictly
    increasing); t is a positive int and cap an int >= 0.  Every tuple of
    non-negative counts u with sum(r_i * u_i) <= t is emitted, the
    capacity-exact ones flagged optimal.  Raises EnumerationCapError, before
    building the level that would pass it, when more than ``cap`` tuples, or
    more than 2**63 - 1, would be produced.
    """
    rv = tuple(
        check_int(r, "level value", positive=True)
        for r in check_items(level_values, "level values")
    )
    if not rv:
        raise ConfigError("at least one level value is required")
    if any(b <= a for a, b in zip(rv, rv[1:])):
        raise ConfigError(f"level values must be strictly increasing, got {rv}")
    check_int(t, "frame size", positive=True)
    # numpy counts and indexes the rosters in int64, whatever the cap
    cap = min(check_int(cap, "tuple cap"), _INT64_MAX)

    # the slots each roster prefix leaves, and its counts one column per level;
    # a prefix extends to left // r + 1 rosters, siblings in increasing count,
    # so repeating each prefix that often keeps the lexicographic order.
    # Below 2**63 - 1 slots every left // r + 1 fits int64; above, Python ints do
    left = np.array([t], np.int64 if t < _INT64_MAX else object)
    columns: list[np.ndarray] = []
    for r in rv:
        # a level demanding more than t slots takes no user; t + 1 keeps the
        # divisor within the dtype of left
        r = min(r, t + 1)
        extend = left // r + 1
        # an int64 sum wraps past 2**63 where Python's does not
        if len(extend) * int(extend.max()) > _INT64_MAX:
            extend = extend.astype(object)
        if int(extend.sum()) > cap:
            raise EnumerationCapError(
                f"enumeration exceeds the cap of {cap} tuples; "
                f"raise the cap, up to 2**63 - 1, or narrow the level values"
            )
        extend = extend.astype(np.int64, copy=False)
        ends = np.cumsum(extend)
        prefix = np.repeat(np.arange(len(extend)), extend)
        u = np.arange(ends[-1]) - (ends - extend)[prefix]
        columns = [c[prefix] for c in columns] + [u]
        left = left[prefix] - u.astype(left.dtype, copy=False) * r
    return Rosters(counts=np.stack(columns, axis=1), load=t - left, optimal=left == 0)
