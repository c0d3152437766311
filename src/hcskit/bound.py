"""Capacity accounting for level rosters.

A frame of t slots can host at most t slot-claims per frame, so any roster
with per-level demands r_i and user counts u_i must satisfy
sum(r_i * u_i) <= t; rosters meeting it with equality waste no capacity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import ConfigError, HcsError, SystemConfig, check_instance, check_int, check_items


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
        return {
            "load": self.load,
            "capacity": self.capacity,
            "slack": self.slack,
            "feasible": self.feasible,
            "optimal": self.optimal,
        }


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


def enumerate_user_counts(
    t: int,
    level_values: Sequence[int],
    cap: int = 10_000_000,
) -> list[UserCountTuple]:
    """All user-count tuples fitting in t slots, in lexicographic order.

    level_values are the per-level slot demands (positive ints, strictly
    increasing); t is a positive int and cap an int >= 0.  Every tuple of
    non-negative counts u with sum(r_i * u_i) <= t is emitted, the
    capacity-exact ones flagged optimal.  Raises EnumerationCapError once more
    than ``cap`` tuples would be produced.
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
    check_int(cap, "tuple cap")

    out: list[UserCountTuple] = []

    def rec(idx: int, prefix: tuple[int, ...], remaining: int) -> None:
        r = rv[idx]
        if idx == len(rv) - 1:
            for u in range(remaining // r + 1):
                if len(out) >= cap:
                    raise EnumerationCapError(
                        f"enumeration exceeds the cap of {cap} tuples; "
                        f"raise the cap or narrow the level values"
                    )
                left = remaining - u * r
                out.append(
                    UserCountTuple(counts=prefix + (u,), load=t - left, optimal=left == 0)
                )
            return
        for u in range(remaining // r + 1):
            rec(idx + 1, prefix + (u,), remaining - u * r)

    rec(0, (), t)
    return out
