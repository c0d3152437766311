"""Checks made apart from hcskit, and the shadow allocator that writes scripts.

Nothing here imports hcskit: every expectation is recomputed from raw slot
tables, audit rows or closed-form error rates, so a fault in the program
cannot hide behind the same fault in its checker.
"""
from __future__ import annotations

import bisect
import math
from collections import deque

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent expectation."""


# ---------------------------------------------------------------------------
# slot tables


def check_claims(t: int, tables: list[np.ndarray], saturated: bool) -> None:
    """No (frame, slot) pair is claimed twice; at saturation each exactly once.

    ``tables`` holds one (length, r) slot table per sequence.  The claim grid
    is one bincount of frame * t + slot over every claim of every sequence.
    """
    length = tables[0].shape[0]
    slots = np.concatenate([np.asarray(tab).reshape(-1) for tab in tables])
    if slots.min() < 0 or slots.max() >= t:
        raise CheckFailed(f"slot value outside [0, {t})")
    frames = np.concatenate(
        [np.repeat(np.arange(length), np.asarray(tab).shape[1]) for tab in tables]
    )
    grid = np.bincount(frames * t + slots, minlength=length * t)
    if grid.max() > 1:
        cell = int(np.argmax(grid > 1))
        raise CheckFailed(f"frame {cell // t} slot {cell % t} claimed {int(grid[cell])} times")
    if saturated and grid.min() != 1:
        cell = int(np.argmin(grid))
        raise CheckFailed(f"saturated roster leaves frame {cell // t} slot {cell % t} unclaimed")


def check_c2_runs(t: int, tables: list[np.ndarray], visits: int) -> None:
    """Every run (one column of a c2 slot table) visits each slot ``visits`` times."""
    runs = np.concatenate([np.asarray(tab).T for tab in tables])
    offsets = np.arange(runs.shape[0])[:, None] * t
    per_run = np.bincount((runs + offsets).reshape(-1), minlength=runs.shape[0] * t)
    per_run = per_run.reshape(runs.shape[0], t)
    if not np.all(per_run == visits):
        run, slot = (int(x[0]) for x in np.nonzero(per_run != visits))
        raise CheckFailed(
            f"run {run} visits slot {slot} {int(per_run[run, slot])} times, expected {visits}"
        )


def check_audit(t: int, audit: list[tuple]) -> None:
    """No (frame, slot) pair appears twice among the audit rows."""
    if not audit:
        return
    cells = np.fromiter((row[0] * t + row[1] for row in audit), dtype=np.int64, count=len(audit))
    grid = np.bincount(cells)
    if grid.max() > 1:
        cell = int(np.argmax(grid > 1))
        raise CheckFailed(f"audit claims frame {cell // t} slot {cell % t} {int(grid[cell])} times")


def count_rosters(t: int, demands: tuple[int, ...]) -> int:
    """Number of user-count tuples u >= 0 with sum(r_i * u_i) <= t (coin-change count)."""
    ways = [1] + [0] * t
    for r in demands:
        for load in range(r, t + 1):
            ways[load] += ways[load - r]
    return sum(ways)


# ---------------------------------------------------------------------------
# symbol error rate


def q_tail(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ser_moments(n_clean: int, n_hit: int, snr_db: float, power_db: float) -> tuple[float, float]:
    """Mean and variance of Bin(n_clean, p_clean) + Bin(n_hit, p_hit) for BPSK.

    p_clean = Q(1/sqrt(N0/2)) = erfc(1/sqrt(N0))/2 and
    p_hit = Q(1/sqrt(N0/2 + 10^(P/10))), with N0 = 10^(-SNR/10).
    """
    n0 = 10.0 ** (-snr_db / 10.0)
    p_clean = q_tail(1.0 / math.sqrt(n0 / 2.0))
    p_hit = q_tail(1.0 / math.sqrt(n0 / 2.0 + 10.0 ** (power_db / 10.0)))
    mean = n_clean * p_clean + n_hit * p_hit
    var = n_clean * p_clean * (1 - p_clean) + n_hit * p_hit * (1 - p_hit)
    return mean, var


def check_ser_point(errors: int, total: int, n_hit: int, snr_db: float, power_db: float,
                    sigmas: float = 5.0) -> None:
    mean, var = ser_moments(total - n_hit, n_hit, snr_db, power_db)
    if abs(errors - mean) > sigmas * math.sqrt(var):
        raise CheckFailed(
            f"{errors} errors at {snr_db} dB, expected {mean:.1f} +- {sigmas} x {math.sqrt(var):.1f}"
        )


def hit_slots(table: np.ndarray, frames: int, interfered: tuple[int, ...]) -> int:
    """Transmitted slots on interfered slot numbers when ``table`` cycles for ``frames``.

    Counted per cycle: full cycles times the hits of one cycle, plus the hits of
    the leading rows of the last, partial cycle.
    """
    hit = np.isin(np.asarray(table), np.asarray(interfered)).sum(axis=1)
    full, rest = divmod(frames, table.shape[0])
    return int(full * hit.sum() + hit[:rest].sum())


# ---------------------------------------------------------------------------
# allocator


class ShadowAllocator:
    """Lowest-id pools, FIFO queues, a freed sequence goes to the queue head.

    Mirrors the allocator's documented policy with its own bookkeeping.  It
    only lets users leave who hold a sequence: a queued user who leaves makes
    the allocator raise (see CHANGES.md), so the scripts avoid that case.
    """

    def __init__(self, seq_levels: list[int], demands: tuple[int, ...]):
        self.demands = demands
        self.pools: list[list[int]] = [[] for _ in demands]
        for sid, level in enumerate(seq_levels):
            self.pools[level].append(sid)
        self.queues: list[deque[str]] = [deque() for _ in demands]
        self.holders: dict[str, tuple[int, int]] = {}
        self.grants: list[tuple[int, str, int]] = []
        self.queued = 0
        self.claims_per_frame = 0

    def join(self, user: str, level: int) -> None:
        pool = self.pools[level]
        if pool:
            self.holders[user] = (level, pool.pop(0))
            self.claims_per_frame += self.demands[level]
        else:
            self.queues[level].append(user)
            self.queued += 1

    def leave(self, user: str, frame: int) -> None:
        level, sid = self.holders.pop(user)
        if self.queues[level]:
            head = self.queues[level].popleft()
            self.holders[head] = (level, sid)
            self.grants.append((frame, head, sid))
        else:
            bisect.insort(self.pools[level], sid)
            self.claims_per_frame -= self.demands[level]


def allocator_script(
    rng: np.random.Generator,
    seq_levels: list[int],
    demands: tuple[int, ...],
    cycles: int,
    burst: int,
    quiet: int,
) -> tuple[list[dict], ShadowAllocator, int, list[tuple[int, int, str]]]:
    """A join/leave script of churn bursts with quiet spans between them.

    Each burst frame carries two events.  Their levels follow one fixed
    pattern, the same for every ``rng``, so every seed audits the same number
    of claims; ``rng`` picks which holder leaves.  In the first half of a burst a level takes joins until its holders and waiting users
    exceed its pool by two, so queues form; in the second half its holders
    leave until they fill 70% of the pool, so the queues drain.  Quiet spans
    carry no event.  The script ends on a burst, so the replay audits every
    frame listed here.  Returns the script, the shadow allocator after it,
    the audit row count the script implies, and the phases as (first frame,
    end frame, kind).
    """
    shadow = ShadowAllocator(seq_levels, demands)
    pool_size = [seq_levels.count(level) for level in range(len(demands))]
    pattern = iter(np.random.default_rng(0).integers(len(demands), size=2 * cycles * burst))
    script: list[dict] = []
    phases: list[tuple[int, int, str]] = []
    audit_rows = 0
    frame = 0
    serial = 0
    for cycle in range(cycles):
        if cycle:
            phases.append((frame, frame + quiet, "quiet"))
            audit_rows += quiet * shadow.claims_per_frame
            frame += quiet
        phases.append((frame, frame + burst, "churn"))
        for step in range(burst):
            filling = step < burst // 2
            for _ in range(2):
                level = int(next(pattern))
                holders = [u for u, (lv, _) in shadow.holders.items() if lv == level]
                target = pool_size[level] + 2 if filling else 0.7 * pool_size[level]
                if holders and len(holders) + len(shadow.queues[level]) >= target:
                    user = holders[int(rng.integers(len(holders)))]
                    script.append({"frame": frame, "action": "leave", "user": user})
                    shadow.leave(user, frame)
                else:
                    user = f"u{serial}"
                    serial += 1
                    script.append({"frame": frame, "action": "join", "user": user, "level": level})
                    shadow.join(user, level)
            audit_rows += shadow.claims_per_frame
            frame += 1
    return script, shadow, audit_rows, phases
