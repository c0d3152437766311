"""Sequence assignment center: who transmits on which slots, frame by frame.

A central allocator owns one pool of idle sequences per level.  Users ask to
join at a level and either get the lowest-numbered idle sequence or wait in
that level's FIFO queue; a leaving user's sequence goes to the queue head if
anyone is waiting, back to the pool otherwise.  Slot lookup cycles through
the assigned sequence and, in the default global alignment, indexes it by
the network frame counter so all users stay on the same sequence position
and collision freedom carries over from the verified set.
"""
from __future__ import annotations

import bisect
import dataclasses
from collections import deque

import numpy as np

from .core import (
    ConfigError,
    HcsSet,
    check_instance,
    check_int,
    check_items,
    frames_per_block,
)
from .verification import verify

ALIGNMENTS = ("global", "per-user")

# largest audit run_script builds: (last frame + 1) * roster load rows
MAX_AUDIT_ROWS = 1 << 22
# rows the audit gathers and sorts in one numpy pass; bounds its scratch memory
AUDIT_BLOCK_ROWS = 1 << 15


@dataclasses.dataclass(frozen=True)
class SacEvent:
    frame: int
    kind: str
    user: str
    level: int
    sequence: int | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _frame_index(frame, join_frame: int, length: int, alignment: str):
    """Row of a holder's sequence table used in ``frame`` (an int or an array).

    Global alignment indexes by the network frame count, per-user alignment
    from the holder's first synchronized frame; both wrap after ``length``.
    """
    return (frame if alignment == "global" else frame - join_frame) % length


class SacState:
    """Allocator state; single-writer, events applied in frame order."""

    def __init__(
        self,
        hcs_set: HcsSet,
        alignment: str = "global",
        sync_delay: int = 0,
        assign_seed: int | None = None,
    ):
        if alignment not in ALIGNMENTS:
            raise ConfigError(f"unknown alignment {alignment!r}, expected one of {ALIGNMENTS}")
        check_int(sync_delay, "sync delay")
        self.hcs_set = check_instance(hcs_set, HcsSet, "set")
        self.alignment = alignment
        self.sync_delay = sync_delay
        self.frame = 0
        self.events: list[SacEvent] = []
        # sequence ids are positions in the set's (level, user)-sorted tuple
        self.pools: list[list[int]] = [[] for _ in hcs_set.config.levels]
        for sid, s in enumerate(hcs_set.sequences):
            self.pools[s.level].append(sid)
        for pool in self.pools:
            pool.sort()
        self.queues: list[deque[str]] = [deque() for _ in hcs_set.config.levels]
        # each holder's grant: the event that gave it its sequence
        self.assignments: dict[str, SacEvent] = {}
        if assign_seed is None:
            self._rng = None
            self.policy = "lowest-id"
        else:
            self._rng = np.random.default_rng(check_int(assign_seed, "assign seed"))
            self.policy = f"seeded-random:{assign_seed}"

    # -- internals ---------------------------------------------------------

    def _advance(self, frame: int) -> None:
        if frame < self.frame:
            raise ValueError(
                f"events must arrive in frame order: got frame {frame} after {self.frame}"
            )
        self.frame = frame

    def _pick(self, pool: list[int]) -> int:
        if self._rng is None:
            return pool.pop(0)
        return pool.pop(int(self._rng.integers(len(pool))))

    def _log(
        self, frame: int, kind: str, user: str, level: int, sequence: int | None = None
    ) -> SacEvent:
        event = SacEvent(frame=frame, kind=kind, user=user, level=level, sequence=sequence)
        self.events.append(event)
        return event

    # -- operations --------------------------------------------------------

    def request_access(self, user: str, level: int, frame: int) -> SacEvent:
        """Join request; returns the outcome event (assigned or queued)."""
        self._advance(frame)
        if not 0 <= level < self.hcs_set.config.num_levels:
            raise ValueError(f"unknown level {level}")
        if user in self.assignments:
            raise ValueError(f"user {user!r} already holds a sequence")
        if any(user in q for q in self.queues):
            raise ValueError(f"user {user!r} is already waiting")
        self._log(frame, "join-request", user, level)
        pool = self.pools[level]
        if pool:
            grant = self._log(frame, "assigned", user, level, self._pick(pool))
            self.assignments[user] = grant
            return grant
        self.queues[level].append(user)
        return self._log(frame, "queued", user, level)

    def release(self, user: str, frame: int) -> list[SacEvent]:
        """Leave; frees the sequence and grants it to the queue head, if any.

        A user still waiting leaves its level's queue; the released event
        then carries no sequence.
        """
        self._advance(frame)
        grant = self.assignments.pop(user, None)
        if grant is None:
            for level, queue in enumerate(self.queues):
                if user in queue:
                    queue.remove(user)
                    return [self._log(frame, "released", user, level)]
            raise ValueError(f"user {user!r} holds no sequence and is not waiting")
        level, sid = grant.level, grant.sequence
        out = [self._log(frame, "released", user, level, sid)]
        if self.queues[level]:
            head = self.queues[level].popleft()
            self.assignments[head] = self._log(frame, "granted-from-queue", head, level, sid)
            out.append(self.assignments[head])
        else:
            bisect.insort(self.pools[level], sid)
        return out

    def slots_for(self, user: str, frame: int) -> tuple[int, ...]:
        """Slot tuple the user transmits on in the given frame.

        Global alignment indexes every sequence by the network frame count;
        per-user alignment starts each user at its own join frame.  Both wrap
        cyclically after the sequence length.
        """
        grant = self.assignments.get(user)
        if grant is None:
            raise ValueError(f"user {user!r} holds no sequence")
        join_frame = grant.frame + self.sync_delay
        if frame < join_frame:
            raise ValueError(f"user {user!r} is not synchronized until frame {join_frame}")
        seq = self.hcs_set.sequences[grant.sequence]
        return seq.frame(_frame_index(frame, join_frame, seq.length, self.alignment))

    # -- snapshots ---------------------------------------------------------

    def pool_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.pools)

    def queue_lengths(self) -> tuple[int, ...]:
        return tuple(len(q) for q in self.queues)


def init(
    hcs_set: HcsSet,
    alignment: str = "global",
    sync_delay: int = 0,
    assign_seed: int | None = None,
) -> SacState:
    """Allocator for a verified set; refuses sets that fail verification."""
    report = verify(hcs_set)
    for name, check in report.gates():
        if not check.passed:
            raise ConfigError(f"set failed verification ({name}): {check.detail}")
    return SacState(
        hcs_set, alignment=alignment, sync_delay=sync_delay, assign_seed=assign_seed
    )


def _check_entry(entry, pos: int) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"script entry {pos}: expected an object, got {entry!r}")
    check_int(entry.get("frame"), f"script entry {pos}: frame", error=ValueError)
    action = entry.get("action")
    if action not in ("join", "leave"):
        raise ValueError(f"script entry {pos}: unknown action {action!r}")
    if not isinstance(entry.get("user"), str):
        raise ValueError(f"script entry {pos}: user must be a name, got {entry.get('user')!r}")
    if action == "join":
        check_int(entry.get("level"), f"script entry {pos}: level", error=ValueError)


def _holdings(state: SacState, end: int) -> list[list]:
    """[first, stop, user, level, sequence] of every grant in the event log.

    A holding is audited in frames [first, stop): from its grant frame plus
    the sync delay up to its holder's release with a sequence, or ``end``.
    Holdings that never synchronize are left out; the rest are sorted by
    user, so holding order is user order within any one frame.
    """
    spans: list[list] = []
    open_at: dict[str, int] = {}
    for e in state.events:
        if e.kind in ("assigned", "granted-from-queue"):
            open_at[e.user] = len(spans)
            spans.append([e.frame + state.sync_delay, end, e.user, e.level, e.sequence])
        elif e.kind == "released" and e.sequence is not None:
            spans[open_at.pop(e.user)][1] = e.frame
    return sorted((h for h in spans if h[0] < h[1]), key=lambda h: h[2])


@dataclasses.dataclass(frozen=True, eq=False)
class Audit:
    """Slot claims of a replay, as three sorted int64 columns.

    Row i claims slot ``slot[i]`` in frame ``frame[i]`` for holding
    ``holding[i]``, an index into ``holdings``, whose entries are
    (first, stop, user, level, sequence).  Rows are sorted by (frame, slot,
    user).  Iteration yields (frame, slot, user, level, sequence) tuples of
    plain ints and strs, made AUDIT_BLOCK_ROWS rows at a time; ``audit[i]``
    is row i, and ``audit + rows`` a list of every row followed by ``rows``.
    """

    frame: np.ndarray
    slot: np.ndarray
    holding: np.ndarray
    holdings: tuple[tuple[int, int, str, int, int], ...]

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, index: int) -> tuple[int, int, str, int, int]:
        row = range(len(self))[index]
        _, _, user, level, sequence = self.holdings[self.holding[row]]
        return int(self.frame[row]), int(self.slot[row]), user, level, sequence

    def __add__(self, rows) -> list[tuple[int, int, str, int, int]]:
        return [*self, *rows]

    def __iter__(self):
        # object columns: a gather hands back the holding's own str and int objects
        users, levels, sequences = (
            np.array([h[2:] for h in self.holdings], dtype=object).reshape(-1, 3).T
        )
        for lo in range(0, len(self), AUDIT_BLOCK_ROWS):
            block = slice(lo, lo + AUDIT_BLOCK_ROWS)
            holding = self.holding[block]
            yield from zip(
                self.frame[block].tolist(),
                self.slot[block].tolist(),
                users[holding].tolist(),
                levels[holding].tolist(),
                sequences[holding].tolist(),
            )


def _audit(state: SacState, end: int) -> tuple[Audit, list[tuple[int, int]]]:
    """Audit and collisions of frames [0, end), built block by block.

    Each holding's slots over a block are one gather from its sequence table.
    Parts are joined in holding order, which is user order, so one stable
    sort on frame * t + slot orders the block's rows by (frame, slot, user);
    a row whose (frame, slot) equals the row before it is a collision.
    """
    holdings = tuple(map(tuple, _holdings(state, end)))
    if not holdings:
        empty = np.zeros(0, dtype=np.int64)
        return Audit(empty, empty, empty, holdings), []
    begin, until, *_ = zip(*holdings)
    first, stop = np.array(begin), np.array(until)
    tables = [state.hcs_set.sequences[h[4]].frames for h in holdings]
    t = state.hcs_set.t
    block = frames_per_block(AUDIT_BLOCK_ROWS, state.hcs_set.config.load)
    columns: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    collisions: list[tuple[int, int]] = []
    for lo in range(int(first.min()), int(stop.max()), block):
        hi = lo + block
        parts_frame, parts_slot, parts_holding = [], [], []
        for k in np.flatnonzero((first < hi) & (stop > lo)).tolist():
            frames = np.arange(max(begin[k], lo), min(until[k], hi))
            table = tables[k]
            slots = table[_frame_index(frames, begin[k], len(table), state.alignment)]
            parts_frame.append(np.repeat(frames, table.shape[1]))
            parts_slot.append(slots.ravel())
            parts_holding.append(np.full(slots.size, k))
        if not parts_frame:
            continue
        frame = np.concatenate(parts_frame)
        slot = np.concatenate(parts_slot)
        key = (frame - lo) * t + slot
        order = np.argsort(key, kind="stable")
        frame, slot = frame[order], slot[order]
        columns.append((frame, slot, np.concatenate(parts_holding)[order]))
        dup = np.flatnonzero(np.diff(key[order]) == 0) + 1
        collisions.extend(zip(frame[dup].tolist(), slot[dup].tolist()))
    frame, slot, holding = (np.concatenate(c) for c in zip(*columns))
    return Audit(frame, slot, holding, holdings), collisions


def run_script(
    hcs_set: HcsSet,
    script: list[dict],
    alignment: str = "global",
    sync_delay: int = 0,
    assign_seed: int | None = None,
) -> tuple[SacState, Audit, list[tuple[int, int]]]:
    """Drive an allocator with a join/leave script and audit slot usage.

    Script entries, a list or tuple, are {"frame": f, "action":
    "join"|"leave", "user": name, "level": i (join only)}; entries are applied
    in (frame, script order).  Returns the final state, the Audit of every
    synchronized user's slot claims in frames 0..max scripted frame, sorted
    by (frame, slot, user), and the (frame, slot) pairs claimed more than
    once.  The audit is built per holding once every entry is applied: a
    grant holds from its frame plus the sync delay until its holder leaves,
    and its claims are gathered from its sequence table with numpy,
    AUDIT_BLOCK_ROWS rows at a time, so frames where nothing changes cost no
    Python loop.  A script that is not a list or tuple, or a malformed entry,
    one whose frame or join level is not an int >= 0 included, raises
    ValueError (naming the entry's script position) before any entry is
    applied, and a script whose audit could exceed MAX_AUDIT_ROWS rows raises
    ValueError before the allocator is built.
    """
    entries = []
    for pos, entry in enumerate(check_items(script, "script", error=ValueError)):
        _check_entry(entry, pos)
        entries.append((entry["frame"], pos, entry))
    entries.sort(key=lambda e: (e[0], e[1]))
    check_instance(hcs_set, HcsSet, "set")
    last_frame = entries[-1][0] if entries else -1
    if (last_frame + 1) * hcs_set.config.load > MAX_AUDIT_ROWS:
        raise ValueError(
            f"script reaches frame {last_frame}: an audit of {last_frame + 1} frames "
            f"at load {hcs_set.config.load} exceeds {MAX_AUDIT_ROWS} rows"
        )
    state = init(
        hcs_set, alignment=alignment, sync_delay=sync_delay, assign_seed=assign_seed
    )
    for frame, _, entry in entries:
        if entry["action"] == "join":
            state.request_access(entry["user"], entry["level"], frame)
        else:
            state.release(entry["user"], frame)
    audit, collisions = _audit(state, last_frame + 1)
    return state, audit, collisions
