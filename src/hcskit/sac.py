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
import weakref
from collections import OrderedDict

import numpy as np

from .core import (
    ConfigError,
    HcsSet,
    check_instance,
    check_int,
    check_items,
    frames_per_block,
    slot_dtype,
)
from .verification import _proof

ALIGNMENTS = ("global", "per-user")

# largest audit run_script builds: (last frame + 1) * roster load rows; it
# bounds a script's frames, not a set's size (that is core.SET_CELL_BUDGET)
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
        return {
            "frame": self.frame,
            "kind": self.kind,
            "user": self.user,
            "level": self.level,
            "sequence": self.sequence,
        }


class _VerificationFailed(ConfigError):
    """init refused a set that fails a verification gate."""


def _check_call(user, frame, level=0, where: str = "") -> None:
    """The rule for a user name, a frame and a join level, as a script entry
    or a SacState call gives them; ValueError, its message led by ``where``.

    A name is a str that encodes to UTF-8, as the audit CSV is written: a
    lone surrogate, which JSON can spell, is refused here rather than when
    the CSV is written.
    """
    check_int(frame, f"{where}frame", error=ValueError)
    if not isinstance(user, str):
        raise ValueError(f"{where}user must be a name, got {user!r}")
    try:
        user.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{where}user must be UTF-8 text, got {user!r}") from None
    check_int(level, f"{where}level", error=ValueError)


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
        # sequence ids are positions in the set's (level, user)-sorted tuple,
        # so each pool is filled in ascending order
        self.pools: list[list[int]] = [[] for _ in hcs_set.config.levels]
        for sid, s in enumerate(hcs_set.sequences):
            self.pools[s.level].append(sid)
        # each level's FIFO queue of waiting users, keyed by name, so a user
        # is found, dropped or granted without walking the users ahead of it
        self.queues: list[OrderedDict[str, None]] = [
            OrderedDict() for _ in hcs_set.config.levels
        ]
        # each holder's grant: the event that gave it its sequence
        self.assignments: dict[str, SacEvent] = {}
        if assign_seed is None:
            self._rng = None
            self.policy = "lowest-id"
        else:
            self._rng = np.random.default_rng(check_int(assign_seed, "assign seed"))
            self.policy = f"seeded-random:{assign_seed}"

    # -- internals ---------------------------------------------------------

    def _check_order(self, frame: int) -> None:
        if frame < self.frame:
            raise ValueError(
                f"events must arrive in frame order: got frame {frame} after {self.frame}"
            )

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
        """Join request; returns the outcome event (assigned or queued).

        A refused request leaves the state, its clock included, as it was.
        """
        _check_call(user, frame, level)
        self._check_order(frame)
        return self._join(user, level, frame)

    def release(self, user: str, frame: int) -> list[SacEvent]:
        """Leave; frees the sequence and grants it to the queue head, if any.

        A user still waiting leaves its level's queue; the released event
        then carries no sequence.  A refused release leaves the state, its
        clock included, as it was.
        """
        _check_call(user, frame)
        self._check_order(frame)
        return self._leave(user, frame)

    def _join(self, user: str, level: int, frame: int) -> SacEvent:
        """request_access of a checked call at a frame no earlier than the clock."""
        if level >= self.hcs_set.config.num_levels:
            raise ValueError(f"unknown level {level}")
        if user in self.assignments:
            raise ValueError(f"user {user!r} already holds a sequence")
        if any(user in q for q in self.queues):
            raise ValueError(f"user {user!r} is already waiting")
        self.frame = frame
        self._log(frame, "join-request", user, level)
        pool = self.pools[level]
        if pool:
            grant = self._log(frame, "assigned", user, level, self._pick(pool))
            self.assignments[user] = grant
            return grant
        self.queues[level][user] = None
        return self._log(frame, "queued", user, level)

    def _leave(self, user: str, frame: int) -> list[SacEvent]:
        """release of a checked call at a frame no earlier than the clock."""
        grant = self.assignments.pop(user, None)
        if grant is None:
            for level, queue in enumerate(self.queues):
                if user in queue:
                    self.frame = frame
                    del queue[user]
                    return [self._log(frame, "released", user, level)]
            raise ValueError(f"user {user!r} holds no sequence and is not waiting")
        self.frame = frame
        level, sid = grant.level, grant.sequence
        out = [self._log(frame, "released", user, level, sid)]
        if self.queues[level]:
            head, _ = self.queues[level].popitem(last=False)
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
        _check_call(user, frame)
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
    """Allocator for a verified set; refuses sets that fail verification.

    A set object is proved once, and its report reused for as long as the
    set lives (see verification._proof).
    """
    for name, check in _proof(hcs_set).gates():
        if not check.passed:
            raise _VerificationFailed(f"set failed verification ({name}): {check.detail}")
    return SacState(
        hcs_set, alignment=alignment, sync_delay=sync_delay, assign_seed=assign_seed
    )


def _check_entry(entry, pos: int) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"script entry {pos}: expected an object, got {entry!r}")
    action = entry.get("action")
    level = entry.get("level") if action == "join" else 0
    _check_call(entry.get("user"), entry.get("frame"), level, f"script entry {pos}: ")
    if action not in ("join", "leave"):
        raise ValueError(f"script entry {pos}: unknown action {action!r}")


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
    """Slot claims of a replay, as three sorted unsigned columns.

    Row i claims slot ``slot[i]`` in frame ``frame[i]`` for holding
    ``holding[i]``, an index into ``holdings``, whose entries are
    (first, stop, user, level, sequence), sorted by user.  Rows are sorted
    by (frame, slot, user), which is (frame, slot, holding) since a user
    holds one sequence at a time.  Each column is in the narrowest of
    uint8, uint16 and uint32 that holds its largest possible value: the
    last audited frame, slot t - 1 (core.slot_dtype(t), the side-by-side
    table's dtype) and the last holding, so a row takes at most 12 bytes.
    Iteration yields (frame, slot, user, level, sequence) tuples of plain
    ints and strs, made AUDIT_BLOCK_ROWS rows at a time; ``audit[i]`` is row
    i, and ``audit + rows`` a list of every row followed by ``rows``.
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


# each audited set's side-by-side slot table; weak keys, so it keeps no set alive
_slot_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _slot_table(hcs_set: HcsSet) -> np.ndarray:
    """The set's sequence tables side by side, a column per roster slot, in
    the set's slot dtype (core.slot_dtype).

    Built once per set object and kept for as long as the set lives, as a
    proof is (see verification._proof).  Kept, not built per replay: the
    allocator-replay benchmark's 691,200-byte table takes about 0.7 ms to
    concatenate, near a tenth of that replay's 8.2 ms median.
    """
    table = _slot_tables.get(hcs_set)
    if table is None:
        table = _slot_tables[hcs_set] = _side_by_side(hcs_set)
    return table


def _side_by_side(hcs_set: HcsSet) -> np.ndarray:
    # init verified that every slot is in 0..t-1, so HcsSet holds every
    # table in slot_dtype(t) already
    table = np.concatenate([s.frames for s in hcs_set.sequences], axis=1)
    table.setflags(write=False)
    return table


def _columns(rows: int, stop: int, t: int, count: int) -> list[np.ndarray]:
    """Uninitialized frame, slot and holding columns of ``rows`` rows, for
    frames below ``stop``, slots below ``t`` and ``count`` holdings.

    Each is in slot_dtype of its bound, the narrowest unsigned dtype that
    holds the bound less one (frames and holdings stay below
    MAX_AUDIT_ROWS, so neither is int64), and is a view of one byte block,
    widest first, so every column starts on a multiple of its own width.  One
    block, not three: once freed, glibc's malloc keeps a block that size in
    its heap for the next replay, where three apart were handed back to the
    system and paged in afresh on every replay.
    """
    dtypes = [slot_dtype(bound) for bound in (stop, t, count)]
    block = np.empty(rows * sum(d.itemsize for d in dtypes), dtype=np.uint8)
    columns: list = [None] * 3
    at = 0
    for i in sorted(range(3), key=lambda i: -dtypes[i].itemsize):
        size = rows * dtypes[i].itemsize
        columns[i] = block[at : at + size].view(dtypes[i])
        at += size
    return columns


def _audit(state: SacState, end: int) -> tuple[Audit, list[tuple[int, int]]]:
    """Audit and collisions of frames [0, end), built block by block.

    A block of frames is one (frames x sequences) grid whose cells tag the
    holding of the sequence in the frame, or ``vacant`` (t * H) if none, H
    a power of two no smaller than the number of holdings.  Widened to the
    roster's slot columns, the tags are added to the block's slots shifted
    up by log2(H), read from the set's side-by-side slot table (see
    _slot_table).  Under global alignment every holder in a frame reads the
    frame's row, so a block's slots are whole table rows; under per-user
    alignment each holder counts from its own first frame, so they are one
    gather per cell.  A claim's key is then slot * H + holding, below
    vacant, and an empty cell's key is at least vacant and below 2 *
    vacant.  Keys are int32 when 2 * vacant fits in an int32, int64
    otherwise.  Each frame's row of keys is sorted on its own, which orders
    its claims by (slot, user), holding order being user order, ahead of
    its empty cells; a claim whose slot equals the one before it in its row
    is a collision.  A frame's claims are its row's first cells, as many as
    its held sequences have slots, so the frame column repeats each frame
    that many times.  A block is frames_per_block(AUDIT_BLOCK_ROWS, load)
    frames, so its scratch stays near AUDIT_BLOCK_ROWS cells whatever the
    frame size or the number of holdings.
    """
    holdings = tuple(map(tuple, _holdings(state, end)))
    t = state.hcs_set.t
    if not holdings:
        return Audit(*_columns(0, 0, t, 0), holdings), []
    first, stop, sequence = (np.array([h[i] for h in holdings]) for i in (0, 1, 4))
    seqs = state.hcs_set.sequences
    load = state.hcs_set.config.load
    table = _slot_table(state.hcs_set)
    length = state.hcs_set.length
    widths = np.array([s.slots_per_frame for s in seqs])
    seq_of_column = np.repeat(np.arange(len(seqs)), widths)
    columns = np.arange(load)
    # H = 2**bits, so a key splits into slot and holding by shift and mask
    bits = (len(holdings) - 1).bit_length()
    vacant = t << bits
    key_type = np.int32 if 2 * vacant <= np.iinfo(np.int32).max else np.int64
    rows = int(((stop - first) * widths[sequence]).sum())
    last = int(stop.max())
    frame, slot, holding = _columns(rows, last, t, len(holdings))
    collisions: list[tuple[int, int]] = []
    block = frames_per_block(AUDIT_BLOCK_ROWS, load)
    at = 0
    for lo in range(int(first.min()), last, block):
        hi = min(lo + block, last)
        live = np.flatnonzero((first < hi) & (stop > lo))
        if not live.size:
            continue
        # each sequence's column starts at vacant, steps from vacant to the
        # holding where a holding starts and back where it stops; a sequence's
        # holdings never overlap in time, so a running sum down the column
        # tags each frame with its holding, or vacant
        step = np.zeros((hi - lo + 1, len(seqs)), dtype=key_type)
        step[0] = vacant
        step[np.maximum(first[live], lo) - lo, sequence[live]] += live - vacant
        step[np.minimum(stop[live], hi) - lo, sequence[live]] -= live - vacant
        tag = step[:-1].cumsum(axis=0, dtype=key_type)
        claims = (tag < vacant) @ widths
        frames = np.arange(lo, hi)[:, None]
        if state.alignment == "global":
            # every holder reads the frame's row, so the slots are whole rows
            key = np.left_shift(table.take(frames.ravel() % length, axis=0), bits, dtype=key_type)
        else:
            # an empty cell reads the last holding's first frame; its key is
            # at least vacant whatever slot that reads
            start = first.take(tag, mode="clip")
            index = _frame_index(frames, start, length, state.alignment)
            cell = (index * load)[:, seq_of_column]
            cell += columns
            key = table.take(cell).astype(key_type)
            key <<= bits
        key += tag[:, seq_of_column]
        key.sort(axis=1)
        # a row's claims come first: a claim past its row's first whose slot
        # repeats the one before it is a collision
        high = (key >> bits).ravel()
        dup = np.flatnonzero(high[1:] == high[:-1]) + 1
        row, column = np.divmod(dup, load)
        dup = dup[(column > 0) & (column < claims[row])]
        collisions.extend(zip((dup // load + lo).tolist(), high[dup].tolist()))
        count = int(claims.sum())
        key = key.ravel() if count == key.size else key[key < vacant]
        out = slice(at, at + count)
        at += count
        frame[out] = np.repeat(frames.ravel(), claims)
        np.right_shift(key, bits, out=slot[out], casting="unsafe")
        np.bitwise_and(key, (1 << bits) - 1, out=holding[out], casting="unsafe")
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
    once.  The audit is built once every entry is applied: a grant holds
    from its frame plus the sync delay until its holder leaves.  Each block
    of about AUDIT_BLOCK_ROWS rows is one grid of holders over the roster's
    slot columns, read from the side-by-side sequence tables (whole rows
    under global alignment, one gather per cell under per-user alignment)
    and sorted frame by frame, so no Python loop runs per frame or per
    holding and the scratch stays near AUDIT_BLOCK_ROWS cells.  A script
    that is not a list or tuple, or a malformed entry, one whose frame or
    join level is not an int >= 0 or whose user is not UTF-8 text included,
    raises ValueError (naming the entry's script position) before any entry
    is applied, and a script whose audit could exceed MAX_AUDIT_ROWS rows
    raises ValueError before the allocator is built.
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
    # _check_entry has checked every call, and entries run in frame order
    for frame, _, entry in entries:
        if entry["action"] == "join":
            state._join(entry["user"], entry["level"], frame)
        else:
            state._leave(entry["user"], frame)
    audit, collisions = _audit(state, last_frame + 1)
    return state, audit, collisions
