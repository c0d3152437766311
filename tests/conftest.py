import numpy as np
import pytest

from hcskit import SystemConfig, construct1, construct2

# the two worked configurations exercised throughout the suite
T24_LEVELS = ((2, 3), (3, 4), (6, 1))
T8_LEVELS = ((1, 1), (3, 1), (4, 1))


@pytest.fixture(scope="session")
def cfg24():
    return SystemConfig(t=24, levels=T24_LEVELS, seed=20240817)


@pytest.fixture(scope="session")
def set24(cfg24):
    """Permutation-table set: length 144, 8 sequences over 24 slots."""
    return construct1(cfg24)


@pytest.fixture(scope="session")
def cfg8():
    return SystemConfig(t=8, levels=T8_LEVELS)


@pytest.fixture(scope="session")
def set128(cfg8):
    """Modular-affine set with d=4 given: length 128 over 8 slots."""
    return construct2(cfg8, n=2, g=3, d=4)


@pytest.fixture(scope="session")
def set32(cfg8):
    """Modular-affine set with d omitted: g's true order d=2, length 32."""
    return construct2(cfg8, n=2, g=3)


@pytest.fixture(scope="session")
def set_c1_t8():
    """Permutation-table set on the simulator's 8-slot frame: length 32."""
    return construct1(SystemConfig(t=8, levels=((4, 2),), seed=1105))


def subsequences(hcs_set):
    """Yield (level, user, offset, run) for every flattened slot run in the set.

    Run k of a sequence collects the k-th slot of every frame, so each run has
    length l and the runs regroup into the original frames column-wise.
    """
    for s in hcs_set.sequences:
        for theta in range(s.slots_per_frame):
            yield s.level, s.user, theta, s.frames[:, theta]


def views(frames):
    """A table and every array it is a view of, down to the one over the
    buffer that holds its memory."""
    arrays = [frames]
    while isinstance(arrays[-1].base, np.ndarray):
        arrays.append(arrays[-1].base)
    return arrays


def remake_set(hcs_set, mutate):
    """Copy a set with ``mutate(seq_index, frames_array)`` applied to each copy.

    Each copy is int64, so a mutation may plant any int64 value; the copied
    set then holds the tables left in 0..t-1 in its slot dtype again.
    """
    from hcskit import HcsSequence, HcsSet

    sequences = []
    for index, s in enumerate(hcs_set.sequences):
        frames = np.array(s.frames, dtype=np.int64)
        mutate(index, frames)
        sequences.append(HcsSequence(level=s.level, user=s.user, frames=frames))
    return HcsSet(
        config=hcs_set.config,
        length=hcs_set.length,
        sequences=tuple(sequences),
        provenance=hcs_set.provenance,
    )


def shadow_events(hcs_set, script):
    """Straight-line reimplementation of the allocator for cross-checking.

    FIFO queues, lowest-id pools, per (frame, script order) application; a
    waiting user who leaves just drops out of its queue.  Any divergence from
    the real allocator's event stream is a bug in one of them.

    A queue entry carries the script position of its join as a ticket; a
    waiting user who leaves is only forgotten, and its stale entry is skipped
    when it reaches the head of the queue.
    """
    from bisect import insort
    from collections import deque

    pools = {i: [] for i in range(hcs_set.config.num_levels)}
    for sid, s in enumerate(hcs_set.sequences):
        pools[s.level].append(sid)
    for pool in pools.values():
        pool.sort()
    queues = {i: deque() for i in pools}
    waiting = {}  # user -> (level, ticket) of its live queue entry
    held = {}
    events = []
    entries = sorted(
        ((e["frame"], pos, e) for pos, e in enumerate(script)), key=lambda x: (x[0], x[1])
    )
    for frame, ticket, e in entries:
        user = e["user"]
        if e["action"] == "join":
            level = e["level"]
            events.append((frame, "join-request", user, level, None))
            if pools[level]:
                sid = pools[level].pop(0)
                held[user] = (level, sid)
                events.append((frame, "assigned", user, level, sid))
            else:
                queues[level].append((ticket, user))
                waiting[user] = (level, ticket)
                events.append((frame, "queued", user, level, None))
        elif user not in held:
            level, _ = waiting.pop(user)
            events.append((frame, "released", user, level, None))
        else:
            level, sid = held.pop(user)
            events.append((frame, "released", user, level, sid))
            queue = queues[level]
            while queue and waiting.get(queue[0][1]) != (level, queue[0][0]):
                queue.popleft()
            if queue:
                _, head = queue.popleft()
                del waiting[head]
                held[head] = (level, sid)
                events.append((frame, "granted-from-queue", head, level, sid))
            else:
                insort(pools[level], sid)
    return events


def random_script(gen, hcs_set, frames):
    """Valid join/leave script; tracks holders and waiters so leaves are legal."""
    from collections import deque

    num_levels = hcs_set.config.num_levels
    pools = {
        i: sum(1 for s in hcs_set.sequences if s.level == i) for i in range(num_levels)
    }
    queues = {i: deque() for i in range(num_levels)}
    held = {}
    idle = [f"u{i}" for i in range(12)]
    script = []
    for frame in range(frames):
        for _ in range(int(gen.integers(0, 3))):
            present = sorted(held) + sorted(u for q in queues.values() for u in q)
            if present and gen.random() < 0.45:
                user = present[int(gen.integers(len(present)))]
                script.append({"frame": frame, "action": "leave", "user": user})
                idle.append(user)
                if user not in held:
                    for queue in queues.values():
                        if user in queue:
                            queue.remove(user)
                    continue
                level = held.pop(user)
                if queues[level]:
                    head = queues[level].popleft()
                    held[head] = level
                else:
                    pools[level] += 1
            elif idle:
                user = idle.pop(int(gen.integers(len(idle))))
                level = int(gen.integers(num_levels))
                script.append(
                    {"frame": frame, "action": "join", "user": user, "level": level}
                )
                if pools[level]:
                    pools[level] -= 1
                    held[user] = level
                else:
                    queues[level].append(user)
    return script


def reference_audit(hcs_set, script, alignment="global", sync_delay=0):
    """Audit rows and collisions of run_script, replayed frame by frame.

    Holdings come from ``shadow_events``: a grant at frame f holds from f on,
    a release at frame f ends the holding before frame f is audited.  Each
    frame's rows (frame, slot, user, level, sequence) are sorted by (slot,
    user); every claim of a slot beyond its first adds (frame, slot) to the
    collisions, in row order.
    """
    events = shadow_events(hcs_set, script)
    last_frame = max((e["frame"] for e in script), default=-1)
    held = {}  # user -> (grant frame, level, sequence)
    audit, collisions = [], []
    cursor = 0
    for frame in range(last_frame + 1):
        while cursor < len(events) and events[cursor][0] == frame:
            _, kind, user, level, sid = events[cursor]
            if kind in ("assigned", "granted-from-queue"):
                held[user] = (frame, level, sid)
            elif kind == "released":
                held.pop(user, None)
            cursor += 1
        rows = []
        for user, (granted, level, sid) in held.items():
            start = granted + sync_delay
            if frame < start:
                continue
            frames = hcs_set.sequences[sid].frames
            index = (frame if alignment == "global" else frame - start) % len(frames)
            rows.extend((frame, int(slot), user, level, sid) for slot in frames[index])
        rows.sort(key=lambda row: (row[1], row[2]))
        claims = {}
        for row in rows:
            claims[row[1]] = claims.get(row[1], 0) + 1
            if claims[row[1]] > 1:
                collisions.append((frame, row[1]))
        audit.extend(rows)
    return audit, collisions
