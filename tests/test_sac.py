import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcskit import (
    ConfigError,
    HcsSequence,
    HcsSet,
    SystemConfig,
    construct1,
    construct2,
    sac,
    verification,
)

from conftest import random_script, reference_audit, remake_set, shadow_events, views


class TestInit:
    def test_pool_layout(self, set24):
        state = sac.init(set24)
        assert state.pool_sizes() == (3, 4, 1)
        assert state.queue_lengths() == (0, 0, 0)
        assert state.pools == [[0, 1, 2], [3, 4, 5, 6], [7]]
        assert state.policy == "lowest-id"

    def test_rejects_unverified_set(self, set24):
        def mutate(index, frames):
            if index == 0:
                frames[0, 0] = (frames[0, 0] + 1) % 24

        with pytest.raises(ConfigError, match="failed verification"):
            sac.init(remake_set(set24, mutate))

    def test_alignment_and_delay_validation(self, set24):
        with pytest.raises(ConfigError, match="alignment"):
            sac.SacState(set24, alignment="drifting")
        with pytest.raises(ConfigError, match="non-negative"):
            sac.SacState(set24, sync_delay=-1)


@pytest.fixture
def proofs(monkeypatch):
    """The sets verify has counted the claims of, one entry per proof."""
    calls = []
    claim_counts = verification._claim_counts

    def counted(hcs_set):
        calls.append(hcs_set)
        return claim_counts(hcs_set)

    monkeypatch.setattr(verification, "_claim_counts", counted)
    return calls


ONE_JOIN = [{"frame": 0, "action": "join", "user": "a", "level": 0}]


class TestProofReuse:
    def test_one_set_is_proved_once(self, cfg24, proofs):
        s = construct1(cfg24)
        script = ONE_JOIN + [{"frame": 3, "action": "leave", "user": "a"}]
        _, first, _ = sac.run_script(s, script)
        _, again, _ = sac.run_script(s, script)
        sac.init(s)
        assert len(proofs) == 1
        assert list(first) == list(again)
        # verify itself still proves the set afresh
        assert verification.verify(s).passed and len(proofs) == 2

    def test_an_equal_set_is_proved_again(self, cfg24, proofs):
        s = construct1(cfg24)
        sac.init(s)
        sac.init(remake_set(s, lambda index, frames: None))
        assert len(proofs) == 2

    def test_failing_set_is_refused_every_call(self, set24, proofs):
        def mutate(index, frames):
            if index == 0:
                frames[0, 0] = (frames[0, 0] + 1) % 24

        bad = remake_set(set24, mutate)
        for _ in range(3):
            with pytest.raises(ConfigError, match=r"failed verification \(zero_correlation\)"):
                sac.run_script(bad, ONE_JOIN)
        assert len(proofs) == 1

    def test_owner_refuses_to_be_made_writable(self, cfg24, proofs):
        s = construct1(cfg24)
        sac.init(s)
        # neither sequence 0's table nor the array over its buffer can be
        # made writable, so no slot can be planted after the proof
        for frames in views(s.sequences[0].frames):
            with pytest.raises(ValueError):
                frames.setflags(write=True)
        for _ in range(2):
            sac.init(s)
        assert len(proofs) == 1

    def test_c2_provenance_refuses_an_edit(self, cfg8, proofs):
        s = construct2(cfg8, n=2, g=3, d=4)
        sac.init(s)
        with pytest.raises(TypeError):
            s.provenance["params"]["d"] = 2
        with pytest.raises(TypeError):
            s.provenance["kind"] = "c1"
        sac.init(s)
        # a set built again with d = 2 is another set, proved on its own
        params = {**s.provenance["params"], "d": 2}
        edited = HcsSet(config=s.config, length=s.length, sequences=s.sequences,
                        provenance={**s.provenance, "params": params})
        with pytest.raises(ConfigError, match=r"\(occupancy\).*expected 4$"):
            sac.init(edited)
        assert len(proofs) == 2

    def test_memo_keeps_no_set_alive(self, cfg24):
        s = construct1(cfg24)
        sac.init(s)
        held = len(verification._proofs)
        kept = weakref.ref(s)
        assert kept() in verification._proofs
        del s
        gc.collect()
        assert kept() is None
        assert len(verification._proofs) < held


class TestAssignmentFlow:
    def test_lowest_id_then_queue(self, set24):
        state = sac.init(set24)
        assert state.request_access("A", 0, 0).sequence == 0
        assert state.request_access("B", 0, 0).sequence == 1
        assert state.request_access("C", 0, 1).sequence == 2
        queued = state.request_access("D", 0, 2)
        assert queued.kind == "queued" and queued.sequence is None
        assert state.pool_sizes()[0] == 0
        assert state.queue_lengths()[0] == 1

    def test_release_hands_to_queue_head(self, set24):
        state = sac.init(set24)
        state.request_access("A", 2, 0)
        state.request_access("B", 2, 1)
        state.request_access("C", 2, 2)
        out = state.release("A", 5)
        assert [e.kind for e in out] == ["released", "granted-from-queue"]
        assert out[1].user == "B" and out[1].sequence == 7
        assert state.queue_lengths()[2] == 1
        # C is still waiting, so the pool never saw the sequence
        assert state.pool_sizes()[2] == 0

    def test_waiting_user_leaves_queue(self, set24):
        # level 2 of set24 has one sequence, so b waits behind a
        state, _, _ = sac.run_script(
            set24,
            [
                {"frame": 0, "action": "join", "user": "a", "level": 2},
                {"frame": 1, "action": "join", "user": "b", "level": 2},
                {"frame": 1, "action": "join", "user": "c", "level": 2},
                {"frame": 2, "action": "leave", "user": "b"},
            ],
        )
        assert state.events[-1].to_dict() == {
            "frame": 2, "kind": "released", "user": "b", "level": 2, "sequence": None
        }
        assert list(state.queues[2]) == ["c"]
        out = state.release("a", 3)
        assert [(e.kind, e.user, e.sequence) for e in out] == [
            ("released", "a", 7),
            ("granted-from-queue", "c", 7),
        ]
        with pytest.raises(ValueError, match="holds no sequence and is not waiting"):
            state.release("b", 4)

    def test_release_to_pool_restores_order(self, set24):
        state = sac.init(set24)
        state.request_access("A", 1, 0)
        state.request_access("B", 1, 0)
        state.release("A", 1)
        assert state.pools[1] == [3, 5, 6]
        assert state.request_access("C", 1, 2).sequence == 3

    def test_flow_errors(self, set24):
        state = sac.init(set24)
        state.request_access("A", 0, 0)
        with pytest.raises(ValueError, match="already holds"):
            state.request_access("A", 1, 1)
        state.request_access("B", 2, 1)
        state.request_access("C", 2, 1)
        with pytest.raises(ValueError, match="already waiting"):
            state.request_access("C", 2, 2)
        with pytest.raises(ValueError, match="unknown level"):
            state.request_access("Z", 9, 2)
        with pytest.raises(ValueError, match="holds no sequence"):
            state.release("nobody", 2)
        with pytest.raises(ValueError, match="frame order"):
            state.request_access("D", 0, 0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda s: s.request_access("Z", 9, 5), "unknown level 9"),
            (lambda s: s.request_access("a", 1, 5), "already holds"),
            (lambda s: s.request_access("w", 2, 5), "already waiting"),
            (lambda s: s.release("nobody", 5), "holds no sequence and is not waiting"),
            (lambda s: s.request_access("\ud800", 0, 5), "user must be UTF-8 text"),
            (lambda s: s.release("a\udfff", 5), "user must be UTF-8 text"),
            (lambda s: s.slots_for("\ud800", 5), "user must be UTF-8 text"),
        ],
        ids=[
            "unknown-level", "holder", "waiting", "release-unknown",
            "join-surrogate", "release-surrogate", "lookup-surrogate",
        ],
    )
    def test_refusal_leaves_clock_and_events(self, set24, call, message):
        state = sac.init(set24)
        state.request_access("a", 0, 1)
        state.request_access("h", 2, 2)
        state.request_access("w", 2, 2)
        before = list(state.events)
        with pytest.raises(ValueError, match=message):
            call(state)
        assert state.frame == 2 and state.events == before
        # an earlier frame than the refused one is still in order
        assert state.request_access("c", 0, 3).kind == "assigned"

    def test_conservation_under_churn(self, set24):
        gen = np.random.default_rng(42)
        script = random_script(gen, set24, frames=200)
        state, _, _ = sac.run_script(set24, script)
        per_level_held = [0] * set24.config.num_levels
        for a in state.assignments.values():
            per_level_held[a.level] += 1
        for i, lv in enumerate(set24.config.levels):
            assert per_level_held[i] + state.pool_sizes()[i] == lv.u


class TestAlignment:
    def test_global_indexing_and_wrap(self, set128):
        state = sac.init(set128, alignment="global")
        state.request_access("A", 1, 3)
        seq = set128.sequences[1]
        assert state.slots_for("A", 3) == seq.frame(3)
        assert state.slots_for("A", 130) == seq.frame(2)

    def test_global_users_share_position(self, set128):
        state = sac.init(set128)
        state.request_access("A", 0, 0)
        state.request_access("B", 1, 7)
        a = set128.sequences[0]
        b = set128.sequences[1]
        for frame in (7, 20, 127, 128):
            assert state.slots_for("A", frame) == a.frame(frame % 128)
            assert state.slots_for("B", frame) == b.frame(frame % 128)

    def test_per_user_indexing_and_wrap(self, set128):
        state = sac.init(set128, alignment="per-user")
        state.request_access("A", 1, 5)
        seq = set128.sequences[1]
        assert state.slots_for("A", 5) == seq.frame(0)
        assert state.slots_for("A", 7) == seq.frame(2)
        assert state.slots_for("A", 5 + 128) == seq.frame(0)

    def test_sync_delay_gates_lookup(self, set128):
        state = sac.init(set128, sync_delay=2)
        event = state.request_access("A", 0, 4)
        assert event.kind == "assigned"
        with pytest.raises(ValueError, match="not synchronized until frame 6"):
            state.slots_for("A", 5)
        assert state.slots_for("A", 6) == set128.sequences[0].frame(6)

    def test_lookup_requires_assignment(self, set128):
        state = sac.init(set128)
        with pytest.raises(ValueError, match="holds no sequence"):
            state.slots_for("ghost", 0)


class TestRunScript:
    def test_audit_covers_saturated_frame(self, set24):
        script = [
            {"frame": 0, "action": "join", "user": f"u{i}", "level": lv}
            for i, lv in enumerate([0, 0, 0, 1, 1, 1, 1, 2])
        ]
        script.append({"frame": 2, "action": "leave", "user": "u0"})
        state, audit, collisions = sac.run_script(set24, script)
        assert collisions == []
        full = [row for row in audit if row[0] == 1]
        assert [row[1] for row in full] == list(range(24))
        after = [row for row in audit if row[0] == 2]
        assert len(after) == 22  # the departed 2-slot user is gone

    def test_each_entry_is_checked_once(self, set24, monkeypatch):
        calls = []
        check_call = sac._check_call

        def counted(*args, **kwargs):
            calls.append(args)
            return check_call(*args, **kwargs)

        monkeypatch.setattr(sac, "_check_call", counted)
        script = random_script(np.random.default_rng(5), set24, frames=60)
        reference = sac.SacState(set24)
        for entry in sorted(script, key=lambda e: e["frame"]):
            if entry["action"] == "join":
                reference.request_access(entry["user"], entry["level"], entry["frame"])
            else:
                reference.release(entry["user"], entry["frame"])
        calls.clear()
        state, _, _ = sac.run_script(set24, script)
        assert len(calls) == len(script)
        assert state.events == reference.events

    def test_name_that_is_not_utf8_is_refused_before_any_entry(self, set24, monkeypatch):
        # JSON can spell a lone surrogate, which no UTF-8 audit CSV can hold
        applied = []
        monkeypatch.setattr(sac.SacState, "_join", lambda *args: applied.append(args))
        script = [
            {"frame": 0, "action": "join", "user": "a", "level": 0},
            {"frame": 1, "action": "join", "user": "\ud800", "level": 0},
        ]
        with pytest.raises(ValueError, match=r"^script entry 1: user must be UTF-8 text"):
            sac.run_script(set24, script)
        assert applied == []

    def test_random_churn_collision_free(self, set24, set128):
        for hcs_set, seed in ((set24, 1), (set24, 2), (set128, 3)):
            gen = np.random.default_rng(seed)
            script = random_script(gen, hcs_set, frames=300)
            _, audit, collisions = sac.run_script(hcs_set, script)
            assert collisions == []
            assert audit, "script never produced a synchronized user"

    def test_events_match_shadow_model(self, set24, set128):
        for hcs_set, seed in ((set24, 11), (set128, 12)):
            gen = np.random.default_rng(seed)
            script = random_script(gen, hcs_set, frames=250)
            state, _, _ = sac.run_script(hcs_set, script)
            got = [(e.frame, e.kind, e.user, e.level, e.sequence) for e in state.events]
            assert got == shadow_events(hcs_set, script)
            assert [e.to_dict() for e in state.events] == list(map(dataclasses.asdict, state.events))

    @pytest.mark.parametrize("order", ["tail", "head"])
    def test_long_queue_matches_shadow_model(self, set24, order):
        # 20,000 users join the one-sequence level, so all but the first wait;
        # they leave from the tail, each dropping out of the queue, or from the
        # head, each handing the sequence to the next
        users = [f"u{i}" for i in range(20_000)]
        script = [{"frame": 0, "action": "join", "user": u, "level": 2} for u in users]
        leaving = users[::-1] if order == "tail" else users
        script += [{"frame": 1, "action": "leave", "user": u} for u in leaving]
        state, _, _ = sac.run_script(set24, script)
        got = [(e.frame, e.kind, e.user, e.level, e.sequence) for e in state.events]
        assert got == shadow_events(set24, script)

    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    @pytest.mark.parametrize("sync_delay", [0, 3])
    def test_audit_matches_reference(self, set24, set128, set32, alignment, sync_delay):
        for hcs_set, seed in ((set24, 21), (set128, 22), (set32, 23)):
            gen = np.random.default_rng(seed)
            script = random_script(gen, hcs_set, frames=120)
            _, audit, collisions = sac.run_script(
                hcs_set, script, alignment=alignment, sync_delay=sync_delay
            )
            assert (list(audit), collisions) == reference_audit(
                hcs_set, script, alignment, sync_delay
            )

    def test_fifo_order_on_single_sequence_level(self, set24):
        script = [
            {"frame": f, "action": "join", "user": f"w{f}", "level": 2} for f in range(4)
        ]
        script += [{"frame": 10 + i, "action": "leave", "user": f"w{i}"} for i in range(3)]
        state, _, _ = sac.run_script(set24, script)
        grants = [e.user for e in state.events if e.kind == "granted-from-queue"]
        assert grants == ["w1", "w2", "w3"]

    def test_per_user_alignment_can_collide(self, set128):
        script = [
            {"frame": 0, "action": "join", "user": "A", "level": 0},
            {"frame": 1, "action": "join", "user": "B", "level": 1},
        ]
        _, _, collisions = sac.run_script(set128, script, alignment="per-user")
        assert (1, 1) in collisions
        _, _, clean = sac.run_script(set128, script, alignment="global")
        assert clean == []

    def test_deterministic_replay(self, set24):
        gen = np.random.default_rng(99)
        script = random_script(gen, set24, frames=150)
        first = sac.run_script(set24, script)
        second = sac.run_script(set24, script)
        assert first[0].events == second[0].events
        assert list(first[1]) == list(second[1])

    def test_seeded_random_policy(self, set24):
        state = sac.init(set24, assign_seed=5)
        assert state.policy == "seeded-random:5"
        picks = [state.request_access(f"u{i}", 1, 0).sequence for i in range(4)]
        assert sorted(picks) == [3, 4, 5, 6]
        again = sac.init(set24, assign_seed=5)
        repeat = [again.request_access(f"u{i}", 1, 0).sequence for i in range(4)]
        assert picks == repeat

    def test_unknown_action_rejected(self, set24):
        with pytest.raises(ValueError, match="unknown action"):
            sac.run_script(set24, [{"frame": 0, "action": "sleep", "user": "A"}])

    def test_far_frame_refused(self, set24):
        # an audit up to frame 2**31 once ran for hours
        script = [{"frame": 2**31, "action": "join", "user": "A", "level": 0}]
        with pytest.raises(ValueError, match=f"exceeds {sac.MAX_AUDIT_ROWS} rows"):
            sac.run_script(set24, script)

    def test_far_frame_on_empty_roster_audits_nothing(self):
        empty = HcsSet(
            config=SystemConfig(t=6, levels=((2, 0),)),
            length=12,
            sequences=(),
            provenance={"kind": "c1", "params": {}},
        )
        script = [{"frame": 2**31, "action": "join", "user": "A", "level": 0}]
        state, audit, collisions = sac.run_script(empty, script)
        assert list(audit) == [] and collisions == []
        assert column_dtypes(audit) == [np.uint8] * 3
        assert [e.kind for e in state.events] == ["join-request", "queued"]

    def test_audit_bound_is_frames_times_load(self, set24, monkeypatch):
        monkeypatch.setattr(sac, "MAX_AUDIT_ROWS", 2 * 24)
        join = {"frame": 1, "action": "join", "user": "A", "level": 0}
        _, audit, _ = sac.run_script(set24, [join])
        assert {row[0] for row in audit} == {1}
        with pytest.raises(ValueError, match="an audit of 3 frames at load 24 exceeds 48 rows"):
            sac.run_script(set24, [dict(join, frame=2)])

    def test_sync_delay_defers_audit(self, set128):
        script = [{"frame": 0, "action": "join", "user": "A", "level": 0}]
        script.append({"frame": 3, "action": "leave", "user": "A"})
        _, audit, _ = sac.run_script(set128, script, sync_delay=2)
        frames_seen = sorted({row[0] for row in audit})
        assert frames_seen == [2]

    @pytest.mark.parametrize("alignment, sync_delay", [("global", 0), ("per-user", 2)])
    def test_long_quiet_span_is_the_table_repeated(self, set24, alignment, sync_delay):
        length = set24.length
        leave = 3 * length + 5
        script = [
            {"frame": 0, "action": "join", "user": "A", "level": 1},
            {"frame": leave, "action": "leave", "user": "A"},
        ]
        _, audit, collisions = sac.run_script(
            set24, script, alignment=alignment, sync_delay=sync_delay
        )
        assert collisions == []
        table = set24.sequences[3].frames
        frames = np.arange(sync_delay, leave)
        if alignment == "global":
            rows = np.tile(table, (4, 1))[sync_delay:leave]
        else:
            rows = np.tile(table, (4, 1))[: leave - sync_delay]
        want = [
            (int(f), int(slot), "A", 1, 3)
            for f, row in zip(frames, np.sort(rows, axis=1))
            for slot in row
        ]
        assert list(audit) == want

    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    def test_quiet_blocks_between_holdings(self, set24, monkeypatch, alignment):
        # one audit block is two frames at load 24: the holdings of frames
        # 0-2 and 9-10 leave the blocks of frames 4-5 and 6-7 without one
        monkeypatch.setattr(sac, "AUDIT_BLOCK_ROWS", 2 * 24)
        script = [
            {"frame": 0, "action": "join", "user": "A", "level": 1},
            {"frame": 3, "action": "leave", "user": "A"},
            {"frame": 9, "action": "join", "user": "B", "level": 2},
            {"frame": 11, "action": "leave", "user": "B"},
        ]
        _, audit, collisions = sac.run_script(set24, script, alignment=alignment)
        assert (list(audit), collisions) == reference_audit(set24, script, alignment)
        assert sorted({row[0] for row in audit}) == [0, 1, 2, 9, 10]

    def test_audit_holds_plain_values(self, set24):
        gen = np.random.default_rng(31)
        script = random_script(gen, set24, frames=200)
        _, audit, collisions = sac.run_script(set24, script, alignment="per-user")
        assert audit and collisions
        for row in audit:
            assert [type(v) for v in row] == [int, int, str, int, int]
        for pair in collisions:
            assert [type(v) for v in pair] == [int, int]

    def test_audit_is_sorted_columns(self, set24, monkeypatch):
        gen = np.random.default_rng(51)
        script = random_script(gen, set24, frames=200)
        _, audit, collisions = sac.run_script(set24, script, alignment="per-user")
        rows = list(audit)
        assert collisions and len(audit) == len(rows)
        # frames up to 199, slots up to 23 and 72 holdings: a byte each
        assert column_dtypes(audit) == [np.uint8] * 3
        users = [audit.holdings[h][2] for h in audit.holding.tolist()]
        assert list(zip(audit.frame.tolist(), audit.slot.tolist(), users)) == [
            row[:3] for row in rows
        ]
        assert rows == sorted(rows, key=lambda row: row[:3])
        assert [audit[i] for i in (0, 7, -1)] == [rows[0], rows[7], rows[-1]]
        assert audit + [rows[3]] == rows + [rows[3]]
        monkeypatch.setattr(sac, "AUDIT_BLOCK_ROWS", 7)
        assert list(audit) == rows

    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    @pytest.mark.parametrize("sync_delay", [0, 3])
    def test_seeded_audit_matches_slot_lookup(self, set24, set128, alignment, sync_delay):
        # reference_audit models only the lowest-id policy; replay the seeded
        # run's own grants and releases frame by frame through slots_for
        for hcs_set, seed in ((set24, 41), (set128, 42)):
            gen = np.random.default_rng(seed)
            script = random_script(gen, hcs_set, frames=150)
            state, audit, collisions = sac.run_script(
                hcs_set, script, alignment=alignment, sync_delay=sync_delay, assign_seed=7
            )
            replay = sac.SacState(hcs_set, alignment=alignment, sync_delay=sync_delay)
            last_frame = max(e["frame"] for e in script)
            events = iter(state.events)
            event = next(events, None)
            want, want_collisions = [], []
            for frame in range(last_frame + 1):
                while event is not None and event.frame == frame:
                    if event.kind in ("assigned", "granted-from-queue"):
                        replay.assignments[event.user] = event
                    elif event.kind == "released" and event.sequence is not None:
                        del replay.assignments[event.user]
                    event = next(events, None)
                rows = [
                    (frame, slot, user, grant.level, grant.sequence)
                    for user, grant in replay.assignments.items()
                    if grant.frame + sync_delay <= frame
                    for slot in replay.slots_for(user, frame)
                ]
                rows.sort(key=lambda row: (row[1], row[2]))
                want_collisions += [
                    (frame, b[1]) for a, b in zip(rows, rows[1:]) if a[1] == b[1]
                ]
                want += rows
            assert (list(audit), collisions) == (want, want_collisions)


@st.composite
def small_sets(draw):
    """A c1 or c2 set of at most 16 slots a frame and a few short sequences."""
    if draw(st.booleans()):
        # c1: the top demand R divides t, every lower demand
        # divides R, and each lower level fills whole blocks of R slots
        top = draw(st.sampled_from([1, 2, 3, 4, 6]))
        blocks = draw(st.integers(1, 3))
        divisors = [r for r in (1, 2, 3) if top % r == 0 and r < top]
        lower = draw(st.sets(st.sampled_from(divisors))) if divisors else set()
        levels, free = [], blocks
        for r in sorted(lower):
            used = draw(st.integers(0, free))
            levels.append((r, used * top // r))
            free -= used
        levels.append((top, draw(st.integers(1, max(free, 1)))))
        t = top * max(blocks, sum(r * u for r, u in levels) // top)
        config = SystemConfig(t=t, levels=levels, seed=draw(st.integers(0, 2**16)))
        return construct1(config)
    t = draw(st.integers(2, 16))
    demands = sorted(draw(st.sets(st.integers(1, t), min_size=1, max_size=3)))
    levels, free = [], t
    for r in demands:
        levels.append((r, draw(st.integers(0, free // r))))
        free -= r * levels[-1][1]
    return construct2(SystemConfig(t=t, levels=levels), n=draw(st.integers(1, 2)))


class TestAuditGrid:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        hcs_set=small_sets(),
        seed=st.integers(0, 2**32 - 1),
        frames=st.integers(1, 40),
        alignment=st.sampled_from(sac.ALIGNMENTS),
        sync_delay=st.sampled_from([0, 3]),
        block_rows=st.sampled_from([1, 7, 48, 2**15]),
    )
    def test_audit_matches_reference(
        self, hcs_set, seed, frames, alignment, sync_delay, block_rows
    ):
        script = random_script(np.random.default_rng(seed), hcs_set, frames)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sac, "AUDIT_BLOCK_ROWS", block_rows)
            _, audit, collisions = sac.run_script(
                hcs_set, script, alignment=alignment, sync_delay=sync_delay
            )
        want = reference_audit(hcs_set, script, alignment, sync_delay)
        assert (list(audit), collisions) == want
        assert column_dtypes(audit) == expected_dtypes(hcs_set, want[0], len(audit.holdings))

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        hcs_set=small_sets().filter(lambda s: s.sequences),
        data=st.data(),
        block_rows=st.sampled_from([1, 7, 2**15]),
    )
    def test_alignments_agree_when_every_holder_joins_at_frame_0(
        self, hcs_set, data, block_rows
    ):
        # every user joins at frame 0, with no sync delay and no more users a
        # level than its pool, so nobody waits and each holder's own frame
        # count is the network's: per-user indexing is global indexing.  Users
        # leave at random frames up to a few table lengths in, so the table
        # wraps inside a block
        sequences = range(len(hcs_set.sequences))
        held = data.draw(st.lists(st.sampled_from(sequences), min_size=1, unique=True))
        end = data.draw(st.integers(hcs_set.length + 1, 3 * hcs_set.length))
        script = [
            {"frame": 0, "action": "join", "user": f"u{sid}", "level": q.level}
            for sid in held
            for q in [hcs_set.sequences[sid]]
        ]
        # the first user leaves at the end, so every audit runs to the same frame
        others = len(held) - 1
        leaves = [end] + data.draw(
            st.lists(st.none() | st.integers(1, end), min_size=others, max_size=others)
        )
        script += [
            {"frame": frame, "action": "leave", "user": f"u{sid}"}
            for sid, frame in zip(held, leaves)
            if frame is not None
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sac, "AUDIT_BLOCK_ROWS", block_rows)
            glob, per_user = (
                sac.run_script(hcs_set, script, alignment=alignment)[1:]
                for alignment in sac.ALIGNMENTS
            )
        assert glob[1] == per_user[1] == []
        assert glob[0].holdings == per_user[0].holdings
        for name in ("frame", "slot", "holding"):
            got, want = getattr(glob[0], name), getattr(per_user[0], name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # the first user holds past the table's last row, so the index wraps
        assert glob[0].frame[-1] >= hcs_set.length

    @pytest.mark.parametrize("t, dtype", [(256, np.uint8), (257, np.uint16)])
    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    def test_slot_table_width_edges(self, t, dtype, alignment):
        # the side-by-side table and the slot column are uint8 up to t = 256
        # (slot 255) and uint16 from 257; a saturated roster claims slot
        # t - 1, the last below the empty mark t
        hcs_set = construct2(SystemConfig(t=t, levels=((1, t - 250), (50, 5))), n=1)
        script = [
            {"frame": 0, "action": "join", "user": f"u{i}", "level": s.level}
            for i, s in enumerate(hcs_set.sequences)
        ]
        script += [
            {"frame": 3, "action": "leave", "user": "u0"},
            {"frame": 5, "action": "join", "user": "u0", "level": 0},
            {"frame": 12, "action": "leave", "user": "u9"},
        ]
        _, audit, collisions = sac.run_script(hcs_set, script, alignment=alignment)
        assert (list(audit), collisions) == reference_audit(hcs_set, script, alignment)
        assert audit.slot.max() == t - 1
        assert sac._slot_table(hcs_set).dtype == dtype and audit.slot.dtype == dtype
        # a per-user holder who joins late is off the others' positions
        assert bool(collisions) == (alignment == "per-user")

    @pytest.mark.parametrize("block_rows", [1000, 2**15])
    def test_sparse_roster_is_its_table_repeated(self, monkeypatch, block_rows):
        # one 1-slot user among 2048 slots: a block is block_rows frames of one column
        monkeypatch.setattr(sac, "AUDIT_BLOCK_ROWS", block_rows)
        hcs_set = construct2(SystemConfig(t=2048, levels=((1, 1),)), n=1, g=3, d=1)
        leave = 3 * 2048 + 7
        script = [
            {"frame": 5, "action": "join", "user": "a", "level": 0},
            {"frame": leave, "action": "leave", "user": "a"},
        ]
        _, audit, collisions = sac.run_script(hcs_set, script, alignment="per-user")
        table = hcs_set.sequences[0].frames[:, 0]
        assert collisions == [] and set(audit.holding.tolist()) == {0}
        assert audit.frame.tolist() == list(range(5, leave))
        assert audit.slot.tolist() == np.tile(table, 4)[: leave - 5].tolist()

    def test_block_scratch_does_not_grow_with_the_frame(self, monkeypatch):
        # a block of 4096 one-slot frames in a 2048-slot frame: beyond its
        # three output columns the audit needs a few arrays of the block's
        # cells, not one cell per slot of the frame (4096 x 2048 cells)
        monkeypatch.setattr(sac, "AUDIT_BLOCK_ROWS", 4096)
        hcs_set = construct2(SystemConfig(t=2048, levels=((1, 1),)), n=1, g=3, d=1)
        state = sac.init(hcs_set)
        state.request_access("a", 0, 0)
        state.release("a", 40000)
        tracemalloc.start()
        try:
            audit, _ = sac._audit(state, 40001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(audit) == 40000
        assert peak - column_bytes(audit) < 256 * sac.AUDIT_BLOCK_ROWS

    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    def test_per_frame_churn(self, set24, alignment):
        # every user leaves and joins again each frame, so every holding is one
        # frame long and sequences change hands inside every block
        users = [(f"u{i}", s.level) for i, s in enumerate(set24.sequences)]
        script = [
            entry
            for frame in range(30)
            for user, level in users
            for entry in (
                [{"frame": frame, "action": "leave", "user": user}] if frame else []
            )
            + [{"frame": frame, "action": "join", "user": user, "level": level}]
        ]
        _, audit, collisions = sac.run_script(set24, script, alignment=alignment)
        assert (list(audit), collisions) == reference_audit(set24, script, alignment)
        assert len(audit.holdings) == 30 * len(users)

    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    def test_sequence_passes_between_holders_in_one_block(self, set24, alignment):
        # level 2 has the one sequence 7: a hands it to the waiting b in
        # frame 4, b returns it to the pool in frame 6 and c takes it there
        script = [
            {"frame": 0, "action": "join", "user": "a", "level": 2},
            {"frame": 1, "action": "join", "user": "b", "level": 2},
            {"frame": 4, "action": "leave", "user": "a"},
            {"frame": 6, "action": "leave", "user": "b"},
            {"frame": 6, "action": "join", "user": "c", "level": 2},
            {"frame": 9, "action": "leave", "user": "c"},
        ]
        _, audit, collisions = sac.run_script(set24, script, alignment=alignment)
        assert (list(audit), collisions) == reference_audit(set24, script, alignment)
        holders = {row[0]: row[2] for row in audit}
        assert holders == {0: "a", 1: "a", 2: "a", 3: "a", 4: "b", 5: "b", 6: "c", 7: "c", 8: "c"}


def narrowest(value: int) -> np.dtype:
    """The narrowest of uint8, uint16 and uint32 that holds ``value``."""
    return next(np.dtype(d) for d in (np.uint8, np.uint16, np.uint32) if value <= np.iinfo(d).max)


def column_dtypes(audit) -> list:
    return [c.dtype for c in (audit.frame, audit.slot, audit.holding)]


def column_bytes(audit) -> int:
    return sum(c.nbytes for c in (audit.frame, audit.slot, audit.holding))


def expected_dtypes(hcs_set, rows, holdings: int) -> list:
    """The audit's column rule: the narrowest unsigned dtypes that hold the
    last audited frame (of the reference ``rows``), slot t - 1 and the last
    of ``holdings`` holdings."""
    last = rows[-1][0] if rows else 0
    return [narrowest(last), narrowest(hcs_set.t - 1), narrowest(holdings - 1)]


def fits_int32(hcs_set, audit) -> bool:
    """The audit's key rule: int32 keys when 2 * (t << bits) fits in int32,
    2**bits being the power of two the holdings fit below."""
    bits = (len(audit.holdings) - 1).bit_length()
    return 2 * (hcs_set.t << bits) <= np.iinfo(np.int32).max


def late_joiner_script(hcs_set, frames):
    """Every sequence held from frame 0 but the last, whose holder joins at
    frame 5; the first holder leaves at frame 9 and joins again at frame 12.
    Under per-user alignment the late joiner is off the others' positions."""
    users = [(f"u{i}", s.level) for i, s in enumerate(hcs_set.sequences)]
    script = [
        {"frame": 0 if i < len(users) - 1 else 5, "action": "join", "user": u, "level": lv}
        for i, (u, lv) in enumerate(users)
    ]
    script += [
        {"frame": 9, "action": "leave", "user": "u0"},
        {"frame": 12, "action": "join", "user": "u0", "level": users[0][1]},
        {"frame": frames - 1, "action": "leave", "user": "u1"},
    ]
    return script


@pytest.fixture(scope="module")
def set240():
    """Permutation-table set on a 240-slot frame: 64 sequences, 2880 frames."""
    levels = ((1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (12, 10))
    return construct1(SystemConfig(t=240, levels=levels, seed=240))


@pytest.fixture(scope="module")
def wide_set():
    """A collision-free c1-provenance set on 2**20 slots and 64 frames.

    Four slots near the top of the frame pass round three sequences (two
    of one slot, one of two), one position on per frame.
    """
    t, length = 1 << 20, 64
    pool = t - 1 - 3 * np.arange(4)
    slots = pool[(np.arange(length)[:, None] + np.arange(4)) % 4]
    return HcsSet(
        config=SystemConfig(t=t, levels=((1, 2), (2, 1))),
        length=length,
        sequences=(
            HcsSequence(level=0, user=0, frames=slots[:, :1]),
            HcsSequence(level=0, user=1, frames=slots[:, 1:2]),
            HcsSequence(level=1, user=0, frames=slots[:, 2:]),
        ),
        provenance={"kind": "c1", "params": {}},
    )


class TestKeyWidth:
    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    @pytest.mark.parametrize("name", ["set24", "set240"])
    def test_narrow_keys_match_reference(self, request, name, alignment):
        hcs_set = request.getfixturevalue(name)
        script = late_joiner_script(hcs_set, frames=40)
        _, audit, collisions = sac.run_script(hcs_set, script, alignment=alignment)
        assert fits_int32(hcs_set, audit)
        want = reference_audit(hcs_set, script, alignment)
        assert (list(audit), collisions) == want
        assert column_dtypes(audit) == expected_dtypes(hcs_set, want[0], len(audit.holdings))
        assert bool(collisions) == (alignment == "per-user")

    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    def test_wide_keys_match_reference(self, wide_set, alignment):
        # the two 1-slot users leave and join again every frame, 1040
        # holdings, so bits = 11 and t << bits is 2**31; the 2-slot user
        # holds frames 10..299 only, so other frames have empty cells
        frames = 520
        script = [
            entry
            for frame in range(frames)
            for user in ("a", "b")
            for entry in ([{"frame": frame, "action": "leave", "user": user}] if frame else [])
            + [{"frame": frame, "action": "join", "user": user, "level": 0}]
        ]
        script += [
            {"frame": 10, "action": "join", "user": "c", "level": 1},
            {"frame": 300, "action": "leave", "user": "c"},
        ]
        _, audit, collisions = sac.run_script(wide_set, script, alignment=alignment)
        assert len(audit.holdings) > 1024 and not fits_int32(wide_set, audit)
        assert (list(audit), collisions) == reference_audit(wide_set, script, alignment)
        assert audit.slot.min() >= wide_set.t - 10
        assert bool(collisions) == (alignment == "per-user")


class TestColumnWidth:
    @pytest.mark.parametrize(
        "last, dtype",
        [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)],
    )
    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    def test_frame_width_edges(self, set24, last, dtype, alignment):
        # the frame column holds the last audited frame, not the script's end
        script = [
            {"frame": last - 20, "action": "join", "user": "a", "level": 0},
            {"frame": last - 5, "action": "join", "user": "b", "level": 2},
            {"frame": last + 1, "action": "leave", "user": "a"},
            {"frame": last + 1, "action": "leave", "user": "b"},
        ]
        _, audit, collisions = sac.run_script(set24, script, alignment=alignment)
        assert (list(audit), collisions) == reference_audit(set24, script, alignment)
        assert audit.frame[-1] == last
        assert column_dtypes(audit) == [np.dtype(dtype), np.uint8, np.uint8]

    @pytest.mark.parametrize("holdings, dtype", [(256, np.uint8), (257, np.uint16)])
    @pytest.mark.parametrize("alignment", sac.ALIGNMENTS)
    def test_holding_width_edges(self, set24, holdings, dtype, alignment):
        # b holds one sequence throughout; a leaves and joins again every frame,
        # a new holding each time
        script = [{"frame": 0, "action": "join", "user": "b", "level": 1}]
        for frame in range(holdings - 1):
            if frame:
                script.append({"frame": frame, "action": "leave", "user": "a"})
            script.append({"frame": frame, "action": "join", "user": "a", "level": 0})
        _, audit, collisions = sac.run_script(set24, script, alignment=alignment)
        assert (list(audit), collisions) == reference_audit(set24, script, alignment)
        assert len(audit.holdings) == holdings and audit.holding.max() == holdings - 1
        assert column_dtypes(audit) == [np.uint8, np.uint8, np.dtype(dtype)]

    @pytest.mark.parametrize("alignment, row_bytes", [("global", 24), ("per-user", 64)])
    def test_replay_memory_is_its_columns_and_a_block(self, set24, alignment, row_bytes):
        # 2**16 saturated frames, 1,572,864 rows: beyond its 4-byte rows
        # (uint16 frame, uint8 slot and holding) the audit needs only its
        # block scratch, whatever the number of rows.  A global block reads
        # whole table rows, about 21 bytes a block row; a per-user block
        # gathers cell by cell through an int64 index grid, about 36
        state = sac.init(set24, alignment=alignment)
        for i, s in enumerate(set24.sequences):
            state.request_access(f"u{i}", s.level, 0)
        tracemalloc.start()
        try:
            audit, collisions = sac._audit(state, 1 << 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert collisions == [] and len(audit) == set24.config.load << 16 >= 1 << 20
        assert column_bytes(audit) == 4 * len(audit)
        assert peak - column_bytes(audit) < row_bytes * sac.AUDIT_BLOCK_ROWS


@pytest.fixture
def table_builds(monkeypatch):
    """The sets the audit has built a side-by-side slot table for, one entry a build."""
    calls = []
    side_by_side = sac._side_by_side

    def counted(hcs_set):
        calls.append(hcs_set)
        return side_by_side(hcs_set)

    monkeypatch.setattr(sac, "_side_by_side", counted)
    return calls


class TestSlotTableReuse:
    def test_repeated_replays_build_one_table(self, cfg24, table_builds):
        s = construct1(cfg24)
        script = late_joiner_script(s, frames=20)
        audits = [sac.run_script(s, script)[1] for _ in range(3)]
        assert len(table_builds) == 1
        assert all(list(a) == list(audits[0]) for a in audits)
        table = sac._slot_tables[s]
        assert table.dtype == np.uint8 and table.shape == (s.length, s.config.load)
        assert not table.flags.writeable

    def test_owner_refuses_to_be_made_writable(self, cfg24, table_builds):
        s = construct1(cfg24)
        script = late_joiner_script(s, frames=20)
        sac.run_script(s, script)
        # no table of the set, nor the array over its buffer, can be made
        # writable, so the kept table stays the set's
        for q in s.sequences:
            for frames in views(q.frames):
                with pytest.raises(ValueError):
                    frames.setflags(write=True)
        for _ in range(2):
            _, audit, collisions = sac.run_script(s, script)
            assert (list(audit), collisions) == reference_audit(s, script)
        assert len(table_builds) == 1
        assert s in sac._slot_tables

    def test_memo_keeps_no_set_alive(self, cfg24):
        s = construct1(cfg24)
        sac.run_script(s, ONE_JOIN)
        held = len(sac._slot_tables)
        kept = weakref.ref(s)
        assert kept() in sac._slot_tables
        del s
        gc.collect()
        assert kept() is None
        assert len(sac._slot_tables) < held
