import tracemalloc

import numpy as np
import pytest

from hcskit import (
    HcsSequence,
    HcsSet,
    SystemConfig,
    check_bound,
    construct2,
    dumps_document,
    verify,
)
from hcskit import verification
from hcskit.verification import CheckResult, VerificationReport

from conftest import remake_set, subsequences


# ---------------------------------------------------------------------------
# reference verifier: the argsort collision scan, the column-sort coverage
# check and the per-run occupancy loop, kept as the oracle that the claim
# grid in verify must match on every in-range set


def _ref_label(labels, index) -> str:
    level, user, theta = labels[index]
    return f"level {level} user {user} run {theta}"


def _ref_exact_counts(counts: np.ndarray, expected: int) -> CheckResult:
    if np.all(counts == expected):
        return CheckResult(True, f"every slot used exactly {expected} times")
    bad = int(np.nonzero(counts != expected)[0][0])
    return CheckResult(
        False, f"slot {bad} used {int(counts[bad])} times, expected {expected}"
    )


def reference_verify(hcs_set: HcsSet) -> VerificationReport:
    cfg = hcs_set.config
    t = cfg.t
    length = hcs_set.length
    warnings: list[str] = []

    labels = []
    runs = []
    for level, user, theta, run in subsequences(hcs_set):
        labels.append((level, user, theta))
        runs.append(run)
    k = len(runs)
    stack = np.stack(runs) if k else np.empty((0, length), dtype=np.int64)

    in_range = bool(k == 0 or (stack.min() >= 0 and stack.max() < t))

    # frame tuples: distinct in-range slots
    frame_distinctness = CheckResult(True, "every frame holds distinct in-range slots")
    for s in hcs_set.sequences:
        bad = np.nonzero((s.frames < 0) | (s.frames >= t))
        if bad[0].size:
            f = int(bad[0][0])
            frame_distinctness = CheckResult(
                False,
                f"level {s.level} user {s.user} frame {f} holds out-of-range slot "
                f"{int(s.frames[f, bad[1][0]])}",
            )
            break
        if s.slots_per_frame > 1:
            ordered = np.sort(s.frames, axis=1)
            dup = np.nonzero((np.diff(ordered, axis=1) == 0).any(axis=1))[0]
            if dup.size:
                f = int(dup[0])
                frame_distinctness = CheckResult(
                    False,
                    f"level {s.level} user {s.user} frame {f} repeats a slot: "
                    f"{tuple(int(x) for x in s.frames[f])}",
                )
                break

    # aligned collisions: equivalent to demanding zero Hamming correlation at
    # shift 0 for every pair of flattened runs, but scanned column-wise
    zero_correlation = CheckResult(
        True, "no aligned agreement between any two slot runs" if k > 1 else "fewer than two slot runs"
    )
    if k > 1:
        order = np.argsort(stack, axis=0, kind="stable")
        ordered = np.take_along_axis(stack, order, axis=0)
        hit_rows, hit_cols = np.nonzero(np.diff(ordered, axis=0) == 0)
        if hit_rows.size:
            first = int(np.argmin(hit_cols))
            pos = int(hit_cols[first])
            row = int(hit_rows[first])
            a = int(order[row, pos])
            b = int(order[row + 1, pos])
            value = int(stack[a, pos])
            zero_correlation = CheckResult(
                False,
                f"{_ref_label(labels, a)} and {_ref_label(labels, b)} both claim slot {value} "
                f"at position {pos}",
            )

    # occupancy, keyed by provenance
    kind = hcs_set.provenance.get("kind")
    saturated = cfg.saturated
    if in_range:
        counts = np.bincount(stack.ravel(), minlength=t) if k else np.zeros(t, dtype=np.int64)
    else:
        valid = stack[(stack >= 0) & (stack < t)]
        counts = np.bincount(valid, minlength=t) if valid.size else np.zeros(t, dtype=np.int64)
        warnings.append("histogram ignores out-of-range slot values")
    counts = counts.astype(np.int64)

    expected: int | None = None
    if not in_range:
        occupancy = CheckResult(False, "set contains out-of-range slot values")
    elif kind == "c1":
        if saturated:
            expected = length
            occupancy = _ref_exact_counts(counts, length)
        else:
            occupancy = CheckResult(
                True,
                "sub-saturated roster: exact-count check not applicable; "
                "per-frame single use enforced by the collision checks",
            )
    elif kind == "c2":
        per_run = int(hcs_set.provenance.get("params", {}).get("d", 0)) ** int(
            hcs_set.provenance.get("params", {}).get("n", 0)
        )
        occupancy = CheckResult(True, f"every run visits each slot exactly {per_run} times")
        for idx in range(k):
            run_counts = np.bincount(stack[idx], minlength=t)
            if not np.all(run_counts == per_run):
                bad_slot = int(np.nonzero(run_counts != per_run)[0][0])
                occupancy = CheckResult(
                    False,
                    f"{_ref_label(labels, idx)} visits slot {bad_slot} "
                    f"{int(run_counts[bad_slot])} times, expected {per_run}",
                )
                break
        if occupancy.passed and saturated:
            expected = length
            whole = _ref_exact_counts(counts, length)
            if not whole.passed:
                occupancy = whole
    else:
        warnings.append(
            f"unknown construction kind {kind!r}: occupancy downgraded to within-set uniformity"
        )
        if k == 0:
            occupancy = CheckResult(True, "empty roster")
        elif np.all(counts == counts[0]):
            occupancy = CheckResult(True, f"all slots used {int(counts[0])} times")
        else:
            occupancy = CheckResult(
                False,
                f"slot usage not uniform: min {int(counts.min())}, max {int(counts.max())}",
            )

    # frame-level coverage
    if not in_range:
        slot_coverage = CheckResult(False, "set contains out-of-range slot values")
    elif k == 0:
        slot_coverage = CheckResult(True, "empty roster")
    elif saturated:
        cols = np.sort(stack, axis=0)
        target = np.arange(t, dtype=stack.dtype)[:, None]
        if cols.shape[0] == t and np.array_equal(cols, np.broadcast_to(target, cols.shape)):
            slot_coverage = CheckResult(True, "every frame uses all slots exactly once")
        else:
            bad = int(np.nonzero((cols != target).any(axis=0))[0][0])
            slot_coverage = CheckResult(
                False, f"frame {bad} does not cover every slot exactly once"
            )
    else:
        # sub-saturated: no double-claims per frame is the applicable reading
        dup_free = zero_correlation.passed and frame_distinctness.passed
        slot_coverage = CheckResult(
            dup_free,
            "sub-saturated roster: no slot claimed twice in any frame"
            if dup_free
            else "a slot is claimed twice in some frame",
        )

    bound_report = check_bound(cfg)
    load_within_capacity = CheckResult(
        bound_report.feasible,
        f"load {bound_report.load} of capacity {bound_report.capacity}",
    )

    uniformity = 0.0
    if k and in_range:
        per_run_counts = np.stack([np.bincount(row, minlength=t) for row in stack])
        uniformity = float(np.abs(per_run_counts - length / t).max())

    return VerificationReport(
        zero_correlation=zero_correlation,
        occupancy=occupancy,
        occupancy_counts=tuple(int(c) for c in counts),
        expected_occupancy=expected,
        frame_distinctness=frame_distinctness,
        bound=bound_report,
        slot_coverage=slot_coverage,
        load_within_capacity=load_within_capacity,
        length=length,
        uniformity_deviation=uniformity,
        warnings=tuple(warnings),
    )


def plant_mutations(hcs_set, gen):
    """Copy of a set with one to three planted in-range slot mutations.

    Each is a changed slot, a swap of two frames inside one run, or a slot
    stolen from another sequence at the same frame.  Half the draws land in
    the first three frames, so some frames hold several doubled claims and
    the witness order is put to the test.
    """
    t, length = hcs_set.t, hcs_set.length
    sources = [s.frames for s in hcs_set.sequences]
    plan = []
    for _ in range(int(gen.integers(1, 4))):
        kind = ("change", "swap", "steal")[int(gen.integers(3))]
        i = int(gen.integers(len(sources)))
        f, f2 = (int(x) for x in gen.integers(length if gen.random() < 0.5 else 3, size=2))
        col = int(gen.integers(sources[i].shape[1]))
        j = int(gen.integers(len(sources)))
        stolen = int(sources[j][f, int(gen.integers(sources[j].shape[1]))])
        plan.append((kind, i, f, f2, col, int(gen.integers(t)), stolen))

    def mutate(index, frames):
        for kind, i, f, f2, col, value, stolen in plan:
            if index != i:
                continue
            if kind == "change":
                frames[f, col] = value
            elif kind == "swap":
                frames[f, col], frames[f2, col] = frames[f2, col], frames[f, col]
            else:
                frames[f, col] = stolen

    return remake_set(hcs_set, mutate)


class TestCleanSets:
    def test_fixture_sets_pass(self, set24, set128, set32, set_c1_t8):
        for hcs_set in (set24, set128, set32, set_c1_t8):
            report = verify(hcs_set)
            assert report.passed, report.to_dict()

    def test_saturated_c1_expectations(self, set24):
        report = verify(set24)
        assert report.expected_occupancy == 144
        assert report.occupancy_counts == (144,) * 24
        assert report.length == 144
        assert report.bound.optimal
        assert "all slots" in report.slot_coverage.detail

    def test_saturated_c2_expectations(self, set128):
        report = verify(set128)
        assert report.expected_occupancy == 128
        assert report.occupancy_counts == (128,) * 8
        assert "16" in report.occupancy.detail

    def test_report_dict_shape(self, set32):
        d = verify(set32).to_dict()
        assert d["passed"] is True
        assert set(d) == {
            "passed",
            "zero_correlation",
            "occupancy",
            "frame_distinctness",
            "slot_coverage",
            "load_within_capacity",
            "bound",
            "length",
            "uniformity_deviation",
            "warnings",
        }
        assert d["occupancy"]["counts"] == [32] * 8
        assert d["uniformity_deviation"] == 0.0

    def test_histogram_goldens(self, set24, set128, set32):
        assert verify(set24).occupancy_counts == (144,) * 24
        assert verify(set128).occupancy_counts == (128,) * 8
        assert verify(set32).occupancy_counts == (32,) * 8

    def test_single_run_set_is_vacuously_clean(self):
        built = construct2(SystemConfig(t=4, levels=((1, 1),)), n=1)
        report = verify(built)
        assert report.passed
        assert "fewer than two" in report.zero_correlation.detail

    def test_sub_saturated_coverage_reading(self):
        built = construct2(SystemConfig(t=8, levels=((2, 1),)), n=1)
        report = verify(built)
        assert report.passed
        assert "sub-saturated" in report.slot_coverage.detail

    def test_empty_roster(self):
        empty = HcsSet(
            config=SystemConfig(t=6, levels=((2, 0),)),
            length=12,
            sequences=(),
            provenance={"kind": "c1", "params": {}},
        )
        report = verify(empty)
        assert report.passed
        assert report.occupancy_counts == (0,) * 6


    def test_empty_roster_of_unknown_kind(self):
        empty = HcsSet(
            config=SystemConfig(t=6, levels=((2, 0),)),
            length=12,
            sequences=(),
            provenance={"kind": "mystery", "params": {}},
        )
        report = verify(empty)
        assert report.passed
        assert report.occupancy == CheckResult(True, "empty roster")
        assert report.warnings == (
            "unknown construction kind 'mystery': occupancy downgraded to within-set uniformity",
        )


class TestPlantedMutations:
    def test_single_symbol_change(self, set24):
        def mutate(index, frames):
            if index == 0:
                frames[5, 0] = (frames[5, 0] + 1) % 24

        report = verify(remake_set(set24, mutate))
        assert not report.passed
        assert not report.occupancy.passed
        assert "expected 144" in report.occupancy.detail

    def test_duplicate_inside_frame(self, set24):
        def mutate(index, frames):
            if index == 7:
                frames[9, 1] = frames[9, 0]

        report = verify(remake_set(set24, mutate))
        assert not report.passed
        assert "repeats a slot" in report.frame_distinctness.detail
        assert "frame 9" in report.frame_distinctness.detail

    def test_cross_sequence_collision(self, set128):
        stolen = set128.sequence(1, 0).frames[3, 0]

        def mutate(index, frames):
            if index == 0:
                frames[3, 0] = stolen

        report = verify(remake_set(set128, mutate))
        assert not report.passed
        assert "both claim slot" in report.zero_correlation.detail
        assert "position 3" in report.zero_correlation.detail

    def test_out_of_range_slot(self, set32):
        def mutate(index, frames):
            if index == 2:
                frames[2, 0] = 99

        mutated = remake_set(set32, mutate)
        report = verify(mutated)
        assert not report.passed
        assert "out-of-range slot 99" in report.frame_distinctness.detail
        assert not report.occupancy.passed
        assert not report.slot_coverage.passed
        assert any("out-of-range" in w for w in report.warnings)

    def test_count_preserving_swap_caught_by_coverage(self, set24):
        # swapping a slot between two frames of one run keeps every
        # occupancy count intact, so only the frame-level gates can see it
        s = set24.sequence(2, 0)
        f2 = next(
            f
            for f in range(1, set24.length)
            if s.frames[f, 0] not in s.frames[0] and s.frames[0, 0] not in s.frames[f]
        )

        def mutate(index, frames):
            if index == 7:
                frames[0, 0], frames[f2, 0] = frames[f2, 0], frames[0, 0]

        report = verify(remake_set(set24, mutate))
        assert report.occupancy.passed
        assert not report.slot_coverage.passed
        assert not report.zero_correlation.passed
        assert not report.passed

    def test_run_swap_in_modular_set(self, set128):
        # same trick on the single-slot user: per-run occupancy survives,
        # the aligned-collision scan does not
        def mutate(index, frames):
            if index == 0:
                frames[0, 0], frames[8, 0] = frames[8, 0], frames[0, 0]

        report = verify(remake_set(set128, mutate))
        assert report.occupancy.passed
        assert not report.zero_correlation.passed
        assert "position 0" in report.zero_correlation.detail


class TestUnknownProvenance:
    def test_uniform_set_downgrades_with_warning(self, set128):
        relabeled = HcsSet(
            config=set128.config,
            length=set128.length,
            sequences=set128.sequences,
            provenance={"kind": "mystery"},
        )
        report = verify(relabeled)
        assert report.passed
        assert any("unknown construction kind" in w for w in report.warnings)
        assert "uniform" in report.occupancy.detail or "used" in report.occupancy.detail

    def test_non_uniform_unknown_set_fails_occupancy(self, set128):
        def mutate(index, frames):
            if index == 0:
                frames[0, 0] = frames[1, 0]

        mutated = remake_set(set128, mutate)
        relabeled = HcsSet(
            config=mutated.config,
            length=mutated.length,
            sequences=mutated.sequences,
            provenance={"kind": "mystery"},
        )
        report = verify(relabeled)
        assert not report.occupancy.passed
        assert "not uniform" in report.occupancy.detail


class TestClaimGridMatchesReference:
    def test_clean_fixture_sets(self, set24, set128, set32, set_c1_t8):
        for hcs_set in (set24, set128, set32, set_c1_t8):
            assert dumps_document(verify(hcs_set).to_dict()) == dumps_document(
                reference_verify(hcs_set).to_dict()
            )

    def test_planted_mutations(self, set24, set128, set32, set_c1_t8):
        gen = np.random.default_rng(20240817)
        failures = set()
        for hcs_set in (set24, set128, set32, set_c1_t8):
            for trial in range(60):
                mutated = plant_mutations(hcs_set, gen)
                if trial % 4 == 3:
                    mutated = HcsSet(
                        config=mutated.config,
                        length=mutated.length,
                        sequences=mutated.sequences,
                        provenance={"kind": "mystery"},
                    )
                got = verify(mutated).to_dict()
                assert dumps_document(got) == dumps_document(
                    reference_verify(mutated).to_dict()
                )
                failures.update(
                    name for name, entry in got.items()
                    if isinstance(entry, dict) and entry.get("passed") is False
                )
        # the mutations reach every data-driven gate
        assert failures >= {"zero_correlation", "occupancy", "frame_distinctness", "slot_coverage"}

    def test_three_runs_on_one_slot(self, set24):
        # the witness names the first two of the three runs, in label order
        value = set24.sequences[5].frames[4, 1]

        def mutate(index, frames):
            if index in (1, 3):
                frames[4, 0] = value

        mutated = remake_set(set24, mutate)
        got = verify(mutated).to_dict()
        assert got == reference_verify(mutated).to_dict()
        assert got["zero_correlation"]["detail"] == (
            f"level 0 user 1 run 0 and level 1 user 0 run 0 both claim slot {value} "
            "at position 4"
        )


@pytest.mark.parametrize("cells", [1, 7, 100])
class TestBlockedClaimCounts:
    """The reference still holds when verify's claim blocks are a frame or a
    few frames long, so block edges fall everywhere in the fixture sets."""

    def test_planted_mutations(self, monkeypatch, cells, set24, set128, set32, set_c1_t8):
        monkeypatch.setattr(verification, "CLAIM_BLOCK_CELLS", cells)
        TestClaimGridMatchesReference().test_planted_mutations(set24, set128, set32, set_c1_t8)

    def test_three_runs_on_one_slot(self, monkeypatch, cells, set24):
        monkeypatch.setattr(verification, "CLAIM_BLOCK_CELLS", cells)
        TestClaimGridMatchesReference().test_three_runs_on_one_slot(set24)

    def test_out_of_range_in_a_later_block(self, monkeypatch, cells, set32):
        # the reference covers in-range sets only: compare with one whole block
        def mutate(index, frames):
            if index == 2:
                frames[30, 0] = 99

        mutated = remake_set(set32, mutate)
        whole = dumps_document(verify(mutated).to_dict())
        monkeypatch.setattr(verification, "CLAIM_BLOCK_CELLS", cells)
        got = verify(mutated).to_dict()
        assert dumps_document(got) == whole
        assert got["zero_correlation"]["detail"] == "set contains out-of-range slot values"


class TestBlockEdges:
    # set24 has t = k = 24, so 5 * 24 cells make blocks of frames 0-4, 5-9, ...
    CELLS = 5 * 24

    @staticmethod
    def collide(hcs_set, frames):
        """Copy of a saturated set where sequence 1 takes sequence 5's second
        slot in each of ``frames``."""

        def mutate(index, table):
            if index == 1:
                for f in frames:
                    table[f, 0] = hcs_set.sequences[5].frames[f, 1]

        return remake_set(hcs_set, mutate)

    @pytest.mark.parametrize(
        "first", [4, 5, 13], ids=["last-of-block", "first-of-block", "inside-later-block"]
    )
    def test_first_doubled_frame_is_the_witness(self, monkeypatch, set24, first):
        monkeypatch.setattr(verification, "CLAIM_BLOCK_CELLS", self.CELLS)
        mutated = self.collide(set24, [first, 21, 22, 143])
        got = verify(mutated).to_dict()
        assert dumps_document(got) == dumps_document(reference_verify(mutated).to_dict())
        assert got["zero_correlation"]["detail"].endswith(f"at position {first}")
        assert got["slot_coverage"]["detail"] == (
            f"frame {first} does not cover every slot exactly once"
        )


class TestOutOfRange:
    @pytest.mark.parametrize("planted", [(2,), (0, 2)], ids=["one-run", "two-runs-agree"])
    def test_out_of_range_fails_grid_gates(self, set32, planted):
        # one stray value, and two runs agreeing on the same stray value,
        # fail the same way: the claim grid has no cell for slot 99
        def mutate(index, frames):
            if index in planted:
                frames[2, 0] = 99

        report = verify(remake_set(set32, mutate))
        assert not report.passed
        for check in (report.zero_correlation, report.occupancy, report.slot_coverage):
            assert check == CheckResult(False, "set contains out-of-range slot values")
        assert "out-of-range slot 99" in report.frame_distinctness.detail

    def test_single_run_out_of_range(self):
        built = construct2(SystemConfig(t=4, levels=((1, 1),)), n=1)
        report = verify(remake_set(built, lambda index, frames: frames.__setitem__((0, 0), -1)))
        assert not report.zero_correlation.passed
        assert "out-of-range" in report.zero_correlation.detail

    def test_oversized_claim_grid_refused(self):
        huge = HcsSet(
            config=SystemConfig(t=1 << 40, levels=((1, 1),)),
            length=2,
            sequences=(
                HcsSequence(level=0, user=0, frames=np.zeros((2, 1), dtype=np.int64)),
            ),
            provenance={"kind": "c1", "params": {}},
        )
        with pytest.raises(ValueError, match="too large to verify"):
            verify(huge)


def plant_out_of_range(hcs_set, gen):
    """Copy of a set with in-range mutations plus one to three slots set to
    -5, -1, t or t + 7; a third of the copies lose their construction kind."""
    mutated = plant_mutations(hcs_set, gen)
    t, length = hcs_set.t, hcs_set.length
    plan = [
        (int(gen.integers(len(hcs_set.sequences))), int(gen.integers(length)),
         int(gen.integers(8)), (-5, -1, t, t + 7)[int(gen.integers(4))])
        for _ in range(int(gen.integers(1, 4)))
    ]

    def mutate(index, frames):
        for i, f, col, value in plan:
            if index == i:
                frames[f, col % frames.shape[1]] = value

    mutated = remake_set(mutated, mutate)
    if gen.integers(3) == 0:
        mutated = HcsSet(config=mutated.config, length=length, sequences=mutated.sequences,
                         provenance={"kind": "mystery"})
    return mutated


def whole_set_out_of_range_report(hcs_set) -> dict:
    """What verify reports for a set holding an out-of-range slot, from the
    whole set at once: the reference's frame_distinctness and histogram, and
    the three grid gates failed with one fixed detail."""
    doc = reference_verify(hcs_set).to_dict()
    doc["zero_correlation"] = {"passed": False, "detail": "set contains out-of-range slot values"}
    return doc


@pytest.mark.parametrize("cells", [1, 7, 100, verification.CLAIM_BLOCK_CELLS])
def test_out_of_range_sets_match_whole_set_report(monkeypatch, cells, set24, set128, set32,
                                                   set_c1_t8):
    monkeypatch.setattr(verification, "CLAIM_BLOCK_CELLS", cells)
    gen = np.random.default_rng(20261018)
    for hcs_set in (set24, set128, set32, set_c1_t8):
        for _ in range(25):
            mutated = plant_out_of_range(hcs_set, gen)
            got = verify(mutated).to_dict()
            assert dumps_document(got) == dumps_document(whole_set_out_of_range_report(mutated))
            assert got["warnings"] == ["histogram ignores out-of-range slot values"]


@pytest.mark.parametrize("cells", [1, 7, 100])
def test_claim_counts_list_outside_frames(monkeypatch, cells, set32):
    def mutate(index, frames):
        if index == 0:
            frames[[3, 30], 0] = (-1, 99)
        if index == 2:
            frames[[17, 30], 3] = (8, 8)

    monkeypatch.setattr(verification, "CLAIM_BLOCK_CELLS", cells)
    mutated = remake_set(set32, mutate)
    doubled, outside, per_run = verification._claim_counts(mutated)
    assert outside.tolist() == [3, 17, 30]
    assert doubled.tolist() == []
    # the visit counts hold the in-range slots only
    assert per_run.sum() == 8 * mutated.length - 4


def test_out_of_range_verify_memory_is_bounded():
    # 262144 frames of 16 slots; the whole-set fallback this replaces peaked
    # near 71 MB on this set, the blocked pass stays near its clean 3 MB
    built = construct2(SystemConfig(t=16, levels=((1, 2), (2, 3), (4, 2))), n=7, g=3)

    def mutate(index, frames):
        if index == 3:
            frames[200_000, 1] = 99

    mutated = remake_set(built, mutate)
    tracemalloc.start()
    try:
        report = verify(mutated)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.zero_correlation.detail == "set contains out-of-range slot values"
    assert report.frame_distinctness.detail == (
        "level 1 user 1 frame 200000 holds out-of-range slot 99"
    )
    assert peak < 10 * 2**20


class TestC2Provenance:
    def _relabel(self, hcs_set, **params):
        return HcsSet(
            config=hcs_set.config,
            length=hcs_set.length,
            sequences=hcs_set.sequences,
            provenance={"kind": "c2", "params": {**hcs_set.provenance["params"], **params}},
        )

    def test_unattainable_visit_count_is_not_built(self, set128):
        # 4**1000000 has 600k digits; a run of 128 frames can never meet it
        report = verify(self._relabel(set128, n=10**6))
        assert not report.occupancy.passed
        assert report.occupancy.detail == (
            "level 0 user 0 run 0 visits slot 0 16 times, expected 4**1000000"
        )

    def test_visit_count_at_the_cutoff(self, set128):
        # length 128 has bit length 8: n = 8 is still built, n = 9 is not
        assert "expected 65536" in verify(self._relabel(set128, n=8)).occupancy.detail
        assert "expected 4**9" in verify(self._relabel(set128, n=9)).occupancy.detail
        assert "expected 200**1" in verify(self._relabel(set128, d=200, n=1)).occupancy.detail
