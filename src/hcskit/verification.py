"""Construction-agnostic checking of sequence sets.

Replays every collision-freedom and occupancy claim against the actual slot
tables and reports a witness for the first failure of each kind.  The checks
only trust the set's provenance field to pick the right occupancy expectation;
everything else is recomputed from the data, so a set corrupted after
generation is flagged no matter which construction produced it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bound import BoundReport, check_bound
from .core import HcsSet, check_instance, frames_per_block

# largest frames x slots count verify takes on; it bounds the work, since
# the counts are built one block of CLAIM_BLOCK_CELLS at a time
MAX_CLAIM_CELLS = 1 << 28
# claim-grid cells verify counts in one block of frames
CLAIM_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class VerificationReport:
    """Gate results plus informational metrics for one sequence set.

    Gates (all must pass, listed by ``gates()``):
      zero_correlation      no two flattened slot runs agree at any aligned
                            position
      occupancy             per-slot usage counts match the construction's
                            stated expectation
      frame_distinctness    every frame tuple holds distinct in-range slots
      slot_coverage         saturated sets use all t slots every frame;
                            sub-saturated sets never double-claim a slot
      load_within_capacity  roster load fits in the frame

    Informational: the whole-set occupancy histogram, sequence length, and
    the worst per-run deviation of slot frequencies from the uniform l/t.
    """

    zero_correlation: CheckResult
    occupancy: CheckResult
    occupancy_counts: tuple[int, ...]
    expected_occupancy: int | None
    frame_distinctness: CheckResult
    bound: BoundReport
    slot_coverage: CheckResult
    load_within_capacity: CheckResult
    length: int
    uniformity_deviation: float
    warnings: tuple[str, ...] = ()

    def gates(self) -> tuple[tuple[str, CheckResult], ...]:
        """The five gates as (name, result) pairs, in report order."""
        return (
            ("zero_correlation", self.zero_correlation),
            ("occupancy", self.occupancy),
            ("frame_distinctness", self.frame_distinctness),
            ("slot_coverage", self.slot_coverage),
            ("load_within_capacity", self.load_within_capacity),
        )

    @property
    def passed(self) -> bool:
        return all(check.passed for _, check in self.gates())

    def to_dict(self) -> dict:
        doc = {
            name: {"passed": check.passed, "detail": check.detail}
            for name, check in self.gates()
        }
        doc["occupancy"].update(
            counts=list(self.occupancy_counts), expected=self.expected_occupancy
        )
        return {
            "passed": self.passed,
            **doc,
            "bound": self.bound.to_dict(),
            "length": self.length,
            "uniformity_deviation": self.uniformity_deviation,
            "warnings": list(self.warnings),
        }


def _label(labels, index) -> str:
    level, user, theta = labels[index]
    return f"level {level} user {user} run {theta}"


def _block_shifts(widths: list[int], b: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell shifts for a block of b frames whose slots lie sequence after sequence.

    Adding the first takes each slot to its frame*t + slot claim cell;
    adding the second then takes it on to its run*t + slot visit cell.
    """
    frame = [np.empty(0, np.int64)]
    run = [np.empty(0, np.int64)]
    first = 0
    for r in widths:
        frame.append(np.repeat(np.arange(b, dtype=np.int64), r))
        run.append(np.tile(np.arange(first, first + r, dtype=np.int64), b))
        first += r
    frame, run = np.concatenate(frame), np.concatenate(run)
    return frame * t, (run - frame) * t


def _claim_counts(hcs_set: HcsSet) -> tuple[np.ndarray, np.ndarray | None, np.ndarray] | None:
    """(doubled, first_row, per_run), or None if the set holds a slot outside 0..t-1.

    ``doubled`` lists the frames where a slot is claimed more than once,
    ascending; ``first_row`` holds the slot claim counts of the first of
    them (None if there is none); ``per_run`` the (run, slot) visit counts.
    Works one block of frames at a time: the block's slots are shifted to
    claim cells for one bincount, then to visit cells for a bincount that
    adds into the (k, t) visit counts, so no array grows with the set.
    """
    t = hcs_set.t
    length = hcs_set.length
    seqs = hcs_set.sequences
    widths = [s.slots_per_frame for s in seqs]
    k = sum(widths)
    step = frames_per_block(CLAIM_BLOCK_CELLS, max(k, t))
    per_run = np.zeros(k * t, dtype=np.int64)
    doubled = [np.empty(0, dtype=np.int64)]
    first_row = None
    for lo in range(0, length, step):
        b = min(step, length - lo)
        if lo == 0 or b < step:
            to_claim, to_visit = _block_shifts(widths, b, t)
        # the block's slots, sequence after sequence, each (b, r) row-major:
        # each piece is one contiguous slice, which gathers about 5x faster
        # than a (frame, run) block built with concatenate(axis=1)
        cells = np.concatenate(
            [np.empty(0, np.int64)] + [s.frames[lo : lo + b].ravel() for s in seqs]
        )
        if k and (cells.min() < 0 or cells.max() >= t):
            return None
        cells += to_claim
        claims = np.bincount(cells, minlength=b * t)
        if claims.max() > 1:
            claims = claims.reshape(b, t)
            hit = np.flatnonzero(claims.max(axis=1) > 1)
            if first_row is None:
                first_row = claims[hit[0]]
            doubled.append(hit + lo)
        cells += to_visit
        per_run += np.bincount(cells, minlength=k * t)
    return np.concatenate(doubled), first_row, per_run.reshape(k, t)


def verify(hcs_set: HcsSet) -> VerificationReport:
    """Full check of a sequence set; see VerificationReport for the gates.

    zero_correlation and slot_coverage are read off one (frame, slot) claim
    count; occupancy and the uniformity deviation off one (run, slot) visit
    count.  Those counts have no cell for a slot outside 0..t-1, so a set
    holding one fails zero_correlation, occupancy and slot_coverage outright
    while frame_distinctness names the value.  Raises ValueError when the
    claim grid (l * t cells) would exceed MAX_CLAIM_CELLS.
    """
    cfg = check_instance(hcs_set, HcsSet, "set").config
    t = cfg.t
    length = hcs_set.length
    if length * t > MAX_CLAIM_CELLS:
        raise ValueError(
            f"set too large to verify: {length} frames of {t} slots exceed "
            f"{MAX_CLAIM_CELLS} claim cells"
        )
    seqs = hcs_set.sequences
    labels = [(s.level, s.user, theta) for s in seqs for theta in range(s.slots_per_frame)]
    k = len(labels)
    warnings: list[str] = []

    zero_correlation = occupancy = slot_coverage = CheckResult(
        False, "set contains out-of-range slot values"
    )
    expected: int | None = None
    uniformity = 0.0
    grid = _claim_counts(hcs_set)
    if grid is None:
        frame_distinctness = _frame_distinctness(seqs, t, np.arange(length))
        values = np.concatenate([s.frames.ravel() for s in seqs])
        counts = np.bincount(values[(values >= 0) & (values < t)], minlength=t)
        warnings.append("histogram ignores out-of-range slot values")
    else:
        doubled, first_row, per_run = grid
        counts = per_run.sum(axis=0)
        if k:
            uniformity = float(np.abs(per_run - length / t).max())

        # a doubled claim is an aligned agreement of two runs: nonzero
        # Hamming correlation at shift 0.  Witness: the lowest doubled slot
        # of the first such frame and the first two runs that hold it.
        # a slot repeated inside one frame of one sequence is a doubled
        # claim, so only the frames with one can fail frame_distinctness
        frame_distinctness = _frame_distinctness(seqs, t, doubled)
        if doubled.size:
            f = int(doubled[0])
            value = int(np.argmax(first_row > 1))
            a, b = np.flatnonzero(np.concatenate([s.frames[f] for s in seqs]) == value)[:2]
            zero_correlation = CheckResult(
                False,
                f"{_label(labels, a)} and {_label(labels, b)} both claim slot {value} "
                f"at position {f}",
            )
        else:
            zero_correlation = CheckResult(
                True,
                "no aligned agreement between any two slot runs" if k > 1 else "fewer than two slot runs",
            )

        occupancy, expected = _occupancy(hcs_set, per_run, counts, labels, warnings)

        if k == 0:
            slot_coverage = CheckResult(True, "empty roster")
        elif cfg.saturated:
            # k = t runs put t claims in every frame, so a frame covers every
            # slot exactly once unless it holds a doubled claim
            slot_coverage = CheckResult(True, "every frame uses all slots exactly once")
            if doubled.size:
                slot_coverage = CheckResult(
                    False, f"frame {int(doubled[0])} does not cover every slot exactly once"
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
    return VerificationReport(
        zero_correlation=zero_correlation,
        occupancy=occupancy,
        occupancy_counts=tuple(int(c) for c in counts),
        expected_occupancy=expected,
        frame_distinctness=frame_distinctness,
        bound=bound_report,
        slot_coverage=slot_coverage,
        load_within_capacity=CheckResult(
            bound_report.feasible,
            f"load {bound_report.load} of capacity {bound_report.capacity}",
        ),
        length=length,
        uniformity_deviation=uniformity,
        warnings=tuple(warnings),
    )


def _frame_distinctness(seqs, t: int, rows: np.ndarray) -> CheckResult:
    """The first sequence with an out-of-range or a repeated slot in the frames ``rows``."""
    for s in seqs:
        frames = s.frames[rows]
        bad = np.nonzero((frames < 0) | (frames >= t))
        if bad[0].size:
            return CheckResult(
                False,
                f"level {s.level} user {s.user} frame {int(rows[bad[0][0]])} holds out-of-range "
                f"slot {int(frames[bad[0][0], bad[1][0]])}",
            )
        ordered = np.sort(frames, axis=1)
        dup = rows[(np.diff(ordered, axis=1) == 0).any(axis=1)]
        if dup.size:
            f = int(dup[0])
            return CheckResult(
                False,
                f"level {s.level} user {s.user} frame {f} repeats a slot: "
                f"{tuple(int(x) for x in s.frames[f])}",
            )
    return CheckResult(True, "every frame holds distinct in-range slots")


def _occupancy(hcs_set, per_run, counts, labels, warnings) -> tuple[CheckResult, int | None]:
    """Occupancy gate of an in-range set, keyed by provenance, and its expected count."""
    length = hcs_set.length
    saturated = hcs_set.config.saturated
    kind = hcs_set.provenance.get("kind")
    if kind == "c1":
        if saturated:
            return _exact_counts(counts, length), length
        return CheckResult(
            True,
            "sub-saturated roster: exact-count check not applicable; "
            "per-frame single use enforced by the collision checks",
        ), None
    if kind == "c2":
        # HcsSet holds d and n of a c2 set as non-negative ints
        params = hcs_set.provenance["params"]
        d, n = params["d"], params["n"]
        # a run visits no slot more than l times, so a d**n that must exceed
        # l is compared as l + 1 and never built
        huge = d >= 2 and n >= 1 and (n > length.bit_length() or d > length)
        visits = length + 1 if huge else d**n
        text = f"{d}**{n}" if huge else str(visits)
        bad = np.flatnonzero(per_run != visits)
        if bad.size:
            run, slot = divmod(int(bad[0]), hcs_set.t)
            return CheckResult(
                False,
                f"{_label(labels, run)} visits slot {slot} "
                f"{int(per_run[run, slot])} times, expected {text}",
            ), None
        occupancy = CheckResult(True, f"every run visits each slot exactly {text} times")
        if not saturated:
            return occupancy, None
        whole = _exact_counts(counts, length)
        return (occupancy if whole.passed else whole), length
    warnings.append(
        f"unknown construction kind {kind!r}: occupancy downgraded to within-set uniformity"
    )
    if not per_run.size:
        return CheckResult(True, "empty roster"), None
    if np.all(counts == counts[0]):
        return CheckResult(True, f"all slots used {int(counts[0])} times"), None
    return CheckResult(
        False, f"slot usage not uniform: min {int(counts.min())}, max {int(counts.max())}"
    ), None


def _exact_counts(counts: np.ndarray, expected: int) -> CheckResult:
    if np.all(counts == expected):
        return CheckResult(True, f"every slot used exactly {expected} times")
    bad = int(np.nonzero(counts != expected)[0][0])
    return CheckResult(
        False, f"slot {bad} used {int(counts[bad])} times, expected {expected}"
    )
