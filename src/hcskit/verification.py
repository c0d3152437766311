"""Construction-agnostic checking of sequence sets.

Replays every collision-freedom and occupancy claim against the actual slot
tables and reports a witness for the first failure of each kind.  The checks
only trust the set's provenance field to pick the right occupancy expectation;
everything else is recomputed from the data, so a set corrupted after
generation is flagged no matter which construction produced it.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import core
from .bound import BoundReport, check_bound
from .core import HcsSet, check_instance, frames_per_block

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
    r = np.array(widths, dtype=np.int64)
    # one row per (sequence, frame), sequence after sequence, r slots each
    row_r = np.repeat(r, b)
    row_frame = np.tile(np.arange(b, dtype=np.int64), r.size)
    # the slot at position p of a row that starts at p0 = b * first + frame * r
    # is in run first + p - p0, so run - frame = p - (p0 - first + frame)
    first = np.cumsum(r) - r
    lag = np.repeat((b - 1) * first, b) + row_frame * (row_r + 1)
    n = b * int(r.sum())
    return (
        np.repeat(row_frame * t, row_r),
        np.arange(0, n * t, t, dtype=np.int64) - np.repeat(lag * t, row_r),
    )


def _claim_counts(hcs_set: HcsSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doubled, outside, per_run) of a set's slots.

    ``doubled`` lists the frames where a slot is claimed more than once,
    ``outside`` the frames holding a slot outside 0..t-1, both ascending;
    ``per_run`` holds the (run, slot) visit counts.  Works one block of
    frames at a time: the block's slots are shifted to claim cells for one
    bincount, then to visit cells for a bincount that adds into the (k, t)
    visit counts, so no array grows with the set.  An out-of-range slot has
    no cell, so a block holding one leaves it out of both counts.
    """
    t = hcs_set.t
    length = hcs_set.length
    seqs = hcs_set.sequences
    widths = [s.slots_per_frame for s in seqs]
    k = sum(widths)
    step = frames_per_block(CLAIM_BLOCK_CELLS, max(k, t))
    per_run = np.zeros(k * t, dtype=np.int64)
    doubled = [np.empty(0, dtype=np.int64)]
    outside = [np.empty(0, dtype=np.int64)]
    for lo in range(0, length, step):
        b = min(step, length - lo)
        if lo == 0 or b < step:
            to_claim, to_visit = _block_shifts(widths, b, t)
        # the block's slots, sequence after sequence, each (b, r) row-major:
        # each piece is one contiguous slice, which gathers about 5x faster
        # than a (frame, run) block built with concatenate(axis=1); the empty
        # int64 first piece widens narrow tables, so the cell shifts cannot wrap
        cells = np.concatenate(
            [np.empty(0, np.int64)] + [s.frames[lo : lo + b].ravel() for s in seqs]
        )
        claim, visit = to_claim, to_visit
        if k and (cells.min() < 0 or cells.max() >= t):
            keep = (cells >= 0) & (cells < t)
            outside.append(np.flatnonzero(np.bincount(to_claim[~keep] // t, minlength=b)) + lo)
            cells, claim, visit = cells[keep], to_claim[keep], to_visit[keep]
        cells += claim
        claims = np.bincount(cells, minlength=b * t)
        if claims.max() > 1:
            doubled.append(np.flatnonzero(claims.reshape(b, t).max(axis=1) > 1) + lo)
        cells += visit
        per_run += np.bincount(cells, minlength=k * t)
    return np.concatenate(doubled), np.concatenate(outside), per_run.reshape(k, t)


def verify(hcs_set: HcsSet) -> VerificationReport:
    """Full check of a sequence set; see VerificationReport for the gates.

    zero_correlation and slot_coverage are read off one (frame, slot) claim
    count; occupancy and the uniformity deviation off one (run, slot) visit
    count.  Those counts have no cell for a slot outside 0..t-1, so a set
    holding one fails zero_correlation, occupancy and slot_coverage outright
    while frame_distinctness names the value.  Raises ValueError when the
    claim grid (l * t cells) would exceed core.SET_CELL_BUDGET.
    """
    cfg = check_instance(hcs_set, HcsSet, "set").config
    t = cfg.t
    length = hcs_set.length
    if length > core.max_frames(t):
        raise ValueError(
            f"set too large to verify: {length} frames of {t} slots exceed "
            f"{core.SET_CELL_BUDGET} claim cells"
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
    doubled, outside, per_run = _claim_counts(hcs_set)
    counts = per_run.sum(axis=0)
    # a slot repeated inside one frame of one sequence is a doubled claim,
    # so only the doubled and the outside frames can fail frame_distinctness
    # (a frame that is both is checked twice, to the same result)
    rows = np.sort(np.concatenate([doubled, outside]))
    frame_distinctness = _frame_distinctness(seqs, t, rows)
    if outside.size:
        warnings.append("histogram ignores out-of-range slot values")
    else:
        if k:
            uniformity = float(np.abs(per_run - length / t).max())

        # a doubled claim is an aligned agreement of two runs: nonzero
        # Hamming correlation at shift 0.  Witness: the lowest doubled slot
        # of the first such frame and the first two runs that hold it.
        if doubled.size:
            f = int(doubled[0])
            row = np.concatenate([s.frames[f] for s in seqs])
            # the frame's k claims, sorted: the first value equal to the one
            # before it is the lowest doubled slot
            ordered = np.sort(row)
            value = int(ordered[1:][np.argmax(ordered[1:] == ordered[:-1])])
            a, b = np.flatnonzero(row == value)[:2]
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
            # sub-saturated: no double-claims per frame is the applicable
            # reading, and an in-range repeat inside a frame is a doubled claim
            slot_coverage = CheckResult(
                not doubled.size,
                "a slot is claimed twice in some frame"
                if doubled.size
                else "sub-saturated roster: no slot claimed twice in any frame",
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


# each proved set's report; weak keys, so it keeps no set alive, and a
# report holds no table
_proofs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _proof(hcs_set: HcsSet) -> VerificationReport:
    """verify's report of ``hcs_set``, proved once per set object and kept
    for as long as the set lives: a set's tables and provenance cannot
    change (see HcsSet)."""
    report = _proofs.get(check_instance(hcs_set, HcsSet, "set"))
    if report is None:
        report = _proofs[hcs_set] = verify(hcs_set)
    return report


def _frame_distinctness(seqs, t: int, rows: np.ndarray) -> CheckResult:
    """The first sequence with an out-of-range or a repeated slot in the frames ``rows``."""
    passed = CheckResult(True, "every frame holds distinct in-range slots")
    if not rows.size:
        return passed
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
        # a difference of unsigned slots may wrap, but is 0 only for equal ones
        dup = rows[(np.diff(ordered, axis=1) == 0).any(axis=1)]
        if dup.size:
            f = int(dup[0])
            return CheckResult(
                False,
                f"level {s.level} user {s.user} frame {f} repeats a slot: "
                f"{tuple(int(x) for x in s.frames[f])}",
            )
    return passed


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
