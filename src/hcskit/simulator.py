"""Link simulator for slotted transmission under interference.

One user transmits binary-antipodal symbols in its per-frame slots over an
AWGN channel; a subset of the frame's slots is additionally hit by an
independent Gaussian interferer at a configured power above the signal.
Hard-decision detection; each SNR point's error count is drawn exactly, as
two binomial counts, not symbol by symbol.  Schemes under test: a fixed slot
tuple reused every frame, or a sequence from a generated set cycled frame by
frame, which spreads the interference hits across the whole frame instead of
pinning them to the same slots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import rng
from .core import _INT64_MAX, ConfigError, HcsSet, check_db, check_instance, check_int, check_items


def _slot_numbers(slots, what: str, t: int | None = None) -> tuple[int, ...]:
    """Distinct non-negative int slot numbers, each in [0, t) if t is given."""
    slots = tuple(check_int(s, what) for s in check_items(slots, what + "s"))
    if len(set(slots)) != len(slots):
        raise ConfigError(f"{what}s must be distinct, got {slots}")
    if t is not None and any(s >= t for s in slots):
        raise ConfigError(f"{what}s must lie in [0, {t}), got {slots}")
    return slots


class _CycledScheme:
    def frame_slots(self, frames: int) -> np.ndarray:
        """Slot tuples of ``frames`` successive frames, cycling the slot table."""
        table = self.cycle_slots()
        return np.tile(table, (-(-frames // table.shape[0]), 1))[:frames]


@dataclass(frozen=True)
class FixedScheme(_CycledScheme):
    """Same slot tuple every frame."""

    slots: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", _slot_numbers(self.slots, "fixed slot"))
        if not self.slots:
            raise ConfigError("a scheme must use at least one slot per frame")

    @property
    def label(self) -> str:
        return "fixed[" + "-".join(str(s) for s in self.slots) + "]"

    def validate(self, t: int) -> None:
        _slot_numbers(self.slots, "fixed slot", t)

    def cycle_slots(self) -> np.ndarray:
        """Slot table of one cycle: a single frame."""
        return np.array([self.slots], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class HcsScheme(_CycledScheme):
    """One user's sequence from a set, cycled over successive frames.

    Defaults to the first user of the highest level (the largest per-frame
    demand); pick level/user explicitly to simulate someone else.
    """

    hcs_set: HcsSet
    level: int | None = None
    user: int = 0

    def __post_init__(self) -> None:
        check_instance(self.hcs_set, HcsSet, "scheme set")
        if self.level is not None:
            check_int(self.level, "scheme level")
        check_int(self.user, "scheme user")

    def _sequence(self):
        level = self.level if self.level is not None else self.hcs_set.config.num_levels - 1
        try:
            return self.hcs_set.sequence(level, self.user)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc

    @property
    def label(self) -> str:
        seq = self._sequence()
        return f"hcs-L{self.hcs_set.length}-level{seq.level}-user{seq.user}"

    def validate(self, t: int) -> None:
        if self.hcs_set.t != t:
            raise ConfigError(
                f"sequence set is built for {self.hcs_set.t} slots, simulation uses {t}"
            )
        self._sequence()

    def cycle_slots(self) -> np.ndarray:
        """Slot table of one cycle: the sequence's frames."""
        return self._sequence().frames


Scheme = Union[FixedScheme, HcsScheme]


# Slot numbers a slot mask covers, at one byte each; a slot table with a larger
# slot number is matched with np.isin, so the mask stays small whatever slot
# numbers a caller passes.
_MASK_SLOTS = 1 << 16


def _exposure(scheme: Scheme, interference_slots: Sequence[int], frames: int) -> tuple[int, int]:
    """(interfered, sent) slot counts over ``frames`` frames, counted per cycle:
    full cycles times one cycle's hits, plus the leading rows of the last one."""
    if isinstance(scheme, FixedScheme):
        # a one-frame cycle, counted in Python: cheaper than numpy passes over one row
        hits = len(set(scheme.slots).intersection(interference_slots))
        return frames * hits, frames * len(scheme.slots)
    table = scheme.cycle_slots()
    top = int(table.max())
    if top < _MASK_SLOTS:
        # mask[s] is set for an interfered slot s <= top; its last entry, which
        # no slot sets, is read for every negative value of a signed table
        mask = np.zeros(max(top, 0) + 2, dtype=bool)
        mask[[s for s in interference_slots if s <= top]] = True
        # take, unlike fancy indexing, reads a narrow unsigned index table at
        # about the speed of an int64 one
        hit = mask.take(table if table.dtype.kind == "u" else np.maximum(table, -1))
    else:
        hit = np.isin(table, np.asarray(tuple(interference_slots), dtype=np.int64))
    full, rest = divmod(frames, table.shape[0])
    hits = full * int(np.count_nonzero(hit)) + int(np.count_nonzero(hit[:rest]))
    return hits, frames * table.shape[1]


@dataclass(frozen=True, eq=False)
class SimConfig:
    t: int
    scheme: Scheme
    snr_db: tuple[float, ...]
    interference_slots: tuple[int, ...] = ()
    interference_power_db: float = 10.0
    symbols_per_slot: int = 64
    frames: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        snr_db = tuple(check_db(s, "SNR point") for s in check_items(self.snr_db, "SNR points"))
        object.__setattr__(self, "snr_db", snr_db)
        power = check_db(self.interference_power_db, "interference power")
        object.__setattr__(self, "interference_power_db", power)
        check_int(self.t, "frame size", positive=True)
        slots = _slot_numbers(self.interference_slots, "interference slot", self.t)
        object.__setattr__(self, "interference_slots", slots)
        if not self.snr_db:
            raise ConfigError("at least one SNR point is required")
        check_int(self.symbols_per_slot, "symbols per slot", positive=True)
        check_int(self.frames, "frame count", positive=True)
        rng.check_seed(self.seed)
        scheme = check_instance(self.scheme, (FixedScheme, HcsScheme), "scheme")
        scheme.validate(self.t)
        # simulate_ser draws its error counts from int64 symbol counts
        per_frame = scheme.cycle_slots().shape[1]
        if self.frames * self.symbols_per_slot * per_frame > _INT64_MAX:
            raise ConfigError(
                f"frames x symbols per slot x slots per frame must be at most 2**63 - 1, "
                f"got {self.frames} x {self.symbols_per_slot} x {per_frame}"
            )


@dataclass(frozen=True)
class SerPoint:
    snr_db: float
    ser: float
    symbols_total: int
    symbols_error: int


@dataclass(frozen=True)
class SerCurve:
    scheme: str
    scenario: str
    points: tuple[SerPoint, ...]

    def sers(self) -> np.ndarray:
        return np.array([p.ser for p in self.points])


def scenario_label(interference_slots: Sequence[int], power_db: float) -> str:
    slots = tuple(int(s) for s in interference_slots)
    if not slots:
        return "clean"
    return "I=" + "-".join(str(s) for s in slots) + f"@{power_db:g}dB"


def interference_hit_fraction(
    scheme: Scheme, interference_slots: Sequence[int], frames: int, t: int | None = None
) -> float:
    """Fraction of transmitted slots that fall on interfered slot numbers.

    The slots follow SimConfig's rule; their range, and the scheme, are
    checked against ``t`` when it is given.
    """
    check_instance(scheme, (FixedScheme, HcsScheme), "scheme")
    check_int(frames, "frame count", positive=True)
    if t is not None:
        check_int(t, "frame size", positive=True)
        scheme.validate(t)
    interference_slots = _slot_numbers(interference_slots, "interference slot", t)
    hit, sent = _exposure(scheme, interference_slots, frames)
    return hit / sent


def simulate_ser(config: SimConfig) -> SerCurve:
    """Symbol error rate at each SNR point.

    SNR is symbol energy over noise density; the interferer adds zero-mean
    Gaussian samples at signal power times 10^(power_db/10) in interfered
    slots.  The error count is drawn exactly as Bin(n_clean, Q(1/sqrt(N0/2)))
    + Bin(n_hit, Q(1/sqrt(N0/2 + 10^(P/10)))), n_hit being the symbols the
    slot table puts in interfered slots.  Each SNR point draws from its own
    (seed, point index) substream: reruns are bit-identical per seed, and
    points are independent.
    """
    check_instance(config, SimConfig, "simulation config")
    total, errors = _curve(config, rng._generator())
    return SerCurve(
        scheme=config.scheme.label,
        scenario=scenario_label(config.interference_slots, config.interference_power_db),
        points=tuple(SerPoint(snr, e / total, total, e) for snr, e in zip(config.snr_db, errors)),
    )


def _curve(config: SimConfig, gen: np.random.Generator) -> tuple[int, list[int]]:
    """Symbols sent at each SNR point, and each point's error count, drawn by
    ``gen`` re-keyed to the point's stream."""
    hit, sent = _exposure(config.scheme, config.interference_slots, config.frames)
    n_hit, total = hit * config.symbols_per_slot, sent * config.symbols_per_slot
    interference_var = 10.0 ** (config.interference_power_db / 10.0)
    keys = rng._keys(config.seed, rng.DOMAIN_SIMULATOR, len(config.snr_db))
    errors = []
    for snr, key in zip(config.snr_db, keys):
        rng._rekey(gen, key)
        n0 = 10.0 ** (-snr / 10.0)
        # Q(1/sqrt(v)) = erfc(1/sqrt(2v))/2, noise variance v = N0/2 (+ interference)
        p_clean = 0.5 * math.erfc(1.0 / math.sqrt(n0))
        p_hit = 0.5 * math.erfc(1.0 / math.sqrt(n0 + 2.0 * interference_var))
        errors.append(int(gen.binomial(total - n_hit, p_clean)) + int(gen.binomial(n_hit, p_hit)))
    return total, errors


@dataclass(frozen=True)
class ComparisonRow:
    snr_db: float
    ser_a: float
    ser_b: float
    delta: float
    sigma: float
    b_exceeds_a: bool


@dataclass(frozen=True)
class ComparisonReport:
    scheme_a: str
    scheme_b: str
    scenario: str
    rows: tuple[ComparisonRow, ...]

    @property
    def max_delta(self) -> float:
        """Largest a-minus-b SER gap over the sweep."""
        return max(row.delta for row in self.rows)

    @property
    def flagged(self) -> tuple[ComparisonRow, ...]:
        return tuple(row for row in self.rows if row.b_exceeds_a)


def compare_schemes(config_a: SimConfig, config_b: SimConfig) -> ComparisonReport:
    """Paired SER comparison of two schemes under one scenario.

    Both configs must agree on everything except the scheme and seed.  Each
    arm draws what simulate_ser draws for it: one generator is re-keyed to
    each arm's (seed, point) substreams in turn.  With equal seeds both arms
    draw each point from the same substream, so compare_schemes(cfg, cfg)
    gives delta 0.  delta is ser_a - ser_b per point; sigma is its standard
    deviation for independent arms, and a point is flagged when scheme B is
    worse than A by more than three sigmas.
    """
    check_instance(config_a, SimConfig, "simulation config")
    check_instance(config_b, SimConfig, "simulation config")
    for name in (
        "t",
        "snr_db",
        "interference_slots",
        "interference_power_db",
        "symbols_per_slot",
        "frames",
    ):
        if getattr(config_a, name) != getattr(config_b, name):
            raise ConfigError(f"scenario mismatch between schemes: {name} differs")
    gen = rng._generator()
    total_a, errors_a = _curve(config_a, gen)
    total_b, errors_b = _curve(config_b, gen)
    rows = []
    for snr, error_a, error_b in zip(config_a.snr_db, errors_a, errors_b):
        ser_a, ser_b = error_a / total_a, error_b / total_b
        var = ser_a * (1.0 - ser_a) / total_a + ser_b * (1.0 - ser_b) / total_b
        sigma = math.sqrt(var)
        rows.append(
            ComparisonRow(
                snr_db=snr,
                ser_a=ser_a,
                ser_b=ser_b,
                delta=ser_a - ser_b,
                sigma=sigma,
                b_exceeds_a=ser_b > ser_a + 3.0 * sigma,
            )
        )
    return ComparisonReport(
        scheme_a=config_a.scheme.label,
        scheme_b=config_b.scheme.label,
        scenario=scenario_label(config_a.interference_slots, config_a.interference_power_db),
        rows=tuple(rows),
    )
