"""Shared domain model for multi-level slot access sequences.

Vocabulary used throughout the toolkit:

* a frame is divided into ``t`` time slots, numbered ``0 .. t-1``;
* access levels are numbered ``0 .. lambda-1`` with strictly increasing
  per-frame slot demand ``r`` (level i users occupy r_i slots every frame);
* a control sequence for one user is a run of ``l`` frames, each frame an
  r-tuple of slot numbers;
* a sequence set bundles one sequence per (level, user) pair together with
  the configuration and construction provenance.

Slot numbers are plain ints so the modular arithmetic of the constructions
composes directly; slot-tuple validity (range, distinctness) is enforced by
the constructions that emit them and re-checked by the verification module.
"""
from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

FORMAT_VERSION = 1


class HcsError(Exception):
    """Base class for toolkit errors."""


class ConfigError(HcsError, ValueError):
    """A configuration violates a construction premise."""


class SchemaError(HcsError, ValueError):
    """A sequence-set document does not match the interchange schema."""


def check_int(
    value, what: str, positive: bool = False, error: type[Exception] = ConfigError
) -> int:
    """``value`` itself if it is an int, not a bool, and >= 0 (>= 1 if positive).

    The toolkit's integer inputs are all checked here, so an input such as
    1.7, "2" or True is refused with ``error`` instead of being coerced.
    """
    if isinstance(value, int) and not isinstance(value, bool) and value >= int(positive):
        return value
    kind = "a positive" if positive else "a non-negative"
    raise error(f"{what} must be {kind} int, got {value!r}")


def check_items(value, what: str, error: type[Exception] = ConfigError) -> tuple:
    """``value``'s items as a tuple if it is a list or tuple; ``error`` otherwise.

    The sibling of check_int for the toolkit's sequence inputs, so a None or
    a bare number in place of a list is refused instead of failing later.
    """
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise error(f"{what} must be a list or tuple, got {value!r}")


def check_instance(value, cls, what: str):
    """``value`` itself if it is an instance of ``cls`` (a class or a tuple of
    them); ConfigError otherwise.

    The sibling of check_int for the toolkit's object inputs, so a number or
    a None in place of a config, set or scheme is refused instead of failing
    on a missing attribute.
    """
    if isinstance(value, cls):
        return value
    names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    raise ConfigError(f"{what} must be a {names}, got {value!r}")


def check_db(value, what: str) -> float:
    """``value`` as a float if it is a real number, not a bool, whose power
    ratios 10^(value/10) and 10^(-value/10) are both finite and nonzero.

    Refuses nan, infinities and magnitudes beyond about 3082 dB with
    ConfigError, so the simulator's power conversions cannot overflow or
    divide by zero.
    """
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            x = float(value)
            if math.isfinite(10.0 ** (abs(x) / 10.0)):
                return x
    except OverflowError:
        pass
    raise ConfigError(
        f"{what} must be a finite dB value whose power ratio fits a float, got {value!r}"
    )


def frames_per_block(cells: int, per_frame: int) -> int:
    """Frames one blocked numpy pass takes: ``cells // per_frame``, at least 1.

    verify and the sac audit walk a set one block of frames at a time, with
    ``per_frame`` entries a frame, so a pass's scratch arrays stay near
    ``cells`` entries however long the set is.
    """
    return max(1, cells // per_frame)


@dataclass(frozen=True)
class LevelSpec:
    """One access level: each of ``u`` users claims ``r`` slots per frame."""

    r: int
    u: int

    def __post_init__(self) -> None:
        check_int(self.r, "slots-per-frame", positive=True)
        check_int(self.u, "user count")


def _level_spec(level) -> LevelSpec:
    if isinstance(level, LevelSpec):
        return level
    if isinstance(level, (list, tuple)) and len(level) == 2:
        return LevelSpec(*level)
    raise ConfigError(f"a level must be a LevelSpec or an (r, u) pair, got {level!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Frame size plus the level roster.

    Over-capacity rosters (total slot load beyond ``t``) are representable on
    purpose so the bound checker can report them; the sequence constructions
    reject them.
    """

    t: int
    levels: tuple[LevelSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.t, "frame size", positive=True)
        levels = tuple(map(_level_spec, check_items(self.levels, "levels")))
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ConfigError("at least one level is required")
        values = [lv.r for lv in levels]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"level slot demands must be strictly increasing, got {values}")
        check_int(self.seed, "seed")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_users(self) -> int:
        return sum(lv.u for lv in self.levels)

    @property
    def load(self) -> int:
        """Total slots claimed per frame across all levels."""
        return sum(lv.r * lv.u for lv in self.levels)

    @property
    def saturated(self) -> bool:
        return self.load == self.t


@dataclass(frozen=True, eq=False)
class HcsSequence:
    """One user's slot schedule: an (l, r) integer array, row per frame."""

    level: int
    user: int
    frames: np.ndarray

    def __post_init__(self) -> None:
        check_int(self.level, "sequence level")
        check_int(self.user, "sequence user")
        arr = np.asarray(self.frames)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigError(f"frames must be an integer array, got dtype {arr.dtype}")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        if arr.ndim != 2:
            raise ConfigError(f"frames must be a 2-D array, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "frames", arr)

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    @property
    def slots_per_frame(self) -> int:
        return self.frames.shape[1]

    def frame(self, index: int) -> tuple[int, ...]:
        """Slot tuple used at the given frame index (no cyclic wrapping here)."""
        return tuple(int(s) for s in self.frames[index])


@dataclass(frozen=True, eq=False)
class HcsSet:
    """A full sequence set: one HcsSequence per (level, user) of the config.

    ``provenance`` records which construction produced the set and with what
    parameters; the verification module uses it to pick the right occupancy
    expectation, so the params of a c2 set must hold its d and n as
    non-negative ints.  Sequences are kept sorted by (level, user) so positional
    sequence ids are stable across save/load.
    """

    config: SystemConfig
    length: int
    sequences: tuple[HcsSequence, ...]
    provenance: dict

    def __post_init__(self) -> None:
        check_instance(self.config, SystemConfig, "set config")
        check_int(self.length, "sequence length", positive=True)
        check_instance(self.provenance, dict, "provenance")
        params = check_instance(self.provenance.get("params", {}), dict, "provenance params")
        if self.provenance.get("kind") == "c2":
            # verify reads each run's slot visits d**n off these two
            for key in ("d", "n"):
                check_int(params.get(key), f"c2 provenance param {key}")
        seqs = check_items(self.sequences, "sequences")
        for s in seqs:
            check_instance(s, HcsSequence, "sequence")
        seqs = tuple(sorted(seqs, key=lambda s: (s.level, s.user)))
        object.__setattr__(self, "sequences", seqs)
        cfg = self.config
        expected = {(i, j) for i, lv in enumerate(cfg.levels) for j in range(lv.u)}
        seen = [(s.level, s.user) for s in seqs]
        if len(seen) != len(set(seen)):
            raise ConfigError("duplicate (level, user) sequence entries")
        if set(seen) != expected:
            raise ConfigError(
                f"sequence roster mismatch: expected {len(expected)} sequences covering "
                f"every (level, user) pair, got {len(seen)}"
            )
        for s in seqs:
            if s.length != self.length:
                raise ConfigError(
                    f"sequence ({s.level},{s.user}) has {s.length} frames, set length is {self.length}"
                )
            if s.slots_per_frame != cfg.levels[s.level].r:
                raise ConfigError(
                    f"sequence ({s.level},{s.user}) has {s.slots_per_frame}-slot frames, "
                    f"level demands {cfg.levels[s.level].r}"
                )

    @property
    def t(self) -> int:
        return self.config.t

    def sequence(self, level: int, user: int) -> HcsSequence:
        for s in self.sequences:
            if s.level == level and s.user == user:
                return s
        raise KeyError(f"no sequence for level {level}, user {user}")


def hamming_correlation(x: Sequence[int], y: Sequence[int], tau: int = 0) -> int:
    """Number of positions where x agrees with y cyclically shifted by tau.

    Both inputs must be 1-D and of equal length l; tau must lie in [0, l).
    Position i of x is compared against position (i + tau) mod l of y.
    """
    xv = np.asarray(x)
    yv = np.asarray(y)
    if xv.ndim != 1 or yv.ndim != 1:
        raise ValueError("inputs must be 1-D sequences")
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size == 0:
        raise ValueError("sequences must be non-empty")
    check_int(tau, "shift")
    if tau >= xv.size:
        raise ValueError(f"shift must lie in [0, {xv.size}), got {tau}")
    return int(np.count_nonzero(xv == np.roll(yv, -tau)))


# ---------------------------------------------------------------------------
# interchange documents


def to_document(hcs_set: HcsSet) -> dict:
    """Plain-JSON document for a sequence set (schema format_version 1)."""
    cfg = check_instance(hcs_set, HcsSet, "set").config
    return {
        "format_version": FORMAT_VERSION,
        "t": cfg.t,
        "lambda": cfg.num_levels,
        "levels": [{"r": lv.r, "u": lv.u} for lv in cfg.levels],
        "length": hcs_set.length,
        "construction": {
            "kind": hcs_set.provenance.get("kind", "unknown"),
            "params": dict(hcs_set.provenance.get("params", {})),
        },
        "sequences": [
            {
                "level": s.level,
                "user": s.user,
                "frames": s.frames.tolist(),
            }
            for s in hcs_set.sequences
        ],
    }


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing required key '{key}'")
    return doc[key]


_schema_int = partial(check_int, error=SchemaError)


def _flat_slots(frames: list, r: int, where: str) -> list:
    """A sequence's slots in one row-major list, once every frame is a list
    of ``r`` ints (bools refused).

    The checks run over the whole sequence at once; only when one fails does
    the per-frame loop run, to name the first bad frame.
    """
    if set(map(type, frames)) == {list} and set(map(len, frames)) == {r}:
        flat = list(chain.from_iterable(frames))
        if set(map(type, flat)) == {int}:
            return flat
    for fi, frame in enumerate(frames):
        if not isinstance(frame, list) or len(frame) != r:
            raise SchemaError(f"{where}.frames[{fi}]: expected {r} slots")
        for slot in frame:
            if isinstance(slot, bool) or not isinstance(slot, int):
                raise SchemaError(f"{where}.frames[{fi}]: slots must be integers")
    # only list and int subclasses get here
    return list(chain.from_iterable(frames))


def from_document(doc) -> HcsSet:
    """Parse an interchange document; raises SchemaError naming the bad spot.

    Structural validity only: counts, shapes, and types are enforced here
    (integer keys follow ``check_int``: t, lambda, each r and length must be
    ints >= 1, the rest, a c2 set's params d and n and a seed if present
    included, ints >= 0; slots must fit in int64), while semantic slot
    properties (range, collisions, occupancy) are the verification module's
    job so that corrupted-but-well-formed sets can be loaded and diagnosed.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"document root: expected an object, got {type(doc).__name__}")
    version = _schema_int(_need(doc, "format_version", "document root"), "format_version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"format_version: expected {FORMAT_VERSION}, got {version}")
    t = _schema_int(_need(doc, "t", "document root"), "t", positive=True)
    lam = _schema_int(_need(doc, "lambda", "document root"), "lambda", positive=True)
    raw_levels = _need(doc, "levels", "document root")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise SchemaError("levels: expected a non-empty array")
    if lam != len(raw_levels):
        raise SchemaError(f"lambda: {lam} does not match {len(raw_levels)} level entries")
    levels = []
    for i, entry in enumerate(raw_levels):
        if not isinstance(entry, dict):
            raise SchemaError(f"levels[{i}]: expected an object")
        levels.append(
            (
                _schema_int(_need(entry, "r", f"levels[{i}]"), f"levels[{i}].r", positive=True),
                _schema_int(_need(entry, "u", f"levels[{i}]"), f"levels[{i}].u"),
            )
        )
    length = _schema_int(_need(doc, "length", "document root"), "length", positive=True)
    construction = _need(doc, "construction", "document root")
    if not isinstance(construction, dict):
        raise SchemaError("construction: expected an object")
    kind = _need(construction, "kind", "construction")
    if not isinstance(kind, str):
        raise SchemaError(f"construction.kind: expected a string, got {kind!r}")
    params = construction.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("construction.params: expected an object")
    if kind == "c2":
        # verify reads each run's slot visits d**n off these two
        for key in ("d", "n"):
            _schema_int(params.get(key), f"construction.params.{key}")
    seed = _schema_int(params.get("seed", 0), "construction.params.seed")
    try:
        config = SystemConfig(t=t, levels=tuple(levels), seed=seed)
    except ConfigError as exc:
        raise SchemaError(f"levels: {exc}") from exc

    raw_seqs = _need(doc, "sequences", "document root")
    if not isinstance(raw_seqs, list):
        raise SchemaError("sequences: expected an array")
    if len(raw_seqs) != config.num_users:
        raise SchemaError(
            f"sequences: expected {config.num_users} entries (one per user), got {len(raw_seqs)}"
        )
    sequences = []
    for si, entry in enumerate(raw_seqs):
        where = f"sequences[{si}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object")
        level = _schema_int(_need(entry, "level", where), f"{where}.level")
        user = _schema_int(_need(entry, "user", where), f"{where}.user")
        if not 0 <= level < config.num_levels:
            raise SchemaError(f"{where}.level: {level} out of range for {config.num_levels} levels")
        if not 0 <= user < config.levels[level].u:
            raise SchemaError(
                f"{where}.user: {user} out of range for {config.levels[level].u} users at level {level}"
            )
        frames = _need(entry, "frames", where)
        if not isinstance(frames, list) or len(frames) != length:
            got = len(frames) if isinstance(frames, list) else type(frames).__name__
            raise SchemaError(f"{where}.frames: expected {length} frames, got {got}")
        r = config.levels[level].r
        flat = _flat_slots(frames, r, where)
        try:
            table = np.array(flat, dtype=np.int64).reshape(length, r)
        except OverflowError:
            raise SchemaError(f"{where}.frames: slots must fit in int64") from None
        sequences.append(HcsSequence(level=level, user=user, frames=table))
    try:
        return HcsSet(
            config=config,
            length=length,
            sequences=tuple(sequences),
            provenance={"kind": kind, "params": params},
        )
    except ConfigError as exc:
        raise SchemaError(str(exc)) from exc


def write_text(path, text: str) -> None:
    """Write UTF-8 text to path, creating missing parent directories."""
    path = Path(check_instance(path, (str, os.PathLike), "path"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def save_set(hcs_set: HcsSet, path) -> None:
    write_text(path, dumps_document(to_document(hcs_set)))


def read_json(path):
    """The document in a JSON file; SchemaError, naming the path, if it is not one.

    Every JSON input of the toolkit (set files, sac scripts, pipeline plans)
    is read here, so they all refuse the same things: malformed JSON, bytes
    that are not UTF-8, integers beyond Python's digit limit and nesting too
    deep to parse.
    """
    check_instance(path, (str, os.PathLike), "path")
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError here is Python's int digit limit
        raise SchemaError(f"{path}: JSON beyond the parser's limits: {exc}") from exc


def load_set(path) -> HcsSet:
    return from_document(read_json(path))


def dumps_document(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace, trailing newline.

    Used for every file the toolkit writes so that identical inputs produce
    byte-identical outputs.  Without an indent ``json`` runs its C encoder.
    Documents written with whitespace by earlier versions hold the same JSON
    values and load unchanged.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
