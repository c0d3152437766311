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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

FORMAT_VERSION = 1


class HcsError(Exception):
    """Base class for toolkit errors."""


class ConfigError(HcsError, ValueError):
    """A configuration violates a construction premise."""


class SchemaError(HcsError, ValueError):
    """A sequence-set document does not match the interchange schema."""


@dataclass(frozen=True)
class LevelSpec:
    """One access level: each of ``u`` users claims ``r`` slots per frame."""

    r: int
    u: int

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or self.r < 1:
            raise ConfigError(f"slots-per-frame must be a positive int, got {self.r!r}")
        if not isinstance(self.u, int) or self.u < 0:
            raise ConfigError(f"user count must be a non-negative int, got {self.u!r}")


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
        if not isinstance(self.t, int) or self.t < 1:
            raise ConfigError(f"frame size must be a positive int, got {self.t!r}")
        levels = tuple(
            lv if isinstance(lv, LevelSpec) else LevelSpec(*lv) for lv in self.levels
        )
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ConfigError("at least one level is required")
        values = [lv.r for lv in levels]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"level slot demands must be strictly increasing, got {values}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative int, got {self.seed!r}")

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
    """One user's slot schedule: an (l, r) array, row per frame."""

    level: int
    user: int
    frames: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.frames, dtype=np.int64))
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
    expectation.  Sequences are kept sorted by (level, user) so positional
    sequence ids are stable across save/load.
    """

    config: SystemConfig
    length: int
    sequences: tuple[HcsSequence, ...]
    provenance: dict

    def __post_init__(self) -> None:
        if not isinstance(self.length, int) or self.length < 1:
            raise ConfigError(f"sequence length must be a positive int, got {self.length!r}")
        seqs = tuple(sorted(self.sequences, key=lambda s: (s.level, s.user)))
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
    if not 0 <= tau < xv.size:
        raise ValueError(f"shift must lie in [0, {xv.size}), got {tau}")
    return int(np.count_nonzero(xv == np.roll(yv, -tau)))


def flatten(seq: HcsSequence) -> list[np.ndarray]:
    """Split a sequence into its r per-offset slot runs.

    Run k collects the k-th slot of every frame, so each run has length l and
    the runs regroup into the original frames column-wise.
    """
    return [seq.frames[:, k] for k in range(seq.slots_per_frame)]


def subsequences(hcs_set: HcsSet) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Yield (level, user, offset, run) for every flattened slot run in the set."""
    for s in hcs_set.sequences:
        for theta, run in enumerate(flatten(s)):
            yield s.level, s.user, theta, run


# ---------------------------------------------------------------------------
# interchange documents


def to_document(hcs_set: HcsSet) -> dict:
    """Plain-JSON document for a sequence set (schema format_version 1)."""
    cfg = hcs_set.config
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


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return value


def from_document(doc) -> HcsSet:
    """Parse an interchange document; raises SchemaError naming the bad spot.

    Structural validity only: counts, shapes, and types are enforced here
    (slots must fit in int64, and a c2 set's params d and n must be ints
    >= 0), while semantic slot properties (range, collisions, occupancy) are
    the verification module's job so that corrupted-but-well-formed sets can
    be loaded and then diagnosed.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"document root: expected an object, got {type(doc).__name__}")
    version = _as_int(_need(doc, "format_version", "document root"), "format_version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"format_version: expected {FORMAT_VERSION}, got {version}")
    t = _as_int(_need(doc, "t", "document root"), "t")
    lam = _as_int(_need(doc, "lambda", "document root"), "lambda")
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
                _as_int(_need(entry, "r", f"levels[{i}]"), f"levels[{i}].r"),
                _as_int(_need(entry, "u", f"levels[{i}]"), f"levels[{i}].u"),
            )
        )
    length = _as_int(_need(doc, "length", "document root"), "length")
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
            value = params.get(key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise SchemaError(
                    f"construction.params.{key}: expected an integer >= 0, got {value!r}"
                )

    seed = params.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        seed = 0
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
        level = _as_int(_need(entry, "level", where), f"{where}.level")
        user = _as_int(_need(entry, "user", where), f"{where}.user")
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
        for fi, frame in enumerate(frames):
            if not isinstance(frame, list) or len(frame) != r:
                raise SchemaError(f"{where}.frames[{fi}]: expected {r} slots")
            for slot in frame:
                if isinstance(slot, bool) or not isinstance(slot, int):
                    raise SchemaError(f"{where}.frames[{fi}]: slots must be integers")
        try:
            table = np.array(frames, dtype=np.int64)
        except OverflowError:
            raise SchemaError(f"{where}.frames: slots must fit in int64") from None
        sequences.append(HcsSequence(level=level, user=user, frames=table))
    pairs = [(s.level, s.user) for s in sequences]
    if len(pairs) != len(set(pairs)):
        raise SchemaError("sequences: duplicate (level, user) entry")
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def save_set(hcs_set: HcsSet, path) -> None:
    write_text(path, dumps_document(to_document(hcs_set)))


def read_json(path):
    """The document in a JSON file; SchemaError, naming the path, if it is not one.

    Every JSON input of the toolkit (set files, sac scripts, pipeline plans,
    driver files) is read here, so they all refuse the same things: malformed
    JSON, bytes that are not UTF-8, integers beyond Python's digit limit and
    nesting too deep to parse.
    """
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
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Used for every file the toolkit writes so that identical inputs produce
    byte-identical outputs.
    """
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
