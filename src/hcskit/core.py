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

import contextlib
import hashlib
import io
import json
import math
import numbers
import os
import re
import stat
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

FORMAT_VERSION = 1
_INT64_MAX = np.iinfo(np.int64).max


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
        # an int or float, the common case, skips the slower numbers.Real check
        if type(value) in (float, int) or (
            isinstance(value, numbers.Real) and not isinstance(value, bool)
        ):
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

    verify, the sac audit and the constructions walk a set one block of
    frames at a time, with ``per_frame`` entries a frame, so a pass's scratch
    arrays stay near ``cells`` entries however long the set is.
    """
    return max(1, cells // per_frame)


# the largest set the toolkit builds or proves, in claim cells (frames x t);
# the constructions refuse a load above t, so it also bounds their tables
SET_CELL_BUDGET = 1 << 28


def max_frames(t: int) -> int:
    """The most frames a set of frame size ``t`` may have: construct1,
    construct2 and verify each refuse a longer set."""
    return SET_CELL_BUDGET // t


# the dtypes HcsSequence keeps a table in; slot_dtype picks one of them
_SLOT_DTYPES = tuple(map(np.dtype, (np.uint8, np.uint16, np.uint32, np.int64)))


def slot_dtype(t: int) -> np.dtype:
    """The dtype a set of frame size ``t`` holds its in-range slot tables in:
    the narrowest of uint8, uint16 and uint32 that holds slot t - 1, and
    int64 past 2**32 slots, so no table is uint64 and none mixes with an
    int64 into float64.

    Arithmetic of a narrow table with a Python int wraps in the table's
    dtype, so cast a table to int64 before computing with it.
    """
    return next(d for d in _SLOT_DTYPES if d == np.int64 or t - 1 <= np.iinfo(d).max)


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


def level_offsets(config: SystemConfig) -> tuple[int, ...]:
    """Each level's first row: the slot load of the levels below it.

    The constructions pack a roster onto consecutive rows, so they refuse
    one whose load exceeds the frame here, with ConfigError.
    """
    if config.load > config.t:
        raise ConfigError(
            f"roster claims {config.load} slots per frame but the frame has only {config.t}"
        )
    return tuple(accumulate((lv.r * lv.u for lv in config.levels[:-1]), initial=0))


def _immutable(arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``arr`` in ``dtype`` as a C-contiguous view of a ``bytes`` object,
    which numpy never lets become writable, nor any view of it: ``arr``
    itself if it is one already, a copy otherwise."""
    root = arr
    while isinstance(root, np.ndarray):
        root = root.base
    if type(root) is bytes and arr.dtype == dtype and arr.flags.c_contiguous:
        return arr
    return np.frombuffer(arr.astype(dtype, copy=False).tobytes(), dtype).reshape(arr.shape)


def _held_table(table: np.ndarray, t: int) -> np.ndarray:
    """The non-empty ``table`` as a set of frame size ``t`` holds it: a copy
    in ``slot_dtype(t)`` if it is in another dtype and its slots all lie in
    0..t-1, so the cast is exact; ``table`` itself otherwise, so a table with
    a slot outside that range keeps its dtype and verify can name the value."""
    dtype = slot_dtype(t)
    if table.dtype == dtype or table.min() < 0 or table.max() >= t:
        return table
    return table.astype(dtype)


@dataclass(frozen=True, eq=False)
class HcsSequence:
    """One user's slot schedule: an (l, r) integer array, row per frame.

    The table is of dtype uint8, uint16, uint32 or int64, a C-contiguous
    view of a ``bytes`` object, so it can never be written: such a view is
    kept as given, any other array copied once, in its own dtype if it is
    one of those four and to int64 otherwise.  The caller's array is left
    as it was.  HcsSet picks the dtype a set's tables are held in.
    """

    level: int
    user: int
    frames: np.ndarray

    def __post_init__(self) -> None:
        check_int(self.level, "sequence level")
        check_int(self.user, "sequence user")
        arr = np.asarray(self.frames)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigError(f"frames must be an integer array, got dtype {arr.dtype}")
        if not np.can_cast(arr.dtype, np.int64) and arr.size and arr.max() > _INT64_MAX:
            raise ConfigError(f"frames must fit in int64, got slot {int(arr.max())}")
        if arr.ndim != 2:
            raise ConfigError(f"frames must be a 2-D array, got shape {arr.shape}")
        dtype = arr.dtype if arr.dtype in _SLOT_DTYPES else np.dtype(np.int64)
        object.__setattr__(self, "frames", _immutable(arr, dtype))

    def __reduce__(self):
        # pickle and copy give back a writable array, which the class copies
        return HcsSequence, (self.level, self.user, self.frames)

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
    non-negative ints.  It is given as a dict or a mappingproxy and held as
    a read-only copy, a mappingproxy at the top level and at ``params``.
    Sequences are kept sorted by (level, user) so positional sequence ids
    are stable across save/load.

    Each table whose slots all lie in 0..t-1 is held in ``slot_dtype(t)``: a
    sequence whose table came in another dtype is replaced by one over a
    copy in that dtype.  A table with a slot outside that range keeps its
    dtype, so verify can name the value.  A set thus cannot change, and what
    is read off it (a proof, the audit's slot table) is kept for the set
    object.
    """

    config: SystemConfig
    length: int
    sequences: tuple[HcsSequence, ...]
    provenance: Mapping

    def __post_init__(self) -> None:
        check_instance(self.config, SystemConfig, "set config")
        check_int(self.length, "sequence length", positive=True)
        provenance = dict(check_instance(_plain(self.provenance), dict, "provenance"))
        params = dict(check_instance(_plain(provenance.get("params", {})), dict, "provenance params"))
        if "params" in provenance:
            provenance["params"] = MappingProxyType(params)
        object.__setattr__(self, "provenance", MappingProxyType(provenance))
        if provenance.get("kind") == "c2":
            # verify reads each run's slot visits d**n off these two
            for key in ("d", "n"):
                check_int(params.get(key), f"c2 provenance param {key}")
        seqs = check_items(self.sequences, "sequences")
        for s in seqs:
            check_instance(s, HcsSequence, "sequence")
        seqs = sorted(seqs, key=lambda s: (s.level, s.user))
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
        for k, s in enumerate(seqs):
            if s.length != self.length:
                raise ConfigError(
                    f"sequence ({s.level},{s.user}) has {s.length} frames, set length is {self.length}"
                )
            if s.slots_per_frame != cfg.levels[s.level].r:
                raise ConfigError(
                    f"sequence ({s.level},{s.user}) has {s.slots_per_frame}-slot frames, "
                    f"level demands {cfg.levels[s.level].r}"
                )
            table = _held_table(s.frames, cfg.t)
            if table is not s.frames:
                seqs[k] = HcsSequence(level=s.level, user=s.user, frames=table)
        object.__setattr__(self, "sequences", tuple(seqs))

    @property
    def t(self) -> int:
        return self.config.t

    def __reduce__(self):
        # a mappingproxy cannot be pickled, so the provenance goes as dicts
        provenance = {key: _plain(value) for key, value in self.provenance.items()}
        return HcsSet, (self.config, self.length, self.sequences, provenance)

    def sequence(self, level: int, user: int) -> HcsSequence:
        for s in self.sequences:
            if s.level == level and s.user == user:
                return s
        raise KeyError(f"no sequence for level {level}, user {user}")


def _plain(value):
    """A mappingproxy's mapping as a new dict; any other value as it is."""
    return dict(value) if isinstance(value, MappingProxyType) else value


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


def _document_head(hcs_set: HcsSet) -> dict:
    """The document of a set without its sequences."""
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
    }


def to_document(hcs_set: HcsSet) -> dict:
    """Plain-JSON document for a sequence set (schema format_version 1)."""
    doc = _document_head(hcs_set)
    doc["sequences"] = [
        {
            "level": s.level,
            "user": s.user,
            "frames": s.frames.tolist(),
        }
        for s in hcs_set.sequences
    ]
    return doc


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


def _document_config(doc) -> tuple[SystemConfig, int, dict]:
    """The config, length and provenance of an interchange document: every
    key but ``sequences`` checked, in from_document's order."""
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
    return config, length, {"kind": kind, "params": params}


def from_document(doc) -> HcsSet:
    """Parse an interchange document; raises SchemaError naming the bad spot.

    Structural validity only: counts, shapes, and types are enforced here
    (integer keys follow ``check_int``: t, lambda, each r and length must be
    ints >= 1, the rest, a c2 set's params d and n and a seed if present
    included, ints >= 0; slots must fit in int64), while semantic slot
    properties (range, collisions, occupancy) are the verification module's
    job so that corrupted-but-well-formed sets can be loaded and diagnosed.
    """
    config, length, provenance = _document_config(doc)
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
        sequences.append(HcsSequence(level=level, user=user, frames=_held_table(table, config.t)))
    try:
        return HcsSet(
            config=config,
            length=length,
            sequences=tuple(sequences),
            provenance=provenance,
        )
    except ConfigError as exc:
        raise SchemaError(str(exc)) from exc


# while a CLI stage runs, the sha256 of the bytes each file gave the stage's
# reads and took from its last write, keyed by resolved path, reads and writes
# apart; None outside a stage, so library calls hash nothing
_digests: dict | None = None


@contextlib.contextmanager
def _recording_digests():
    """A scope, one CLI stage, over which the readers and the writer record
    file digests; yields {"read": {...}, "written": {...}}.  An enclosing
    scope's record is set aside until this one ends."""
    global _digests
    outer, _digests = _digests, {"read": {}, "written": {}}
    try:
        yield _digests
    finally:
        _digests = outer


def _record_digest(kind: str, path, data) -> bytes | None:
    """The sha256 of ``data``, the bytes ``path`` gave a read (kind "read")
    or took from a write ("written"), recorded while a stage runs.  None,
    and nothing hashed, unless a stage or a pipeline plan scope is open."""
    if _digests is None and _written is None:
        return None
    digest = hashlib.sha256(data).digest()
    if _digests is not None:
        _digests[kind][Path(path).resolve()] = digest
    return digest


def _write_bytes(path, data: bytes) -> bytes | None:
    """Write ``data`` to path, creating missing parent directories; returns
    ``_record_digest``'s digest of it.

    The file is rewritten in place: opened without truncation, written over,
    and then, if it is a regular file, cut to the new length, which leaves
    what a truncating write leaves at a fraction of its cost on filesystems
    that discard freed blocks.  /dev/stdout and FIFOs are written as they
    come.  Like a truncating write it is not atomic: a reader during the
    write, or a crash in it, can see the new bytes over part of the old.
    """
    path = Path(check_instance(path, (str, os.PathLike), "path"))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()
    return _record_digest("written", path, data)


def write_text(path, text: str) -> None:
    """Write UTF-8 text to path, creating missing parent directories (see
    ``_write_bytes``)."""
    _write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# canonical set files
#
# A set file is dumps_document(to_document(s)): sorted keys put "sequences"
# last but for "t", and each sequence is {"frames":[[...],...],"level":L,"user":U}.
# save_set writes that text straight from the slot tables and load_set reads
# it back in numpy, so neither builds a Python int per slot.

# 10, 100, ..., 10**19: a magnitude has one digit more than the powers it reaches
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
# values a writing pass takes, so its int64 scratch stays near 256 KiB however
# long the set
_BLOCK = 1 << 15
_SEQUENCES_KEY = b',"sequences":['
_T_KEY = b'],"t":'
_T_TAIL = re.compile(rb'\],"t":([1-9][0-9]{0,17})\}\n')
# every byte but a digit, a minus sign and a comma: deleting them from the
# sequences leaves each one's slots, level and user, comma-separated
_NOT_NUMBER_LIST = bytes(b for b in range(256) if b not in b"0123456789-,")


# (table begin, cell, row break, table close) of _tables_bytes: a JSON list of
# lists, and the rows csv.writer(..., lineterminator="\n") writes
_JSON_ROWS = ("[[", ",", "],[", "]]")
_CSV_ROWS = ("", ",", "\n", "\n")
# the bit of _tables_bytes' uint8 text lengths that marks a row break, which
# tells a break apart from a cell of the same length, as in a CSV
_ROW_BREAK = 64


def _tables_bytes(
    tables: Sequence[np.ndarray], seps: Sequence[str], layout: Sequence[str] = _JSON_ROWS
) -> bytes:
    """``seps[0] + T0 + seps[1] + T1 + ... + seps[-1]`` as ASCII, where ``Ti``
    is ``begin + row + brk + row + ... + row + close`` over the rows of
    ``tables[i]``, each row its values in decimal joined by ``cell``, for
    ``layout = (begin, cell, brk, close)``.  With the default layout ``Ti`` is
    ``json.dumps(tables[i].tolist(), separators=(",", ":"))``; with
    ``_CSV_ROWS`` it is what ``csv.writer`` writes of those lists.

    ``tables`` are int64, uint32, uint16 or uint8 arrays of shape (l, r)
    with l, r >= 1, ``seps`` ASCII strings, one more than the tables, and
    ``layout`` ASCII strings, ``cell`` of one character and ``brk`` shorter
    than ``_ROW_BREAK``.  Every value's sign, magnitude and text width go
    into flat arrays first; then the values are written ``_BLOCK`` at a time
    into one byte buffer: their places from a cumulative sum of the widths,
    then one scatter per decimal place.
    """
    begin, cell, brk, close = layout
    if not tables:
        return seps[0].encode("ascii")
    heads = [
        ((close if i else "") + sep + begin).encode("ascii") for i, sep in enumerate(seps[:-1])
    ]
    tail = (close + seps[-1]).encode("ascii")
    top = max(max(int(a.max()), -int(a.min())) for a in tables)
    count = sum(a.size for a in tables)
    # slots below t mostly fit a uint8 or uint16, where the passes run faster
    mag = np.empty(count, np.min_scalar_type(top))
    negative = np.empty(count, bool)
    # the length of the text before a value: the cell inside a row, the row
    # break before a row, flagged by _ROW_BREAK, and 0 before a table's first
    # value, whose head is written apart
    gap = np.ones(count, np.uint8)
    firsts = []
    pos = 0
    for a in tables:
        flat = a.ravel()
        np.less(flat, 0, out=negative[pos:pos + flat.size])
        mag[pos:pos + flat.size] = flat  # wraps; the negation below takes it back
        gap[pos:pos + flat.size:a.shape[1]] = _ROW_BREAK | len(brk)
        gap[pos] = 0
        firsts.append(pos)
        pos += flat.size
    np.negative(mag, out=mag, where=negative)
    width = negative.view(np.uint8) + np.uint8(1)  # sign and digits
    for power in _POW10[_POW10 <= top]:
        width += mag >= mag.dtype.type(power)
    lens = np.bitwise_and(gap, np.uint8(_ROW_BREAK - 1))
    lens += width
    total = int(lens.sum(dtype=np.int64)) + sum(map(len, heads)) + len(tail)
    # the buffer starts as cells, so a row break writes only its other bytes
    buf = np.full(total, ord(cell), np.uint8)
    brk_bytes = [(k, ord(c)) for k, c in enumerate(brk, 1 - len(brk)) if c != cell]
    pending = list(zip(firsts, heads))
    end = 0
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        last = lens[lo:hi].astype(np.int64)
        here = []
        while pending and pending[0][0] < hi:
            first, head = pending.pop(0)
            here.append((first - lo, head))
            last[first - lo] += len(head)
        np.cumsum(last, out=last)
        last += end - 1
        w = width[lo:hi]
        for j, head in here:
            pos = int(last[j]) - int(w[j]) + 1 - len(head)
            buf[pos:pos + len(head)] = np.frombuffer(head, np.uint8)
        rows = np.flatnonzero(gap[lo:hi] >= _ROW_BREAK)
        at = last[rows] - w[rows]
        for k, c in brk_bytes:
            buf[at + k] = c
        at = np.flatnonzero(negative[lo:hi])
        buf[last[at] - w[at] + 1] = ord("-")
        end = int(last[-1]) + 1
        at, m = last, mag[lo:hi]
        while True:
            # numpy's integer % runs several times slower than // and a multiply
            q = m // 10
            buf[at] = m - q * 10 + ord("0")
            m = q
            more = np.flatnonzero(m)
            if not more.size:
                break
            at, m = at[more] - 1, m[more]
    buf[end:] = np.frombuffer(tail, np.uint8)
    # the per-value arrays go before the copy, so they and it never coexist
    del mag, negative, gap, width, lens
    return buf.tobytes()


def _canonical_bytes(hcs_set: HcsSet) -> bytes:
    """``dumps_document(to_document(hcs_set))`` as ASCII, written from the slot tables."""
    head = _document_head(hcs_set)
    t = head.pop("t")
    # the head's text less its closing brace, then the two keys that sort last
    text = json.dumps(head, sort_keys=True, separators=(",", ":"))[:-1] + ',"sequences":['
    end = '],"t":%d}\n' % t
    seqs = hcs_set.sequences
    if not seqs:
        return (text + end).encode("ascii")
    marks = [',"level":%d,"user":%d}' % (s.level, s.user) for s in seqs]
    seps = [text + '{"frames":'] + [m + ',{"frames":' for m in marks[:-1]] + [marks[-1] + end]
    return _tables_bytes([s.frames for s in seqs], seps)


def _load_canonical(data: bytes) -> HcsSet | None:
    """The set whose canonical text is exactly ``data``, or None.

    The head before ``"sequences"`` goes through ``json.loads`` and the
    header checks of from_document; the slots are every integer after it, in
    roster order.  The set is returned only if re-encoding it gives ``data``
    back byte for byte, so any text this parse misreads returns None.
    """
    cut, end = data.rfind(_SEQUENCES_KEY), data.rfind(_T_KEY)
    start = cut + len(_SEQUENCES_KEY)
    tail = _T_TAIL.fullmatch(data, end) if 0 <= cut and start <= end else None
    if tail is None:
        return None
    try:
        # text that ends in "}" is an object, if it is JSON at all
        doc = json.loads(data[:cut] + b"}")
        doc["t"] = int(tail[1])
        config, length, provenance = _document_config(doc)
    except (ValueError, RecursionError):
        # malformed JSON or UTF-8, Python's int digit limit or a SchemaError
        return None
    # each sequence's slots, then its level and user
    count = sum(lv.u * (length * lv.r + 2) for lv in config.levels)
    try:
        # the text goes once parsed, so it is not held through the re-encoding
        numbers = np.fromstring(
            data[start:end].translate(None, _NOT_NUMBER_LIST), np.int64, sep=","
        )
    except ValueError:
        # text numpy cannot read to its end, such as two commas in a row
        return None
    if numbers.size != count:
        return None
    sequences, at = [], 0
    for i, lv in enumerate(config.levels):
        for j in range(lv.u):
            size = length * lv.r
            table = numbers[at:at + size].reshape(length, lv.r)
            sequences.append(HcsSequence(level=i, user=j, frames=_held_table(table, config.t)))
            at += size + 2
    hcs_set = HcsSet(config=config, length=length, sequences=tuple(sequences), provenance=provenance)
    # the set holds copies of its tables, so dropping the int64 parse and
    # the last view of it frees it before the re-encoding
    numbers = sequences = table = None
    try:
        same = _canonical_bytes(hcs_set) == data
    except RecursionError:
        # params nested about as deep as json.loads reads need more to write
        return None
    return hcs_set if same else None


# while a pipeline plan runs, each set its stages saved, keyed by resolved
# path: (sha256 of the bytes written, the set); None outside a plan
_written: dict | None = None


@contextlib.contextmanager
def _keeping_written():
    """A scope, one pipeline plan, in which load_set gives back the set
    save_set wrote to a path while the file still holds those bytes.

    Every set saved in the scope is held until it ends, also when it ends
    with an exception.
    """
    global _written
    _written = {}
    try:
        yield
    finally:
        _written = None


def _kept_set(path, digest: bytes | None) -> HcsSet | None:
    """The set saved to ``path`` in this scope if ``digest``, the sha256 of
    the bytes read there, is that of the bytes written; None otherwise, and
    outside a scope."""
    kept = _written.get(Path(path).resolve()) if _written is not None else None
    return kept[1] if kept is not None and kept[0] == digest else None


def save_set(hcs_set: HcsSet, path) -> None:
    """Write ``dumps_document(to_document(hcs_set))`` to path, from the slot tables."""
    digest = _write_bytes(path, _canonical_bytes(hcs_set))
    if _written is not None:
        _written[Path(path).resolve()] = digest, hcs_set


def _parse_json(path, data: bytes):
    """The document in a JSON file's bytes, decoded as ``Path.read_text`` would."""
    try:
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError here is Python's int digit limit
        raise SchemaError(f"{path}: JSON beyond the parser's limits: {exc}") from exc


def read_json(path):
    """The document in a JSON file; SchemaError, naming the path, if it is not one.

    Every JSON input of the toolkit (set files, sac scripts, pipeline plans)
    is read here, so they all refuse the same things: malformed JSON, bytes
    that are not UTF-8, integers beyond Python's digit limit and nesting too
    deep to parse.
    """
    check_instance(path, (str, os.PathLike), "path")
    data = Path(path).read_bytes()
    _record_digest("read", path, data)
    return _parse_json(path, data)


def load_set(path) -> HcsSet:
    """The set in a file: a canonical file is read in numpy, any other text
    as ``from_document(read_json(path))``, with the same result or error.

    Within a pipeline plan, a file that still holds the bytes save_set wrote
    there gives back the set it wrote (see ``_kept_set``).
    """
    check_instance(path, (str, os.PathLike), "path")
    data = Path(path).read_bytes()
    hcs_set = _kept_set(path, _record_digest("read", path, data))
    if hcs_set is None:
        hcs_set = _load_canonical(data)
    return from_document(_parse_json(path, data)) if hcs_set is None else hcs_set


def dumps_document(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace, trailing newline.

    Used for every file the toolkit writes so that identical inputs produce
    byte-identical outputs.  Without an indent ``json`` runs its C encoder.
    Documents written with whitespace by earlier versions hold the same JSON
    values and load unchanged.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
