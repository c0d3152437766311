import copy
import decimal
import fractions
import hashlib
import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hcskit import (
    ConfigError,
    FixedScheme,
    HcsScheme,
    HcsSequence,
    HcsSet,
    LevelSpec,
    SacState,
    SchemaError,
    SimConfig,
    SystemConfig,
    construct2,
    dumps_document,
    enumerate_user_counts,
    from_document,
    hamming_correlation,
    interference_hit_fraction,
    load_set,
    run_script,
    save_set,
    to_document,
    verify,
)
from hcskit.construction2 import cons2_params
from hcskit import core
from hcskit.core import _load_canonical, _tables_bytes, check_db, slot_dtype, write_text

from conftest import remake_set, subsequences, views


def brute_hamming(x, y, tau):
    # independent double-loop oracle for the cyclic agreement count
    l = len(x)
    return sum(1 for i in range(l) if x[i] == y[(i + tau) % l])


class TestHammingCorrelation:
    def test_simple_values(self):
        assert hamming_correlation([0, 1, 2], [0, 3, 4], 0) == 1
        assert hamming_correlation([5, 5, 5], [5, 5, 5], 0) == 3
        assert hamming_correlation([0, 1], [1, 0], 0) == 0

    def test_matches_brute_force_all_shifts(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            l = int(gen.integers(1, 40))
            x = gen.integers(0, 6, size=l)
            y = gen.integers(0, 6, size=l)
            for tau in range(l):
                assert hamming_correlation(x, y, tau) == brute_hamming(x, y, tau)

    def test_symmetric_at_zero_shift(self):
        gen = np.random.default_rng(11)
        for _ in range(20):
            l = int(gen.integers(1, 50))
            x = gen.integers(0, 9, size=l)
            y = gen.integers(0, 9, size=l)
            assert hamming_correlation(x, y, 0) == hamming_correlation(y, x, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hamming_correlation([1, 2], [1, 2, 3])

    def test_shift_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="shift"):
            hamming_correlation([1, 2, 3], [1, 2, 3], 3)
        with pytest.raises(ValueError, match="shift"):
            hamming_correlation([1, 2, 3], [1, 2, 3], -1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hamming_correlation([], [])


def _doc_with(hcs_set, edit):
    doc = to_document(hcs_set)
    edit(doc)
    return from_document(doc)


def _sim(**kw):
    return SimConfig(**{"t": 8, "scheme": FixedScheme((0,)), "snr_db": (0.0,), **kw})


# every integer input: site -> (name in the message, >= 1?, error, build(set128, value))
INT_SITES = {
    "LevelSpec.r": ("slots-per-frame", True, ConfigError, lambda s, v: LevelSpec(r=v, u=1)),
    "LevelSpec.u": ("user count", False, ConfigError, lambda s, v: LevelSpec(r=1, u=v)),
    "SystemConfig.t": (
        "frame size", True, ConfigError, lambda s, v: SystemConfig(t=v, levels=((1, 1),))
    ),
    "SystemConfig.seed": (
        "seed", False, ConfigError, lambda s, v: SystemConfig(t=8, levels=((1, 1),), seed=v)
    ),
    "HcsSet.length": (
        "sequence length", True, ConfigError,
        lambda s, v: HcsSet(config=s.config, length=v, sequences=(), provenance={}),
    ),
    "HcsSequence.level": (
        "sequence level", False, ConfigError,
        lambda s, v: HcsSequence(level=v, user=0, frames=[[0]]),
    ),
    "HcsSequence.user": (
        "sequence user", False, ConfigError,
        lambda s, v: HcsSequence(level=0, user=v, frames=[[0]]),
    ),
    "doc.format_version": (
        "format_version", False, SchemaError,
        lambda s, v: _doc_with(s, lambda d: d.update(format_version=v)),
    ),
    "doc.t": ("t", True, SchemaError, lambda s, v: _doc_with(s, lambda d: d.update(t=v))),
    "doc.lambda": (
        "lambda", True, SchemaError, lambda s, v: _doc_with(s, lambda d: d.update({"lambda": v}))
    ),
    "doc.levels.r": (
        "levels[1].r", True, SchemaError,
        lambda s, v: _doc_with(s, lambda d: d["levels"][1].update(r=v)),
    ),
    "doc.levels.u": (
        "levels[1].u", False, SchemaError,
        lambda s, v: _doc_with(s, lambda d: d["levels"][1].update(u=v)),
    ),
    "doc.length": (
        "length", True, SchemaError, lambda s, v: _doc_with(s, lambda d: d.update(length=v))
    ),
    "doc.params.d": (
        "construction.params.d", False, SchemaError,
        lambda s, v: _doc_with(s, lambda d: d["construction"]["params"].update(d=v)),
    ),
    "doc.params.n": (
        "construction.params.n", False, SchemaError,
        lambda s, v: _doc_with(s, lambda d: d["construction"]["params"].update(n=v)),
    ),
    "doc.params.seed": (
        "construction.params.seed", False, SchemaError,
        lambda s, v: _doc_with(s, lambda d: d["construction"]["params"].update(seed=v)),
    ),
    "doc.sequences.level": (
        "sequences[1].level", False, SchemaError,
        lambda s, v: _doc_with(s, lambda d: d["sequences"][1].update(level=v)),
    ),
    "doc.sequences.user": (
        "sequences[1].user", False, SchemaError,
        lambda s, v: _doc_with(s, lambda d: d["sequences"][1].update(user=v)),
    ),
    "cons2_params.n": (
        "round count", True, ConfigError, lambda s, v: cons2_params(s.config, n=v)
    ),
    "cons2_params.d": (
        "exponent modulus", True, ConfigError, lambda s, v: cons2_params(s.config, n=1, g=3, d=v)
    ),
    "cons2_params.g": ("unit", True, ConfigError, lambda s, v: construct2(s.config, n=2, g=v)),
    "hamming_correlation.tau": (
        "shift", False, ConfigError, lambda s, v: hamming_correlation([0, 1], [1, 0], v)
    ),
    "SacState.sync_delay": (
        "sync delay", False, ConfigError, lambda s, v: SacState(s, sync_delay=v)
    ),
    "SacState.assign_seed": (
        "assign seed", False, ConfigError, lambda s, v: SacState(s, assign_seed=v)
    ),
    "script.frame": (
        "script entry 0: frame", False, ValueError,
        lambda s, v: run_script(s, [{"frame": v, "action": "leave", "user": "A"}]),
    ),
    "script.level": (
        "script entry 0: level", False, ValueError,
        lambda s, v: run_script(s, [{"frame": 0, "action": "join", "user": "A", "level": v}]),
    ),
    "FixedScheme.slots": ("fixed slot", False, ConfigError, lambda s, v: FixedScheme((0, v))),
    "HcsScheme.level": ("scheme level", False, ConfigError, lambda s, v: HcsScheme(s, level=v)),
    "HcsScheme.user": ("scheme user", False, ConfigError, lambda s, v: HcsScheme(s, user=v)),
    "SimConfig.t": ("frame size", True, ConfigError, lambda s, v: _sim(t=v)),
    "SimConfig.symbols_per_slot": (
        "symbols per slot", True, ConfigError, lambda s, v: _sim(symbols_per_slot=v)
    ),
    "SimConfig.frames": ("frame count", True, ConfigError, lambda s, v: _sim(frames=v)),
    "SimConfig.seed": ("seed", False, ConfigError, lambda s, v: _sim(seed=v)),
    "SimConfig.interference_slots": (
        "interference slot", False, ConfigError, lambda s, v: _sim(interference_slots=(v,))
    ),
    "interference_hit_fraction.frames": (
        "frame count", True, ConfigError,
        lambda s, v: interference_hit_fraction(FixedScheme((0,)), (), v),
    ),
    "interference_hit_fraction.interference_slots": (
        "interference slot", False, ConfigError,
        lambda s, v: interference_hit_fraction(FixedScheme((0,)), (v,), 10),
    ),
    "enumerate_user_counts.t": (
        "frame size", True, ConfigError, lambda s, v: enumerate_user_counts(v, (1, 2))
    ),
    "enumerate_user_counts.cap": (
        "tuple cap", False, ConfigError, lambda s, v: enumerate_user_counts(6, (1, 2), cap=v)
    ),
    "enumerate_user_counts.level_values": (
        "level value", True, ConfigError, lambda s, v: enumerate_user_counts(6, (v, 7))
    ),
}


class TestConfigTypes:
    def test_level_spec_validation(self):
        with pytest.raises(ConfigError):
            LevelSpec(r=0, u=1)
        with pytest.raises(ConfigError):
            LevelSpec(r=2, u=-1)
        assert LevelSpec(r=2, u=0).u == 0

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LevelSpec(r=True, u=1), "slots-per-frame must be"),
            (lambda: LevelSpec(r=1, u=True), "user count must be"),
            (lambda: SystemConfig(t=True, levels=((True, True),)), "frame size must be"),
            (lambda: SystemConfig(t=8, levels=((1, 1),), seed=True), "seed must be"),
            (
                lambda: HcsSet(config=SystemConfig(t=8, levels=((1, 0),)), length=True,
                               sequences=(), provenance={}),
                "sequence length must be",
            ),
        ],
        ids=["r", "u", "t", "seed", "length"],
    )
    def test_bool_is_not_an_int(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()

    # None stands for the site's out-of-range int: 0 where >= 1 is required, else -1
    @pytest.mark.parametrize("value", [True, 1.5, "2", None], ids=["bool", "float", "str", "range"])
    @pytest.mark.parametrize("site", sorted(INT_SITES))
    def test_every_integer_input_follows_one_rule(self, set128, site, value):
        what, positive, error, build = INT_SITES[site]
        if value is None:
            value = 0 if positive else -1
        with pytest.raises(error) as excinfo:
            build(set128, value)
        assert excinfo.type is error
        kind = "a positive" if positive else "a non-negative"
        assert str(excinfo.value) == f"{what} must be {kind} int, got {value!r}"

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda s: run_script(s, None), ValueError, "script must be a list or tuple, got None"),
            (lambda s: SystemConfig(t=8, levels=5), ConfigError,
             "levels must be a list or tuple, got 5"),
            (lambda s: SystemConfig(t=8, levels=((1,),)), ConfigError,
             "a level must be a LevelSpec or an (r, u) pair, got (1,)"),
            (lambda s: SimConfig(t=8, scheme=FixedScheme((0,)), snr_db=5), ConfigError,
             "SNR points must be a list or tuple, got 5"),
            (lambda s: interference_hit_fraction(FixedScheme((0,)), 5, 10), ConfigError,
             "interference slots must be a list or tuple, got 5"),
            (lambda s: enumerate_user_counts(8, None), ConfigError,
             "level values must be a list or tuple, got None"),
            (lambda s: verify(HcsSet(config=s.config, length=s.length, sequences=s.sequences,
                                     provenance=None)), ConfigError,
             "provenance must be a dict, got None"),
            (lambda s: HcsSet(config=s.config, length=s.length, sequences=None,
                              provenance=s.provenance), ConfigError,
             "sequences must be a list or tuple, got None"),
        ],
        ids=["run_script-script", "levels-int", "level-one-tuple", "snr_db-int",
             "hit-fraction-slots", "enumerate-level-values", "verify-provenance",
             "set-sequences"],
    )
    def test_non_sequence_input_is_refused(self, set128, call, error, message):
        with pytest.raises(error) as excinfo:
            call(set128)
        assert excinfo.type is error
        assert str(excinfo.value) == message

    def test_levels_must_ascend(self):
        with pytest.raises(ConfigError, match="increasing"):
            SystemConfig(t=8, levels=((3, 1), (3, 1)))
        with pytest.raises(ConfigError, match="increasing"):
            SystemConfig(t=8, levels=((4, 1), (2, 1)))

    def test_load_and_saturation(self):
        cfg = SystemConfig(t=24, levels=((2, 3), (3, 4), (6, 1)))
        assert cfg.load == 24
        assert cfg.saturated
        assert cfg.num_users == 8
        assert cfg.num_levels == 3

    def test_over_capacity_is_representable(self):
        # the bound checker reports these; only constructions reject them
        cfg = SystemConfig(t=8, levels=((4, 3),))
        assert cfg.load == 12
        assert not cfg.saturated


class TestCheckDb:
    # plain int and float take a shortcut past the numbers.Real check; these
    # cases pin that both paths together accept and refuse what that check does
    @pytest.mark.parametrize(
        "value",
        [7, -3.5, 0, 3000, -3000.0, np.float64(2.5), np.int64(-4), fractions.Fraction(1, 3)],
        ids=["int", "float", "zero", "int-3000", "float-minus-3000", "np.float64", "np.int64",
             "Fraction"],
    )
    def test_accepted(self, value):
        got = check_db(value, "SNR point")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize(
        "value",
        [True, np.bool_(True), "3", None, 1 + 0j, decimal.Decimal("3"), float("nan"),
         float("inf"), float("-inf"), 10**400, 4000.0, -4000],
        ids=["bool", "np.bool_", "str", "None", "complex", "Decimal", "nan", "inf", "-inf",
             "10**400", "float-4000", "int-minus-4000"],
    )
    def test_refused(self, value):
        with pytest.raises(ConfigError) as excinfo:
            check_db(value, "SNR point")
        assert str(excinfo.value) == (
            f"SNR point must be a finite dB value whose power ratio fits a float, got {value!r}"
        )


class TestSlotTables:
    @pytest.mark.parametrize(
        "frames, dtype",
        [([[1.7, 2]], "float64"), ([["3", "4"]], "<U1"), ([[True, False]], "bool")],
        ids=["float", "str", "bool"],
    )
    def test_non_integer_table_refused(self, frames, dtype):
        with pytest.raises(ConfigError, match=f"frames must be an integer array, got dtype {dtype}"):
            HcsSequence(level=0, user=0, frames=frames)

    @pytest.mark.parametrize(
        "given, held",
        [(np.uint8, np.uint8), (np.uint16, np.uint16), (np.uint32, np.uint32),
         (np.int64, np.int64), (np.int8, np.int64), (np.int16, np.int64), (np.int32, np.int64),
         (np.uint64, np.int64)],
        ids=lambda d: np.dtype(d).name,
    )
    def test_integer_tables_keep_a_slot_dtype_or_become_int64(self, given, held):
        seq = HcsSequence(level=0, user=0, frames=np.array([[3, 1]], dtype=given))
        assert seq.frames.dtype == held
        assert seq.frames.tolist() == [[3, 1]]

    def test_unsigned_values_beyond_int64_refused(self):
        with pytest.raises(ConfigError, match=f"frames must fit in int64, got slot {2**63}"):
            HcsSequence(level=0, user=0, frames=np.array([[2**63, 1]], dtype=np.uint64))
        top = np.array([[2**63 - 1, 1]], dtype=np.uint64)
        assert HcsSequence(level=0, user=0, frames=top).frames.tolist() == [[2**63 - 1, 1]]
        assert HcsSequence(level=0, user=0, frames=np.zeros((0, 2), np.uint64)).length == 0

    def test_writable_table_is_copied_and_left_writable(self):
        base = np.arange(6, dtype=np.int64).reshape(3, 2)
        seq = HcsSequence(level=0, user=0, frames=base)
        assert seq.frames is not base and base.flags.writeable
        base[0, 0] = 99
        assert seq.frames.tolist() == [[0, 1], [2, 3], [4, 5]]
        assert not seq.frames.flags.writeable

    @pytest.mark.parametrize("read_only", [False, True], ids=["view", "read-only-view"])
    def test_view_of_a_writable_table_is_copied(self, read_only):
        w = np.arange(8, dtype=np.int64).reshape(4, 2)
        view = w[1:3]
        view.setflags(write=not read_only)
        seq = HcsSequence(level=0, user=0, frames=view)
        w[1, 0] = 99
        assert seq.frames[0].tolist() == [2, 3]

    def test_only_a_bytes_backed_table_is_kept(self):
        frames = np.frombuffer(bytes(range(6)), np.uint8).reshape(3, 2)
        assert HcsSequence(level=0, user=0, frames=frames).frames is frames
        # a read-only array that owns its memory can be made writable again,
        # so it is copied, and the copy cannot be
        base = np.arange(6, dtype=np.int64)
        base.setflags(write=False)
        held = HcsSequence(level=0, user=0, frames=base.reshape(3, 2)).frames
        assert type(views(held)[-1].base) is bytes and held.tolist() == [[0, 1], [2, 3], [4, 5]]
        for table in views(held):
            with pytest.raises(ValueError):
                table.setflags(write=True)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64],
                             ids=lambda d: np.dtype(d).name)
    def test_numpy_refuses_to_make_a_view_of_bytes_writable(self, dtype):
        # the premise a set's immutability rests on: if numpy ever lets such
        # a view be made writable, this fails
        flat = np.frombuffer(bytes(range(48)), dtype)
        for view in (flat.reshape(2, -1), flat[1:-1], flat.reshape(2, -1)[1:, 1:]):
            arrays = views(view)
            assert type(arrays[-1].base) is bytes
            for table in arrays:
                with pytest.raises(ValueError):
                    table.setflags(write=True)

    @pytest.mark.parametrize("route", ["construct1", "construct2", "load_set", "from_document"])
    def test_built_and_loaded_tables_are_not_copied(self, request, tmp_path, route):
        # each route hands over views of read-only tables it made, which a
        # copy would replace with arrays of their own
        built = request.getfixturevalue("set24" if route == "construct1" else "set128")
        if route == "load_set":
            save_set(built, tmp_path / "set.json")
            built = load_set(tmp_path / "set.json")
        elif route == "from_document":
            built = from_document(to_document(built))
        assert all(s.frames.base is not None for s in built.sequences)


def _by_route(built, route, tmp_path):
    """``built`` as the route gives it back: a file, a document, a hand-built
    set, a copy or a pickle."""
    path = tmp_path / "set.json"
    if route == "canonical":
        save_set(built, path)
        return load_set(path)
    if route == "indented":
        path.write_text(json.dumps(to_document(built), indent=1))
        return load_set(path)
    if route == "from_document":
        return from_document(to_document(built))
    if route in ("int64", "out-of-range"):
        # int64 copies of the tables; out of range, the second one's slots move past t - 1
        shift = built.t if route == "out-of-range" else 0
        sequences = tuple(
            HcsSequence(level=s.level, user=s.user, frames=s.frames.astype(np.int64) + shift * (i == 1))
            for i, s in enumerate(built.sequences)
        )
        return HcsSet(config=built.config, length=built.length, sequences=sequences,
                      provenance=dict(built.provenance))
    if route == "remake_set":
        return remake_set(built, lambda index, frames: None)
    if route == "pickle":
        return pickle.loads(pickle.dumps(built))
    return {"built": lambda s: s, "deepcopy": copy.deepcopy, "copy": copy.copy}[route](built)


ROUTES = ["built", "canonical", "indented", "from_document", "int64", "out-of-range",
          "remake_set", "pickle", "deepcopy", "copy"]


class TestSetsCannotChange:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("source", ["set24", "set128"], ids=["c1", "c2"])
    def test_every_route_gives_a_set_that_cannot_change(self, request, tmp_path, source, route):
        built = request.getfixturevalue(source)
        got = _by_route(built, route, tmp_path)
        for s in got.sequences:
            for table in views(s.frames):
                with pytest.raises(ValueError):
                    table.setflags(write=True)
        with pytest.raises(TypeError):
            got.provenance["kind"] = "mystery"
        with pytest.raises(TypeError):
            got.provenance["params"]["d"] = 2
        if route == "out-of-range":
            # a table with a slot outside 0..t-1 keeps its dtype, so verify names the slot
            assert [s.frames.dtype == np.int64 for s in got.sequences] == [
                i == 1 for i in range(len(got.sequences))
            ]
            assert "holds out-of-range slot" in verify(got).frame_distinctness.detail
        else:
            assert {s.frames.dtype for s in got.sequences} == {slot_dtype(built.t)}
            assert to_document(got) == to_document(built)

    def test_provenance_is_a_copy(self, set128):
        params = dict(set128.provenance["params"])
        provenance = {"kind": "c2", "params": params}
        built = HcsSet(config=set128.config, length=set128.length,
                       sequences=set128.sequences, provenance=provenance)
        provenance["kind"] = "c1"
        params["d"] = 2
        assert built.provenance == set128.provenance
        # a mappingproxy is taken as well, and copied too
        again = HcsSet(config=set128.config, length=set128.length,
                       sequences=set128.sequences, provenance=built.provenance)
        assert again.provenance == built.provenance
        assert again.provenance is not built.provenance


class TestFlatten:
    def test_every_pair_of_runs_is_collision_free(self, set24):
        # the exhaustive pairwise scan stated for generated sets
        runs = [run for _, _, _, run in subsequences(set24)]
        assert len(runs) == 24
        for a in range(len(runs)):
            for b in range(a + 1, len(runs)):
                assert hamming_correlation(runs[a], runs[b], 0) == 0


class TestSetContainer:
    def test_roster_must_be_complete(self, cfg24):
        seq = HcsSequence(level=0, user=0, frames=np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(ConfigError, match="roster"):
            HcsSet(config=cfg24, length=4, sequences=(seq,), provenance={"kind": "c1"})

    def test_frame_width_checked(self, cfg8):
        bad = [
            HcsSequence(level=i, user=0, frames=np.zeros((4, 2), dtype=np.int64))
            for i in range(3)
        ]
        with pytest.raises(ConfigError, match="slot frames"):
            HcsSet(config=cfg8, length=4, sequences=tuple(bad), provenance={})

    def test_sequences_sorted_by_level_user(self, set24):
        pairs = [(s.level, s.user) for s in set24.sequences]
        assert pairs == sorted(pairs)

    def test_frames_read_only(self, set24):
        with pytest.raises(ValueError):
            set24.sequences[0].frames[0, 0] = 99


class TestDocuments:
    def test_round_trip(self, set24, tmp_path):
        path = tmp_path / "set.json"
        save_set(set24, path)
        loaded = load_set(path)
        assert loaded.config == set24.config
        assert loaded.length == set24.length
        assert loaded.provenance == set24.provenance
        for a, b in zip(loaded.sequences, set24.sequences):
            assert (a.level, a.user) == (b.level, b.user)
            assert np.array_equal(a.frames, b.frames)

    def test_bool_level_refused_before_it_reaches_a_file(self, set128):
        # HcsSet once took level=True, and save_set wrote a file load_set refused
        with pytest.raises(ConfigError, match="sequence level must be a non-negative int, got True"):
            HcsSet(
                config=set128.config,
                length=set128.length,
                sequences=tuple(
                    HcsSequence(level=True if s.level == 1 else s.level, user=s.user, frames=s.frames)
                    for s in set128.sequences
                ),
                provenance=set128.provenance,
            )

    def test_round_trip_modular_affine(self, set128, tmp_path):
        path = tmp_path / "set.json"
        save_set(set128, path)
        loaded = load_set(path)
        assert loaded.provenance["params"]["mode"] == "compat"
        assert loaded.length == 128

    def test_document_shape(self, set128):
        doc = to_document(set128)
        assert doc["format_version"] == 1
        assert doc["t"] == 8
        assert doc["lambda"] == 3
        assert doc["levels"] == [{"r": 1, "u": 1}, {"r": 3, "u": 1}, {"r": 4, "u": 1}]
        assert doc["length"] == 128
        assert doc["construction"]["kind"] == "c2"
        assert len(doc["sequences"]) == 3
        entry = doc["sequences"][2]
        assert entry["level"] == 2 and entry["user"] == 0
        assert entry["frames"][0] == [4, 5, 6, 7]

    @pytest.mark.parametrize(
        "breakage, location",
        [
            (lambda d: d.pop("t"), "missing required key 't'"),
            (lambda d: d.update(format_version=2), "format_version"),
            (lambda d: d.update({"lambda": 5}), "lambda"),
            (lambda d: d["levels"][0].pop("u"), "levels[0]"),
            (lambda d: d["sequences"][0]["frames"].pop(), "sequences[0].frames"),
            (lambda d: d["sequences"][1]["frames"][3].pop(), "sequences[1].frames[3]"),
            (
                lambda d: d["sequences"][0]["frames"][0].__setitem__(0, "x"),
                "sequences[0].frames[0]",
            ),
            (lambda d: d["sequences"][0].update(level=9), "sequences[0].level"),
            (lambda d: d["sequences"].pop(), "sequences"),
            (lambda d: d.update(construction=[]), "construction: expected an object"),
            (
                lambda d: d["levels"][1].update(r=1),
                "levels: level slot demands must be strictly increasing, got [1, 1, 4]",
            ),
            (lambda d: d.update(sequences={}), "sequences: expected an array"),
            (
                lambda d: d["sequences"][0].update(user=5),
                "sequences[0].user: 5 out of range for 1 users at level 0",
            ),
        ],
    )
    def test_malformed_documents_name_the_spot(self, set128, breakage, location):
        doc = to_document(set128)
        breakage(doc)
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert location in str(err.value)

    def test_duplicate_roster_entry_rejected(self, set128):
        doc = to_document(set128)
        doc["sequences"][1]["level"] = 2
        doc["sequences"][1]["user"] = 0
        doc["sequences"][1]["frames"] = doc["sequences"][2]["frames"]
        with pytest.raises(SchemaError, match="duplicate"):
            from_document(doc)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1,,}')
        with pytest.raises(SchemaError, match="line 1"):
            load_set(path)

    def test_out_of_range_slots_load_fine(self, set128, tmp_path):
        # semantic slot errors are the verifier's to flag, not the parser's
        doc = to_document(set128)
        doc["sequences"][0]["frames"][0][0] = 99
        loaded = from_document(doc)
        assert loaded.sequences[0].frames[0, 0] == 99

    @pytest.mark.parametrize("slot", [2**63, -(2**63) - 1, 10**30])
    def test_slots_beyond_int64_rejected(self, set128, slot):
        doc = to_document(set128)
        doc["sequences"][1]["frames"][5][2] = slot
        with pytest.raises(SchemaError, match=r"sequences\[1\]\.frames: slots must fit in int64"):
            from_document(doc)

    @pytest.mark.parametrize(
        "key, value", [("d", "x"), ("n", -1), ("d", True), ("n", 2.0), ("d", None)]
    )
    def test_c2_params_must_be_non_negative_ints(self, set128, key, value):
        doc = to_document(set128)
        doc["construction"]["params"][key] = value
        with pytest.raises(SchemaError, match=f"construction.params.{key}"):
            from_document(doc)

    @pytest.mark.parametrize("value", ["x", -1, True, 2.0, None])
    def test_seed_must_be_non_negative_int(self, set24, value):
        doc = to_document(set24)
        doc["construction"]["params"]["seed"] = value
        with pytest.raises(SchemaError, match="construction.params.seed must be a non-negative int"):
            from_document(doc)

    def test_missing_seed_loads_as_zero(self, set24):
        doc = to_document(set24)
        del doc["construction"]["params"]["seed"]
        assert from_document(doc).config.seed == 0

    def test_c2_params_checked_only_for_c2(self, set24):
        doc = to_document(set24)
        doc["construction"]["params"]["d"] = "x"
        assert from_document(doc).provenance["params"]["d"] == "x"

    def test_indented_file_loads_and_is_rewritten_compact(self, set128, tmp_path):
        doc = to_document(set128)
        indented = json.dumps(doc, indent=2, sort_keys=True)
        old = tmp_path / "old.json"
        old.write_text(indented)
        loaded = load_set(old)
        for a, b in zip(loaded.sequences, set128.sequences):
            assert np.array_equal(a.frames, b.frames)
        new = tmp_path / "new.json"
        save_set(loaded, new)
        text = new.read_text()
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert json.loads(text) == json.loads(indented)

    @pytest.mark.parametrize("fixture", ["set24", "set128"], ids=["c1", "c2"])
    def test_save_load_save_is_byte_identical(self, request, tmp_path, fixture):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_set(request.getfixturevalue(fixture), first)
        save_set(load_set(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().count(b"\n") == 1

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ((2, "x"), (5, None), "sequences[1].frames[2]: slots must be integers"),
            ((2, None), (5, "x"), "sequences[1].frames[2]: expected 3 slots"),
            ((2, True), (5, None), "sequences[1].frames[2]: slots must be integers"),
        ],
        ids=["string-then-short", "short-then-string", "bool-then-short"],
    )
    def test_first_bad_frame_is_named(self, set128, first, second, message):
        # (frame, slot value): None drops the frame's last slot
        doc = to_document(set128)
        frames = doc["sequences"][1]["frames"]
        for fi, value in (first, second):
            if value is None:
                frames[fi].pop()
            else:
                frames[fi][1] = value
        with pytest.raises(SchemaError) as err:
            from_document(doc)
        assert str(err.value) == message


# every digit-count boundary of int64, both signs, and its two ends
DIGIT_EDGES = sorted(
    {sign * v for k in range(19) for v in (10**k - 1, 10**k, 10**k + 1) for sign in (1, -1)}
    | {-(2**63), 2**63 - 1}
)
INT64_TABLES = hnp.arrays(
    np.int64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
    elements=st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(DIGIT_EDGES)),
)


def _plant(values):
    """Write ``values`` over the first slots of every sequence's first frame."""

    def mutate(index, frames):
        frames.flat[: len(values)] = values[: frames.size]

    return mutate


class TestCanonicalSetFiles:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(tables=st.lists(INT64_TABLES, min_size=1, max_size=3), data=st.data())
    def test_tables_bytes_is_json_of_the_lists(self, tables, data):
        assert _tables_bytes(tables[:1], ["", ""]).decode() == json.dumps(
            tables[0].tolist(), separators=(",", ":")
        )
        ascii_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4)
        seps = data.draw(st.lists(ascii_text, min_size=len(tables) + 1, max_size=len(tables) + 1))
        assert _tables_bytes(tables, seps).decode() == seps[0] + "".join(
            json.dumps(a.tolist(), separators=(",", ":")) + sep
            for a, sep in zip(tables, seps[1:])
        )

    @pytest.mark.parametrize("shape", [(1, -1), (-1, 1)], ids=["one-row", "one-column"])
    def test_digit_edges_in_one_table(self, shape):
        a = np.array(DIGIT_EDGES, dtype=np.int64).reshape(shape)
        assert _tables_bytes([a], ["", ""]).decode() == json.dumps(a.tolist(), separators=(",", ":"))

    @pytest.mark.parametrize(
        "build",
        [
            lambda sets: sets["set24"],
            lambda sets: sets["set128"],
            lambda sets: sets["set32"],
            lambda sets: remake_set(sets["set24"], _plant([-1, 24, 10**18, -(10**18)])),
            lambda sets: remake_set(sets["set128"], _plant([-(2**63), 2**63 - 1, -7])),
            lambda sets: construct2(SystemConfig(t=8, levels=((1, 0), (3, 1), (4, 1))), n=1, g=3),
            lambda sets: HcsSet(
                config=SystemConfig(t=4, levels=((1, 0),)), length=1, sequences=(), provenance={}
            ),
            lambda sets: HcsSet(
                config=sets["set24"].config,
                length=sets["set24"].length,
                sequences=sets["set24"].sequences,
                provenance={"kind": "c1", "params": {
                    "note": '],"t":8}\n', "sequences": [[1]], "x": '"sequences":[{"frames":[[',
                }},
            ),
        ],
        ids=["c1", "c2", "c2-true-order", "c1-out-of-range", "c2-int64-ends", "empty-level",
             "no-sequences", "params-look-like-keys"],
    )
    def test_save_set_writes_the_canonical_document(self, request, tmp_path, build):
        sets = {name: request.getfixturevalue(name) for name in ("set24", "set128", "set32")}
        hcs_set = build(sets)
        path = tmp_path / "set.json"
        save_set(hcs_set, path)
        data = path.read_bytes()
        assert data == dumps_document(to_document(hcs_set)).encode()
        # the file is read back in numpy, to the set from_document gives
        loaded = _load_canonical(data)
        reference = from_document(json.loads(data))
        assert loaded is not None
        assert loaded.config == reference.config and loaded.length == reference.length
        assert loaded.provenance == reference.provenance
        assert [(s.level, s.user, s.frames.tolist()) for s in loaded.sequences] == [
            (s.level, s.user, s.frames.tolist()) for s in reference.sequences
        ]
        t = loaded.t
        for s, q in zip(loaded.sequences, reference.sequences):
            # a table with a slot outside 0..t-1 keeps the int64 it was parsed in
            in_range = 0 <= s.frames.min() and s.frames.max() < t
            assert s.frames.dtype == q.frames.dtype == (slot_dtype(t) if in_range else np.int64)
            assert not s.frames.flags.writeable


class TestWriteText:
    # "new text é" is 11 bytes of UTF-8
    @pytest.mark.parametrize("old", [b"a" * 100, b"b" * 5, b"c" * 11], ids=["longer", "shorter", "equal"])
    def test_a_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old):
        path = tmp_path / "file.txt"
        path.write_bytes(old)
        write_text(path, "new text é")
        assert path.read_bytes() == "new text é".encode()

    def test_missing_file_and_parents_are_made(self, tmp_path):
        path = tmp_path / "a" / "b" / "file.txt"
        write_text(path, "x\n")
        assert path.read_bytes() == b"x\n"
        assert path.stat().st_mode & 0o777 == 0o666 & ~_umask()

    def test_a_device_is_written(self):
        write_text(os.devnull, "x" * 10)

    def test_library_calls_hash_nothing(self, tmp_path, set24, monkeypatch):
        def refused(*args):
            raise AssertionError("hashed outside a CLI stage")

        monkeypatch.setattr(hashlib, "sha256", refused)
        path = tmp_path / "set.json"
        save_set(set24, path)
        assert load_set(path).length == set24.length
        write_text(path, "{}")
        assert core.read_json(path) == {}


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


class TestFrameInvariants:
    def test_frames_distinct_within_each_tuple(self, set24, set128):
        for hcs_set in (set24, set128):
            for s in hcs_set.sequences:
                for row in s.frames:
                    assert len(set(row.tolist())) == s.slots_per_frame

    def test_saturated_frames_cover_all_slots(self, set24):
        stacked = np.hstack([s.frames for s in set24.sequences])
        assert stacked.shape == (144, 24)
        for row in stacked:
            assert sorted(row.tolist()) == list(range(24))
