"""A set holds each table of in-range slots in core.slot_dtype(t), whichever
way it was made, and what is read off a narrow set is what the int64 tables
of the same set give."""
import copy
import json
import math

import numpy as np
import pytest

from hcskit import (
    FixedScheme,
    HcsScheme,
    HcsSequence,
    HcsSet,
    SimConfig,
    SystemConfig,
    compare_schemes,
    construct1,
    construct2,
    dumps_document,
    from_document,
    interference_hit_fraction,
    load_set,
    rng,
    run_script,
    save_set,
    to_document,
    verify,
)
from hcskit import core
from hcskit.core import slot_dtype

from conftest import random_script, reference_audit, remake_set
from test_verification import reference_verify

EDGES = (255, 256, 257, 65536, 65537)


@pytest.mark.parametrize(
    "t, dtype",
    [(1, np.uint8), (255, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
     (65537, np.uint32), (2**32, np.uint32), (2**32 + 1, np.int64), (2**70, np.int64)],
)
def test_slot_dtype_holds_slot_t_minus_1(t, dtype):
    assert slot_dtype(t) == dtype


def widened(hcs_set):
    """``hcs_set`` with int64 copies of its tables, made past HcsSet's rule,
    which would narrow them again: the set as the reference helpers read it."""
    sequences = []
    for s in hcs_set.sequences:
        wide = copy.copy(s)
        object.__setattr__(wide, "frames", s.frames.astype(np.int64))
        sequences.append(wide)
    wide_set = copy.copy(hcs_set)
    object.__setattr__(wide_set, "sequences", tuple(sequences))
    return wide_set


def hand_built(t):
    """A two-user set of frame size t whose slots reach 0 and t - 1."""
    top = t - 1
    return HcsSet(
        config=SystemConfig(t=t, levels=((1, 1), (2, 1))),
        length=3,
        sequences=(
            HcsSequence(level=0, user=0, frames=np.array([[0], [top], [5]])),
            HcsSequence(level=1, user=0, frames=np.array([[top, 1], [0, 2], [top - 1, top]])),
        ),
        provenance={"kind": "mystery"},
    )


def assert_slot_dtype(hcs_set):
    assert all(s.frames.dtype == slot_dtype(hcs_set.t) for s in hcs_set.sequences)
    assert all(not s.frames.flags.writeable for s in hcs_set.sequences)


@pytest.fixture
def handed(monkeypatch):
    """For each table an HcsSequence built in the test was handed, whether
    it was kept as given, not copied."""
    seen = []
    immutable = core._immutable

    def recording(arr, dtype):
        kept = immutable(arr, dtype)
        seen.append(kept is arr)
        return kept

    monkeypatch.setattr(core, "_immutable", recording)
    return seen


# every frame size construct1 builds near the uint8/uint16 edge: a prime 257
# has only R = 257, a set of 17M claims, so 258 stands in for it
@pytest.mark.parametrize("t, levels", [(255, ((5, 3), (15, 2))), (256, ((8, 2), (16, 1))),
                                       (258, ((43, 2),))])
def test_construct1_builds_in_the_slot_dtype(handed, t, levels):
    built = construct1(SystemConfig(t=t, levels=levels, seed=3))
    # finished tables in that dtype, so neither HcsSequence nor HcsSet copies one
    assert handed == [True] * len(built.sequences)
    assert_slot_dtype(built)
    assert verify(built).passed


# past 2**14 slots the budget leaves construct1 and construct2 no frames to build
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("t", EDGES[:3])
def test_construct2_builds_in_the_slot_dtype(handed, t, n):
    # one round computes every block; three, with a unit of order 2 or 4,
    # gather them from a table of d^2 blocks
    g = {255: 16, 256: 255, 257: 16}[t] if n == 3 else None
    built = construct2(SystemConfig(t=t, levels=((1, 2), (3, 1))), n=n, g=g)
    assert handed == [True] * len(built.sequences)
    assert_slot_dtype(built)
    assert verify(built).passed


@pytest.mark.parametrize("route", ["set", "canonical", "indented", "kept", "from_document"])
@pytest.mark.parametrize("t", EDGES)
def test_every_route_holds_the_slot_dtype(tmp_path, t, route):
    built = hand_built(t)
    path = tmp_path / "set.json"
    if route == "canonical":
        save_set(built, path)
        got = load_set(path)
    elif route == "indented":
        path.write_text(json.dumps(to_document(built), indent=1))
        got = load_set(path)
    elif route == "kept":
        with core._keeping_written():
            save_set(built, path)
            got = load_set(path)
        assert got is built
    elif route == "from_document":
        got = from_document(to_document(built))
    else:
        got = built
    assert_slot_dtype(got)
    assert [s.frames.tolist() for s in got.sequences] == [
        [[0], [t - 1], [5]], [[t - 1, 1], [0, 2], [t - 2, t - 1]]
    ]


def test_wider_and_narrower_tables_are_copied_once(set128):
    # int64 tables narrow, uint16 tables of an 8-slot set too, each into its own bytes
    dtypes = (np.int64, np.uint16, np.uint8)
    tables = [s.frames.astype(dtype) for s, dtype in zip(set128.sequences, dtypes)]
    sequences = tuple(
        HcsSequence(level=s.level, user=s.user, frames=table)
        for s, table in zip(set128.sequences, tables)
    )
    built = HcsSet(config=set128.config, length=set128.length, sequences=sequences,
                   provenance=set128.provenance)
    assert_slot_dtype(built)
    assert built.sequences[2] is sequences[2]
    for s in built.sequences[:2]:
        root = s.frames
        while isinstance(root, np.ndarray):
            root = root.base
        assert type(root) is bytes and len(root) == s.frames.nbytes
    assert [s.frames.tolist() for s in built.sequences] == [t.tolist() for t in tables]


@pytest.mark.parametrize("slot", [-1, 256])
@pytest.mark.parametrize("route", ["canonical", "indented"])
def test_an_out_of_range_table_keeps_int64(tmp_path, slot, route):
    def plant(index, frames):
        if index == 1:
            frames[7, 0] = slot

    planted = remake_set(construct1(SystemConfig(t=256, levels=((8, 2), (16, 1)), seed=3)), plant)
    path = tmp_path / "set.json"
    if route == "canonical":
        save_set(planted, path)
    else:
        path.write_text(json.dumps(to_document(planted), indent=1))
    for hcs_set in (planted, load_set(path)):
        assert [s.frames.dtype for s in hcs_set.sequences] == [np.uint8, np.int64, np.uint8]
        report = verify(hcs_set)
        assert report.frame_distinctness.detail == (
            f"level 0 user 1 frame 7 holds out-of-range slot {slot}"
        )
        assert report == verify(widened(hcs_set))


# ---------------------------------------------------------------------------
# the uint8 edge: t = 256, with slot 255 in use


@pytest.fixture(scope="module")
def edge_sets():
    c1 = construct1(SystemConfig(t=256, levels=((8, 2), (16, 1)), seed=11))
    c2 = construct2(SystemConfig(t=256, levels=((1, 2), (2, 1))), n=1, g=3)
    for hcs_set in (c1, c2):
        assert hcs_set.sequences[0].frames.dtype == np.uint8
        assert all((s.frames == 255).any() for s in hcs_set.sequences)
    return c1, c2


def plant_on_slot_255(hcs_set):
    """(copy of ``hcs_set`` with a second claim of slot 255, frame of it):
    in the first frame where one sequence holds slot 255, the first slot of
    another sequence moves there."""
    frame, holder = min(
        (int(np.flatnonzero((s.frames == 255).any(axis=1))[0]), i)
        for i, s in enumerate(hcs_set.sequences)
    )

    def plant(index, frames):
        if index == (holder + 1) % len(hcs_set.sequences):
            frames[frame, 0] = 255

    return remake_set(hcs_set, plant), frame


def test_verify_reports_match_the_int64_reference(edge_sets):
    for hcs_set in edge_sets:
        planted, frame = plant_on_slot_255(hcs_set)
        for checked in (hcs_set, planted):
            assert dumps_document(verify(checked).to_dict()) == dumps_document(
                reference_verify(widened(checked)).to_dict()
            )
        assert verify(planted).zero_correlation.detail.endswith(
            f"both claim slot 255 at position {frame}"
        )


def test_saved_bytes_match_the_int64_document(tmp_path, edge_sets):
    for hcs_set in edge_sets:
        save_set(hcs_set, tmp_path / "set.json")
        data = (tmp_path / "set.json").read_bytes()
        assert data == dumps_document(to_document(widened(hcs_set))).encode()
        assert b",255" in data


@pytest.mark.parametrize("alignment", ["global", "per-user"])
def test_audits_match_the_int64_replay(edge_sets, alignment):
    claimed = set()
    for hcs_set in edge_sets:
        script = random_script(np.random.default_rng(5), hcs_set, frames=300)
        _, audit, collisions = run_script(hcs_set, script, alignment=alignment, sync_delay=1)
        assert (list(audit), collisions) == reference_audit(
            widened(hcs_set), script, alignment=alignment, sync_delay=1
        )
        claimed.update(audit.slot.tolist())
    assert 255 in claimed


def test_exposure_and_comparison_match_the_int64_table(edge_sets):
    slots, frames = (3, 128, 255), 1000
    for hcs_set in edge_sets:
        wide = widened(hcs_set).sequences[-1].frames
        tiled = np.tile(wide, (-(-frames // len(wide)), 1))[:frames]
        n_hit = int(np.isin(tiled, slots).sum())
        scheme = HcsScheme(hcs_set)
        assert interference_hit_fraction(scheme, slots, frames, t=256) == n_hit / tiled.size
        common = dict(t=256, snr_db=(2.0, 9.0), interference_slots=slots,
                      interference_power_db=10.0, symbols_per_slot=8, frames=frames, seed=21)
        rows = compare_schemes(
            SimConfig(scheme=FixedScheme((0, 255)), **common), SimConfig(scheme=scheme, **common)
        ).rows
        # each point draws Bin(n_clean, p_clean) + Bin(n_hit, p_hit) from its substream
        total, n_hit = tiled.size * 8, n_hit * 8
        for index, (snr, row) in enumerate(zip(common["snr_db"], rows)):
            gen = rng.substream(21, rng.DOMAIN_SIMULATOR, index)
            n0 = 10.0 ** (-snr / 10.0)
            p_clean = 0.5 * math.erfc(1.0 / math.sqrt(n0))
            p_hit = 0.5 * math.erfc(1.0 / math.sqrt(n0 + 2.0 * 10.0))
            errors = int(gen.binomial(total - n_hit, p_clean)) + int(gen.binomial(n_hit, p_hit))
            assert row.ser_b == errors / total
