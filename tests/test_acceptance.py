"""End-to-end acceptance checks.

One test per criterion, each printing a single summary line; run with
``pytest -v tests/test_acceptance.py`` to see the pass/fail verdicts.
"""
import hashlib
import itertools
import json
import math
import time

import numpy as np

from hcskit import (
    FixedScheme,
    HcsScheme,
    SimConfig,
    SystemConfig,
    check_bound,
    compare_schemes,
    construct1,
    construct2,
    interference_hit_fraction,
    sac,
    verify,
)
from hcskit.cli import dispatch
from hcskit.construction1 import unrank_permutation
from hcskit.construction2 import find_generator

from conftest import random_script, remake_set, shadow_events

LEVELS24 = ((2, 3), (3, 4), (6, 1))
LEVELS8 = ((1, 1), (3, 1), (4, 1))


def sample_c1_config(gen):
    """Random saturated roster admissible for the permutation-table builder."""
    while True:
        R = int(gen.integers(1, 9))
        max_m = min(20, 40 // R)
        m = int(gen.integers(1, max_m + 1))
        t = R * m
        divs = [x for x in range(1, R + 1) if R % x == 0]
        lam = int(gen.integers(1, min(4, len(divs), m) + 1))
        others = divs[:-1]
        if lam - 1 > len(others):
            continue
        if lam == 1:
            rv = [R]
        else:
            pick = sorted(gen.choice(len(others), size=lam - 1, replace=False).tolist())
            rv = [others[i] for i in pick] + [R]
        if lam > 1:
            cuts = sorted(gen.choice(np.arange(1, m), size=lam - 1, replace=False).tolist())
        else:
            cuts = []
        parts = np.diff([0] + cuts + [m]).tolist()
        levels = tuple((rv[i], parts[i] * (R // rv[i])) for i in range(lam))
        return SystemConfig(t=t, levels=levels, seed=int(gen.integers(2**32)))


def sample_c2_config(gen):
    """Random admissible roster plus parameters for the modular-affine builder."""
    while True:
        t = int(gen.integers(2, 41))
        lam = int(gen.integers(1, min(4, t) + 1))
        rs = sorted(int(x) for x in gen.choice(np.arange(1, t + 1), size=lam, replace=False))
        levels = []
        budget = t
        for r in rs:
            if budget // r < 1:
                break
            u = int(gen.integers(1, budget // r + 1))
            levels.append((r, u))
            budget -= u * r
        if len(levels) < lam:
            continue
        n = int(gen.integers(1, 3))
        if gen.random() < 0.5:
            _, d = find_generator(t)
            if d**n * t > 100_000:
                continue
            return SystemConfig(t=t, levels=tuple(levels)), dict(n=n)
        units = [u for u in range(1, t) if math.gcd(u, t) == 1]
        g = int(units[int(gen.integers(len(units)))])
        d = int(gen.integers(1, 5))
        if d**n * t > 100_000:
            continue
        return SystemConfig(t=t, levels=tuple(levels)), dict(n=n, g=g, d=d)


def plant_mutation(hcs_set, gen):
    """Copy of the set with one slot symbol changed somewhere."""
    si = int(gen.integers(len(hcs_set.sequences)))
    s = hcs_set.sequences[si]
    f = int(gen.integers(s.length))
    theta = int(gen.integers(s.slots_per_frame))
    delta = int(gen.integers(1, hcs_set.t)) if hcs_set.t > 1 else 1

    def mutate(index, frames):
        if index == si:
            frames[f, theta] = (frames[f, theta] + delta) % hcs_set.t

    return remake_set(hcs_set, mutate)


def test_criterion_01_capacity_bound_examples():
    started = time.monotonic()
    a = check_bound(SystemConfig(t=24, levels=LEVELS24))
    b = check_bound(SystemConfig(t=8, levels=LEVELS8))
    elapsed = time.monotonic() - started
    assert (a.load, a.capacity, a.slack, a.optimal) == (24, 24, 0, True)
    assert (b.load, b.capacity, b.slack, b.optimal) == (8, 8, 0, True)
    assert elapsed < 1.0
    print(f"PASS criterion 1: both example rosters saturate the bound ({elapsed:.4f}s)")


def test_criterion_02_permutation_sets_verify_across_seeds():
    started = time.monotonic()
    for seed in range(100):
        built = construct1(SystemConfig(t=24, levels=LEVELS24, seed=seed))
        assert built.length == 144
        assert len(built.sequences) == 8
        assert built.t == 24
        report = verify(built)
        assert report.passed, (seed, report.to_dict())
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"PASS criterion 2: 100 seeded 144x24 sets all verify ({elapsed:.2f}s)")


def test_criterion_03_modular_set_reference_values():
    built = construct2(SystemConfig(t=8, levels=LEVELS8), n=2, g=3, d=4)
    s00 = built.sequence(0, 0)
    assert tuple(s00.frames[:8, 0]) == tuple(range(8))
    assert tuple(s00.frames[8:16, 0]) == (3, 6, 1, 4, 7, 2, 5, 0)
    assert tuple(s00.frames[125:, 0]) == (0, 1, 2)
    assert built.sequence(1, 0).frame(0) == (1, 2, 3)
    assert built.sequence(2, 0).frame(0) == (4, 5, 6, 7)
    assert built.length == 128
    print("PASS criterion 3: modular-affine reference slots reproduced exactly")


def test_criterion_04_per_run_occupancy():
    compat = construct2(SystemConfig(t=8, levels=LEVELS8), n=2, g=3, d=4)
    for s in compat.sequences:
        for col in range(s.slots_per_frame):
            assert np.all(np.bincount(s.frames[:, col], minlength=8) == 16)
    true_order = construct2(SystemConfig(t=8, levels=LEVELS8), n=2, g=3)
    assert true_order.length == 32
    for s in true_order.sequences:
        for col in range(s.slots_per_frame):
            assert np.all(np.bincount(s.frames[:, col], minlength=8) == 4)
    print("PASS criterion 4: every run hits each slot 16x (compat) and 4x (true order)")


def test_criterion_05_lexicographic_permutation_table():
    table = [unrank_permutation(g, 4) for g in range(24)]
    assert table == list(itertools.permutations(range(4)))
    assert table[1] == (0, 1, 3, 2)
    print("PASS criterion 5: 4-element permutation table is lexicographic, rank 1 = (0,1,3,2)")


def test_criterion_06_random_configs_and_mutation_detection():
    started = time.monotonic()
    gen = np.random.default_rng(20250823)
    detected = 0
    for _ in range(100):
        cfg = sample_c1_config(gen)
        built = construct1(cfg)
        assert verify(built).passed, cfg
        assert not verify(plant_mutation(built, gen)).passed, cfg
        detected += 1
    for _ in range(100):
        cfg, kwargs = sample_c2_config(gen)
        built = construct2(cfg, **kwargs)
        assert verify(built).passed, (cfg, kwargs)
        assert not verify(plant_mutation(built, gen)).passed, (cfg, kwargs)
        detected += 1
    elapsed = time.monotonic() - started
    assert detected == 200
    assert elapsed < 300.0
    print(
        f"PASS criterion 6: 200 random configs verify and 200/200 planted "
        f"mutations detected ({elapsed:.1f}s)"
    )


def test_criterion_07_allocator_scripts_collision_free():
    gen = np.random.default_rng(77)
    sets = (
        construct1(SystemConfig(t=24, levels=LEVELS24, seed=20240817)),
        construct2(SystemConfig(t=8, levels=LEVELS8), n=2, g=3, d=4),
    )
    checked = 0
    for hcs_set in sets:
        for _ in range(3):
            script = random_script(gen, hcs_set, frames=1000)
            state, audit, collisions = sac.run_script(hcs_set, script, alignment="global")
            assert collisions == []
            claims = [(row[0], row[1]) for row in audit]
            assert len(claims) == len(set(claims))
            got = [(e.frame, e.kind, e.user, e.level, e.sequence) for e in state.events]
            assert got == shadow_events(hcs_set, script)
            checked += 1
    print(
        f"PASS criterion 7: {checked} thousand-frame scripts ran collision-free "
        f"with FIFO hand-off"
    )


def test_criterion_08_interference_exposure():
    started = time.monotonic()
    hcs_set = construct2(SystemConfig(t=8, levels=LEVELS8), n=2, g=3, d=4)
    frames = 100_000
    fraction = interference_hit_fraction(HcsScheme(hcs_set), [2], frames=frames, t=8)
    sigma = math.sqrt(0.125 * 0.875 / (frames * 4))
    assert abs(fraction - 0.125) <= 3 * sigma
    fixed = interference_hit_fraction(FixedScheme((0, 2, 4, 5)), [2], frames=frames, t=8)
    assert fixed == 0.25
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"PASS criterion 8: hopping exposure {fraction:.5f} within 3 sigma of 1/8, "
        f"fixed exposure exactly 0.25 ({elapsed:.2f}s)"
    )


def test_criterion_09_ser_advantage():
    hcs_set = construct2(SystemConfig(t=8, levels=LEVELS8), n=2, g=3, d=4)
    common = dict(
        t=8,
        interference_slots=(2,),
        symbols_per_slot=16,
        frames=100_000,
        seed=20250823,
    )
    deltas = {}
    for power in (10.0, 15.0):
        report = compare_schemes(
            SimConfig(
                scheme=FixedScheme((0, 2, 4, 5)),
                snr_db=(10.0,),
                interference_power_db=power,
                **common,
            ),
            SimConfig(
                scheme=HcsScheme(hcs_set),
                snr_db=(10.0,),
                interference_power_db=power,
                **common,
            ),
        )
        deltas[power] = report.rows[0].delta
    assert 0.04 <= deltas[10.0] <= 0.10
    assert 0.05 <= deltas[15.0] <= 0.11

    multi = dict(common)
    multi["interference_slots"] = (1, 4, 5)
    sweep = compare_schemes(
        SimConfig(scheme=FixedScheme((0, 2, 4, 5)), snr_db=(0.0, 5.0, 10.0, 14.0), **multi),
        SimConfig(scheme=HcsScheme(hcs_set), snr_db=(0.0, 5.0, 10.0, 14.0), **multi),
    )
    assert sweep.flagged == ()
    assert all(row.delta >= -3 * row.sigma for row in sweep.rows)
    print(
        f"PASS criterion 9: fixed-minus-hopping SER delta {deltas[10.0]:.4f} "
        f"(10 dB interferer) and {deltas[15.0]:.4f} (15 dB), hopping never worse "
        f"under multi-slot interference"
    )


def test_criterion_10_pipeline_reruns_byte_identical(tmp_path, capsys, monkeypatch):
    stages = [
        ["gen1", "--t", "24", "--levels", "2:3,3:4,6:1", "--seed", "11", "--out", "set1.json"],
        [
            "gen2",
            "--t",
            "8",
            "--levels",
            "1:1,3:1,4:1",
            "--rounds",
            "2",
            "--g",
            "3",
            "--d",
            "4",
            "--out",
            "set2.json",
        ],
        ["verify", "set1.json", "--out", "report1.json"],
        ["verify", "set2.json", "--out", "report2.json"],
        ["bound", "--t", "24", "--levels", "2:3,3:4,6:1", "--out", "bound.json"],
        ["enumerate", "--t", "24", "--r", "1,2,6", "--out", "lattice.csv"],
        ["sac-trace", "--set", "set1.json", "--script", "script.json", "--out", "trace.json"],
        [
            "simulate",
            "--set",
            "set2.json",
            "--interference",
            "2",
            "--snr",
            "0:10:5",
            "--frames",
            "2048",
            "--symbols-per-slot",
            "4",
            "--seed",
            "9",
            "--out",
            "curve.csv",
        ],
    ]
    script = [
        {"frame": 0, "action": "join", "user": "A", "level": 2},
        {"frame": 4, "action": "join", "user": "B", "level": 2},
        {"frame": 9, "action": "leave", "user": "A"},
    ]
    digests = []
    for run in ("first", "second"):
        base = tmp_path / run
        base.mkdir()
        monkeypatch.chdir(base)
        (base / "script.json").write_text(json.dumps(script))
        (base / "plan.json").write_text(json.dumps({"stages": stages}))
        assert dispatch(["pipeline", "plan.json"]) == 0
        capsys.readouterr()
        tree = {}
        for path in sorted(base.rglob("*")):
            if path.is_file() and not path.name.endswith(".manifest.json"):
                tree[str(path.relative_to(base))] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        digests.append(tree)
    assert set(digests[0]) == set(digests[1])
    assert digests[0] == digests[1]
    print(
        f"PASS criterion 10: {len(digests[0])} pipeline outputs byte-identical "
        f"across re-runs (manifests excluded)"
    )
