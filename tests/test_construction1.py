import itertools
from math import factorial

import numpy as np
import pytest

from hcskit import ConfigError, DriverSequences, SystemConfig, construct1, verify
from hcskit.construction1 import (
    MAX_GROUP_SIZE,
    cons1_params,
    derive_drivers,
    unrank_permutation,
    unrank_permutations,
)
from hcskit.core import slot_dtype


# ---------------------------------------------------------------------------
# scalar form of the construction: the oracle construct1 must match


def reference_unrank(gamma: int, m: int) -> tuple[int, ...]:
    """The rank-gamma permutation: pop factorial-base digits off a list."""
    avail = list(range(m))
    out = []
    g = int(gamma)
    for i in range(m - 1, -1, -1):
        d, g = divmod(g, factorial(i))
        out.append(avail.pop(d))
    return tuple(out)


def reference_construct1(config, drivers) -> list[np.ndarray]:
    """construct1's slot tables, one (user, run) column at a time."""
    params = cons1_params(config)
    length = config.t * params.R
    # one decoded permutation row per frame; ranks repeat, so each is decoded once
    ranks, which = np.unique(drivers.selector, return_inverse=True)
    table = np.array([reference_unrank(int(g), params.m) for g in ranks], dtype=np.int64)
    perm_rows = table[which]

    frame_idx = np.arange(length)
    tables = []
    for i, lv in enumerate(config.levels):
        eta = params.eta[i]
        om = params.omega[i]
        base = np.asarray(drivers.level_base[i], dtype=np.int64)
        for j in range(lv.u):
            eps = j % eta
            group = j // eta
            frames = np.empty((length, lv.r), dtype=np.int64)
            for theta in range(lv.r):
                block = (base + eps) % eta + theta * eta
                pos = (block + om + group) % params.m
                frames[:, theta] = perm_rows[frame_idx, pos] + block * params.m
            tables.append(frames)
    return tables


def divisors(x: int) -> list[int]:
    return [v for v in range(1, x + 1) if x % v == 0]


def random_roster(gen, t: int) -> tuple[tuple[int, int], ...]:
    """A random roster construct1 accepts on a t-slot frame.

    The largest demand R divides t with t/R <= MAX_GROUP_SIZE, every demand
    divides R, and every level below the top loads a multiple of R slots,
    so the load is at most t/R chunks of R slots.
    """
    R = int(gen.choice([r for r in divisors(t) if t // r <= MAX_GROUP_SIZE]))
    below = [r for r in divisors(R) if r < R]
    picked = sorted(gen.choice(below, size=int(gen.integers(0, len(below) + 1)), replace=False))
    demands = [int(r) for r in picked] + [R]
    chunks = gen.multinomial(int(gen.integers(1, t // R + 1)), [1 / len(demands)] * len(demands))
    levels = [(r, int(c) * (R // r)) for r, c in zip(demands[:-1], chunks)]
    return tuple(levels) + ((R, int(chunks[-1])),)


def assert_same_tables(built, expected):
    assert [(s.level, s.user) for s in built.sequences] == [
        (i, j) for i, lv in enumerate(built.config.levels) for j in range(lv.u)
    ]
    assert len(built.sequences) == len(expected)
    for s, frames in zip(built.sequences, expected):
        assert s.frames.dtype == slot_dtype(built.t)
        assert np.array_equal(s.frames, frames), (s.level, s.user)


def zero_drivers(config, params):
    length = config.t * params.R
    return DriverSequences(
        selector=np.zeros(length, dtype=np.uint64),
        level_base=tuple(np.zeros(length, dtype=np.int64) for _ in params.eta),
    )


class TestUnrankPermutation:
    def test_full_table_matches_itertools(self):
        # itertools.permutations over sorted input emits lexicographic order
        table = [unrank_permutation(g, 4) for g in range(24)]
        assert table == list(itertools.permutations(range(4)))

    def test_spot_ranks(self):
        assert unrank_permutation(0, 4) == (0, 1, 2, 3)
        assert unrank_permutation(1, 4) == (0, 1, 3, 2)
        assert unrank_permutation(6, 4) == (1, 0, 2, 3)
        assert unrank_permutation(23, 4) == (3, 2, 1, 0)

    def test_bijective_for_small_groups(self):
        import math

        for m in (1, 2, 3, 5):
            seen = {unrank_permutation(g, m) for g in range(math.factorial(m))}
            assert len(seen) == math.factorial(m)

    def test_batched_decode_matches_reference_for_small_groups(self):
        for m in range(1, 7):
            ranks = np.arange(factorial(m), dtype=np.uint64)
            expected = [reference_unrank(g, m) for g in range(factorial(m))]
            assert [tuple(row) for row in unrank_permutations(ranks, m).tolist()] == expected
            assert [unrank_permutation(g, m) for g in range(factorial(m))] == expected

    def test_batched_decode_matches_reference_at_twenty(self):
        m = MAX_GROUP_SIZE
        gen = np.random.default_rng(20)
        ranks = np.concatenate([
            np.array([0, factorial(m) - 1], dtype=np.uint64),
            gen.integers(0, factorial(m), size=1000, dtype=np.uint64),
        ])
        decoded = unrank_permutations(ranks, m)
        for g, row in zip(ranks.tolist(), decoded.tolist()):
            assert tuple(row) == reference_unrank(g, m) == unrank_permutation(g, m)
        assert decoded[1].tolist() == list(range(m - 1, -1, -1))

    def test_groups_past_twenty_decode_with_python_ints(self):
        for m, gamma in ((21, factorial(21) - 1), (25, 10**24 + 7)):
            assert unrank_permutation(gamma, m) == reference_unrank(gamma, m)

    def test_rank_range_errors(self):
        with pytest.raises(ValueError, match=r"\[0, 24\)"):
            unrank_permutation(24, 4)
        with pytest.raises(ValueError):
            unrank_permutation(-1, 4)
        with pytest.raises(ValueError, match="positive"):
            unrank_permutation(0, 0)


class TestParams:
    def test_derived_values_for_24_slot_corpus(self, cfg24):
        p = cons1_params(cfg24)
        assert (p.R, p.m) == (6, 4)
        assert p.eta == (3, 2, 1)
        assert p.omega == (0, 1, 3)

    def test_block_count_must_divide_frame(self):
        with pytest.raises(ConfigError, match="divide the frame size"):
            cons1_params(SystemConfig(t=10, levels=((4, 1),)))

    def test_demands_must_divide_largest(self):
        with pytest.raises(ConfigError, match="divide the largest demand"):
            cons1_params(SystemConfig(t=24, levels=((4, 1), (6, 1))))

    def test_over_capacity_rejected(self):
        with pytest.raises(ConfigError, match="claims 12 slots"):
            cons1_params(SystemConfig(t=8, levels=((4, 3),)))

    def test_block_size_limit(self):
        with pytest.raises(ConfigError, match="overflow"):
            cons1_params(SystemConfig(t=42, levels=((2, 1),)))

    def test_prefix_load_alignment(self):
        with pytest.raises(ConfigError, match="multiple of"):
            cons1_params(SystemConfig(t=24, levels=((2, 1), (6, 1))))


class TestDrivers:
    def test_deterministic_per_seed(self, cfg24):
        a = derive_drivers(cfg24)
        b = derive_drivers(cfg24)
        assert np.array_equal(a.selector, b.selector)
        for x, y in zip(a.level_base, b.level_base):
            assert np.array_equal(x, y)

    def test_seeds_diverge(self, cfg24):
        other = SystemConfig(t=cfg24.t, levels=cfg24.levels, seed=cfg24.seed + 1)
        a = derive_drivers(cfg24)
        b = derive_drivers(other)
        assert not np.array_equal(a.selector, b.selector)

    def test_ranges(self, cfg24):
        p = cons1_params(cfg24)
        d = derive_drivers(cfg24, p)
        assert d.selector.shape == (144,)
        assert int(d.selector.max()) < 24
        for base, eta in zip(d.level_base, p.eta):
            assert base.shape == (144,)
            assert 0 <= int(base.min()) and int(base.max()) < eta

    def test_injected_driver_validation(self, cfg24):
        p = cons1_params(cfg24)
        good = zero_drivers(cfg24, p)
        with pytest.raises(ConfigError, match="selector stream"):
            construct1(cfg24, DriverSequences(good.selector[:-1], good.level_base))
        with pytest.raises(ConfigError, match=r"selector entries"):
            bad_sel = good.selector.copy()
            bad_sel[0] = 24
            construct1(cfg24, DriverSequences(bad_sel, good.level_base))
        with pytest.raises(ConfigError, match="base streams"):
            construct1(cfg24, DriverSequences(good.selector, good.level_base[:2]))
        with pytest.raises(ConfigError, match=r"level 1 base entries"):
            bad = tuple(b.copy() for b in good.level_base)
            bad[1][3] = 2
            construct1(cfg24, DriverSequences(good.selector, bad))


class TestConstruct:
    def test_shape_of_24_slot_corpus(self, set24):
        assert set24.length == 144
        assert len(set24.sequences) == 8
        assert set24.t == 24
        assert set24.provenance["kind"] == "c1"
        assert set24.provenance["params"]["seed"] == 20240817

    def test_zero_driver_placements(self, cfg24):
        # hand-derived block placements with identity permutation and zero
        # base offsets in every frame
        p = cons1_params(cfg24)
        built = construct1(cfg24, zero_drivers(cfg24, p))
        assert built.sequence(0, 0).frame(0) == (0, 15)
        assert built.sequence(1, 2).frame(0) == (2, 8, 18)
        assert built.sequence(2, 0).frame(0) == (3, 4, 9, 14, 19, 20)
        assert built.provenance["params"]["drivers"] == "injected"
        # constant drivers make every frame identical
        for s in built.sequences:
            assert np.all(s.frames == s.frames[0])

    def test_shifted_family_blocks(self, set24):
        # users sharing a position group differ by consecutive block offsets
        p = cons1_params(set24.config)
        for level, pairs in ((0, [(0, 1), (1, 2)]), (1, [(0, 1), (2, 3)])):
            eta = p.eta[level]
            for j0, j1 in pairs:
                # in int64: a difference of narrow unsigned tables would wrap
                b0 = set24.sequence(level, j0).frames.astype(np.int64) // p.m % eta
                b1 = set24.sequence(level, j1).frames.astype(np.int64) // p.m % eta
                assert np.all((b1 - b0) % eta == 1)

    def test_verifies_across_seeds(self):
        for seed in (0, 1, 7, 991, 2**40):
            cfg = SystemConfig(t=24, levels=((2, 3), (3, 4), (6, 1)), seed=seed)
            report = verify(construct1(cfg))
            assert report.passed, report.to_dict()

    def test_sub_saturated_roster(self):
        cfg = SystemConfig(t=24, levels=((2, 3), (6, 2)), seed=3)
        built = construct1(cfg)
        assert built.length == 144
        assert verify(built).passed

    def test_single_block_degenerate(self):
        # t == R means one position per block: frames are forced to
        # (0, 1, ..., t-1) regardless of the drivers
        cfg = SystemConfig(t=4, levels=((4, 1),), seed=9)
        built = construct1(cfg)
        assert np.all(built.sequence(0, 0).frames == np.arange(4))

    @pytest.mark.parametrize("t", [4, 24, 120, 240])
    def test_matches_reference_on_random_rosters(self, t):
        gen = np.random.default_rng(t)
        for _ in range(4):
            cfg = SystemConfig(t=t, levels=random_roster(gen, t), seed=int(gen.integers(2**40)))
            built = construct1(cfg)
            assert_same_tables(built, reference_construct1(cfg, derive_drivers(cfg)))
            assert verify(built).passed

    def test_matches_reference_with_extreme_selector_ranks(self):
        # m = 20: ranks 0 (identity) and 20! - 1 (reversal) sit at the ends of uint64 use
        cfg = SystemConfig(t=240, levels=((1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (12, 10)))
        params = cons1_params(cfg)
        assert params.m == MAX_GROUP_SIZE
        length = cfg.t * params.R
        gen = np.random.default_rng(3)
        selector = np.where(np.arange(length) % 3 == 0, 0, factorial(params.m) - 1)
        selector[1::3] = gen.integers(0, factorial(params.m), size=len(selector[1::3]))
        drivers = DriverSequences(
            selector=selector.astype(np.uint64),
            level_base=tuple(gen.integers(0, eta, size=length) for eta in params.eta),
        )
        built = construct1(cfg, drivers)
        assert_same_tables(built, reference_construct1(cfg, drivers))
        assert verify(built).passed

    def test_rebuild_is_identical(self, cfg24, set24):
        again = construct1(cfg24)
        for s, q in zip(set24.sequences, again.sequences):
            assert np.array_equal(s.frames, q.frames)
