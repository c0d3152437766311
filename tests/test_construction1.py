import itertools

import numpy as np
import pytest

from hcskit import ConfigError, DriverSequences, SystemConfig, construct1, verify
from hcskit.construction1 import cons1_params, derive_drivers, unrank_permutation


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
                b0 = set24.sequence(level, j0).frames // p.m % eta
                b1 = set24.sequence(level, j1).frames // p.m % eta
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

    def test_rebuild_is_identical(self, cfg24, set24):
        again = construct1(cfg24)
        for s, q in zip(set24.sequences, again.sequences):
            assert np.array_equal(s.frames, q.frames)
