import math

import numpy as np
import pytest

from hcskit import (
    ConfigError,
    FixedScheme,
    HcsScheme,
    SimConfig,
    SystemConfig,
    compare_schemes,
    construct1,
    interference_hit_fraction,
    rng,
    simulate_ser,
    simulator,
)
from hcskit.simulator import scenario_label

from conftest import remake_set


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def expected_ser(snr_db, hit_fraction=0.0, power_db=10.0):
    # hard-decision antipodal signalling; interfered slots add Gaussian power
    gamma = 10.0 ** (snr_db / 10.0)
    n0 = 1.0 / gamma
    clean = qfunc(math.sqrt(2.0 * gamma))
    if hit_fraction == 0.0:
        return clean
    hit = qfunc(1.0 / math.sqrt(n0 / 2.0 + 10.0 ** (power_db / 10.0)))
    return (1.0 - hit_fraction) * clean + hit_fraction * hit


def mixture_moments(n_clean, n_hit, snr_db, power_db):
    # mean and variance of Bin(n_clean, p_clean) + Bin(n_hit, p_hit)
    p_clean = expected_ser(snr_db)
    p_hit = expected_ser(snr_db, hit_fraction=1.0, power_db=power_db)
    mean = n_clean * p_clean + n_hit * p_hit
    var = n_clean * p_clean * (1 - p_clean) + n_hit * p_hit * (1 - p_hit)
    return mean, var


def symbol_level_errors(config):
    """Error count per SNR point, drawing every bit and noise sample.

    The reference the binomial draw in simulate_ser must agree with in
    distribution: antipodal symbols, AWGN, and an independent Gaussian
    interferer added in interfered slots, with hard decisions.
    """
    slots = config.scheme.frame_slots(config.frames)
    shape = slots.shape + (config.symbols_per_slot,)
    hit_mask = np.isin(slots, config.interference_slots)[:, :, None]
    interference_std = math.sqrt(10.0 ** (config.interference_power_db / 10.0))
    errors = []
    for index, snr in enumerate(config.snr_db):
        gen = rng.substream(config.seed, rng.DOMAIN_SIMULATOR, index)
        noise_std = math.sqrt(10.0 ** (-snr / 10.0) / 2.0)
        bits = gen.integers(0, 2, size=shape, dtype=np.int8)
        received = (1.0 - 2.0 * bits) + gen.normal(0.0, noise_std, size=shape)
        received += gen.normal(0.0, interference_std, size=shape) * hit_mask
        errors.append(int(np.count_nonzero((received < 0.0) != (bits == 1))))
    return errors


class TestSchemes:
    def test_labels(self, set128):
        assert FixedScheme((0, 2, 4, 5)).label == "fixed[0-2-4-5]"
        assert HcsScheme(set128).label == "hcs-L128-level2-user0"
        assert HcsScheme(set128, level=1).label == "hcs-L128-level1-user0"
        assert scenario_label((), 10.0) == "clean"
        assert scenario_label((2,), 10.0) == "I=2@10dB"
        assert scenario_label((1, 4), 12.5) == "I=1-4@12.5dB"

    def test_fixed_scheme_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            FixedScheme(())
        with pytest.raises(ValueError, match="distinct"):
            FixedScheme((1, 1))
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            FixedScheme((8,)).validate(8)

    def test_hcs_scheme_validation(self, set24, set128):
        with pytest.raises(ValueError, match="built for 24 slots"):
            HcsScheme(set24).validate(8)
        with pytest.raises(ValueError):
            HcsScheme(set128, level=5).validate(8)

    def test_cycled_frame_slots(self, set32):
        scheme = HcsScheme(set32)
        table = scheme.frame_slots(70)
        assert table.shape == (70, 4)
        base = set32.sequence(2, 0).frames
        assert np.array_equal(table[:32], base)
        assert np.array_equal(table[32:64], base)
        assert np.array_equal(table[64], base[0])

    def test_sim_config_validation(self, set128):
        scheme = FixedScheme((0,))
        with pytest.raises(ValueError, match="SNR"):
            SimConfig(t=8, scheme=scheme, snr_db=())
        with pytest.raises(ValueError, match="distinct"):
            SimConfig(t=8, scheme=scheme, snr_db=(10.0,), interference_slots=(1, 1))
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            SimConfig(t=8, scheme=scheme, snr_db=(10.0,), interference_slots=(8,))
        with pytest.raises(ValueError, match="positive"):
            SimConfig(t=8, scheme=scheme, snr_db=(10.0,), frames=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snr_db", float("nan")),
            ("snr_db", float("inf")),
            ("snr_db", 1e4),
            ("snr_db", True),
            ("snr_db", "5"),
            ("interference_power_db", 1e308),
            ("interference_power_db", -1e308),
            ("interference_power_db", 10**400),
            ("interference_power_db", float("nan")),
        ],
    )
    def test_db_values_must_be_finite_powers(self, field, value):
        what = {"snr_db": "SNR point", "interference_power_db": "interference power"}[field]
        kw = {"snr_db": (value,)} if field == "snr_db" else {field: value}
        with pytest.raises(ConfigError) as err:
            SimConfig(**{"t": 8, "scheme": FixedScheme((0,)), "snr_db": (0.0,), **kw})
        assert str(err.value) == (
            f"{what} must be a finite dB value whose power ratio fits a float, got {value!r}"
        )

    def test_extreme_but_finite_db_values_simulate(self):
        curve = simulate_ser(
            SimConfig(t=8, scheme=FixedScheme((0,)), snr_db=(-3000, 3000), frames=10,
                      interference_slots=(0,), interference_power_db=3000.0)
        )
        assert [p.ser for p in curve.points] == pytest.approx([0.5, 0.5], abs=0.2)


class TestHitFraction:
    def test_fixed_scheme_exact(self):
        scheme = FixedScheme((0, 2, 4, 5))
        assert interference_hit_fraction(scheme, [2], frames=1000, t=8) == 0.25
        assert interference_hit_fraction(scheme, [2, 4], frames=1000, t=8) == 0.5
        assert interference_hit_fraction(scheme, [1], frames=1000, t=8) == 0.0

    def test_modular_set_exact_over_cycles(self, set128):
        scheme = HcsScheme(set128)
        for frames in (128, 256, 1024):
            assert interference_hit_fraction(scheme, [2], frames=frames, t=8) == 0.125
        assert interference_hit_fraction(scheme, [2, 5], frames=128) == 0.25

    def test_permutation_set_ensemble_mean(self):
        # a single sequence's rate over one cycle wobbles around 1/8 with the
        # seeded drivers; the average across seeds has to settle on it
        fractions = []
        for seed in range(40):
            built = construct1(SystemConfig(t=8, levels=((4, 2),), seed=seed))
            scheme = HcsScheme(built, level=0, user=0)
            fractions.append(interference_hit_fraction(scheme, [2], frames=32))
        mean = float(np.mean(fractions))
        # per-seed fraction is Binomial(32, 1/2)/128: sigma 0.0221 per seed
        sigma_mean = 0.0221 / math.sqrt(40)
        assert abs(mean - 0.125) < 3 * sigma_mean

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            interference_hit_fraction(FixedScheme((0,)), [0], frames=0)

    def test_interference_slots_follow_sim_config_rule(self):
        scheme = FixedScheme((0, 2))
        for slots in ((2.7,), (-6,), (True,)):
            with pytest.raises(ConfigError, match="interference slot must be"):
                interference_hit_fraction(scheme, slots, 10)
        with pytest.raises(ConfigError, match="distinct"):
            interference_hit_fraction(scheme, (2, 2), 10)
        with pytest.raises(ConfigError, match=r"must lie in \[0, 8\)"):
            interference_hit_fraction(scheme, (8,), 10, t=8)
        # without t the range is not known, and an unused slot is never hit
        assert interference_hit_fraction(scheme, (8,), 10) == 0.0

    def test_per_cycle_count_matches_tiled_table(self, set128, set32):
        # frame counts off the cycle lengths (1, 32, 128) leave a partial last cycle
        def stray_slots(index, frames):
            # an unverified set: negative slots, slots >= t, and a table of only negatives
            if index == 2:
                frames[::3, 0] = -1
                frames[1::5, 1] = 9
                frames[2::7, 3] = -(2**62)
            if index == 0:
                frames[:] = -4

        stray = remake_set(set128, stray_slots)
        schemes = (
            HcsScheme(set128),
            HcsScheme(set32, level=1),
            HcsScheme(stray),
            HcsScheme(stray, level=0),
            FixedScheme((0, 2, 4, 5)),
            FixedScheme((3, 2**40)),
        )
        for scheme in schemes:
            for frames in (1, 31, 33, 127, 300, 1000):
                tiled = scheme.frame_slots(frames)
                for slots in ((), (2,), (1, 4, 5), (3, 9), (2**40,)):
                    hit = int(np.isin(tiled, slots).sum())
                    assert simulator._exposure(scheme, slots, frames) == (hit, tiled.size)

    def test_slot_numbers_past_any_table(self):
        # neither the interfered slot nor a fixed one sizes a slot mask
        assert interference_hit_fraction(FixedScheme((0, 2)), (10**15,), 10) == 0.0
        assert interference_hit_fraction(FixedScheme((0, 10**15)), (10**15,), 10) == 0.5


class TestSimulatedSer:
    def test_clean_channel_matches_theory(self):
        cfg = SimConfig(
            t=8, scheme=FixedScheme((0,)), snr_db=(0.0, 4.0), frames=20_000, seed=7
        )
        curve = simulate_ser(cfg)
        for point in curve.points:
            want = expected_ser(point.snr_db)
            sigma = math.sqrt(want * (1 - want) / point.symbols_total)
            assert abs(point.ser - want) < 5 * sigma
        assert curve.scenario == "clean"

    def test_fully_interfered_slot(self):
        cfg = SimConfig(
            t=8,
            scheme=FixedScheme((0,)),
            snr_db=(10.0,),
            interference_slots=(0,),
            frames=20_000,
            seed=3,
        )
        point = simulate_ser(cfg).points[0]
        want = expected_ser(10.0, hit_fraction=1.0)
        sigma = math.sqrt(want * (1 - want) / point.symbols_total)
        assert abs(point.ser - want) < 5 * sigma

    def test_partial_interference_matches_mixture(self):
        cfg = SimConfig(
            t=8,
            scheme=FixedScheme((0, 2, 4, 5)),
            snr_db=(10.0,),
            interference_slots=(2,),
            symbols_per_slot=32,
            frames=20_000,
            seed=9,
        )
        point = simulate_ser(cfg).points[0]
        want = expected_ser(10.0, hit_fraction=0.25)
        sigma = math.sqrt(want * (1 - want) / point.symbols_total)
        assert abs(point.ser - want) < 5 * sigma

    def test_high_snr_clean_floor(self):
        cfg = SimConfig(
            t=8, scheme=FixedScheme((0,)), snr_db=(12.0,), frames=20_000, seed=1
        )
        assert simulate_ser(cfg).points[0].ser < 1e-4

    def test_monotone_in_snr(self):
        cfg = SimConfig(
            t=8,
            scheme=FixedScheme((0,)),
            snr_db=(0.0, 2.0, 4.0, 6.0),
            frames=20_000,
            seed=4,
        )
        sers = simulate_ser(cfg).sers()
        assert np.all(np.diff(sers) < 0)

    def test_negligible_interference_power(self):
        base = dict(t=8, scheme=FixedScheme((0,)), snr_db=(6.0,), frames=20_000, seed=2)
        clean = simulate_ser(SimConfig(**base)).points[0]
        faint = simulate_ser(
            SimConfig(**base, interference_slots=(0,), interference_power_db=-100.0)
        ).points[0]
        sigma = math.sqrt(clean.ser * (1 - clean.ser) / clean.symbols_total)
        assert abs(clean.ser - faint.ser) < 5 * sigma

    def test_bit_identical_reruns(self, set128):
        cfg = SimConfig(
            t=8,
            scheme=HcsScheme(set128),
            snr_db=(5.0, 10.0),
            interference_slots=(2,),
            symbols_per_slot=8,
            frames=4_000,
            seed=11,
        )
        first = simulate_ser(cfg)
        second = simulate_ser(cfg)
        assert [p.symbols_error for p in first.points] == [
            p.symbols_error for p in second.points
        ]

    def test_seed_changes_draws(self):
        base = dict(t=8, scheme=FixedScheme((0,)), snr_db=(0.0,), frames=5_000)
        a = simulate_ser(SimConfig(**base, seed=1)).points[0]
        b = simulate_ser(SimConfig(**base, seed=2)).points[0]
        assert a.symbols_error != b.symbols_error


class TestStreams:
    @pytest.mark.parametrize(
        "scheme, slots, power_db",
        [
            ("fixed", (), 10.0),
            ("fixed", (2,), 10.0),
            ("fixed", (0, 2, 4, 5), -10.0),
            ("hcs", (), 10.0),
            ("hcs", (2,), -10.0),
            ("hcs", (1, 4, 5), 15.0),
        ],
    )
    def test_each_point_draws_its_substream(self, set128, scheme, slots, power_db):
        # repeated SNR values give consecutive points the same (n, p), so a
        # generator kept across points reuses numpy's binomial set-up
        snr_db = (-3.0, -3.0, 4.0, 4.0, 8.0, 14.0, 14.0, 4.0)
        scheme = FixedScheme((0, 2, 4, 5)) if scheme == "fixed" else HcsScheme(set128)
        cfg = SimConfig(
            t=8, scheme=scheme, snr_db=snr_db, interference_slots=slots,
            interference_power_db=power_db, symbols_per_slot=8, frames=300, seed=2**64 - 5,
        )
        tiled = scheme.frame_slots(cfg.frames)
        n_hit = int(np.isin(tiled, slots).sum()) * cfg.symbols_per_slot
        n_clean = tiled.size * cfg.symbols_per_slot - n_hit
        interference_var = 10.0 ** (power_db / 10.0)
        want, np_draws = [], []
        for index, snr in enumerate(snr_db):
            gen = rng.substream(cfg.seed, rng.DOMAIN_SIMULATOR, index)
            n0 = 10.0 ** (-snr / 10.0)
            p_clean = 0.5 * math.erfc(1.0 / math.sqrt(n0))
            p_hit = 0.5 * math.erfc(1.0 / math.sqrt(n0 + 2.0 * interference_var))
            want.append(int(gen.binomial(n_clean, p_clean)) + int(gen.binomial(n_hit, p_hit)))
            np_draws += [n * p for n, p in ((n_clean, p_clean), (n_hit, p_hit)) if n]
        assert [p.symbols_error for p in simulate_ser(cfg).points] == want
        # numpy draws by inversion when n*p <= 30 and by BTPE above
        assert min(np_draws) <= 30 < max(np_draws)

    @pytest.mark.parametrize("schemes", [("fixed", "fixed"), ("fixed", "hcs"), ("hcs", "fixed")])
    def test_compare_arms_draw_their_substreams(self, set128, schemes):
        # one generator serves both arms: arm A's last point and arm B's first
        # share an SNR value, so with equal schemes they share (n, p) and numpy's
        # binomial set-up carries over from one arm's stream to the other's
        snr_db = (4.0, -3.0, -3.0, 14.0, 4.0)
        seeds = (2**64 - 5, 17)
        configs = [
            SimConfig(
                t=8, scheme=FixedScheme((0, 2, 4, 5)) if kind == "fixed" else HcsScheme(set128),
                snr_db=snr_db, interference_slots=(2, 5), interference_power_db=10.0,
                symbols_per_slot=8, frames=300, seed=seed,
            )
            for kind, seed in zip(schemes, seeds)
        ]
        rows = compare_schemes(*configs).rows
        for cfg, sers in zip(configs, ([r.ser_a for r in rows], [r.ser_b for r in rows])):
            tiled = cfg.scheme.frame_slots(cfg.frames)
            total = tiled.size * cfg.symbols_per_slot
            n_hit = int(np.isin(tiled, cfg.interference_slots).sum()) * cfg.symbols_per_slot
            want = []
            for index, snr in enumerate(snr_db):
                gen = rng.substream(cfg.seed, rng.DOMAIN_SIMULATOR, index)
                n0 = 10.0 ** (-snr / 10.0)
                p_clean = 0.5 * math.erfc(1.0 / math.sqrt(n0))
                p_hit = 0.5 * math.erfc(1.0 / math.sqrt(n0 + 2.0 * 10.0))  # 10 dB interferer
                errors = int(gen.binomial(total - n_hit, p_clean))
                want.append(errors + int(gen.binomial(n_hit, p_hit)))
            assert sers == [errors / total for errors in want]
            curve = simulate_ser(cfg)
            assert [p.symbols_error for p in curve.points] == want
            assert sers == [p.ser for p in curve.points]


class TestSymbolLevelOracle:
    def test_binomial_draw_matches_symbol_level(self, set128):
        # 300 frames is not a whole number of 128-frame cycles
        base = dict(
            t=8,
            scheme=HcsScheme(set128),
            snr_db=(0.0, 4.0),
            interference_slots=(2,),
            symbols_per_slot=8,
            frames=300,
        )
        seeds = range(40)
        binomial = np.array(
            [[p.symbols_error for p in simulate_ser(SimConfig(**base, seed=s)).points] for s in seeds]
        )
        # the oracle runs on other seeds, so the two samples are independent
        oracle = np.array([symbol_level_errors(SimConfig(**base, seed=10_000 + s)) for s in seeds])
        slots = base["scheme"].frame_slots(base["frames"])
        n_hit = int(np.isin(slots, base["interference_slots"]).sum()) * 8
        n_clean = slots.size * 8 - n_hit
        for k, snr in enumerate(base["snr_db"]):
            mean, var = mixture_moments(n_clean, n_hit, snr, 10.0)
            # sigma of a 40-seed mean; the difference of two such means has sqrt(2) sigma
            sigma = math.sqrt(var / len(seeds))
            assert abs(binomial[:, k].mean() - mean) < 4 * sigma
            assert abs(oracle[:, k].mean() - mean) < 4 * sigma
            assert abs(binomial[:, k].mean() - oracle[:, k].mean()) < 4 * math.sqrt(2) * sigma


class TestComparison:
    def test_same_scheme_zero_delta(self, set128):
        cfg = SimConfig(
            t=8,
            scheme=HcsScheme(set128),
            snr_db=(5.0, 10.0),
            interference_slots=(2,),
            symbols_per_slot=8,
            frames=4_000,
            seed=6,
        )
        report = compare_schemes(cfg, cfg)
        assert all(row.delta == 0.0 for row in report.rows)
        assert report.flagged == ()
        assert report.max_delta == 0.0

    def test_scenario_mismatch_rejected(self, set128):
        scheme = HcsScheme(set128)
        a = SimConfig(t=8, scheme=scheme, snr_db=(5.0,), frames=1_000)
        b = SimConfig(t=8, scheme=scheme, snr_db=(5.0,), frames=2_000)
        with pytest.raises(ValueError, match="frames differs"):
            compare_schemes(a, b)

    def test_fixed_scheme_suffers_more(self, set128):
        # pinned slots keep taking hits; the cycled sequence spreads them out
        common = dict(
            t=8,
            snr_db=(10.0,),
            interference_slots=(2,),
            symbols_per_slot=16,
            frames=16_384,
            seed=13,
        )
        report = compare_schemes(
            SimConfig(scheme=FixedScheme((0, 2, 4, 5)), **common),
            SimConfig(scheme=HcsScheme(set128), **common),
        )
        row = report.rows[0]
        assert row.delta > 0.03
        assert not row.b_exceeds_a

    def test_sequence_length_does_not_matter(self, set128, set32):
        # both cycled sets give the same 1/8 exposure; lengths 128 and 32
        # must land within Monte-Carlo noise of each other
        common = dict(
            t=8,
            snr_db=(5.0, 10.0),
            interference_slots=(2,),
            symbols_per_slot=16,
            frames=16_384,
            seed=8,
        )
        report = compare_schemes(
            SimConfig(scheme=HcsScheme(set128), **common),
            SimConfig(scheme=HcsScheme(set32), **common),
        )
        for row in report.rows:
            assert abs(row.delta) < 5 * row.sigma
        assert report.flagged == ()
