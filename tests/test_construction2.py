import math
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from hcskit import ConfigError, SystemConfig, construct2, construction2, core, verify
from hcskit.construction2 import (
    Cons2Params,
    cons2_params,
    find_generator,
    multiplicative_order,
)


# ---------------------------------------------------------------------------
# scalar form of the construction: the pointwise oracle construct2 must match


@dataclass(frozen=True)
class MixedRadixIndex:
    """Composite frame index: digits a = (a_n, ..., a_1) base d, then b0 base t."""

    a: tuple[int, ...]
    b0: int

    @classmethod
    def from_value(cls, value: int, d: int, n: int, t: int) -> "MixedRadixIndex":
        if d < 1 or n < 1 or t < 1:
            raise ValueError("d, n, t must all be positive")
        total = d**n * t
        if not 0 <= value < total:
            raise ValueError(f"index must lie in [0, {total}), got {value}")
        b0 = value % t
        q = value // t
        digits = []
        for _ in range(n):
            digits.append(q % d)
            q //= d
        return cls(a=tuple(reversed(digits)), b0=b0)

    def to_value(self, d: int, t: int) -> int:
        q = 0
        for digit in self.a:
            q = q * d + digit
        return q * t + self.b0


def evaluate_c(k: int, index: MixedRadixIndex, params: Cons2Params, t: int) -> int:
    """Row k's slot at the given composite index."""
    if not 0 <= k < t:
        raise ValueError(f"row must lie in [0, {t}), got {k}")
    if len(index.a) != params.n:
        raise ValueError(f"index has {len(index.a)} digits, construction uses {params.n}")
    e = sum(index.a) % params.d
    return pow(params.g, e, t) * (k + index.a[-1] + index.b0) % t


def random_roster(gen, t):
    """Strictly increasing demands with user counts whose load fits in t."""
    levels, load, r = [], 0, 0
    while True:
        r += int(gen.integers(1, 4))
        if load + r > t:
            break
        u = int(gen.integers(1, (t - load) // r + 1))
        levels.append((r, u))
        load += r * u
        if gen.random() < 0.3:
            break
    return tuple(levels) or ((1, 1),)


def assert_matches_evaluator(built, gen, samples=10):
    """Every slot of ``samples`` random frames (and the first and last) of each
    sequence equals the pointwise evaluator's value."""
    cfg = built.config
    params = cons2_params(cfg, n=built.provenance["params"]["n"],
                          g=built.provenance["params"]["g"], d=built.provenance["params"]["d"])
    frames = [0, built.length - 1, *gen.integers(0, built.length, size=samples).tolist()]
    for s in built.sequences:
        first_row = params.omega2[s.level] + s.user * s.slots_per_frame
        for v in frames:
            idx = MixedRadixIndex.from_value(v, d=params.d, n=params.n, t=cfg.t)
            expected = [evaluate_c(first_row + col, idx, params, cfg.t)
                        for col in range(s.slots_per_frame)]
            assert s.frames[v].tolist() == expected, (s.level, s.user, v)


def order_oracle(g, t):
    # independent of the loop in the implementation: probe builtin modpow
    return min(e for e in range(1, t + 1) if pow(g, e, t) == 1)


def brute_force_order(g, t):
    # the order search as first written: one multiplication at a time
    x, d = g % t, 1
    while x != 1:
        x = x * g % t
        d += 1
    return d


def brute_force_generator(t):
    # the generator search as first written: every unit's order is computed
    best_g, best_d = 1, 1
    for g in range(1, t):
        if math.gcd(g, t) == 1:
            d = brute_force_order(g, t)
            if d > best_d:
                best_g, best_d = g, d
    return best_g, best_d


class TestOrderAndGenerator:
    def test_known_orders(self):
        assert multiplicative_order(3, 7) == 6
        assert multiplicative_order(3, 8) == 2
        assert multiplicative_order(2, 5) == 4
        for t in (2, 5, 9, 16):
            assert multiplicative_order(1, t) == 1

    def test_order_matches_oracle_sweep(self):
        for t in range(2, 40):
            for g in range(1, t):
                if math.gcd(g, t) != 1:
                    continue
                assert multiplicative_order(g, t) == order_oracle(g, t)

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        for t in (7, 8, 15, 31, 36):
            for g in range(1, t):
                if math.gcd(g, t) == 1:
                    assert multiplicative_order(g, t) == sympy.n_order(g, t)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="not a unit"):
            multiplicative_order(2, 8)
        with pytest.raises(ValueError, match="at least 2"):
            multiplicative_order(1, 1)

    def test_find_generator_values(self):
        assert find_generator(7) == (3, 6)
        assert find_generator(8) == (3, 2)
        assert find_generator(5) == (2, 4)
        assert find_generator(12) == (5, 2)

    def test_find_generator_needs_a_modulus_of_two(self):
        with pytest.raises(ValueError, match="modulus must be at least 2, got 1"):
            find_generator(1)

    def test_find_generator_is_smallest_of_max_order(self):
        for t in range(2, 31):
            g, d = find_generator(t)
            orders = {
                u: order_oracle(u, t) for u in range(1, t) if math.gcd(u, t) == 1
            }
            assert d == max(orders.values())
            assert g == min(u for u, o in orders.items() if o == d)

    def test_searches_match_the_brute_force_loop(self):
        # every t below 100, plus prime powers, 2**k and products of small primes,
        # where lambda(t) is below the unit-group size
        for t in [*range(2, 100), 128, 243, 256, 343, 512, 720, 1001, 1024]:
            assert find_generator(t) == brute_force_generator(t), t
            for g in range(1, min(t, 60)):
                if math.gcd(g, t) == 1:
                    assert multiplicative_order(g, t) == brute_force_order(g, t)

    def test_generator_search_stops_at_the_largest_order(self, monkeypatch):
        # 3 generates the units of the prime 4001, so no unit past it is tried
        searched = []

        def order(unit, t):
            searched.append(unit)
            return multiplicative_order(unit, t)

        monkeypatch.setattr(construction2, "multiplicative_order", order)
        assert find_generator(4001) == (3, 4000)
        assert searched == [1, 2, 3]


class TestMixedRadixIndex:
    def test_round_trip_full_range(self):
        for v in range(4**2 * 8):
            idx = MixedRadixIndex.from_value(v, d=4, n=2, t=8)
            assert idx.to_value(4, 8) == v

    def test_digit_split(self):
        idx = MixedRadixIndex.from_value(93, d=4, n=2, t=8)
        assert idx.a == (2, 3)
        assert idx.b0 == 5

    def test_random_radix_round_trip(self):
        gen = np.random.default_rng(7)
        for _ in range(60):
            d = int(gen.integers(1, 7))
            n = int(gen.integers(1, 5))
            t = int(gen.integers(1, 20))
            v = int(gen.integers(0, d**n * t))
            idx = MixedRadixIndex.from_value(v, d=d, n=n, t=t)
            assert all(0 <= digit < d for digit in idx.a) or d == 1
            assert 0 <= idx.b0 < t
            assert idx.to_value(d, t) == v

    def test_range_errors(self):
        with pytest.raises(ValueError, match=r"\[0, 128\)"):
            MixedRadixIndex.from_value(128, d=4, n=2, t=8)
        with pytest.raises(ValueError):
            MixedRadixIndex.from_value(-1, d=4, n=2, t=8)
        with pytest.raises(ValueError, match="positive"):
            MixedRadixIndex.from_value(0, d=0, n=2, t=8)


class TestEvaluate:
    PARAMS = Cons2Params(g=3, d=4, n=2, omega2=(0, 1, 4))

    def test_point_values(self):
        p = self.PARAMS
        assert evaluate_c(0, MixedRadixIndex(a=(0, 0), b0=5), p, 8) == 5
        # one round in: multiplier 3, shift includes the low digit
        assert evaluate_c(0, MixedRadixIndex(a=(0, 1), b0=2), p, 8) == (3 * 3) % 8
        assert evaluate_c(4, MixedRadixIndex(a=(0, 0), b0=0), p, 8) == 4

    def test_each_index_permutes_rows(self):
        p = self.PARAMS
        gen = np.random.default_rng(11)
        for _ in range(25):
            v = int(gen.integers(0, 4**2 * 8))
            idx = MixedRadixIndex.from_value(v, d=4, n=2, t=8)
            column = [evaluate_c(k, idx, p, 8) for k in range(8)]
            assert sorted(column) == list(range(8))

    def test_errors(self):
        p = self.PARAMS
        with pytest.raises(ValueError, match="row"):
            evaluate_c(8, MixedRadixIndex(a=(0, 0), b0=0), p, 8)
        with pytest.raises(ValueError, match="digits"):
            evaluate_c(0, MixedRadixIndex(a=(0,), b0=0), p, 8)


class TestParams:
    def test_true_order_derives_everything(self, cfg8):
        p = cons2_params(cfg8, n=2)
        assert (p.g, p.d) == (3, 2)
        assert p.omega2 == (0, 1, 4)

    def test_compat_accepts_overstated_modulus(self, cfg8):
        p = cons2_params(cfg8, n=2, g=3, d=4)
        assert (p.g, p.d) == (3, 4)

    def test_modulus_requires_unit(self, cfg8):
        with pytest.raises(ConfigError, match="needs an explicit unit g"):
            cons2_params(cfg8, n=2, d=4)

    def test_non_unit_multiplier(self, cfg8):
        with pytest.raises(ConfigError, match="not a unit"):
            cons2_params(cfg8, n=2, g=2)
        with pytest.raises(ConfigError, match="not a unit"):
            cons2_params(cfg8, n=2, g=2, d=3)

    def test_small_frame_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            cons2_params(SystemConfig(t=1, levels=((1, 1),)), n=1)

    def test_round_count_validation(self, cfg8):
        with pytest.raises(ConfigError, match="positive int"):
            cons2_params(cfg8, n=0)
        with pytest.raises(ConfigError, match="positive int"):
            cons2_params(cfg8, n="2")

    def test_over_capacity(self):
        with pytest.raises(ConfigError, match="claims"):
            cons2_params(SystemConfig(t=8, levels=((3, 3),)), n=1)

    def test_length_guard(self, cfg8):
        with pytest.raises(ConfigError, match="guard"):
            cons2_params(cfg8, n=4, g=3, d=100)
        # 3**4000000 would take seconds to build and cannot be printed
        with pytest.raises(ConfigError, match=r"d\^n\*t = 3\^4000000\*8 exceeds"):
            cons2_params(cfg8, n=4_000_000, g=3, d=3)

    @pytest.mark.parametrize("g", [None, 2], ids=["derived", "explicit"])
    def test_length_guard_stops_the_order_search(self, monkeypatch, g):
        # a derived g's order is lambda(100003) = 100002, known before any unit
        # is searched; an explicit g's order is computed once, and 2's is 100002
        searched = []

        def order(unit, t):
            searched.append(unit)
            return multiplicative_order(unit, t)

        monkeypatch.setattr(construction2, "multiplicative_order", order)
        cfg = SystemConfig(t=100003, levels=((1, 1),))
        with pytest.raises(ConfigError, match=r"d\^n\*t = 100002\^1\*100003 exceeds"):
            construct2(cfg, n=1, g=g)
        assert searched == ([] if g is None else [2])

    @pytest.mark.parametrize("budget", [300, 5000, 20_000_000])
    def test_guard_and_params_match_brute_force(self, monkeypatch, budget):
        # refused exactly when the brute-force d gives claim cells d^n*t*t over
        # the budget, and otherwise the brute-force (g, d): g derived, or each
        # unit g < 12 with d derived or given
        monkeypatch.setattr(core, "SET_CELL_BUDGET", budget)
        got, want = [], []
        for t in range(2, 260):
            cfg = SystemConfig(t=t, levels=((1, 1),))
            units = [u for u in range(1, min(t, 12)) if math.gcd(u, t) == 1]
            cases = [(None, None, *brute_force_generator(t))] + [
                (g, d, g, brute_force_order(g, t) if d is None else d)
                for g in units
                for d in (None, 1, 2, 7)
            ]
            for n in (1, 2, 3, 5, 40):
                for g, d, g_want, d_want in cases:
                    try:
                        p = cons2_params(cfg, n, g=g, d=d)
                        got.append((t, n, g, d, p.g, p.d))
                    except ConfigError as exc:
                        got.append((t, n, g, d, str(exc)))
                    if d_want**n * t * t > budget:
                        want.append((t, n, g, d, (
                            f"sequence length d^n*t = {d_want}^{n}*{t} exceeds the "
                            f"{budget // t}-frame guard; pick fewer rounds or a smaller-order unit"
                        )))
                    else:
                        want.append((t, n, g, d, g_want, d_want))
        assert len(got) == 37_490
        assert got == want


class TestConstruct:
    def test_compat_corpus_shape(self, set128):
        assert set128.length == 128
        assert len(set128.sequences) == 3
        assert set128.provenance == {
            "kind": "c2",
            "params": {"g": 3, "d": 4, "n": 2, "mode": "compat"},
        }

    def test_compat_corpus_values(self, set128):
        s00 = set128.sequence(0, 0)
        # the single-slot user walks the plain cyclic shift first
        assert tuple(s00.frames[:8, 0]) == tuple(range(8))
        # second block of eight picks up the multiplier
        assert tuple(s00.frames[8:16, 0]) == (3, 6, 1, 4, 7, 2, 5, 0)
        assert tuple(s00.frames[125:, 0]) == (0, 1, 2)
        assert set128.sequence(1, 0).frame(0) == (1, 2, 3)
        assert set128.sequence(2, 0).frame(0) == (4, 5, 6, 7)

    def test_compat_occupancy_sixteen_per_row(self, set128):
        for s in set128.sequences:
            for col in range(s.slots_per_frame):
                counts = np.bincount(s.frames[:, col], minlength=8)
                assert np.all(counts == 16)

    def test_true_order_set(self, set32):
        assert set32.length == 32
        assert set32.provenance["params"] == {"g": 3, "d": 2, "n": 2, "mode": "true-order"}
        for s in set32.sequences:
            for col in range(s.slots_per_frame):
                counts = np.bincount(s.frames[:, col], minlength=8)
                assert np.all(counts == 4)

    def test_compat_with_true_modulus_matches_true_order(self, cfg8, set32):
        via_compat = construct2(cfg8, n=2, g=3, d=2)
        for s, q in zip(via_compat.sequences, set32.sequences):
            assert np.array_equal(s.frames, q.frames)

    def test_matches_pointwise_evaluator(self, cfg8):
        built = construct2(cfg8, n=2, g=3, d=4)
        p = cons2_params(cfg8, n=2, g=3, d=4)
        rows = {(0, 0): [0], (1, 0): [1, 2, 3], (2, 0): [4, 5, 6, 7]}
        gen = np.random.default_rng(3)
        for (level, user), krows in rows.items():
            s = built.sequence(level, user)
            for v in gen.integers(0, built.length, size=20):
                idx = MixedRadixIndex.from_value(int(v), d=4, n=2, t=8)
                for col, k in enumerate(krows):
                    assert s.frames[int(v), col] == evaluate_c(k, idx, p, 8)

    def test_matches_pointwise_evaluator_on_random_rosters(self):
        gen = np.random.default_rng(20240817)
        for _ in range(40):
            t = int(gen.integers(2, 40))
            units = [u for u in range(1, t) if math.gcd(u, t) == 1]
            g = units[int(gen.integers(len(units)))]
            n = int(gen.integers(1, 5))
            # an explicit d (compat mode) need not be g's order
            d = int(gen.integers(1, 9)) if gen.random() < 0.5 else None
            cfg = SystemConfig(t=t, levels=random_roster(gen, t))
            try:
                built = construct2(cfg, n=n, g=g, d=d)
            except ConfigError:
                continue  # over the length guard
            assert built.provenance["params"]["mode"] == ("true-order" if d is None else "compat")
            assert_matches_evaluator(built, gen)

    def test_unit_one_matches_pointwise_evaluator(self):
        # g = 1 has order d = 1: one block of t frames
        gen = np.random.default_rng(5)
        cfg = SystemConfig(t=9, levels=((1, 2), (3, 2)))
        built = construct2(cfg, n=3, g=1)
        assert built.length == 9 and built.provenance["params"]["d"] == 1
        assert_matches_evaluator(built, gen)

    @pytest.mark.parametrize(
        "t, levels, n, g",
        [(211, ((1, 3), (5, 2)), 1, 2), (211, ((1, 1), (2, 4)), 1, 2), (11, ((1, 2), (3, 1)), 3, 2)],
        ids=["n1-order210", "n1-one-large-sequence", "n3-order10"],
    )
    def test_table_never_outgrows_the_set(self, t, levels, n, g):
        # with one round, a table keyed on (exponent, low digit) would hold
        # d^2 = 44100 rows of t slots against the set's d = 210 blocks
        cfg = SystemConfig(t=t, levels=levels)
        tracemalloc.start()
        try:
            built = construct2(cfg, n=n, g=g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built.provenance["params"]["d"] == multiplicative_order(g, t)
        assert peak < 2 * sum(s.frames.nbytes for s in built.sequences)
        assert_matches_evaluator(built, np.random.default_rng(t))

    def test_verifies(self, set128, set32):
        assert verify(set128).passed
        assert verify(set32).passed

    def test_multi_user_rosters_verify(self):
        cfg = SystemConfig(t=12, levels=((2, 2), (4, 2)))
        built = construct2(cfg, n=1)
        assert verify(built).passed
        assert built.sequence(1, 1).frame(0) == (8, 9, 10, 11)

    def test_unit_order_one_takes_any_round_count(self, cfg8):
        # with d = 1 every digit is 0, so no round is computed
        started = time.monotonic()
        built = construct2(cfg8, n=10**9, g=1)
        assert built.length == cfg8.t
        assert verify(built).passed
        assert time.monotonic() - started < 1.0

    def test_rebuild_identical(self, cfg8, set128):
        again = construct2(cfg8, n=2, g=3, d=4)
        for s, q in zip(set128.sequences, again.sequences):
            assert np.array_equal(s.frames, q.frames)
