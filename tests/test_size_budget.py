"""The one set size budget: a set a construction builds can always be verified.

With ``core.SET_CELL_BUDGET`` lowered to a few thousand claim cells, every
config whose premises hold is built exactly when its frames x t fit the
budget, and every set built passes ``verify`` and is taken by ``sac.init``.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcskit import ConfigError, SystemConfig, construct1, construct2, core, sac, verify
from hcskit.construction2 import find_generator, multiplicative_order

BUDGET = 4096


@st.composite
def c1_configs(draw):
    """Rosters that meet construct1's premises: R | t, t/R <= 20, r | R and
    each level below the top filling whole blocks of R slots."""
    R = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    m = draw(st.integers(1, 20))
    levels, blocks = [], m
    below = [r for r in range(1, R) if R % r == 0]
    if below and draw(st.booleans()):
        r = draw(st.sampled_from(below))
        k = draw(st.integers(0, m - 1))
        levels.append((r, k * R // r))
        blocks -= k
    levels.append((R, draw(st.integers(1, blocks))))
    return SystemConfig(t=m * R, levels=tuple(levels), seed=draw(st.integers(0, 2**64 - 1)))


@st.composite
def c2_cases(draw):
    """(config, n, g, d) within construct2's premises: load <= t, and an
    explicit d only beside an explicit unit g."""
    t = draw(st.integers(2, 64))
    levels, load = [], 0
    for r in sorted(draw(st.sets(st.integers(1, t), min_size=1, max_size=3))):
        if (t - load) // r == 0:
            break
        u = draw(st.integers(1, (t - load) // r))
        levels.append((r, u))
        load += r * u
    n = draw(st.integers(1, 4))
    units = [u for u in range(1, t) if math.gcd(u, t) == 1]
    g = draw(st.none() | st.sampled_from(units))
    d = None if g is None else draw(st.none() | st.integers(1, 9))
    return SystemConfig(t=t, levels=tuple(levels)), n, g, d


def check_budget(build, frames: int, t: int) -> None:
    """``build()`` refuses for size exactly when frames x t exceed BUDGET, and
    a set it returns passes verify and is taken by sac.init."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "SET_CELL_BUDGET", BUDGET)
        try:
            built = build()
        except ConfigError as exc:
            assert "guard" in str(exc)
            assert frames * t > BUDGET
            return
        assert built.length == frames
        assert frames * t <= BUDGET
        assert verify(built).passed
        sac.init(built)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(c1_configs())
def test_construct1_builds_only_sets_it_can_verify(cfg):
    check_budget(lambda: construct1(cfg), cfg.t * cfg.levels[-1].r, cfg.t)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(c2_cases())
def test_construct2_builds_only_sets_it_can_verify(case):
    cfg, n, g, d = case
    if d is None:
        d = find_generator(cfg.t)[1] if g is None else multiplicative_order(g, cfg.t)
    check_budget(lambda: construct2(*case), d**n * cfg.t, cfg.t)


def test_verify_refuses_one_frame_past_the_budget(monkeypatch):
    # a set of exactly max_frames(t) frames is proved; one frame more is refused
    monkeypatch.setattr(core, "SET_CELL_BUDGET", BUDGET)
    cfg = SystemConfig(t=8, levels=((1, 1), (3, 1), (4, 1)))
    built = construct2(cfg, n=2, g=3, d=8)
    assert built.length == core.max_frames(8)
    assert verify(built).passed
    monkeypatch.setattr(core, "SET_CELL_BUDGET", BUDGET - 1)
    with pytest.raises(ValueError, match="too large to verify"):
        verify(built)
