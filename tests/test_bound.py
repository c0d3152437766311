import contextlib
import csv
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcskit import (
    EnumerationCapError,
    SystemConfig,
    check_bound,
    enumerate_user_counts,
)
from hcskit.cli import dispatch


def brute_rosters(t, rv):
    # nested-loop oracle: all count tuples with sum(r*u) <= t, lexicographic
    out = []

    def rec(prefix, remaining):
        if len(prefix) == len(rv):
            out.append((prefix, t - remaining, remaining == 0))
            return
        r = rv[len(prefix)]
        u = 0
        while u * r <= remaining:
            rec(prefix + (u,), remaining - u * r)
            u += 1

    rec((), t)
    return out


class TestCheckBound:
    def test_saturated_example(self):
        report = check_bound(SystemConfig(t=24, levels=((2, 3), (3, 4), (6, 1))))
        assert (report.load, report.capacity, report.slack) == (24, 24, 0)
        assert report.optimal and report.feasible

    def test_three_level_unit_roster(self):
        report = check_bound(SystemConfig(t=8, levels=((1, 1), (3, 1), (4, 1))))
        assert report.load == 8 and report.optimal

    def test_over_capacity_reported_not_raised(self):
        report = check_bound(SystemConfig(t=8, levels=((4, 3),)))
        assert report.slack == -4
        assert not report.feasible and not report.optimal

    def test_dict_view(self):
        d = check_bound(SystemConfig(t=6, levels=((2, 2),))).to_dict()
        assert d == {"load": 4, "capacity": 6, "slack": 2, "feasible": True, "optimal": False}


class TestEnumerate:
    def test_small_frame_contains_saturating_roster(self):
        rosters = enumerate_user_counts(6, (1, 2, 6))
        assert any(r.counts == (0, 0, 1) and r.optimal for r in rosters)
        assert all(r.load <= 6 for r in rosters)

    def test_lexicographic_order(self):
        rosters = enumerate_user_counts(24, (1, 2, 6))
        counts = [r.counts for r in rosters]
        assert counts == sorted(counts)

    def test_known_optimal_roster_large_demands(self):
        rosters = enumerate_user_counts(24, (3, 5, 15))
        optimal = {r.counts for r in rosters if r.optimal}
        assert (3, 3, 0) in optimal
        assert (8, 0, 0) in optimal

    def test_matches_nested_loop_oracle(self):
        gen = np.random.default_rng(2024)
        for _ in range(40):
            t = int(gen.integers(1, 31))
            lam = int(gen.integers(1, 4))
            rv = tuple(sorted(gen.choice(np.arange(1, 31), size=lam, replace=False).tolist()))
            got = enumerate_user_counts(t, rv)
            want = brute_rosters(t, rv)
            assert [(r.counts, r.load, r.optimal) for r in got] == want

    def test_optimal_iff_zero_slack(self):
        for r in enumerate_user_counts(20, (2, 5)):
            assert r.optimal == (r.load == 20)

    def test_cap_guard(self):
        with pytest.raises(EnumerationCapError, match="cap of 10"):
            enumerate_user_counts(100, (1, 2), cap=10)

    def test_cap_is_checked_before_a_level_is_built(self):
        # a billion one-level rosters are counted, never listed
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match="cap of 1000 tuples"):
                enumerate_user_counts(10**9, (1,), cap=1000)
            with pytest.raises(EnumerationCapError, match="cap of 10124 tuples"):
                enumerate_user_counts(48, (1, 2, 3, 6), cap=10124)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(enumerate_user_counts(48, (1, 2, 3, 6), cap=10125)) == 10125

    @pytest.mark.parametrize("t", [2**63, 10**30], ids=["2**63", "10**30"])
    def test_cap_error_for_a_frame_beyond_int64(self, t):
        with pytest.raises(EnumerationCapError, match="cap of 1000 tuples"):
            enumerate_user_counts(t, (1, 2, 3), cap=1000)

    def test_count_beyond_int64_is_refused_whatever_the_cap(self):
        # 2**64 + 1 one-level rosters pass a cap of 2**70 but not int64
        with pytest.raises(EnumerationCapError, match=f"cap of {2**63 - 1} tuples"):
            enumerate_user_counts(2**64, (1,), cap=2**70)

    @pytest.mark.parametrize(
        "t, rv",
        [(10**30, (10**29, 3 * 10**29)), (2**63 - 1, (2**62, 2**63 - 1)), (12, (5, 2**70))],
        ids=["frame-10**30", "frame-2**63-1", "level-2**70"],
    )
    def test_values_beyond_int64_match_oracle(self, t, rv):
        got = enumerate_user_counts(t, rv)
        assert [(r.counts, r.load, r.optimal) for r in got] == brute_rosters(t, rv)

    def test_columns_match_rows(self):
        rosters = enumerate_user_counts(30, (2, 3, 7))
        assert rosters.counts.dtype == np.int64 and rosters.counts.shape == (len(rosters), 3)
        assert rosters.load.dtype == np.int64 and rosters.optimal.dtype == bool
        assert (rosters.load == rosters.counts @ np.array([2, 3, 7])).all()
        assert (rosters.optimal == (rosters.load == 30)).all()
        for r in rosters:
            assert all(type(u) is int for u in r.counts)
            assert type(r.load) is int and type(r.optimal) is bool

    def test_input_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            enumerate_user_counts(8, (2, 2))
        with pytest.raises(ValueError, match="positive"):
            enumerate_user_counts(8, (0, 2))
        with pytest.raises(ValueError):
            enumerate_user_counts(8, ())


def oracle_csv(t, rv) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"u_{i}" for i in range(len(rv))] + ["load", "optimal"])
    for counts, load, optimal in brute_rosters(t, rv):
        writer.writerow([*counts, load, int(optimal)])
    return buf.getvalue()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    t=st.integers(1, 30),
    rv=st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True).map(sorted),
)
@example(t=10**30, rv=[10**29, 3 * 10**29])
def test_cli_csv_matches_oracle(t, rv):
    argv = ["enumerate", "--t", str(t), "--r", ",".join(map(str, rv))]
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        out = Path(tmp) / "lattice.csv"
        assert dispatch([*argv, "--out", str(out)]) == 0
        written = out.read_bytes()
        stdout.seek(0)
        stdout.truncate()
        assert dispatch(argv) == 0
    want = oracle_csv(t, rv)
    assert written == want.encode("ascii")
    assert stdout.getvalue() == want
