"""Self-tests of the benchmark's checkers: each must pass real output of hcskit
and reject the same output with one fault planted in it.

Run with ``python3 hcsbench/run.py --selftest``; it takes about a second and
is not part of any timed run.  Exit code 0 when every checker behaves.
"""
from __future__ import annotations

import json
import math

import numpy as np

from checks import (
    CheckFailed,
    check_audit,
    check_c2_runs,
    check_claims,
    check_ser_point,
    hit_slots,
    ser_moments,
)


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def cases():
    """(name, clean passes, planted fault rejected) for each checker."""
    import hcskit

    cfg24 = hcskit.SystemConfig(t=24, levels=((2, 3), (3, 4), (6, 1)), seed=7)
    set24 = hcskit.construct1(cfg24)
    tables = [np.array(s.frames) for s in set24.sequences]
    planted = [tab.copy() for tab in tables]
    planted[0][5, 0] = tables[1][5, 0]  # two users on one slot in frame 5
    yield ("claim grid: two users on one slot in one frame",
           not _rejects(check_claims, 24, tables, True),
           _rejects(check_claims, 24, planted, False))

    set32 = hcskit.construct2(
        hcskit.SystemConfig(t=8, levels=((1, 1), (3, 1), (4, 1))), n=2, g=3
    )  # d = 2, so every run visits each slot 2^2 times
    tables = [np.array(s.frames) for s in set32.sequences]
    planted = [tab.copy() for tab in tables]
    planted[2][0, 1] = (planted[2][0, 1] + 1) % 8
    yield ("c2 runs: one run with broken occupancy",
           not _rejects(check_c2_runs, 8, tables, 4),
           _rejects(check_c2_runs, 8, planted, 4))

    script = [
        {"frame": 0, "action": "join", "user": "a", "level": 1},
        {"frame": 1, "action": "join", "user": "b", "level": 2},
        {"frame": 3, "action": "leave", "user": "a"},
        {"frame": 5, "action": "join", "user": "c", "level": 0},
    ]
    _, audit, _ = hcskit.run_script(set24, script)
    yield ("audit: a duplicate claim",
           not _rejects(check_audit, 24, audit),
           _rejects(check_audit, 24, audit + [audit[3]]))

    scheme = hcskit.HcsScheme(set32, level=2, user=0)
    sim = hcskit.SimConfig(t=8, scheme=scheme, snr_db=(2.0,), interference_slots=(2,),
                           interference_power_db=10.0, symbols_per_slot=16, frames=4000, seed=3)
    point = hcskit.simulate_ser(sim).points[0]
    n_hit = hit_slots(set32.sequence(2, 0).frames, 4000, (2,)) * 16
    mean, var = ser_moments(point.symbols_total - n_hit, n_hit, 2.0, 10.0)
    away = 1 if point.symbols_error >= mean else -1  # shift away from the expectation
    shifted = round(point.symbols_error + away * 6 * math.sqrt(var))
    yield ("SER: an error count shifted by 6 sigma",
           not _rejects(check_ser_point, point.symbols_error, point.symbols_total, n_hit, 2.0, 10.0),
           _rejects(check_ser_point, shifted, point.symbols_total, n_hit, 2.0, 10.0))


def benchmark_json_matches(root) -> bool:
    """BENCHMARK.json names exactly the metrics and units a run prints."""
    from run import END_TO_END, per_layer
    from spans import Tracer

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    printed = {name: unit for name, (_, unit) in per_layer(Tracer(), ["op0"]).items()}
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        and {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
    )


def main() -> int:
    from run import ROOT

    ok = True
    for name, clean, planted in cases():
        ok &= clean and planted
        print(f"{'ok  ' if clean and planted else 'FAIL'} {name}: "
              f"clean {'passes' if clean else 'rejected'}, fault {'rejected' if planted else 'missed'}")
    same = benchmark_json_matches(ROOT)
    ok &= same
    print(f"{'ok  ' if same else 'FAIL'} BENCHMARK.json lists the metrics a run prints")
    return 0 if ok else 1
