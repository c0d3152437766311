"""Fixed slots vs hopped slots under a narrowband interferer.

A user parked on the same four slots every frame keeps colliding with an
interferer that sits on one of them.  A user cycling a generated sequence
spends only 1/t of its claims on any one slot, so the hit rate, and with it
the symbol error rate, drops.  The acceptance tests repeat the 10 dB and
15 dB points at 100000 frames.
"""
from hcskit import (
    FixedScheme,
    HcsScheme,
    SimConfig,
    SystemConfig,
    compare_schemes,
    construct2,
    interference_hit_fraction,
)

FRAMES = 20_000
SPL = 16


def run(hcs_set, interference, power_db, snrs):
    fixed = FixedScheme((0, 2, 4, 5))
    hopped = HcsScheme(hcs_set)
    common = dict(
        t=8,
        snr_db=snrs,
        interference_slots=interference,
        interference_power_db=power_db,
        symbols_per_slot=SPL,
        frames=FRAMES,
        seed=404,
    )
    report = compare_schemes(
        SimConfig(scheme=fixed, **common), SimConfig(scheme=hopped, **common)
    )
    f_fixed = interference_hit_fraction(fixed, interference, FRAMES, t=8)
    f_hop = interference_hit_fraction(hopped, interference, FRAMES)
    print(f"\ninterferer on slots {list(interference)} at {power_db:g} dB: "
          f"exposure {f_fixed:.3f} fixed vs {f_hop:.3f} hopped")
    print(f"  {'snr':>5}  {'ser fixed':>10}  {'ser hopped':>10}  {'delta':>9}")
    for row in report.rows:
        print(f"  {row.snr_db:5.1f}  {row.ser_a:10.5f}  {row.ser_b:10.5f}  "
              f"{row.delta:9.5f}")
    print(f"  largest fixed-minus-hopped gap: {report.max_delta:.5f}; "
          f"hopped worse anywhere: {'yes' if report.flagged else 'no'}")


def main():
    hcs_set = construct2(SystemConfig(t=8, levels=((1, 1), (3, 1), (4, 1))), n=2, g=3, d=4)
    run(hcs_set, interference=(2,), power_db=10.0, snrs=(0.0, 5.0, 10.0, 14.0))
    run(hcs_set, interference=(1, 4, 5), power_db=15.0, snrs=(0.0, 5.0, 10.0, 14.0))


if __name__ == "__main__":
    main()
