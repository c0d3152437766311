"""Build both kinds of sequence set and put them through the checker.

The permutation-table builder needs a divisibility-friendly roster and gives
length t*R; the modular-affine builder works for any unit g modulo t and
gives length d^n*t.  Either way, no two users ever claim the same slot in
the same frame.
"""
from hcskit import SystemConfig, construct1, construct2, verify


def report_lines(hcs_set, name):
    report = verify(hcs_set)
    print(f"{name}: length {hcs_set.length}, {len(hcs_set.sequences)} sequences, "
          f"t={hcs_set.t}, verdict {'PASS' if report.passed else 'FAIL'}")
    for name, check in report.gates():
        print(f"    {name}: {check.detail}")
    print(f"    whole-set occupancy: {sorted(set(report.occupancy_counts))} "
          f"claims per slot")


def main():
    cfg24 = SystemConfig(t=24, levels=((2, 3), (3, 4), (6, 1)), seed=20240817)
    set24 = construct1(cfg24)
    report_lines(set24, "permutation-table set (24 slots)")
    print("    first frames:")
    for level, user in ((0, 0), (1, 0), (2, 0)):
        s = set24.sequence(level, user)
        print(f"      level {level} user {user}: {s.frame(0)} then {s.frame(1)}")

    cfg8 = SystemConfig(t=8, levels=((1, 1), (3, 1), (4, 1)))
    compat = construct2(cfg8, n=2, g=3, d=4)
    print()
    report_lines(compat, "modular-affine set (8 slots, compat d=4)")
    s00 = compat.sequence(0, 0)
    print(f"    single-slot user, frames 0..15: "
          f"{[int(x) for x in s00.frames[:16, 0]]}")

    # with d omitted it is g's true order, 2 for g=3 mod 8, so the cycle is 4x shorter
    true_order = construct2(cfg8, n=2, g=3)
    print()
    report_lines(true_order, "modular-affine set (8 slots, true order d=2)")


if __name__ == "__main__":
    main()
