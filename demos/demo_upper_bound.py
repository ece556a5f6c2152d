"""Walkthrough of the pooled-observation upper bound.

Give the destination the fading states and let the relays cooperate: the
network collapses to a single observer of the combined squared gain behind
one pipe of c1 + c2 bits.  The optimal description spends bits only on
fading realizations whose gain clears a water level, and the level is
calibrated so the spent bits exactly meet the budget.  Both sides of that
calibration have exponential-integral closed forms, so the bound is exact
from tiny to huge budgets.
"""

from diamond_bottleneck import SolverSettings, SystemConfig, upper_bound
from diamond_bottleneck.upper_bound import budget_integral, saturation_rate

SETTINGS = SolverSettings()


def main() -> None:
    s2 = 1e-4  # 40 dB SNR
    print(f"Noise power {s2:g} (40 dB).  Spent bits fall as the water level rises:")
    for nu in (1e-6, 1e-3, 1.0, 1e3):
        print(f"  level {nu:8.0e} -> {budget_integral(nu, s2):9.4f} bits spent")

    print()
    print("Calibrating the level to a total budget and evaluating the bound:")
    print(f"  {'total bits':>10} {'water level':>12} {'bound (bits)':>13} {'residual':>10}")
    for total in (2.0, 10.0, 20.0, 30.0, 50.0):
        result = upper_bound(SystemConfig(s2, total / 2.0, total / 2.0), SETTINGS)
        print(
            f"  {total:10.1f} {result.nu:12.3e} {result.rate:13.6f} "
            f"{result.constraint_residual:10.1e}"
        )

    sat = saturation_rate(s2)
    print()
    print(f"Large-budget ceiling (mean capacity of the pooled channel): {sat:.6f} bits")
    print("The bound climbs toward it and flattens once links stop being the bottleneck:")
    for c in (10.0, 15.0, 20.0, 23.0, 25.0):
        rate = upper_bound(SystemConfig(s2, c, c), SETTINGS).rate
        print(f"  c1 = c2 = {c:4.1f} -> {rate:9.6f} bits  (gap to ceiling {sat - rate:.2e})")

    print()
    print("Only the total c1 + c2 matters to this bound, not the split:")
    for c1, c2 in [(2.0, 18.0), (10.0, 10.0), (17.0, 3.0)]:
        rate = upper_bound(SystemConfig(s2, c1, c2), SETTINGS).rate
        print(f"  split ({c1:4.1f}, {c2:4.1f}) -> {rate:.9f} bits")


if __name__ == "__main__":
    main()
