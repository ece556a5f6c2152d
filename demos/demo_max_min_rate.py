"""Walkthrough of the fixed-fading max-min rate.

Two relays observe the same unit-power symbol through known channel gains
and forward compressed descriptions over error-free links of c1 and c2
bits.  The destination's rate is limited by the worst of four cut values,
and each relay chooses how many bits of its budget to spend on fresh
information about the symbol.  This script shows the pieces: the one-relay
closed form, the two-relay trade-off, and which cuts bind where.
"""

import numpy as np

from diamond_bottleneck import FixedRateResult, SnrPair, fixed_rate


def show(label: str, result: FixedRateResult) -> None:
    r1, r2 = result.r_opt
    print(
        f"  {label:<34} rate {result.rate:7.4f} bits   "
        f"split ({r1:5.2f}, {r2:5.2f})   tight cuts {', '.join(result.active_subsets)}"
    )


def main() -> None:
    print("One relay alone (second budget zero): closed form log2((1+snr)/(1+snr/2^c))")
    for snr, c in [(10.0, 1.0), (10.0, 4.0), (10.0, 12.0)]:
        result = fixed_rate(SnrPair(snr, 0.0), (c, 0.0))
        closed = np.log2((1.0 + snr) / (1.0 + snr * 2.0**-c))
        print(
            f"  snr {snr:5.1f}, budget {c:4.1f} -> {result.rate:7.4f} bits "
            f"(closed form {closed:7.4f})"
        )

    print()
    print("Two relays, equal 3-bit budgets: more SNR helps until the links saturate")
    for snr in (1.0, 10.0, 100.0, 1000.0):
        show(f"snr ({snr:g}, {snr:g}), budgets (3, 3)",
             fixed_rate(SnrPair(snr, snr), (3.0, 3.0)))

    print()
    print("Uneven relays at snr (50, 5): budget placement matters")
    for c1, c2 in [(4.0, 1.0), (1.0, 4.0), (2.5, 2.5)]:
        show(f"budgets ({c1:g}, {c2:g})",
             fixed_rate(SnrPair(50.0, 5.0), (c1, c2)))

    print()
    print("Budgets far above what the SNR supports: the full-observation cut pins")
    print("the rate near log2(1 + snr1 + snr2) and leftover link bits go unused")
    show("snr (10, 10), budgets (30, 30)",
         fixed_rate(SnrPair(10.0, 10.0), (30.0, 30.0)))
    print(f"  log2(1 + 10 + 10) = {np.log2(21.0):.4f}")


if __name__ == "__main__":
    main()
