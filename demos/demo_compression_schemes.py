"""Comparison of the three achievable relaying schemes at one operating point.

All three invert or estimate the channel symbol-by-symbol without knowing
the codebook, then describe the result within the link budgets:

  * quantized inversion  -- round the post-inversion noise level up to one
    of J quantiles, send the level index as a header, and split the leftover
    budget across quantizer cells;
  * truncated inversion  -- transmit only when the fade clears a threshold,
    spending a one-bit-entropy on/off header;
  * estimate forwarding  -- forward a Gaussian-quantized minimum-variance
    estimate whose distortion is calibrated to the link budget.

Each is a genuine lower bound; the pooled-observation upper bound brackets
them from above.
"""

from diamond_bottleneck import (
    SolverSettings,
    SystemConfig,
    mmse_rate,
    qci_lower_bound,
    tci_best,
    tci_rate,
    upper_bound,
)

SETTINGS = SolverSettings()


def main() -> None:
    config = SystemConfig(noise_power=1e-4, c1=10.0, c2=10.0)  # 40 dB, 10+10 bits
    print("Operating point: 40 dB SNR, 10 bits per link")
    ub = upper_bound(config, SETTINGS)
    print(f"  pooled-observation upper bound: {ub.rate:.4f} bits")

    print()
    print("Quantized inversion: finer grids pay more header but waste less noise")
    for J in (2, 4, 8):
        allocation = qci_lower_bound(J, config, SETTINGS)
        share = 100.0 * allocation.lower_bound / ub.rate
        print(
            f"  J = {J}: rate {allocation.lower_bound:8.4f} bits "
            f"({share:5.1f}% of the upper bound, "
            f"{allocation.iterations} ascent iterations)"
        )

    print()
    print("Truncated inversion: the threshold trades activity against noise")
    for threshold in (0.1, 0.3, 0.6, 1.0, 1.5):
        point = tci_rate(threshold, config, SETTINGS)
        print(
            f"  threshold {threshold:3.1f}: active {100 * point.p_active:5.1f}% of the time, "
            f"conditional snr {point.cond_snr:9.1f}, rate {point.rate:8.4f} bits"
        )
    best = tci_best(config, SETTINGS)
    print(f"  best grid threshold {best.threshold:.1f} -> {best.rate:.4f} bits")

    print()
    print("Estimate forwarding: quadrature over both fading gains")
    result = mmse_rate(config, SETTINGS)
    print(
        f"  rate {result.rate:.4f} bits  (quadrature error {result.error_estimate:.1e}; "
        f"description rates check out at {result.constraint_check[0]:.6f} and "
        f"{result.constraint_check[1]:.6f} bits)"
    )

    print()
    print("Summary at this point: every scheme sits below the bound")
    rows = [
        ("upper bound", ub.rate),
        ("quantized inversion, J = 8", qci_lower_bound(8, config, SETTINGS).lower_bound),
        ("truncated inversion", best.rate),
        ("estimate forwarding", result.rate),
    ]
    for name, rate in rows:
        print(f"  {name:<28} {rate:8.4f} bits")


if __name__ == "__main__":
    main()
