"""Reproduce the two reference curves as CSV files.

Curve one sweeps SNR from 0 to 60 dB at 10 bits per link; curve two sweeps
the per-link budget from 0 to 25 bits at 40 dB.  Both show the same story:
the achievable schemes track the upper bound, the quantized scheme closes
much of the gap as its grid refines, and every curve flattens once the
other resource becomes the bottleneck.

Writes rate_vs_snr.csv and rate_vs_budget.csv into the working directory
(or a directory given as the only argument) and prints a digest.
"""

import sys
from pathlib import Path

from diamond_bottleneck import fig2_spec, fig3_spec, run_sweep

COLUMNS = ("ub", "qci_J2", "qci_J4", "qci_J8", "tci", "mmse")


def digest(path: Path, axis_label: str) -> None:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    header, first, last = rows[0], rows[1], rows[-1]
    axis = header.index("rho_db" if axis_label == "dB" else "c_bits")
    print(f"  {path.name}: {len(rows) - 1} points")
    for tag, row in [("first", first), ("last", last)]:
        values = ", ".join(
            f"{name} {float(row[header.index(name)]):.3f}" for name in COLUMNS
        )
        print(f"    {tag:>5} ({row[axis]} {axis_label}): {values}")


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    snr_path = out_dir / "rate_vs_snr.csv"
    budget_path = out_dir / "rate_vs_budget.csv"
    print("Sweeping SNR at 10 bits per link (31 points)...")
    run_sweep(fig2_spec(str(snr_path)))
    print("Sweeping per-link budget at 40 dB (26 points)...")
    run_sweep(fig3_spec(str(budget_path)))

    print()
    print("Wrote:")
    digest(snr_path, "dB")
    digest(budget_path, "bits")
    print()
    print("Columns: axis pair, one rate column per bound, then per-bound")
    print("diagnostics (constraint residual, ascent iterations, chosen")
    print("threshold, quadrature error estimate).  Rates are bits per complex")
    print("channel use; empty cells would mark a failed scheme at that point.")


if __name__ == "__main__":
    main()
