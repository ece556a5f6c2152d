"""Max-min achievable rate for one fixed SNR pair and one budget pair.

The scalar entry point into the batched max-min kernel: it solves one
instance and reports which of the four cut-set branches are tight at the
optimum.  The quantized and truncated inversion schemes call the kernel
directly, batched over their cells and thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import SnrPair
from .errors import InvalidArgument
from .numerics import _branches, _maxmin_batch, _snr_used

# Branch labels name the set of relays whose leftover-budget term is active.
_SUBSET_LABELS = ("{}", "{1}", "{2}", "{1,2}")

_ACTIVE_TOL = 1e-6


@dataclass(frozen=True)
class FixedRateResult:
    rate: float
    r_opt: tuple[float, float]
    active_subsets: tuple[str, ...]


def fixed_rate(snrs: SnrPair, budgets: tuple[float, float]) -> FixedRateResult:
    """Solve the two-relay max-min rate and label the tight branches.

    A branch is reported active when its value at the optimizer is within
    1e-6 of the branch minimum.  SnrPair checks the SNRs; the budgets must
    be two finite, nonnegative values.
    """
    budgets = tuple(budgets)
    if len(budgets) != 2 or not all(math.isfinite(c) and c >= 0.0 for c in budgets):
        raise InvalidArgument(f"budgets must be two finite nonnegative values, got {budgets}")
    value, r1, r2 = (float(x) for x in _maxmin_batch(snrs.rho1, snrs.rho2, *budgets)[:3])
    used = _snr_used(snrs.rho1, r1), _snr_used(snrs.rho2, r2)
    branches = [float(b) for b in _branches(*budgets, r1, r2, *used)]
    floor = min(branches)
    active = tuple(
        label
        for label, branch in zip(_SUBSET_LABELS, branches)
        if branch - floor <= _ACTIVE_TOL
    )
    return FixedRateResult(rate=value, r_opt=(r1, r2), active_subsets=active)
