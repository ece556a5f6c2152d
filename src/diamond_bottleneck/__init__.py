"""Bounds on the bottleneck rate of a two-relay fading diamond channel.

The package evaluates an informed-receiver upper bound and three
achievable compress-and-forward strategies (quantized state, thresholded
state, and linear-estimator forwarding) for a Gaussian network in which
two relays observe independently faded copies of one transmitted signal
and forward descriptions over rate-limited error-free links.  All rates
are in bits per complex channel use.

The package root holds the library API: the problem and settings types,
the four bounds, the fixed-fading max-min rate, their result types, and
the error types.  Sweeps, self-checks and the building blocks of each
scheme are imported from their submodules.
"""

from .channel import SnrPair, SystemConfig
from .errors import (
    BracketError,
    DegenerateBudget,
    DomainError,
    InvalidArgument,
    NonConvergent,
)
from .fixed_rate import FixedRateResult, fixed_rate
from .mmse import MmseResult, mmse_rate
from .numerics import SolverSettings
from .qci import QciAllocation, qci_lower_bound
from .tci import TciPoint, tci_best
from .upper_bound import UpperBoundResult, upper_bound

__version__ = "1.0.0"

__all__ = [
    "BracketError",
    "DegenerateBudget",
    "DomainError",
    "FixedRateResult",
    "InvalidArgument",
    "MmseResult",
    "NonConvergent",
    "QciAllocation",
    "SnrPair",
    "SolverSettings",
    "SystemConfig",
    "TciPoint",
    "UpperBoundResult",
    "fixed_rate",
    "mmse_rate",
    "qci_lower_bound",
    "tci_best",
    "upper_bound",
]
