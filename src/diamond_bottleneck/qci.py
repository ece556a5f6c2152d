"""Quantized channel inversion lower bound.

Each relay inverts its channel, rounds the resulting inverse-gain noise
level up to a fixed quantile grid by injecting artificial noise, spends
header bits on the grid index, and splits the leftover budget across grid
cells.  Every cell rate is a max-min solve, which reduces to the one-relay
closed form where a relay is dead; the split itself is a concave allocation
problem solved by projected gradient ascent, with the exact gradient that
the max-min kernel's slopes give and a Barzilai-Borwein step length per
relay.  Every ascent starts from the one-relay water-filling split of each
relay's residual, and stops after three consecutive gains below abs_tol, so
its result depends on its operating point alone.  Each step projects onto
the budget set exactly, by a plain loop over the at most J - 1 breakpoints
of the spend curve.

The ascent is a generator that asks for one evaluation at a time, and one
driver runs any number of them in lock-step: each round sends the J x J
cell lanes of every live ascent's request to the max-min kernel in one
call.  The kernel is elementwise, so each ascent takes the same steps, bit
for bit, as it does alone; qci_lower_bound is the one-ascent case, and
qci_lower_bounds runs the cell counts of one point together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from .channel import SystemConfig, xi_quantile
from .errors import InvalidArgument, NonConvergent
from .numerics import SolverSettings, _maxmin_batch

_ARMIJO_SLOPE = 1e-4
_STALL_LIMIT = 3
_MAX_ITER = 200  # the allocation ascent's iteration cap


@dataclass(frozen=True)
class QuantizationGrid:
    """Quantile levels for the inverse squared gain, with derived SNRs.

    levels       b_1 <= ... <= b_{J-1} < b_J = +inf, at the j/J quantiles, so
                 every cell has probability 1/J
    snr_levels   1/(b_j sigma^2), exactly 0 for the infinite level
    header_bits  entropy of the cell index, log2(J) for uniform cells
    """

    levels: tuple[float, ...]
    snr_levels: tuple[float, ...]
    header_bits: float

    @property
    def size(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class QciAllocation:
    """Optimized per-cell budget split and the value it achieves.

    c is a (2, J) matrix of per-cell bit budgets with the dead-cell column
    pinned at zero; rates is the (J, J) matrix of cell rates at that split;
    lower_bound is the probability-weighted average of rates.
    """

    c: np.ndarray
    rates: np.ndarray
    lower_bound: float
    iterations: int
    feasible: bool


def build_grid(J: int, config: SystemConfig) -> QuantizationGrid:
    """Quantile grid with J cells: levels at j/J quantiles, last level infinite."""
    if J < 2:
        raise InvalidArgument(f"need at least 2 quantization cells, got {J}")
    levels = tuple(xi_quantile(j / J) for j in range(1, J)) + (math.inf,)
    snr_levels = tuple(1.0 / (b * config.noise_power) for b in levels[:-1]) + (0.0,)
    return QuantizationGrid(levels=levels, snr_levels=snr_levels, header_bits=math.log2(J))


class _Objective:
    """The J x J cell lanes of one allocation problem, flat.

    Lane j1 J + j2 is cell (j1, j2): relay 1's cell j1, relay 2's cell j2,
    the dead cell last, a lane with SNR 0 and budget 0.  The kernel's slopes
    give the gradient: a live cell's budget enters only its row (or column)
    of the rate matrix.
    """

    def __init__(self, grid: QuantizationGrid):
        self.J = grid.size
        self.m = self.J - 1
        self.cell_weight = 1.0 / self.J**2
        rho = np.asarray(grid.snr_levels)
        self.rho1 = np.repeat(rho, self.J)
        self.rho2 = np.tile(rho, self.J)

    def lanes(self, c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, ...]:
        """Kernel inputs (rho1, rho2, c1, c2) at live-cell budgets c1, c2."""
        lane_c1 = np.zeros((self.J, self.J))
        lane_c1[:-1] = c1[:, None]
        lane_c2 = np.zeros((self.J, self.J))
        lane_c2[:, :-1] = c2
        return self.rho1, self.rho2, lane_c1.ravel(), lane_c2.ravel()

    def reduce(
        self, value: np.ndarray, slope1: np.ndarray, slope2: np.ndarray,
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Mean rate, rate matrix, and the gradient in c1 and c2 from this
        problem's kernel outputs."""
        J, m = self.J, self.m
        rates = value.reshape(J, J)
        total = float(rates.sum()) * self.cell_weight
        g1 = slope1.reshape(J, J)[:m].sum(axis=1) * self.cell_weight
        g2 = slope2.reshape(J, J)[:, :m].sum(axis=0) * self.cell_weight
        return total, rates, g1, g2


def _project_budget(x: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {c >= 0, sum(c) <= budget}.

    The cells are uniform, so a live cell's spend is its budget over J and
    the set is {c >= 0, sum(c) <= J residual}.  The result is
    max(x - theta, 0) with theta >= 0 the root of the piecewise-linear
    spend curve theta -> sum(max(0, x - theta)).  Its breakpoints are the
    entries of x: with the k largest of them active, theta is
    (sum of those k - budget) / k, and the active set is the largest k whose
    smallest entry still exceeds that theta (Duchi et al., ICML 2008).
    There are at most J - 1 breakpoints, so a plain loop over them, largest
    first, finds that k: its running sum is accumulated in order, as
    np.cumsum would, and costs no array call.
    """
    c = np.maximum(x, 0.0)
    if float(c.sum()) <= budget:
        return c
    xs = x.tolist()
    # largest breakpoint first, ties in index order, NaN last: np.argsort's order
    order = sorted(range(len(xs)), key=lambda i: (xs[i] != xs[i], -xs[i]))
    total = 0.0
    found = None
    for k, i in enumerate(order, start=1):
        total += xs[i]
        theta = (total - budget) / k
        if xs[i] - theta > 0.0:
            found = theta
    if found is None:
        return np.zeros_like(x)
    active = x - found > 0.0
    theta = (float(x[active].sum()) - budget) / int(active.sum())
    return np.maximum(x - max(theta, 0.0), 0.0)


def _ascent(
    J: int, config: SystemConfig, settings: SolverSettings,
) -> Generator[tuple, tuple, QciAllocation]:
    """Build the J-cell grid, then split the post-header budgets across its
    cells to maximize the mean rate.

    Projected gradient ascent on a concave objective: the exact gradient
    from the kernel's slopes, a Barzilai-Borwein trial step per relay
    (Barzilai and Borwein, IMA J. Numer. Anal. 8, 1988) backtracked along
    the projection arc until the Armijo condition holds, convergence when
    three consecutive accepted steps improve by less than abs_tol or no
    improving step exists.  Every accepted step raises the value, so the
    result is never below the start.

    A generator, driven by _lock_step: it yields (objective, c1, c2) for
    each evaluation it needs, is sent objective.reduce of the kernel's
    outputs at those lanes, and returns the allocation.  The grid is built
    on the first step, so a bad J fails this ascent only.

    The ascent starts from each relay's one-relay water-filling split
    (Cover and Thomas, Elements of Information Theory, 9.4): c_i = max(0,
    log2 rho_i + mu), with mu spending the whole residual, which equalizes
    the one-relay slopes rho_i 2^-c_i / (1 + rho_i 2^-c_i) and costs no
    kernel call.
    """
    grid = build_grid(J, config)
    m = J - 1
    residual1 = config.c1 - grid.header_bits
    residual2 = config.c2 - grid.header_bits
    if residual1 < 0.0 or residual2 < 0.0:
        return QciAllocation(
            c=np.zeros((2, J)),
            rates=np.zeros((J, J)),
            lower_bound=0.0,
            iterations=0,
            feasible=False,
        )

    # each live cell spends its budget over J: the relays' budget sets are
    # {c >= 0, sum(c) <= budget}
    budget1, budget2 = J * residual1, J * residual2
    objective = _Objective(grid)
    # log2 rho, lifted so that every cell holds at least budget / m,
    # overspends; the projection's shift theta is one water level, so the
    # projection is the water-filling split.
    log_rho = np.log2(np.asarray(grid.snr_levels[:m]))
    lifted = log_rho - log_rho.min()
    c1, c2 = (_project_budget(lifted + budget / m, budget) for budget in (budget1, budget2))

    # Every evaluation also yields the gradient, so an accepted candidate
    # brings the next iteration's gradient along.
    best, rates, g1, g2 = yield objective, c1, c2
    step1 = step2 = 2.0 * J
    stalls = 0
    last_gain = math.inf
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        moved = False
        scale = 1.0
        for _ in range(40):
            cand1 = _project_budget(c1 + scale * step1 * g1, budget1)
            cand2 = _project_budget(c2 + scale * step2 * g2, budget2)
            gap = float(g1 @ (cand1 - c1) + g2 @ (cand2 - c2))
            if gap <= 0.0:
                break
            cand_value, cand_rates, cand_g1, cand_g2 = yield objective, cand1, cand2
            if cand_value >= best + _ARMIJO_SLOPE * gap:
                moved = True
                break
            scale *= 0.25
        if not moved:
            break  # no ascent direction survives projection: stationary
        # Barzilai-Borwein length s.s / (-s.y) per relay: the two relays'
        # slopes can differ by orders of magnitude, and one shared length
        # crawls on the flatter relay.  Where a relay's gradient did not
        # turn, its accepted step is doubled.
        s1, s2 = cand1 - c1, cand2 - c2
        turn1 = -float(s1 @ (cand_g1 - g1))
        turn2 = -float(s2 @ (cand_g2 - g2))
        step1 = float(s1 @ s1) / turn1 if turn1 > 0.0 else 2.0 * scale * step1
        step2 = float(s2 @ s2) / turn2 if turn2 > 0.0 else 2.0 * scale * step2
        last_gain = cand_value - best
        c1, c2 = cand1, cand2
        best, rates = cand_value, cand_rates
        g1, g2 = cand_g1, cand_g2
        if last_gain < settings.abs_tol:
            stalls += 1
            if stalls >= _STALL_LIMIT:
                break
        else:
            stalls = 0
    else:
        if last_gain > 1e-6:
            raise NonConvergent(
                f"allocation ascent still improving by more than 1e-6 after {_MAX_ITER} iterations"
            )

    c_full = np.zeros((2, J))
    c_full[0, :m] = c1
    c_full[1, :m] = c2
    return QciAllocation(
        c=c_full,
        rates=rates,
        lower_bound=best,
        iterations=iterations,
        feasible=True,
    )


def _lock_step(ascents: Sequence[Generator]) -> list[QciAllocation | Exception]:
    """Run the ascents together: one kernel call per round carries every
    live ascent's pending request.

    An ascent leaves the batch when it returns, or when it raises; its
    exception then stands in its place in the result and the others go on.
    """
    outcomes: list[QciAllocation | Exception | None] = [None] * len(ascents)
    requests: dict[int, tuple[_Objective, np.ndarray, np.ndarray]] = {}

    def advance(k: int, reply) -> None:
        try:
            requests[k] = ascents[k].send(reply)
        except StopIteration as stop:
            outcomes[k] = stop.value
        except Exception as error:  # noqa: BLE001 - fails this ascent only
            outcomes[k] = error

    for k in range(len(ascents)):
        advance(k, None)
    while requests:
        batch = list(requests.items())
        requests.clear()
        lanes = [objective.lanes(c1, c2) for _, (objective, c1, c2) in batch]
        value, _, _, slope1, slope2 = _maxmin_batch(*map(np.concatenate, zip(*lanes)))
        start = 0
        for (k, (objective, _, _)), lane in zip(batch, lanes):
            stop = start + lane[0].size
            advance(k, objective.reduce(value[start:stop], slope1[start:stop], slope2[start:stop]))
            start = stop
    return outcomes


def _raised(outcome: QciAllocation | Exception) -> QciAllocation:
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def qci_lower_bounds(
    cells: Sequence[int], config: SystemConfig, settings: SolverSettings,
) -> list[QciAllocation | Exception]:
    """Grid construction plus allocation for each cell count, in lock-step.

    Entry k of the result is cell count k's allocation, or the exception
    that its construction or ascent raised.
    """
    return _lock_step([_ascent(J, config, settings) for J in cells])


def qci_lower_bound(J: int, config: SystemConfig, settings: SolverSettings) -> QciAllocation:
    """Grid construction plus allocation in one call."""
    return _raised(qci_lower_bounds([J], config, settings)[0])
