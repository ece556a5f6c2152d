"""Quantized channel inversion lower bound.

Each relay inverts its channel, rounds the resulting inverse-gain noise
level up to a fixed quantile grid by injecting artificial noise, spends
header bits on the grid index, and splits the leftover budget across grid
cells.  Every cell rate is a max-min solve, which reduces to the one-relay
closed form where a relay is dead; the split itself is a concave allocation
problem solved by projected gradient ascent with finite-difference
gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig, xi_quantile
from .errors import InvalidArgument, NonConvergent
from .numerics import SolverSettings, _maxmin_batch

_FD_STEP = 1e-4
_ARMIJO_SLOPE = 1e-4
_STALL_LIMIT = 2


@dataclass(frozen=True)
class QuantizationGrid:
    """Quantile levels for the inverse squared gain, with derived SNRs.

    levels       b_1 <= ... <= b_{J-1} < b_J = +inf
    probs        cell probabilities, uniform 1/J under quantile placement
    snr_levels   1/(b_j sigma^2), exactly 0 for the infinite level
    header_bits  entropy of the cell index, log2(J) for uniform cells
    budget_feasible  False when the header alone exceeds a link budget
    """

    levels: tuple[float, ...]
    probs: tuple[float, ...]
    snr_levels: tuple[float, ...]
    header_bits: float
    budget_feasible: bool

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
    header = math.log2(J)
    return QuantizationGrid(
        levels=levels,
        probs=(1.0 / J,) * J,
        snr_levels=snr_levels,
        header_bits=header,
        budget_feasible=header <= min(config.c1, config.c2),
    )


class _Objective:
    """Allocation objective and its finite-difference gradient, one solver call.

    The J x J rate matrix and the 4 m x J gradient probes go to the max-min
    kernel as one batch.  The dead cell is a lane with SNR 0 and budget 0,
    which the kernel solves by the one-relay closed form.
    """

    def __init__(self, grid: QuantizationGrid):
        self.J = grid.size
        self.m = self.J - 1
        self.cell_weight = 1.0 / self.J**2
        rho = np.asarray(grid.snr_levels)
        live = rho[: self.m]
        self.lane_rho1, self.lane_rho2 = self._lanes(rho, live, live, rho, live, live)

    def _lanes(self, full1, up1, down1, full2, up2, down2):
        """Relay 1's and relay 2's lane arrays, blocks [value (J, J), c1
        plus, c1 minus, c2 plus, c2 minus (m, J) each].  Value block: axis 0
        is relay 1's cell, axis 1 relay 2's.  Probe blocks: axis 0 is the
        perturbed live cell, axis 1 its partner, the dead cell last."""
        J, m = self.J, self.m

        def rows(v):
            return np.broadcast_to(v[:, None], (v.size, J))

        def cols(v, count=m):
            return np.broadcast_to(v, (count, J))

        return (
            np.concatenate([rows(full1), rows(up1), rows(down1), cols(full1), cols(full1)]),
            np.concatenate([cols(full2, J), cols(full2), cols(full2), rows(up2), rows(down2)]),
        )

    def evaluate(
        self, c1: np.ndarray, c2: np.ndarray, h: float,
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Mean rate, rate matrix, and the gradient with FD step h.

        The gradient is central, one-sided where a budget sits within h of
        0.  Perturbing one relay's cell budget touches only that cell's row
        (or column) of the rate matrix.
        """
        J, m = self.J, self.m
        down1 = np.minimum(h, c1)
        down2 = np.minimum(h, c2)
        budgets = self._lanes(
            np.append(c1, 0.0), c1 + h, c1 - down1, np.append(c2, 0.0), c2 + h, c2 - down2
        )
        values, _, _ = _maxmin_batch(self.lane_rho1, self.lane_rho2, *budgets)
        rates = values[:J]
        total = float(rates.sum()) * self.cell_weight

        # live partners first, then the dead-partner edge: the summation
        # order of the rate differences is part of the output bits
        probes = values[J:].reshape(4, m, J)
        sums = probes[:, :, :m].sum(axis=2)
        edges = probes[:, :, m]
        g1 = (sums[0] - sums[1] + edges[0] - edges[1]) / (h + down1)
        g2 = (sums[2] - sums[3] + edges[2] - edges[3]) / (h + down2)
        return total, rates, g1 * self.cell_weight, g2 * self.cell_weight


def _project_budget(x: np.ndarray, p: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {c >= 0, p . c <= budget}.

    The result is max(x - theta p, 0) with theta >= 0 the root of the
    piecewise-linear spend curve theta -> p . max(0, x - theta p).  Its
    breakpoints are x / p: with the k largest of them active, theta is
    (p_k . x_k - budget) / (p_k . p_k), and the active set is the largest
    k whose smallest breakpoint still exceeds that theta (Duchi et al.,
    ICML 2008).
    """
    c = np.maximum(x, 0.0)
    spend = float(p @ c)
    if spend <= budget:
        return c
    order = np.argsort(-(x / p), kind="stable")
    xs, ps = x[order], p[order]
    thetas = (np.cumsum(ps * xs) - budget) / np.cumsum(ps * ps)
    above = np.flatnonzero(xs - thetas * ps > 0.0)
    if above.size == 0:
        return np.zeros_like(x)
    active = x - thetas[above[-1]] * p > 0.0
    theta = (float(p[active] @ x[active]) - budget) / float(p[active] @ p[active])
    return np.maximum(x - max(theta, 0.0) * p, 0.0)


def optimize_allocation(
    grid: QuantizationGrid,
    config: SystemConfig,
    settings: SolverSettings,
    initial: np.ndarray | None = None,
) -> QciAllocation:
    """Split the post-header budgets across cells to maximize the mean rate.

    Projected gradient ascent on a concave objective: batched FD gradient,
    backtracking line search along the projection arc, convergence when two
    consecutive accepted steps improve by less than abs_tol or no improving
    step exists.  `initial` warm-starts from a previous allocation (it is
    projected onto the current feasible set first), which both speeds up
    sweeps and makes budget-ladder results monotone by construction.
    """
    J = grid.size
    m = J - 1
    residual1 = config.c1 - grid.header_bits
    residual2 = config.c2 - grid.header_bits
    if not grid.budget_feasible or residual1 < 0.0 or residual2 < 0.0:
        return QciAllocation(
            c=np.zeros((2, J)),
            rates=np.zeros((J, J)),
            lower_bound=0.0,
            iterations=0,
            feasible=False,
        )

    p = np.asarray(grid.probs[:m])
    objective = _Objective(grid)
    if initial is not None:
        start = np.asarray(initial, dtype=float)
        if start.shape != (2, J):
            raise InvalidArgument(f"initial allocation must have shape (2, {J})")
        c1 = _project_budget(start[0, :m].copy(), p, residual1)
        c2 = _project_budget(start[1, :m].copy(), p, residual2)
    else:
        c1 = np.full(m, residual1 * J / m)
        c2 = np.full(m, residual2 * J / m)

    # Every evaluation also yields the gradient at _FD_STEP, so an accepted
    # candidate brings the next iteration's gradient along.
    best, rates, g1, g2 = objective.evaluate(c1, c2, _FD_STEP)
    step = 2.0 * J
    stalls = 0
    last_gain = math.inf
    iterations = 0
    for iterations in range(1, settings.max_iter + 1):
        moved = False
        for h in (_FD_STEP, _FD_STEP * 1e-2):
            if h != _FD_STEP:
                _, _, g1, g2 = objective.evaluate(c1, c2, h)
            trial_step = step
            for _ in range(40):
                cand1 = _project_budget(c1 + trial_step * g1, p, residual1)
                cand2 = _project_budget(c2 + trial_step * g2, p, residual2)
                gap = float(g1 @ (cand1 - c1) + g2 @ (cand2 - c2))
                if gap <= 0.0:
                    break
                cand_value, cand_rates, cand_g1, cand_g2 = objective.evaluate(
                    cand1, cand2, _FD_STEP
                )
                if cand_value >= best + _ARMIJO_SLOPE * gap:
                    last_gain = cand_value - best
                    c1, c2 = cand1, cand2
                    best, rates = cand_value, cand_rates
                    g1, g2 = cand_g1, cand_g2
                    step = trial_step * 2.0
                    moved = True
                    break
                trial_step *= 0.25
            if moved:
                break
        if not moved:
            break  # no ascent direction survives projection: stationary
        if last_gain < settings.abs_tol:
            stalls += 1
            if stalls >= _STALL_LIMIT:
                break
        else:
            stalls = 0
    else:
        if last_gain > 1e-6:
            raise NonConvergent(
                "allocation ascent still improving by more than 1e-6 at max_iter"
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


def qci_lower_bound(
    J: int,
    config: SystemConfig,
    settings: SolverSettings,
    initial: np.ndarray | None = None,
) -> QciAllocation:
    """Grid construction plus allocation in one call."""
    return optimize_allocation(build_grid(J, config), config, settings, initial=initial)
