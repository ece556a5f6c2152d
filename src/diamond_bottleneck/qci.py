"""Quantized channel inversion lower bound.

Each relay inverts its channel, rounds the resulting inverse-gain noise
level up to the j/J quantile of the inverse squared gain by injecting
artificial noise, spends log2 J header bits on the cell index, and splits
the leftover budget across the J cells.  Every cell rate is a max-min
solve, which reduces to the one-relay closed form where a relay is dead;
the split itself is a concave allocation problem solved by projected
gradient ascent, with the exact gradient that the max-min kernel's slopes
give and a Barzilai-Borwein step length per relay.  Every ascent starts
from the one-relay water-filling split of each relay's residual, and stops
after three consecutive gains below abs_tol, so its result depends on its
operating point alone.  Each step projects onto the budget set exactly, by
a plain loop over the at most J - 1 breakpoints of the spend curve.

The ascent is a generator in the kernel's terms: each evaluation yields
the kernel's four inputs on its J x J cell lanes (_lanes) as the rows of
one (4, J^2) block, whose SNR rows it writes once, and is sent the
kernel's value and slopes there (reduced by _reduce).  One function,
_lock_step, runs any number of such participants in lock-step, one kernel
call per round over every live participant's lanes; every scheme at a
sweep point is one participant (sweeps.compute_point).
The kernel is elementwise, so each ascent takes the same steps, bit for
bit, as it does alone; _solo runs one alone (qci_lower_bound, and TCI's
tci_best and tci_rate), so every QCI and TCI kernel call is made here.
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
class QciAllocation:
    """Optimized per-cell budget split and the value it achieves.

    c is a (2, J) matrix of per-cell bit budgets with the dead-cell column
    pinned at zero; lower_bound is the mean of the J x J cell rates at that
    split, every cell having probability 1/J^2.
    """

    c: np.ndarray
    lower_bound: float
    iterations: int
    feasible: bool


def cell_snrs(J: int, config: SystemConfig) -> np.ndarray:
    """SNR of each of the J cells, the dead cell's 0 last.

    Cell j < J rounds the inverse squared gain up to its j/J quantile b_j,
    so it has probability 1/J and SNR 1/(b_j sigma^2); the last cell holds
    the inverse gains above every level, and its relay is dead.
    """
    if J < 2:
        raise InvalidArgument(f"need at least 2 quantization cells, got {J}")
    return np.array([1.0 / (xi_quantile(j / J) * config.noise_power) for j in range(1, J)] + [0.0])


def _lanes(x1: np.ndarray, x2: np.ndarray, out: np.ndarray) -> None:
    """Write the live-cell values of relay 1 and relay 2 (J - 1 each) into
    out, a contiguous (2, J J) array, on the flat J x J cell lanes: lane
    j1 J + j2 is cell (j1, j2) and holds x1[j1] and x2[j2].  The dead cell,
    last, is not written, so it keeps the 0 that out was made with.  The
    kernel takes the cell SNRs and the cell budgets in this layout."""
    J = x1.size + 1
    cells = out.reshape(2, J, J)  # a view: out is contiguous
    cells[0, :-1] = x1[:, None]
    cells[1, :, :-1] = x2


def _reduce(J: int, value: np.ndarray, slope1: np.ndarray, slope2: np.ndarray) -> tuple:
    """Mean rate and the gradient in the live-cell budgets c1 and c2,
    from the kernel's outputs on the J x J lanes.  Every cell has
    probability 1/J^2, and a live cell's budget enters only its row (or
    column) of the J x J cell rates, so the kernel's slopes give the
    gradient.  The sums call np.add.reduce itself, as ndarray.sum does
    through a Python wrapper, so they keep its summation order: pairwise
    over each row of slope1, row after row over the columns of slope2.
    A call at J = 8 takes about 6 us on a 2-core host, most of it in the
    three reductions."""
    cell_weight = 1.0 / J**2
    total = float(np.add.reduce(value)) * cell_weight
    g1 = np.add.reduce(slope1.reshape(J, J)[:-1], axis=1)
    g2 = np.add.reduce(slope2.reshape(J, J)[:, :-1], axis=0)
    g1 *= cell_weight
    g2 *= cell_weight
    return total, g1, g2


def _sum(values: list) -> float:
    """np.add.reduce of a list of floats, bit for bit.  NumPy adds fewer
    than eight entries left to right from 0.0, so a Python loop does the
    same without an array call; from eight on, NumPy sums pairwise."""
    if len(values) >= 8:
        return float(np.add.reduce(values))
    total = 0.0
    for v in values:
        total += v
    return total


def _project_budget(x: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {c >= 0, sum(c) <= budget}.

    The cells are uniform, so a live cell's spend is its budget over J and
    the set is {c >= 0, sum(c) <= J residual}.  The result is
    max(x - theta, 0) with theta >= 0 the root of the piecewise-linear
    spend curve theta -> sum(max(0, x - theta)).  Its breakpoints are the
    entries of x: with the k largest of them active, theta is
    (sum of those k - budget) / k, and the active set is the largest k whose
    smallest entry still exceeds that theta (Duchi et al., ICML 2008).
    There are at most J - 1 breakpoints, so a plain loop over Python
    floats, largest first, finds that k: its running sum is accumulated in
    order, as np.cumsum would.  The two sums over the entries in index
    order are _sum's, equal to ndarray.sum's; only the clipped start and
    the result are array calls.  The loop sorts the values themselves, and
    drops a NaN entry, from a failed kernel lane: np.argsort would sort it
    last, and from there it could only turn the running sum into NaN,
    which selects no k.  On a 2-core host a projection of 3 to 7 entries
    takes about 1 us inside the budget and 4 to 5 us on it.
    """
    c = np.maximum(x, 0.0)
    spend = _sum(c.tolist())
    if spend <= budget:
        return c
    xs = x.tolist()
    # largest breakpoint first; ties keep their order, as np.argsort does
    ordered = sorted(xs if spend == spend else [v for v in xs if v == v], reverse=True)
    total = 0.0
    found = None
    for k, v in enumerate(ordered, start=1):
        total += v
        theta = (total - budget) / k
        if v - theta > 0.0:
            found = theta
    if found is None:
        return np.zeros_like(x)
    active = [v for v in xs if v - found > 0.0]
    theta = (_sum(active) - budget) / len(active)
    return np.maximum(x - max(theta, 0.0), 0.0)


def _ascent(
    J: int, config: SystemConfig, settings: SolverSettings,
) -> Generator[tuple, tuple, QciAllocation]:
    """Split the post-header budgets across the J cells to maximize the
    mean rate.

    Projected gradient ascent on a concave objective: the exact gradient
    from the kernel's slopes, a Barzilai-Borwein trial step per relay
    (Barzilai and Borwein, IMA J. Numer. Anal. 8, 1988) backtracked along
    the projection arc until the Armijo condition holds, convergence when
    three consecutive accepted steps improve by less than abs_tol or no
    improving step exists.  Every accepted step raises the value, so the
    result is never below the start.

    A generator, driven by _lock_step: for each evaluation it needs it
    yields the kernel inputs (rho1, rho2, c1, c2) of its J x J cell lanes
    as the rows of one (4, J J) block, is sent the kernel's (value, slope1,
    slope2) on those lanes, and returns the allocation.  The block is the
    ascent's own: its SNR rows are written once, and its budget rows are
    rewritten for each evaluation, so a caller reads it before it sends
    the reply.  The cell SNRs are formed on the first step, so a bad J
    fails this ascent only.

    The ascent starts from each relay's one-relay water-filling split
    (Cover and Thomas, Elements of Information Theory, 9.4): c_i = max(0,
    log2 rho_i + mu), with mu spending the whole residual, which equalizes
    the one-relay slopes rho_i 2^-c_i / (1 + rho_i 2^-c_i) and costs no
    kernel call.
    """
    rho = cell_snrs(J, config)
    m = J - 1
    # the cell index, uniform over J cells, costs log2(J) header bits
    residual1, residual2 = (budget - math.log2(J) for budget in config.budgets)
    if residual1 < 0.0 or residual2 < 0.0:
        return QciAllocation(c=np.zeros((2, J)), lower_bound=0.0, iterations=0, feasible=False)

    # each live cell spends its budget over J: the relays' budget sets are
    # {c >= 0, sum(c) <= budget}
    budget1, budget2 = J * residual1, J * residual2
    # the dead cell's SNR is 0, as its budget is, so one layout serves both
    block = np.zeros((4, J * J))
    _lanes(rho[:m], rho[:m], block[:2])
    budget_lanes = block[2:]
    # log2 rho, lifted so that every cell holds at least budget / m,
    # overspends; the projection's shift theta is one water level, so the
    # projection is the water-filling split.
    log_rho = np.log2(rho[:m])
    lifted = log_rho - log_rho.min()
    c1, c2 = (_project_budget(lifted + budget / m, budget) for budget in (budget1, budget2))

    # Every evaluation also yields the gradient, so an accepted candidate
    # brings the next iteration's gradient along.
    _lanes(c1, c2, budget_lanes)
    reply = yield block
    best, g1, g2 = _reduce(J, *reply)
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
            s1, s2 = cand1 - c1, cand2 - c2
            # ndarray.dot is the BLAS dot that @ calls, at about half the
            # dispatch cost on J - 1 entries
            gap = float(g1.dot(s1) + g2.dot(s2))
            if gap <= 0.0:
                break
            _lanes(cand1, cand2, budget_lanes)
            reply = yield block
            cand_value, cand_g1, cand_g2 = _reduce(J, *reply)
            if cand_value >= best + _ARMIJO_SLOPE * gap:
                moved = True
                break
            scale *= 0.25
        if not moved:
            break  # no ascent direction survives projection: stationary
        # Barzilai-Borwein length s.s / (-s.y) per relay: the two relays'
        # slopes can differ by orders of magnitude, and one shared length
        # crawls on the flatter relay.  Where a relay's gradient did not
        # turn, its accepted step is doubled.  s1 and s2 are the accepted
        # step, as the Armijo gap read it.
        turn1 = -float(s1.dot(cand_g1 - g1))
        turn2 = -float(s2.dot(cand_g2 - g2))
        step1 = float(s1.dot(s1)) / turn1 if turn1 > 0.0 else 2.0 * scale * step1
        step2 = float(s2.dot(s2)) / turn2 if turn2 > 0.0 else 2.0 * scale * step2
        last_gain = cand_value - best
        c1, c2 = cand1, cand2
        best = cand_value
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

    c = np.zeros((2, J))
    c[0, :m], c[1, :m] = c1, c2
    return QciAllocation(c=c, lower_bound=best, iterations=iterations, feasible=True)


def _lock_step(participants: Sequence[Generator]) -> list:
    """Run the participants together: each yields the kernel's inputs
    (rho1, rho2, c1, c2) as the rows of one (4, n) block for each
    evaluation it needs, and each round concatenates every live
    participant's pending block into one kernel call and sends each its
    (value, slope1, slope2) on its own lanes.

    The participants are QCI ascents (_ascent), TCI's threshold grids
    (tci._grid, one evaluation) and a point's schemes (sweeps._participant).
    A participant leaves the batch when it returns, or when it raises; its
    exception then stands in its place in the result and the others go on.
    """
    outcomes: list = [None] * len(participants)
    requests: dict[int, np.ndarray] = {}

    def advance(k: int, reply) -> None:
        try:
            requests[k] = participants[k].send(reply)
        except StopIteration as stop:
            outcomes[k] = stop.value
        except Exception as error:  # noqa: BLE001 - fails this participant only
            outcomes[k] = error

    for k in range(len(participants)):
        advance(k, None)
    while requests:
        batch = list(requests.items())
        requests.clear()
        value, _, _, slope1, slope2 = _maxmin_batch(
            *np.concatenate([block for _, block in batch], axis=1)
        )
        start = 0
        for k, block in batch:
            stop = start + block.shape[1]
            advance(k, (value[start:stop], slope1[start:stop], slope2[start:stop]))
            start = stop
    return outcomes


def _solo(participant: Generator):
    """Run one participant through _lock_step alone: its result, or the
    exception that it raised, raised again."""
    (outcome,) = _lock_step([participant])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def qci_lower_bound(J: int, config: SystemConfig, settings: SolverSettings) -> QciAllocation:
    """The allocation of one cell count."""
    return _solo(_ascent(J, config, settings))
