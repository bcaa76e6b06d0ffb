"""Parameter sweeps, strategy surfaces, best responses and equilibrium checks.

All searches are exhaustive over explicit grids: the payoff landscape is
smooth but cheap to evaluate at 8x8, so certifiable enumeration beats clever
optimisation here.  Every function is deterministic and is called directly
with its grids: :func:`sweep` returns one row per grid point,
:func:`strategy_surface` one payoff array over both grids.  Ties within
``TIE_TOL`` of a grid maximum are broken by one rule, :func:`first_max`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams
from .game import GameConfig, PLAYER_NAMES, PreparedGame, StrategyParams, strategy_unitary

#: Gain threshold for equilibrium checks: far above 1e-12 arithmetic noise,
#: far below any real payoff gradient at the grid scales used here.
NASH_GAIN_TOL = 1e-9

#: Tolerance for treating grid payoffs as tied.
TIE_TOL = 1e-12

#: Most grid points one request may evaluate; larger grids are refused before
#: anything is allocated.
MAX_GRID_POINTS = 10**6


def check_grid_size(points: int, what: str) -> None:
    """Raise ValueError if ``points`` exceeds MAX_GRID_POINTS."""
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{what} has {points} grid points, over the limit of {MAX_GRID_POINTS}")


def player_index(player) -> int:
    """Map 'alice'/'bob'/'charlie' (or 0/1/2) to a slot index."""
    if isinstance(player, int):
        if player not in (0, 1, 2):
            raise ValueError(f"player index must be 0, 1 or 2, got {player}")
        return player
    name = str(player).lower()
    if name not in PLAYER_NAMES:
        raise ValueError(f"player must be one of {PLAYER_NAMES}, got {player!r}")
    return PLAYER_NAMES.index(name)


def _checked_grid(grid, name: str, lo: float, hi: float) -> tuple:
    if len(grid) == 0:
        raise ValueError(f"{name} grid must be nonempty")
    vals = tuple(float(x) for x in grid)
    for x in vals:
        if not (np.isfinite(x) and lo <= x <= hi):
            raise ValueError(f"{name} grid value {x} outside [{lo}, {hi}]")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{name} grid must be strictly increasing")
    return vals


def grid_points(start: float, stop: float, count: int) -> tuple:
    """Evenly spaced grid, endpoints included (count >= 2) or just start (count 1)."""
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    check_grid_size(count, "the grid")
    if count == 1:
        return (float(start),)
    if not math.isfinite(float(stop) - float(start)):
        raise ValueError(f"grid from {start} to {stop} does not have a finite width")
    return tuple(np.linspace(start, stop, count))


def sweep(base: GameConfig, variable: str, grid) -> list[tuple[float, float, float, float]]:
    """Rows (x, payoff_A, payoff_B, payoff_C), one per point of ``grid``.

    ``variable`` is 'p' or 'mu' and ``grid`` a strictly increasing sequence
    in [0, 1], substituted into both passages (p1 = p2 or mu1 = mu2); the
    non-swept channel parameter is taken from ``base.passage1`` and all
    other settings from ``base``.
    """
    if variable not in ("p", "mu"):
        raise ValueError(f"unknown sweep variable {variable!r}")
    rows = []
    for x in _checked_grid(grid, variable, 0.0, 1.0):
        p, mu = (x, base.passage1.mu) if variable == "p" else (base.passage1.p, x)
        params = ChannelParams(p=p, mu=mu)
        cfg = GameConfig(base.gamma, base.delta, params, params, base.strategies, base.payoffs)
        pay = PreparedGame(cfg).payoffs(cfg.strategies)
        rows.append((x, pay[0], pay[1], pay[2]))
    return rows


def strategy_surface(base: GameConfig, alphas, thetas) -> np.ndarray:
    """Alice's payoff over an (alpha1, theta1) grid, beta1 kept from ``base``.

    ``alphas`` lie in [-pi, pi] and ``thetas`` in [0, pi], each strictly
    increasing.  Entry [i, j] of the returned (len(alphas), len(thetas))
    array is the payoff at (alphas[i], thetas[j]).
    """
    check_grid_size(len(alphas) * len(thetas), "the surface")
    alphas = _checked_grid(alphas, "alpha1", -math.pi, math.pi)
    thetas = _checked_grid(thetas, "theta1", 0.0, math.pi)
    form = PreparedGame(base).deviation_form(base.strategies, 0, 0)
    a, t = np.meshgrid(alphas, thetas, indexing="ij")
    u = strategy_unitary(t, a, base.strategies[0].beta).reshape(-1, 4)
    return np.einsum("nx,xy,ny->n", u.conj(), form, u).real.reshape(a.shape)


def first_max(values: np.ndarray) -> tuple[int, float]:
    """(index, best): the maximum of ``values`` and the flat index of its first tie.

    Exact ridges of tied maxima occur on these payoff grids, so every entry
    within TIE_TOL of the maximum counts as tied and the first in C order
    wins: order the axes of ``values`` by tie-break priority.
    """
    best = values.max()
    return int(np.flatnonzero(values >= best - TIE_TOL)[0]), float(best)


@dataclass(frozen=True)
class BestResponseResult:
    """Outcome of an exhaustive one-player grid search."""

    player: str
    grid_resolution: int
    best: StrategyParams
    best_payoff: float
    payoff_at_claimed: float
    gain_over_claimed: float


def best_response(
    cfg: GameConfig,
    player,
    claimed: StrategyParams,
    resolution: int = 25,
) -> BestResponseResult:
    """Exhaustively search one player's (theta, alpha, beta) grid.

    The other two players keep their strategies from ``cfg``.  The reported
    best point is the lexicographically smallest (theta, alpha, beta) among
    grid points within TIE_TOL of the exact grid maximum.
    """
    if resolution < 3:
        raise ValueError(f"resolution must be >= 3, got {resolution}")
    check_grid_size(resolution**3, "the best-response search")
    idx = player_index(player)
    prepared = PreparedGame(cfg)

    def payoff_with(s: StrategyParams) -> float:
        strategies = list(cfg.strategies)
        strategies[idx] = s
        return prepared.payoffs(tuple(strategies))[idx]

    thetas = np.linspace(0.0, math.pi, resolution)
    alphas = betas = np.linspace(-math.pi, math.pi, resolution)

    values = np.empty((resolution, resolution, resolution))
    for i, t in enumerate(thetas):
        for j, a in enumerate(alphas):
            for k, b in enumerate(betas):
                values[i, j, k] = payoff_with(StrategyParams(t, a, b))
    flat, best_val = first_max(values)
    i, j, k = np.unravel_index(flat, values.shape)
    best = StrategyParams(thetas[i], alphas[j], betas[k])

    at_claimed = payoff_with(claimed)
    return BestResponseResult(
        player=PLAYER_NAMES[idx],
        grid_resolution=resolution,
        best=best,
        best_payoff=best_val,
        payoff_at_claimed=at_claimed,
        gain_over_claimed=best_val - at_claimed,
    )


@dataclass(frozen=True)
class NashCheckResult:
    """Unilateral-deviation audit of a strategy profile."""

    is_equilibrium: bool
    gains: tuple[float, float, float]
    best_responses: tuple[StrategyParams, StrategyParams, StrategyParams]
    gain_tolerance: float = NASH_GAIN_TOL


def nash_check(cfg: GameConfig, profile, resolution: int = 25) -> NashCheckResult:
    """True iff no player's grid best response beats the profile by > 1e-9."""
    profile = tuple(profile)
    base = replace(cfg, strategies=profile)
    gains = []
    bests = []
    for idx in range(3):
        res = best_response(base, idx, profile[idx], resolution)
        gains.append(res.gain_over_claimed)
        bests.append(res.best)
    return NashCheckResult(
        is_equilibrium=all(g <= NASH_GAIN_TOL for g in gains),
        gains=tuple(gains),
        best_responses=tuple(bests),
    )
