"""Parameter sweeps, strategy surfaces, best responses and equilibrium checks.

All searches are exhaustive over explicit grids: the payoff landscape is
smooth but cheap to evaluate at 8x8, so certifiable enumeration beats clever
optimisation here.  Every function is deterministic; results are assembled in
grid order regardless of how the evaluations might be scheduled.
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


@dataclass(frozen=True)
class SweepSpec:
    """A one-variable sweep ('p' or 'mu') or an (alpha1, theta1) surface scan.

    For 'p'/'mu' sweeps ``grid`` is a strictly increasing sequence in [0, 1]
    substituted into both channel passages.  For the surface, ``grid`` is a
    pair (alpha1_grid, theta1_grid) with alpha1 in [-pi, pi] and theta1 in
    [0, pi].
    """

    variable: str
    grid: tuple
    base: GameConfig

    def __post_init__(self):
        if self.variable not in ("p", "mu", "alpha1_theta1_surface"):
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if self.variable == "alpha1_theta1_surface":
            if len(self.grid) != 2:
                raise ValueError("surface scans need a pair of grids (alpha1, theta1)")
            alphas = _checked_grid(tuple(self.grid[0]), "alpha1", -math.pi, math.pi)
            thetas = _checked_grid(tuple(self.grid[1]), "theta1", 0.0, math.pi)
            object.__setattr__(self, "grid", (alphas, thetas))
        else:
            object.__setattr__(
                self, "grid", _checked_grid(tuple(self.grid), self.variable, 0.0, 1.0)
            )


def _checked_grid(grid: tuple, name: str, lo: float, hi: float) -> tuple:
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
    return tuple(np.linspace(start, stop, count))


def sweep(spec: SweepSpec) -> list[tuple[float, float, float, float]]:
    """Rows (x, payoff_A, payoff_B, payoff_C), one per grid point.

    The swept variable is substituted into both passages (p1 = p2 or
    mu1 = mu2); the non-swept channel parameter is taken from
    ``spec.base.passage1`` and all other settings from ``spec.base``.
    """
    if spec.variable not in ("p", "mu"):
        raise ValueError("sweep handles 'p' and 'mu'; use strategy_surface for surfaces")
    base = spec.base
    rows = []
    for x in spec.grid:
        p, mu = (x, base.passage1.mu) if spec.variable == "p" else (base.passage1.p, x)
        params = ChannelParams(p=p, mu=mu)
        cfg = GameConfig(base.gamma, base.delta, params, params, base.strategies, base.payoffs)
        pay = PreparedGame(cfg).payoffs(cfg.strategies)
        rows.append((float(x), pay[0], pay[1], pay[2]))
    return rows


def strategy_surface(spec: SweepSpec) -> list[tuple[float, float, float]]:
    """Alice's payoff over an (alpha1, theta1) grid, rows in row-major order."""
    if spec.variable != "alpha1_theta1_surface":
        raise ValueError("strategy_surface needs an alpha1_theta1_surface spec")
    alphas, thetas = spec.grid
    check_grid_size(len(alphas) * len(thetas), "the surface")
    prepared = PreparedGame(spec.base)
    form = prepared.deviation_form(spec.base.strategies, 0, 0)
    a, t = np.meshgrid(alphas, thetas, indexing="ij")
    u = strategy_unitary(t, a, spec.base.strategies[0].beta).reshape(-1, 4)
    values = np.einsum("nx,xy,ny->n", u.conj(), form, u).real
    return [(float(x), float(y), float(v)) for x, y, v in zip(a.ravel(), t.ravel(), values)]


def surface_argmax(rows) -> tuple[float, float, float]:
    """(alpha1, theta1, value) of the maximising grid point.

    Exact ridges of tied maxima occur on these surfaces, so ties within
    ``TIE_TOL`` are broken deterministically: smallest theta1, then smallest
    alpha1.
    """
    best_val = max(r[2] for r in rows)
    tied = [r for r in rows if r[2] >= best_val - TIE_TOL]
    tied.sort(key=lambda r: (r[1], r[0]))
    a, t, _ = tied[0]
    return (a, t, best_val)


def is_surface_maximizer(rows, alpha1: float, theta1: float) -> bool:
    """True iff the given on-grid point attains the grid maximum within ``TIE_TOL``."""
    best_val = max(r[2] for r in rows)
    for a, t, v in rows:
        if abs(a - alpha1) <= 1e-12 and abs(t - theta1) <= 1e-12:
            return v >= best_val - TIE_TOL
    raise ValueError(f"({alpha1}, {theta1}) is not a grid point of this surface")


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
    best_val = values.max()
    i, j, k = np.unravel_index(np.flatnonzero(values >= best_val - TIE_TOL)[0], values.shape)
    best = StrategyParams(thetas[i], alphas[j], betas[k])

    at_claimed = payoff_with(claimed)
    return BestResponseResult(
        player=PLAYER_NAMES[idx],
        grid_resolution=resolution,
        best=best,
        best_payoff=float(best_val),
        payoff_at_claimed=float(at_claimed),
        gain_over_claimed=float(best_val - at_claimed),
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
