"""Parameter sweeps, strategy surfaces, best responses and equilibrium checks.

All searches are exhaustive over explicit grids: the payoff landscape is
smooth but cheap to evaluate at 8x8, so certifiable enumeration beats clever
optimisation here.  Every function is deterministic.  :func:`sweep` takes
its grid and returns one row per point; the searches build their own grids
from a resolution per axis and return what ``qpd3`` prints.  Ties within
``TIE_TOL`` of a grid maximum are broken by one rule, :func:`first_max`.
Every game setting, the audited strategy profile included, is read from the
:class:`~qpd3.game.GameConfig` passed in.

A sweep point is one :func:`~qpd3.game.payoffs` call.  A search payoff is
the 4x4 form vec(u)† Q vec(u) in one player's unitary u
(:func:`deviation_payoffs`, Q from :func:`~qpd3.game.deviation_form`).
Surfaces make one call over their grid; best responses call it point by
point, which gives the bits of one call on the meshgrid.  The loop stays
while the benchmark checks each search against the slow oracle within a
deadline that a 100x faster search would overrun.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelParams
from .game import GameConfig, PLAYER_NAMES, deviation_form, payoffs, strategy_unitary

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


def _checked_grid(grid, name: str) -> tuple:
    if len(grid) == 0:
        raise ValueError(f"{name} grid must be nonempty")
    vals = tuple(float(x) for x in grid)
    for x in vals:
        if not (np.isfinite(x) and 0.0 <= x <= 1.0):
            raise ValueError(f"{name} grid value {x} outside [0.0, 1.0]")
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
    in [0, 1], substituted into both passages.  Each passage keeps its own
    value of the other channel parameter, and all other settings come from
    ``base``.
    """
    if variable not in ("p", "mu"):
        raise ValueError(f"unknown sweep variable {variable!r}")
    one, two = base.passage1, base.passage2
    rows = []
    for x in _checked_grid(grid, variable):
        if variable == "p":
            pass1, pass2 = ChannelParams(x, one.mu), ChannelParams(x, two.mu)
        else:
            pass1, pass2 = ChannelParams(one.p, x), ChannelParams(two.p, x)
        cfg = GameConfig(base.gamma, base.delta, pass1, pass2, base.strategies, base.payoffs)
        pay = payoffs(cfg)
        rows.append((x, pay[0], pay[1], pay[2]))
    return rows


def deviation_payoffs(form: np.ndarray, theta, alpha, beta) -> np.ndarray:
    """vec(u)† form vec(u) for u = strategy_unitary(theta, alpha, beta), broadcast like it.

    ``form`` is a :func:`~qpd3.game.deviation_form`; the result
    has the angles' broadcast shape, a numpy scalar for scalar angles.
    """
    u = strategy_unitary(theta, alpha, beta)
    v = u.reshape(u.shape[:-2] + (4,))
    return np.einsum("...x,xy,...y->...", v.conj(), form, v).real


def strategy_surface(base: GameConfig, resolution: int) -> tuple[tuple, tuple, np.ndarray]:
    """(alphas, thetas, values): Alice's payoff over her (alpha1, theta1) grid.

    The axes are ``resolution`` points of [-pi, pi] and of [0, pi] from
    :func:`grid_points`; beta1 is kept from ``base``.  ``values[i, j]`` is
    the payoff at (alphas[i], thetas[j]).
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    check_grid_size(resolution**2, "the surface")
    alphas = grid_points(-math.pi, math.pi, resolution)
    thetas = grid_points(0.0, math.pi, resolution)
    form = deviation_form(base, 0)
    a, t = np.meshgrid(alphas, thetas, indexing="ij")
    return alphas, thetas, deviation_payoffs(form, t, a, base.strategies[0].beta)


def first_max(values: np.ndarray) -> tuple[int, float]:
    """(index, best): the maximum of ``values`` and the flat index of its first tie.

    Exact ridges of tied maxima occur on these payoff grids, so every entry
    within TIE_TOL of the maximum counts as tied and the first in C order
    wins: order the axes of ``values`` by tie-break priority.
    """
    best = values.max()
    return int(np.flatnonzero(values >= best - TIE_TOL)[0]), float(best)


def best_response(cfg: GameConfig, idx: int, resolution: int = 25) -> dict:
    """Exhaustively search the (theta, alpha, beta) grid of the player in slot ``idx``.

    The claimed strategy is ``cfg.strategies[idx]``; the other two players
    keep theirs.  ``best`` is the lexicographically smallest (theta, alpha,
    beta) grid point within TIE_TOL of the grid maximum.  The keys are those
    ``qpd3 best-response`` prints, in its order.  The player's 4x4 form is
    built once and evaluated point by point (see the module docstring).
    """
    if resolution < 3:
        raise ValueError(f"resolution must be >= 3, got {resolution}")
    check_grid_size(resolution**3, "the best-response search")
    form = deviation_form(cfg, idx)
    thetas = np.linspace(0.0, math.pi, resolution)
    alphas = betas = np.linspace(-math.pi, math.pi, resolution)

    values = np.empty((resolution, resolution, resolution))
    for i, t in enumerate(thetas):
        for j, a in enumerate(alphas):
            for k, b in enumerate(betas):
                values[i, j, k] = deviation_payoffs(form, t, a, b)
    flat, best_val = first_max(values)
    i, j, k = np.unravel_index(flat, values.shape)

    claimed = cfg.strategies[idx]
    at_claimed = float(deviation_payoffs(form, claimed.theta, claimed.alpha, claimed.beta))
    return {
        "player": PLAYER_NAMES[idx],
        "grid_resolution": resolution,
        "best": [float(thetas[i]), float(alphas[j]), float(betas[k])],
        "best_payoff": best_val,
        "payoff_at_claimed": at_claimed,
        "gain_over_claimed": best_val - at_claimed,
    }


def nash_check(cfg: GameConfig, resolution: int = 25) -> dict:
    """The ``qpd3 nash-check`` record: equilibrium iff no grid gain exceeds NASH_GAIN_TOL."""
    results = [best_response(cfg, idx, resolution) for idx in range(3)]
    gains = [r["gain_over_claimed"] for r in results]
    return {
        "is_equilibrium": all(g <= NASH_GAIN_TOL for g in gains),
        "gains": gains,
        "gain_tolerance": NASH_GAIN_TOL,
        "best_responses": [r["best"] for r in results],
    }
