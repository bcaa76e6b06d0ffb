"""Parameter sweeps, strategy surfaces, best responses and equilibrium checks.

Searches are exact or grid.  The exact search (:func:`exact_best_response`)
maximises one player's payoff over all of SU(2) with one 4x4 eigh, so its
answer is the true best response, not a grid's.  The grid searches are
exhaustive over explicit grids, deterministic, and break ties within
``TIE_TOL`` of a grid maximum by one rule, :func:`first_max`.  :func:`sweep`
takes its grid and returns one row per point; the other searches build
their grids from a resolution per axis and return what ``qpd3`` prints.
Every game setting, the audited strategy profile included, is read from the
:class:`~qpd3.game.GameConfig` passed in.

A sweep point is one :func:`~qpd3.game.payoffs` call.  A search payoff is
the 4x4 form vec(u)† Q vec(u) in one player's unitary u
(:func:`deviation_payoffs`, Q from :func:`~qpd3.game.deviation_form`).
Surfaces make one call over their grid; best responses call it point by
point, which gives the bits of one call on the meshgrid.  The loop stays
until the benchmark runs a fixed number of units: it checks each search
against the slow oracle within a deadline that a 100x faster search would
overrun.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

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

#: vec(u) = _SU2_BASIS @ q for u = [[a, b], [-b*, a*]] in SU(2), vec(u) row-major
#: and q = (Re a, Im a, Re b, Im b) a unit real 4-vector.
_SU2_BASIS = np.array([[1, 1j, 0, 0], [0, 0, 1, 1j], [0, 0, -1, 1j], [1, -1j, 0, 0]])


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


def noise_coefficients(cfg: GameConfig) -> np.ndarray:
    """The (4, 3) rows a, b, c, d of payoff = a + b m1 + c m2 + d m1 m2, one column per player.

    m1, m2 are the passages' mu_p_factor, the noise's one way into a payoff.  Four
    :func:`~qpd3.game.payoffs` calls give them, at p = 1 (m = 0) and p = 0 (m = 1).
    """
    off, on = ChannelParams(1.0, 0.0), ChannelParams(0.0, 0.0)
    p00, p10, p01, p11 = (np.array(payoffs(replace(cfg, passage1=one, passage2=two)))
                          for one, two in ((off, off), (on, off), (off, on), (on, on)))
    return np.array([p00, p10 - p00, p01 - p00, p11 - p10 - p01 + p00])


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
    return alphas, thetas, deviation_payoffs(form, t, a, base.strategies[0, 2])


def first_max(values: np.ndarray) -> tuple[int, float]:
    """(index, best): the maximum of ``values`` and the flat index of its first tie.

    Exact ridges of tied maxima occur on these payoff grids, so every entry
    within TIE_TOL of the maximum counts as tied and the first in C order
    wins: order the axes of ``values`` by tie-break priority.
    """
    best = values.max()
    return int(np.flatnonzero(values >= best - TIE_TOL)[0]), float(best)


def exact_best_response(cfg: GameConfig, idx: int, form: np.ndarray | None = None,
                        beta_zero: bool = False) -> dict:
    """The best response of the player in slot ``idx`` over all of SU(2), by one 4x4 eigh.

    With vec(u) = L q (``_SU2_BASIS``), the payoff is q^T S q for the real
    symmetric S = Re(L† Q L), so the best payoff ``exact_payoff`` is
    lambda_max(S), attained at its eigenvector q = (Re a, Im a, Re b, Im b):
    ``exact_best`` is theta = 2 atan2(|b|, |a|), alpha = arg a and
    beta = arg(b / i), with 0 for the angle that is free at theta = 0 (beta)
    or theta = pi (alpha).  ``exact_gain`` is that payoff minus the payoff at
    ``cfg.strategies[idx]``.  ``eigen_gap`` is lambda_max minus the next
    eigenvalue; where it is 0 the best response is not unique and
    ``exact_best`` is one of them.  ``form`` is ``deviation_form(cfg, idx)``,
    built here unless the caller has it.  With ``beta_zero`` the search is over
    the beta = 0 plane that :func:`strategy_surface` scans, where Re b = 0 and
    Im b >= 0, half a sphere in coordinates (0, 1, 3); as q and -q pay the same,
    the best payoff is lambda_max of S's 3x3 block there (eigenvector: Im b >= 0).
    """
    if form is None:
        form = deviation_form(cfg, idx)
    coords = [0, 1, 3] if beta_zero else slice(None)
    s = (_SU2_BASIS.conj().T @ form @ _SU2_BASIS).real
    eigvals, eigvecs = np.linalg.eigh(s[coords][:, coords])
    q = np.insert(eigvecs[:, -1], 2, 0.0) if beta_zero else eigvecs[:, -1]
    # q and -q give the same payoff; on the plane the sign with Im b >= 0
    q = q * np.sign(q[3] if beta_zero and q[3] else q[np.argmax(np.abs(q))])
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    angles = (2 * math.atan2(abs(b), abs(a)),
              cmath.phase(a) if a else 0.0,
              cmath.phase(b / 1j) if b else 0.0)
    best = float(eigvals[-1])
    return {
        "exact_best": [x + 0.0 for x in angles],  # + 0.0 prints -0.0 as 0.0
        "exact_payoff": best,
        "exact_gain": best - float(deviation_payoffs(form, *cfg.strategies[idx])),
        "eigen_gap": float(eigvals[-1] - eigvals[-2]),
    }


def best_response(cfg: GameConfig, idx: int, resolution: int = 25) -> dict:
    """Exhaustively search the (theta, alpha, beta) grid of the player in slot ``idx``.

    The claimed strategy is ``cfg.strategies[idx]``; the other two players
    keep theirs.  ``best`` is the lexicographically smallest (theta, alpha,
    beta) grid point within TIE_TOL of the grid maximum.  The keys are those
    ``qpd3 best-response`` prints, in its order: the grid fields, then the
    ``exact_*`` fields and ``eigen_gap`` of :func:`exact_best_response` on the
    same 4x4 form.  The form is built once and evaluated point by point (see
    the module docstring).
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

    at_claimed = float(deviation_payoffs(form, *cfg.strategies[idx]))
    return {
        "player": PLAYER_NAMES[idx],
        "grid_resolution": resolution,
        "best": [float(thetas[i]), float(alphas[j]), float(betas[k])],
        "best_payoff": best_val,
        "payoff_at_claimed": at_claimed,
        "gain_over_claimed": best_val - at_claimed,
        **exact_best_response(cfg, idx, form),
    }


def nash_check(cfg: GameConfig, resolution: int = 25) -> dict:
    """The ``qpd3 nash-check`` record: equilibrium iff no grid gain exceeds NASH_GAIN_TOL.

    ``exact_gains`` are the players' gains over all of SU(2), from the same
    searches (see :func:`exact_best_response`).
    """
    results = [best_response(cfg, idx, resolution) for idx in range(3)]
    gains = [r["gain_over_claimed"] for r in results]
    return {
        "is_equilibrium": all(g <= NASH_GAIN_TOL for g in gains),
        "gains": gains,
        "gain_tolerance": NASH_GAIN_TOL,
        "best_responses": [r["best"] for r in results],
        "exact_gains": [r["exact_gain"] for r in results],
    }
