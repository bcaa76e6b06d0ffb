"""Tests for sweeps, surfaces, best responses and equilibrium checks."""

import dataclasses
import math

import numpy as np
import pytest

from qpd3 import presets
from qpd3.analysis import (
    best_response,
    first_max,
    grid_points,
    nash_check,
    player_index,
    strategy_surface,
    sweep,
)
from qpd3.game import COOPERATE, DEFECT, PreparedGame, StrategyParams

HPI = math.pi / 2


def test_player_index():
    assert player_index("alice") == 0
    assert player_index("Charlie") == 2
    assert player_index(1) == 1
    with pytest.raises(ValueError):
        player_index("dave")
    with pytest.raises(ValueError):
        player_index(3)


def test_sweep_and_surface_argument_checks():
    base = presets.sweep_config(0.0, 0.0)
    with pytest.raises(ValueError, match="nonempty"):
        sweep(base, "p", ())
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(base, "p", (0.5, 0.2))
    with pytest.raises(ValueError, match="outside"):
        sweep(base, "p", (0.0, 1.2))
    with pytest.raises(ValueError, match="unknown sweep variable"):
        sweep(base, "q", (0.0, 1.0))
    with pytest.raises(ValueError, match="theta1 grid must be nonempty"):
        strategy_surface(base, (0.0,), ())
    with pytest.raises(ValueError, match="alpha1 grid value"):
        strategy_surface(base, (0.0, 4.0), (0.0,))
    with pytest.raises(ValueError, match="over the limit"):
        strategy_surface(base, grid_points(-math.pi, math.pi, 1001), grid_points(0, math.pi, 1000))


def test_grid_points_contract():
    assert grid_points(0, 1, 2) == (0.0, 1.0)
    assert len(grid_points(0, 1, 21)) == 21
    with pytest.raises(ValueError):
        grid_points(0, 1, 0)
    for start, stop in ((0.0, math.inf), (math.nan, 1.0), (1e308, -1e308)):
        with pytest.raises(ValueError, match="finite width"):
            grid_points(start, stop, 3)


def test_sweep_grid_contract():
    rows = sweep(presets.sweep_config(0.0, 0.0), "p", grid_points(0, 1, 2))
    assert [r[0] for r in rows] == [0.0, 1.0]


def test_sweep_quantum_player_dominates():
    grid = grid_points(0, 1, 21)
    for mu in (0.0, 1.0):
        rows = sweep(presets.sweep_config(0.0, mu), "p", grid)
        assert len(rows) == 21
        for _, a, b, c in rows:
            assert a == pytest.approx(b, abs=1e-12)
            assert c >= a - 1e-12


def test_sweep_noiseless_point_is_memory_independent():
    grid = grid_points(0, 1, 5)
    rows0 = sweep(presets.sweep_config(0.0, 0.0), "p", grid)
    rows1 = sweep(presets.sweep_config(0.0, 1.0), "p", grid)
    assert rows0[0][1:] == pytest.approx(rows1[0][1:], abs=1e-12)


def test_sweep_memory_monotonicity():
    grid = grid_points(0, 1, 21)
    for p in (0.3, 0.7):
        rows = sweep(presets.sweep_config(p, 0.0), "mu", grid)
        for col in (1, 2, 3):
            vals = [r[col] for r in rows]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


def test_sweep_determinism():
    args = (presets.sweep_config(0.0, 0.5), "p", grid_points(0, 1, 7))
    assert sweep(*args) == sweep(*args)


def test_surface_grid_contract_and_order():
    alphas, thetas = (-1.0, 0.5), (0.2, 1.0, 2.5)
    cfg = presets.surface_config(0.3, 0.3)
    values = strategy_surface(cfg, alphas, thetas)
    assert values.shape == (2, 3)
    # entry [i, j] is Alice's payoff at (alphas[i], thetas[j])
    prepared = PreparedGame(cfg)
    for i, a in enumerate(alphas):
        for j, t in enumerate(thetas):
            alice = StrategyParams(t, a, cfg.strategies[0].beta)
            want = prepared.payoffs((alice,) + cfg.strategies[1:])[0]
            assert values[i, j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p,mu", [(0.3, 0.3), (0.7, 0.7)])
def test_surface_claimed_point_is_maximal(p, mu):
    alphas = grid_points(-math.pi, math.pi, 41)
    thetas = grid_points(0, math.pi, 41)
    values = strategy_surface(presets.surface_config(p, mu), alphas, thetas)
    i, j = 30, 20  # the grid points at alpha1 = theta1 = pi/2
    assert alphas[i] == pytest.approx(HPI, abs=1e-12) and thetas[j] == pytest.approx(HPI, abs=1e-12)
    assert values[i, j] >= values.max() - 1e-12


def test_surface_argmax_tiebreak_deterministic():
    alphas = grid_points(-math.pi, math.pi, 9)
    thetas = grid_points(0, math.pi, 9)
    values = strategy_surface(presets.surface_config(0.3, 0.3), alphas, thetas)
    flat, v = first_max(values.T)
    assert v == values.max()
    j, i = np.unravel_index(flat, values.T.shape)
    # smallest theta, then smallest alpha, among the tied maxima
    tied = [(t, a) for (ia, a) in enumerate(alphas) for (it, t) in enumerate(thetas)
            if values[ia, it] >= v - 1e-12]
    assert len(tied) > 1
    assert (thetas[j], alphas[i]) == min(tied)


def test_best_response_noiseless_claim_is_grid_optimal():
    cfg = presets.surface_config(0.0, 0.0)
    claimed = StrategyParams(HPI, HPI, 0.0)
    res = best_response(cfg, "alice", claimed, resolution=25)
    assert res.gain_over_claimed <= 1e-9
    assert res.best_payoff >= res.payoff_at_claimed - 1e-12


def test_best_response_claim_stays_optimal_under_noise():
    cfg = presets.surface_config(0.7, 1.0)
    claimed = StrategyParams(HPI, HPI, 0.0)
    res = best_response(cfg, "alice", claimed, resolution=25)
    assert res.gain_over_claimed <= 1e-9


def test_best_response_degenerate_grid():
    cfg = presets.surface_config(0.2, 0.8)
    res = best_response(cfg, "bob", COOPERATE, resolution=3)
    axis_theta = grid_points(0, math.pi, 3)
    axis_angle = grid_points(-math.pi, math.pi, 3)
    assert res.best.theta in axis_theta
    assert res.best.alpha in axis_angle
    assert res.best.beta in axis_angle
    assert res.grid_resolution == 3
    with pytest.raises(ValueError):
        best_response(cfg, "bob", COOPERATE, resolution=2)


def test_best_response_refinement_never_decreases():
    cfg = presets.surface_config(0.4, 0.2)
    coarse = best_response(cfg, "charlie", COOPERATE, resolution=5)
    fine = best_response(cfg, "charlie", COOPERATE, resolution=9)
    assert fine.best_payoff >= coarse.best_payoff - 1e-12


def test_classical_dominance_of_defection():
    # each player's D payoff beats their C payoff against every opponent
    # combination, per the table
    cfg = presets.classical_config((COOPERATE,) * 3)
    for player in range(3):
        for others in ((COOPERATE, COOPERATE), (COOPERATE, DEFECT),
                       (DEFECT, COOPERATE), (DEFECT, DEFECT)):
            profile = list(others)
            profile.insert(player, COOPERATE)
            base = dataclasses.replace(cfg, strategies=tuple(profile))
            res = best_response(base, player, COOPERATE, resolution=3)
            assert res.best.theta == pytest.approx(math.pi)
            assert res.gain_over_claimed > 1.0 - 1e-12


def test_sweep_payoffs_non_increasing_in_p_without_memory():
    grid = grid_points(0, 1, 21)
    rows = sweep(presets.sweep_config(0.0, 0.0), "p", grid)
    for col in (1, 2, 3):
        vals = [r[col] for r in rows]
        assert all(b - a <= 1e-12 for a, b in zip(vals, vals[1:]))


def test_nash_check_classical_limit():
    cfg = presets.classical_config((COOPERATE,) * 3)
    ddd = nash_check(cfg, (DEFECT,) * 3, resolution=9)
    assert ddd.is_equilibrium
    assert all(g <= 1e-9 for g in ddd.gains)

    ccc = nash_check(cfg, (COOPERATE,) * 3, resolution=9)
    assert not ccc.is_equilibrium
    assert all(g == pytest.approx(2.0, abs=1e-12) for g in ccc.gains)


def test_nash_check_reports_gains_for_quantum_profile():
    cfg = presets.sweep_config(0.0, 0.0)
    profile = (StrategyParams(HPI, HPI, 0.0),) * 3
    res = nash_check(cfg, profile, resolution=9)
    assert len(res.gains) == 3
    assert all(np.isfinite(res.gains))
